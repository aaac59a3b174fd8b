"""Transfer operators, invariant densities, and the Ulam oracle.

``apply_L`` is the Perron-Frobenius operator of the two-branch map,

    L f(x) = f(g(x)) g'(x) + f((x+1)/2) / 2,

``apply_N`` its left-branch part, ``apply_M`` the parameter derivative
d/da L = -(X * N f)' in Leibniz form, and ``apply_d2L`` the second
parameter derivative assembled from its seven Leibniz terms (the exact
nodewise sum of ``seven_term_decomposition``).  The closed-form fields
X, X', X'', d_a X and d_a X' they use are listed in ``_FIELDS``, and
``_field`` evaluates one of them at the nodes once per (alpha, mesh), in
``Mesh.cached``, so a process computes only the fields it reads.

``_power_iterate`` is the one stationary-vector loop (renormalized power
iteration, L1 successive-difference stop).  ``compute_density`` runs it
on L^k 1 through ``_step``; convergence is polynomial in k for a > 0, so
the record carries a ``converged`` flag.  ``build_ulam`` assembles the
row-stochastic Ulam matrix from exact branchwise preimage intersections,
an independent discretization of the same operator, and
``ulam_stationary`` runs the same loop on it.

``_pullback`` is the one pullback kernel, called by ``apply_L``,
``apply_N``, ``apply_preimage_sum`` and ``jet_apply``: for f = x^(-s) u it
reads [u; PCHIP slopes] at g(x_i) and (x_i + 1)/2 through CSR matrices
P_g, P_r (n x 2n, one ``Mesh.cached`` entry per alpha beside g and its
x-derivatives) and applies the ratios (x/g)^s, (x/r)^s (cached per
(alpha, s)).  ``_step``, u -> L(x^(-s) u) or A on raw nodal arrays with a
reused [u; d] buffer, is the step of every L^k loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .maps import (
    MapParams,
    X,
    X_prime,
    X_double_prime,
    _g_chain,
    branch_inverse,
    dalpha_X,
    dalpha_X_prime,
)
from .grid import (
    GridFunction,
    Mesh,
    differentiate,
    evaluate,
    _frozen,
    hermite_stack,
    hermite_weights,
    integrate,
    integrate_to,
)

__all__ = [
    "ConvergenceError",
    "DensityRecord",
    "UlamOperator",
    "Jet",
    "jet_one",
    "jet_apply",
    "jet_from_density",
    "apply_L",
    "apply_N",
    "apply_preimage_sum",
    "apply_M",
    "apply_d2L",
    "seven_term_decomposition",
    "compute_density",
    "default_max_iter",
    "build_ulam",
    "ulam_stationary",
    "ulam_mean",
    "ulam_l1_distance",
]


class ConvergenceError(RuntimeError):
    """Iteration failed to reach the requested tolerance."""


@dataclass
class DensityRecord:
    """Converged (or honestly flagged) invariant density.

    The density is stored as x^(-alpha) * u(x); ``residual`` is the L1
    distance between the last two normalized iterates and ``normalization``
    the quadrature integral after the final renormalization.
    ``converged`` is derived from ``residual`` and ``tol``, and
    ``require_converged()`` is the one gate for every computation that
    needs the invariant density.
    """

    params: MapParams
    density: GridFunction
    iterations: int
    residual: float
    normalization: float
    tol: float

    @property
    def converged(self) -> bool:
        return self.residual <= self.tol

    def require_converged(self) -> "DensityRecord":
        """This record, or ``ConvergenceError`` if it did not converge."""
        if not self.converged:
            raise ConvergenceError(
                f"density at alpha={self.params.alpha:g} not converged "
                f"(residual {self.residual:.3e} > tol {self.tol:.1e})"
            )
        return self

    def envelope_band(self, x_lo: float = 0.0) -> tuple[float, float]:
        """Fitted [c1, c2] with c1 <= rho(x) x^alpha <= c2 on nodes >= x_lo."""
        mask = self.density.mesh.nodes >= x_lo
        vals = self.density.values[mask]
        return float(np.min(vals)), float(np.max(vals))


def _pullback_data(p: MapParams, mesh: Mesh) -> dict:
    """Pullback data of both branches on a fixed mesh, built once per alpha.

    ``g`` holds g and its first four x-derivatives at the nodes, ``Pg`` and
    ``Pr`` the PCHIP interpolation matrices (``hermite_weights``) of the
    pullback points g(x) and r(x) = (x+1)/2.  The entry lives in the mesh's
    cache, so it is freed with the mesh.
    """

    def build():
        g = _frozen(*_g_chain(p, mesh.nodes, 4))
        return {"g": g, "Pg": hermite_weights(mesh, g[0]),
                "Pr": hermite_weights(mesh, 0.5 * (mesh.nodes + 1.0))}

    return mesh.cached(("pullbacks", p.alpha), build)


def _ratios(p: MapParams, mesh: Mesh, s: float):
    """Singular-factor ratios (x/g)^s and (x/r)^s at the nodes, once per (alpha, s)."""

    def build():
        x, g = mesh.nodes, _pullback_data(p, mesh)["g"][0]
        lr_g = np.log(x) - np.log(g)  # log(x / g(x)), stable for tiny x
        lr_r = np.log(x) - np.log(0.5 * (x + 1.0))
        return _frozen(np.exp(s * lr_g), np.exp(s * lr_r))

    return mesh.cached(("ratios", p.alpha, s), build)


def _pullback(p: MapParams, mesh: Mesh, s: float, ud: np.ndarray, affine: bool = True):
    """The one pullback kernel: for f = x^(-s) u with ud = [u; d], the branch
    reads x^s f(g(x)) = (x/g)^s u(g(x)) and x^s f(r(x)) at the nodes, as
    fresh arrays (the second is None unless ``affine``)."""
    pb, (eg, er) = _pullback_data(p, mesh), _ratios(p, mesh, s)
    return (pb["Pg"] @ ud) * eg, (pb["Pr"] @ ud) * er if affine else None


def _step(p: MapParams, mesh: Mesh, s: float, preimage_sum: bool = False):
    """The raw-array step of every L^k loop: nodal u -> the u of L(x^(-s) u),
    g' w_g + w_r / 2, or of A(x^(-s) u) = w_g + w_r with ``preimage_sum``.
    One [u; d] buffer serves every call; each call returns a fresh array."""
    ud = np.empty(2 * mesh.size)
    cg, cr = (1.0, 1.0) if preimage_sum else (_pullback_data(p, mesh)["g"][1], 0.5)

    def step(u):
        wg, wr = _pullback(p, mesh, s, hermite_stack(mesh, u, ud))
        wg *= cg
        wr *= cr
        wg += wr
        return wg

    return step


def apply_N(p: MapParams, f: GridFunction) -> GridFunction:
    """Left-branch transfer operator: N f(x) = g'(x) f(g(x))."""
    wg, _ = _pullback(p, f.mesh, f.s, hermite_stack(f.mesh, f.values), affine=False)
    wg *= _pullback_data(p, f.mesh)["g"][1]
    return GridFunction(f.mesh, wg, f.s)


def apply_L(p: MapParams, f: GridFunction) -> GridFunction:
    """Full transfer operator; equals apply_N plus the affine-branch term."""
    return GridFunction(f.mesh, _step(p, f.mesh, f.s)(f.values), f.s)


def apply_preimage_sum(p: MapParams, f: GridFunction) -> GridFunction:
    """Unweighted preimage sum (A f)(x) = f(g(x)) + f((x+1)/2).

    This is the transfer operator without the 1/T' weights (A 1 = 2).  It
    arises from the substitution y = T^k x in pulled-back integrals:
    int psi(T^k x) (T^k)'(x) W(x) dx = int psi * A^k W dx.  Only exponent-0
    grid functions are supported (the use case is smooth W = X * N rho).
    """
    if f.s != 0.0:
        raise ValueError("apply_preimage_sum: requires singular exponent 0")
    return GridFunction(f.mesh, _step(p, f.mesh, 0.0, preimage_sum=True)(f.values), 0.0)


_FIELDS = {"X": X, "X_prime": X_prime, "X_double_prime": X_double_prime,
           "dalpha_X": dalpha_X, "dalpha_X_prime": dalpha_X_prime}


def _field(p: MapParams, mesh: Mesh, name: str) -> np.ndarray:
    """Closed-form field ``_FIELDS[name]`` at the nodes, once per (alpha, mesh)."""
    return mesh.cached(("field", name, p.alpha),
                       lambda: _frozen(np.asarray(_FIELDS[name](p, mesh.nodes))))


def apply_M(p: MapParams, f: GridFunction) -> GridFunction:
    """Parameter derivative of L: M f = -(X * N f)' in Leibniz form.

    Uses closed-form X, X' and the discrete derivative of N f; matches
    central a-differences of apply_L to O(eps^2) plus mesh error.
    """
    x = f.mesh.nodes
    nf = apply_N(p, f)
    dnf = differentiate(nf)  # exponent s+1, values = x^(s+1) (Nf)'
    u_out = -_field(p, f.mesh, "X_prime") * nf.values
    u_out -= _field(p, f.mesh, "X") / x * dnf.values
    return GridFunction(f.mesh, u_out, f.s)


def seven_term_decomposition(p: MapParams, f: GridFunction) -> list[GridFunction]:
    """The seven Leibniz terms of d2/da2 L f.

    Expanding d2L f = -((d_a X)(N f))' + X'(X N f)' + X(X N f)'' with the
    product rule gives

        I  = -(d_a X)'(N f)  -  (d_a X)(N f)'
        II =  (X')^2 (N f)   +  X' X (N f)'
        III=  X X'' (N f)  +  2 X X' (N f)'  +  X^2 (N f)''

    (the second term of I carries a minus sign; the a-difference oracle on
    apply_L confirms this grouping).  Field derivatives are closed-form,
    (N f)' and (N f)'' discrete.
    """
    X0, X1, X2, dX0, dX1 = (_field(p, f.mesh, name) for name in _FIELDS)
    x = f.mesh.nodes
    nf = apply_N(p, f)
    dnf = differentiate(nf)
    d2nf = differentiate(dnf)
    u, du, d2u = nf.values, dnf.values / x, d2nf.values / x**2
    terms = [
        -dX1 * u,
        -dX0 * du,
        X1**2 * u,
        X1 * X0 * du,
        X0 * X2 * u,
        2.0 * X0 * X1 * du,
        X0**2 * d2u,
    ]
    return [GridFunction(f.mesh, t, f.s) for t in terms]


def apply_d2L(p: MapParams, f: GridFunction) -> GridFunction:
    """Second parameter derivative of L: nodewise sum of the seven terms."""
    terms = seven_term_decomposition(p, f)
    acc = terms[0].values.copy()
    for t in terms[1:]:
        acc += t.values
    return GridFunction(f.mesh, acc, f.s)


# ---------------------------------------------------------------------------
# Derivative jets under the operator.
#
# Differencing interpolation-propagated iterates amplifies the cell-scale
# interpolation ripple by h^-2 (worse for higher orders), which poisons
# pointwise cone margins near the singularity.  Derivative fields are
# therefore propagated through L by the exact chain rule instead, using the
# closed-form branch-inverse derivatives:
#
#   (L phi)    = phi(g) g'            + phi(r)/2,          r = (x+1)/2
#   (L phi)'   = phi'(g) g'^2  + phi(g) g''                + phi'(r)/4
#   (L phi)''  = phi''(g) g'^3 + 3 phi'(g) g' g'' + phi(g) g'''   + phi''(r)/8
#   (L phi)''' = phi'''(g) g'^4 + 6 phi''(g) g'^2 g''
#                + phi'(g) (4 g' g''' + 3 g''^2) + phi(g) g''''   + phi'''(r)/16
#
# Levels are stored like ``differentiate`` output: phi^(j) = x^-(s+j) u_j.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """phi and its first ``order`` derivatives as GridFunctions."""

    levels: tuple

    @property
    def order(self) -> int:
        return len(self.levels) - 1

    @property
    def mesh(self) -> Mesh:
        return self.levels[0].mesh

    def full_values(self) -> list[np.ndarray]:
        return [lv.full_values() for lv in self.levels]


def jet_one(p: MapParams, mesh: Mesh, order: int = 3) -> Jet:
    """Exact jet of the constant function 1 (base exponent alpha)."""
    a = p.alpha
    levels = [GridFunction(mesh, mesh.nodes**a, a)]
    for j in range(1, order + 1):
        levels.append(GridFunction(mesh, np.zeros(mesh.size), a + j))
    return Jet(tuple(levels))


def jet_apply(p: MapParams, jet: Jet, branch: str = "both") -> Jet:
    """Chain-rule image of a jet under L (branch="both") or N ("left")."""
    if branch not in ("both", "left"):
        raise ValueError("jet_apply: branch must be 'both' or 'left'")
    mesh = jet.mesh
    x = mesh.nodes
    s = jet.levels[0].s
    both = branch == "both"
    _, gp, gpp, gppp, gpppp = _pullback_data(p, mesh)["g"]
    wg, wr = zip(*(_pullback(p, mesh, s + i, hermite_stack(mesh, lv.values), both)
                   for i, lv in enumerate(jet.levels)))
    order = jet.order
    out = [wg[0] * gp]
    if order >= 1:
        out.append(wg[1] * gp**2 + x * wg[0] * gpp)
    if order >= 2:
        out.append(wg[2] * gp**3 + 3.0 * x * wg[1] * gp * gpp + x**2 * wg[0] * gppp)
    if order >= 3:
        out.append(
            wg[3] * gp**4
            + 6.0 * x * wg[2] * gp**2 * gpp
            + x**2 * wg[1] * (4.0 * gp * gppp + 3.0 * gpp**2)
            + x**3 * wg[0] * gpppp
        )
    if both:
        for j in range(order + 1):
            out[j] = out[j] + wr[j] * 0.5 ** (j + 1)
    return Jet(tuple(
        GridFunction(mesh, u, s + j) for j, u in enumerate(out)
    ))


def jet_from_density(
    p: MapParams,
    record: DensityRecord,
    order: int = 3,
    tol: float = 1e-11,
    max_sweeps: int = 2000,
) -> Jet:
    """Self-consistent derivative jet of the invariant density.

    rho' , rho'', ... solve the differentiated fixed-point equations; with
    rho frozen the jet update is an affine sup-contraction (rates (g')^(j+1)
    and 2^-(j+1)), so sweeping ``jet_apply`` with the base level pinned to
    rho converges geometrically away from 0 and like 1 - c x^alpha near it.
    Stencil derivatives seed the iteration; ``ConvergenceError`` if the
    relative change of a level is still above ``tol`` after ``max_sweeps``.
    """
    rho = record.density
    mesh = rho.mesh
    levels = [rho]
    for _ in range(order):
        levels.append(differentiate(levels[-1]))
    jet, delta = Jet(tuple(levels)), math.inf
    for _ in range(max_sweeps):
        new = jet_apply(p, jet)
        new = Jet((rho,) + new.levels[1:])
        delta = max(
            float(np.max(np.abs(new.levels[j].values - jet.levels[j].values)))
            / max(float(np.max(np.abs(new.levels[j].values))), 1e-300)
            for j in range(1, order + 1)
        )
        jet = new
        if delta <= tol:
            return jet
    raise ConvergenceError(
        f"jet_from_density: relative change {delta:.3e} after {max_sweeps} sweeps")


def default_max_iter(alpha: float, tol: float, cap: int = 200_000) -> int:
    """Iteration budget matched to the polynomial L1 rate k^(1 - 1/alpha)."""
    if alpha <= 0.0:
        return 64
    est = 8.0 * tol ** (alpha / (alpha - 1.0))
    return int(min(cap, max(64.0, est)))


def _power_iterate(step, q, u, tol, max_iter):
    """The one stationary-vector loop: u <- step(u) / (q . step(u)) from
    u / (q . u) until the residual q . |u_new - u| is <= tol (a NaN one
    keeps iterating) or ``max_iter`` steps ran; ``step`` returns a fresh
    array.  Returns (u, iterations, residual)."""
    u = u * (1.0 / (q @ u))
    diff = np.empty_like(u)  # reused buffer
    residual, iterations = math.inf, 0
    for iterations in range(1, max_iter + 1):
        nxt = step(u)
        nxt *= 1.0 / (q @ nxt)
        residual = float(q @ np.abs(np.subtract(nxt, u, out=diff), out=diff))
        u = nxt
        if residual <= tol:
            break
    return u, iterations, residual


def compute_density(
    p: MapParams,
    mesh: Mesh,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> DensityRecord:
    """Invariant density by renormalized power iteration from f = 1.

    Stops when the L1 distance between successive normalized iterates drops
    below ``tol``; if the budget runs out first the record comes back with
    ``converged`` false (callers that need a converged density call
    ``require_converged()``).  ``ValueError`` unless 0 < tol < inf.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"compute_density: tol must be finite and > 0, got {tol!r}")
    a = p.alpha
    if max_iter is None:
        max_iter = default_max_iter(a, tol)
    u, iterations, residual = _power_iterate(
        _step(p, mesh, a), mesh.quadrature(a), mesh.nodes**a, tol, max_iter)
    f = GridFunction(mesh, u, a)
    return DensityRecord(params=p, density=f, iterations=iterations,
                         residual=residual, normalization=integrate(f),
                         tol=float(tol))


# ---------------------------------------------------------------------------
# Ulam discretization (independent operator model)
# ---------------------------------------------------------------------------


@dataclass
class UlamOperator:
    """Row-stochastic Ulam matrix on the cells of a partition of [0, 1].

    Cell i is (edges[i], edges[i+1]] with edges = [0] + partition nodes;
    entry (i, j) is Leb(I_i intersect T^{-1} I_j) / Leb(I_i), assembled
    from exact branchwise preimage intervals.
    """

    partition: Mesh
    matrix: "scipy.sparse.csr_matrix"
    edges: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


def build_ulam(p: MapParams, partition: Mesh) -> UlamOperator:
    """Assemble the Ulam matrix from exact preimage-interval intersections.

    Both branches are monotone, so the preimage of a cell under each branch
    is a single interval: [g(c), g(d)] on the left and [(c+1)/2, (d+1)/2]
    on the right.  One ``searchsorted`` brackets all interval endpoints, and
    each interval expands into the cells it meets with positive overlap.
    """
    # imported here, not at module level: a process that builds no operator
    # never loads scipy
    import scipy.sparse as sp

    edges = np.concatenate([[0.0], partition.nodes])
    m = edges.size - 1
    ends = np.stack([np.asarray(branch_inverse(p, edges, tol=0.0)), 0.5 * (edges + 1.0)])
    pos = np.searchsorted(edges, ends, side="right")
    # intervals ordered (cell j, branch): preimages of cell j are adjacent
    lo, hi = ends[:, :-1].T.ravel(), ends[:, 1:].T.ravel()
    first = np.maximum(pos[:, :-1].T.ravel() - 1, 0)
    count = np.maximum(np.minimum(pos[:, 1:].T.ravel(), m) - first, 0)
    starts = np.repeat(first - (np.cumsum(count) - count), count)
    rows = starts + np.arange(starts.size)
    sel = np.repeat(np.arange(lo.size), count)
    over = np.minimum(edges[rows + 1], hi[sel]) - np.maximum(edges[rows], lo[sel])
    keep = over > 0.0
    rows = rows[keep]
    vals = over[keep] / np.diff(edges)[rows]
    mat = sp.csr_matrix((vals, (rows, sel[keep] // 2)), shape=(m, m))
    return UlamOperator(partition=partition, matrix=mat, edges=edges)


def ulam_stationary(
    U: UlamOperator, tol: float = 1e-13, max_iter: int = 400_000
) -> GridFunction:
    """Stationary density of the Ulam chain: ``_power_iterate`` on the cell
    masses with step P^T and q = 1 (residual = L1 distance of densities),
    ``ConvergenceError`` if it ends above ``tol``, ``ValueError`` unless
    0 < tol < inf.  Returns the piecewise-constant density on the partition
    (node i: mass / width of its cell).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"ulam_stationary: tol must be finite and > 0, got {tol!r}")
    ones = np.ones(U.widths.size)  # q, and the uniform start
    v, iterations, resid = _power_iterate(U.matrix.T.tocsr().dot, ones, ones,
                                          tol, max_iter)
    if not resid <= tol:
        raise ConvergenceError(
            f"ulam_stationary: residual {resid:.3e} after {iterations}")
    return GridFunction(U.partition, v / U.widths, 0.0)


def ulam_mean(U: UlamOperator, stationary: GridFunction, fn) -> float:
    """Observable mean under the Ulam stationary measure (cellwise Simpson)."""
    mass = stationary.values * U.widths
    a, b = U.edges[:-1], U.edges[1:]
    mid = 0.5 * (a + b)
    cell_avg = (fn(a) + 4.0 * fn(mid) + fn(b)) / 6.0
    return float(np.sum(mass * cell_avg))


def ulam_l1_distance(record: DensityRecord, U: UlamOperator,
                     stationary: GridFunction) -> float:
    """L1 distance between a grid density and the Ulam piecewise-constant one.

    Cellwise 2-point Gauss sampling of the grid density; the first cell
    (0, edges[1]] is compared through its mass instead, since the grid
    density is singular there.
    """
    a, b = U.edges[:-1], U.edges[1:]
    h = b - a
    off = 0.5 / math.sqrt(3.0)
    d_ulam = stationary.values
    total = 0.0
    for sgn in (-1.0, 1.0):
        xq = 0.5 * (a[1:] + b[1:]) + sgn * off * h[1:]
        rho = evaluate(record.density, xq)
        total += 0.5 * np.sum(h[1:] * np.abs(rho - d_ulam[1:]))
    # mass difference on the unresolved first cell
    m_grid = integrate_to(record.density, _nearest_node(record.density.mesh, b[0]))
    total += abs(m_grid - d_ulam[0] * h[0])
    return float(total)


def _nearest_node(mesh: Mesh, xv: float) -> float:
    i = int(np.clip(np.searchsorted(mesh.nodes, xv), 0, mesh.size - 1))
    if i > 0 and abs(mesh.nodes[i - 1] - xv) < abs(mesh.nodes[i] - xv):
        i -= 1
    return float(mesh.nodes[i])
