"""Functions on (0, 1] with an x^(-s) endpoint singularity.

A ``GridFunction`` stores a function as f(x) = x^(-s) * u(x) with bounded
nodal values u on a singularity-graded ``Mesh``.  Quadrature integrates the
piecewise-linear interpolant of u against the exact x^(-s) cell moments, as
a dot product with a nonnegative quadrature vector q_s (``Mesh.quadrature``).
Differentiation uses the product rule with nonuniform stencils on u; the
3-point weights of ``differentiate`` and the 5-point ones of
``derivatives_full`` both come from ``fd_weights``.
Point evaluation uses monotone piecewise-cubic (PCHIP) interpolation of u:
a CSR matrix of cubic Hermite weights of the query points
(``hermite_weights``) acts on the stacked nodal values and PCHIP slopes
[u; d] (``hermite_stack``), so that fixed query points pay for it once.

Everything that depends only on the mesh (cell widths, x^(-s) moments and
quadrature vectors, PCHIP and stencil weights, and the per-alpha pullback
data of ``transfer``) is memoized in ``Mesh.cached`` and lives exactly as
long as the mesh.

Meshes are built as the union of the neutral-orbit points g_a^l(1), a
geometric refinement down to ``x_min`` and a polynomially graded bulk; below
``x_min`` the regular factor u is extended as a constant and the quadrature
adds the analytic tail integral.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .maps import MapParams, branch_inverse

__all__ = [
    "Mesh",
    "GridFunction",
    "build_mesh",
    "integrate",
    "integrate_to",
    "differentiate",
    "evaluate",
    "l1_norm",
    "fd_weights",
    "derivatives_full",
    "mesh_to_dict",
    "mesh_from_dict",
    "gridfunction_to_dict",
    "gridfunction_from_dict",
]

_GEO_POINTS_PER_DECADE = 24


@dataclass(frozen=True, eq=False)
class Mesh:
    """Sorted node set in (0, 1] with grading metadata.

    ``nodes[0] == x_min`` and ``nodes[-1] == 1``.  The first ``orbit_len``
    points of the neutral orbit x_l = g_a^l(1) for ``built_for_alpha`` are
    node values.  Meshes compare and hash by identity; grid functions only
    combine when they share the same Mesh object.
    """

    nodes: np.ndarray
    grading_exponent: float
    x_min: float
    built_for_alpha: float
    orbit_len: int
    n_request: int
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.flags.writeable or not nodes.flags.c_contiguous:
            nodes = np.ascontiguousarray(nodes).copy()
        if nodes.ndim != 1 or nodes.size < 8:
            raise ValueError("Mesh: need a 1-d array of at least 8 nodes")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("Mesh: nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] != 1.0:
            raise ValueError("Mesh: nodes must lie in (0, 1] and end at 1")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def size(self) -> int:
        return self.nodes.size

    def cached(self, key, build):
        """``build()``, computed once per key and kept as long as the mesh."""
        try:
            return self._cache[key]
        except KeyError:
            val = self._cache[key] = build()
            return val

    @property
    def widths(self) -> np.ndarray:
        return self.cached("widths", lambda: _frozen(np.diff(self.nodes)))

    def moments(self, s: float):
        """Exact cell moments of x^(-s): the integrals of x^(-s) and of
        (x - xbar) x^(-s) over each cell (xbar the cell midpoint), plus the
        [0, x_min] tail of x^(-s)."""
        return self.cached(("mom", float(s)), lambda: _cell_moments(self.nodes, s))

    def quadrature(self, s: float) -> np.ndarray:
        """Nonnegative weights q_s with integrate(x^(-s) u) = q_s . u."""

        def build():
            m0, m1c, tail = self.moments(s)
            lin = m1c / self.widths
            q = np.append(0.5 * m0 - lin, 0.0)  # left node of each cell
            q[1:] += 0.5 * m0 + lin  # right node
            q[0] += tail
            return _frozen(q)

        return self.cached(("quad", float(s)), build)

    def spec(self) -> dict:
        return {
            "n": int(self.n_request),
            "orbit_len": int(self.orbit_len),
            "x_min": float(self.x_min),
            "alpha": float(self.built_for_alpha),
            "grading_exponent": float(self.grading_exponent),
            "size": int(self.size),
        }


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def _power_diff(a, b, q):
    """b^q - a^q computed stably for narrow cells (relative log form)."""
    return a**q * np.expm1(q * np.log1p((b - a) / a))


def _cell_moments(nodes, s):
    s = float(s)
    if s >= 1.0:
        raise ValueError(f"non-integrable singular exponent s = {s}")
    a, b = nodes[:-1], nodes[1:]
    m0 = _power_diff(a, b, 1.0 - s) / (1.0 - s)
    m1 = _power_diff(a, b, 2.0 - s) / (2.0 - s)
    xbar = 0.5 * (a + b)
    tail = nodes[0] ** (1.0 - s) / (1.0 - s)
    return (*_frozen(m0, m1 - xbar * m0), tail)


def build_mesh(p: MapParams, n: int, L: int, x_min: float = 1e-10) -> Mesh:
    """Construct the standard singularity-graded mesh for parameter p.

    Union of (i) the neutral-orbit points g_a^l(1), l = 0..L, truncated
    where they fall below x_min, (ii) a geometric ladder from x_min up to
    the smallest retained orbit point, and (iii) n graded nodes (i/n)^gamma
    with gamma = max(2, 2/(1-a)).  Near-duplicates are merged.
    """
    if n < 64:
        raise ValueError("build_mesh: n must be >= 64")
    if L < 1:
        raise ValueError("build_mesh: L must be >= 1")
    if not (0.0 < x_min < 0.5):
        raise ValueError("build_mesh: x_min must lie in (0, 1/2)")
    a = p.alpha
    gamma = max(2.0, 2.0 / (1.0 - a))

    orbit = [1.0, 0.5]
    x = 0.5
    while len(orbit) <= L:
        x = branch_inverse(p, x, tol=0.0)
        if x <= x_min:
            break
        orbit.append(x)
    orbit_len = len(orbit) - 1  # number of points beyond x_0 = 1

    lo = min(orbit[-1], 0.5)
    decades = math.log10(lo / x_min)
    if decades > 0:
        n_geo = max(8, int(math.ceil(_GEO_POINTS_PER_DECADE * decades)) + 1)
        geo = np.geomspace(x_min, lo, n_geo)
    else:
        geo = np.array([x_min])

    graded = (np.arange(1, n + 1, dtype=float) / n) ** gamma
    graded = graded[graded > x_min]

    # Union the three families, protecting the orbit nodes (and the
    # endpoints) against merging.  Unprotected nodes closer to a kept
    # neighbour than a fraction of the local intended spacing are dropped:
    # near-coincident nodes from different families otherwise create
    # extreme cell-width ratios that wreck high-order stencils.
    pts = np.concatenate([np.asarray(orbit), geo, graded])
    prot = np.zeros(pts.size, dtype=bool)
    prot[: len(orbit)] = True
    prot[len(orbit)] = True  # x_min (first geometric node)
    order = np.argsort(pts, kind="stable")
    pts, prot = pts[order], prot[order]
    geo_ratio = 10.0 ** (1.0 / _GEO_POINTS_PER_DECADE) - 1.0

    def local_h(xv):
        hg = gamma * xv ** (1.0 - 1.0 / gamma) / n
        return min(hg, geo_ratio * xv)

    keep_x = [pts[0]]
    keep_p = [prot[0]]
    for xv, pr in zip(pts[1:], prot[1:]):
        if xv - keep_x[-1] >= 0.35 * local_h(xv):
            keep_x.append(xv)
            keep_p.append(pr)
        elif pr and not keep_p[-1]:
            keep_x[-1] = xv  # orbit node wins over a nearby family node
            keep_p[-1] = True
        elif pr and keep_p[-1] and xv > keep_x[-1]:
            keep_x.append(xv)  # two protected nodes: keep both
            keep_p.append(True)
    nodes = np.asarray(keep_x)
    nodes[0] = x_min
    nodes[-1] = 1.0
    nodes = np.unique(nodes)
    return Mesh(
        nodes=nodes,
        grading_exponent=gamma,
        x_min=float(x_min),
        built_for_alpha=a,
        orbit_len=orbit_len,
        n_request=int(n),
    )


@dataclass(frozen=True, eq=False)
class GridFunction:
    """f(x) = x^(-s) * u(x) with u stored at the mesh nodes.

    Immutable; arithmetic requires the identical Mesh object.  Addition
    promotes both operands to the larger singular exponent, multiplication
    adds the exponents.
    """

    mesh: Mesh
    values: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.flags.writeable or not v.flags.c_contiguous:
            v = np.ascontiguousarray(v).copy()
        if v.shape != (self.mesh.size,):
            raise ValueError("GridFunction: values must match mesh size")
        if not np.all(np.isfinite(v)):
            raise ValueError("GridFunction: values must be finite")
        if self.s < 0.0:
            raise ValueError("GridFunction: singular exponent must be >= 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "s", float(self.s))

    # -- representation helpers -------------------------------------------
    def full_values(self) -> np.ndarray:
        """f at the nodes, singular factor included."""
        if self.s == 0.0:
            return self.values
        return self.values * self.mesh.nodes ** (-self.s)

    def with_exponent(self, s_new: float) -> "GridFunction":
        """Re-express with a larger singular exponent (values stay finite)."""
        if s_new == self.s:
            return self
        if s_new < self.s:
            raise ValueError("with_exponent: can only increase the exponent")
        u = self.values * self.mesh.nodes ** (s_new - self.s)
        return GridFunction(self.mesh, u, s_new)

    # -- arithmetic --------------------------------------------------------
    def _check_mesh(self, other):
        if self.mesh is not other.mesh:
            raise ValueError("GridFunction: operands live on different meshes")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_mesh(other)
            s = max(self.s, other.s)
            return GridFunction(
                self.mesh,
                self.with_exponent(s).values + other.with_exponent(s).values,
                s,
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_mesh(other)
            s = max(self.s, other.s)
            return GridFunction(
                self.mesh,
                self.with_exponent(s).values - other.with_exponent(s).values,
                s,
            )
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_mesh(other)
            return GridFunction(self.mesh, self.values * other.values, self.s + other.s)
        if np.isscalar(other):
            return GridFunction(self.mesh, self.values * float(other), self.s)
        return NotImplemented

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# PCHIP (Fritsch-Carlson) slopes and Hermite evaluation, vectorized.
# Matches scipy.interpolate.PchipInterpolator to rounding.
# ---------------------------------------------------------------------------


def hermite_stack(mesh: Mesh, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[u; d] with d the PCHIP slopes of u, written into ``out`` if given."""
    n = u.size
    ud = np.empty(2 * n) if out is None else out
    ud[:n] = u
    d = ud[n:]
    h = mesh.widths
    m = np.diff(u)
    m /= h

    def weights():
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        return _frozen(w1, w2, w1 + w2)

    w1, w2, w12 = mesh.cached("pchip", weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        whm = w1 / m[:-1]  # weighted harmonic mean of the two secants
        whm += w2 / m[1:]
        np.divide(w12, whm, out=whm)
    pos, neg = m > 0.0, m < 0.0  # kept where both secants have one strict sign
    d[1:-1] = 0.0
    np.copyto(d[1:-1], whm, where=(pos[:-1] & pos[1:]) | (neg[:-1] & neg[1:]))

    def sign(v):
        return (v > 0.0) - (v < 0.0)

    def edge(h0, h1, m0, m1):  # Python floats: no numpy scalar overhead
        dd = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if sign(dd) != sign(m0):
            return 0.0
        if sign(m0) != sign(m1) and abs(dd) > 3.0 * abs(m0):
            return 3.0 * m0
        return dd

    d[0] = edge(*map(float, (h[0], h[1], m[0], m[1])))
    d[-1] = edge(*map(float, (h[-1], h[-2], m[-1], m[-2])))
    return ud


def _hermite_cells(mesh: Mesh, xq: np.ndarray):
    """Left node index i of each point's cell (i, i+1) and its four cubic
    Hermite weights on u[i], d[i], u[i+1], d[i+1].  Points below x_min are
    clipped to it, where the weights are (1, 0, 0, 0)."""
    x = mesh.nodes
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    x0 = x[idx]
    hh = x[idx + 1] - x0
    t = (np.clip(xq, x[0], 1.0) - x0) / hh
    t2 = t * t
    t3 = t2 * t
    return idx, (2.0 * t3 - 3.0 * t2 + 1.0, hh * (t3 - 2.0 * t2 + t), 3.0 * t2 - 2.0 * t3,
                 hh * (t3 - t2))


def hermite_weights(mesh: Mesh, xq) -> "scipy.sparse.csr_matrix":
    """PCHIP evaluation at the 1-d points xq as a CSR matrix: P @ [u; d].

    Row k holds the cubic Hermite weights of xq[k] in its cell (i, i+1) in
    the order u[i], d[i], u[i+1], d[i+1], unsorted and unsummed, so the
    matvec adds the terms in that order.  Points below x_min get the
    constant extension of u.
    """
    # imported here, not at module level: a process that builds no operator
    # never loads scipy
    import scipy.sparse as sp

    n = mesh.size
    idx, w = _hermite_cells(mesh, np.asarray(xq, dtype=float))
    cols = np.stack((idx, idx + n, idx + 1, idx + 1 + n), axis=1, dtype=np.int32).ravel()
    P = sp.csr_matrix((np.stack(w, axis=1).ravel(), cols,
                       np.arange(0, cols.size + 1, 4, dtype=np.int32)), shape=(idx.size, 2 * n))
    _frozen(P.data, P.indices, P.indptr)
    return P


def evaluate_u(f: GridFunction, xq):
    """Interpolate the regular factor u at xq; constant below x_min.

    The terms are added in the order of a ``hermite_weights`` row, so the
    result equals that matrix's matvec without building it.
    """
    xq = np.asarray(xq, dtype=float)
    n = f.mesh.size
    idx, (w0, w1, w2, w3) = _hermite_cells(f.mesh, xq.ravel())
    ud = hermite_stack(f.mesh, f.values)
    u, d = ud[:n], ud[n:]
    out = w0 * u[idx]
    out += w1 * d[idx]
    out += w2 * u[idx + 1]
    out += w3 * d[idx + 1]
    return out.reshape(xq.shape)


def evaluate(f: GridFunction, x):
    """Evaluate f(x) = x^(-s) u(x) at scalar or array x in (0, 1].

    u is interpolated by monotone piecewise cubics (exact at nodes and for
    linear data); below x_min the regular factor is extended as a constant.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa <= 0.0):
        raise ValueError("evaluate: x must be > 0")
    if np.any(xa > 1.0 + 1e-12):
        raise ValueError("evaluate: x must be <= 1")
    xa = np.minimum(xa, 1.0)
    out = evaluate_u(f, xa)
    if f.s != 0.0:
        out = out * xa ** (-f.s)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def integrate(f: GridFunction) -> float:
    """Integral of x^(-s) u over (0, 1].

    Per cell the rule is exact for u linear against the weight x^(-s)
    (analytic moments); on (0, x_min] the regular factor is frozen at
    u(x_min) and the tail integral is added analytically.  Linear and
    positive in the nodal values: the dot product q_s . u.
    """
    return float(f.mesh.quadrature(f.s) @ f.values)


def integrate_to(f: GridFunction, upper: float) -> float:
    """Integral over (0, upper] where ``upper`` must be a mesh node."""
    x = f.mesh.nodes
    j = int(np.searchsorted(x, upper))
    if j >= x.size or abs(x[j] - upper) > 1e-12 * max(upper, 1.0):
        raise ValueError("integrate_to: upper bound must be a mesh node")
    m0, m1c, tail = f.mesh.moments(f.s)
    u = f.values
    ubar = 0.5 * (u[:j] + u[1 : j + 1])
    slope = (u[1 : j + 1] - u[:j]) / f.mesh.widths[:j]
    cells = ubar * m0[:j] + slope * m1c[:j]
    return float(np.sum(cells) + u[0] * tail)


def l1_norm(f: GridFunction) -> float:
    return float(f.mesh.quadrature(f.s) @ np.abs(f.values))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(f: GridFunction) -> GridFunction:
    """Derivative of x^(-s) u via the product rule.

    The singular part is differentiated analytically and u by 3-point
    nonuniform stencils (``u_derivatives_stencil``, one-sided at the ends,
    exact 0 on constants), so the output has exponent s + 1 and values
    -s*u + x*u'.
    """
    du = u_derivatives_stencil(f.mesh, f.values, 1, 3)[0]
    w = f.mesh.nodes * du
    if f.s != 0.0:
        w = w - f.s * f.values
    return GridFunction(f.mesh, w, f.s + 1.0)


def fd_weights(
    xw: np.ndarray, centers: np.ndarray, order: int, center_pos: np.ndarray | None = None
) -> np.ndarray:
    """Batched stencil weights for the ``order``-th derivative.

    ``xw`` has shape (n, p): each row is a window of p nodes; ``centers``
    the evaluation points.  Weights come from local polynomial
    interpolation (Vandermonde solve in shifted/scaled coordinates).  When
    ``center_pos`` gives the index of the center inside each window, the
    weights are corrected there so constants are annihilated exactly.
    """
    n, pts = xw.shape
    if order >= pts:
        raise ValueError("fd_weights: need more points than derivative order")
    t = xw - centers[:, None]
    scale = np.max(np.abs(t), axis=1)
    scale[scale == 0.0] = 1.0
    t = t / scale[:, None]
    A = t[:, None, :] ** np.arange(pts)[None, :, None]  # A[i, k, j] = t_j^k
    rhs = np.zeros((n, pts))
    rhs[:, order] = math.factorial(order)
    w = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    w /= scale[:, None] ** order
    if order >= 1 and center_pos is not None:
        w[np.arange(n), center_pos] -= w.sum(axis=1)
    return w


def _windows(n: int, pts: int):
    half = pts // 2
    start = np.clip(np.arange(n) - half, 0, n - pts)
    idx = start[:, None] + np.arange(pts)[None, :]
    return idx, np.arange(n) - start


def u_derivatives_stencil(mesh: Mesh, u: np.ndarray, order: int, pts: int = 5):
    """u', ..., u^(order) from local polynomial stencils of width pts."""

    def build():
        widx, pos = _windows(mesh.size, pts)
        xw = mesh.nodes[widx]
        return [fd_weights(xw, mesh.nodes, k, pos) for k in range(1, order + 1)], widx

    wlist, widx = mesh.cached(("stw", order, pts), build)
    uw = u[widx] - u[:, None]  # difference form: exact on constants
    return [np.sum(w * uw, axis=1) for w in wlist]


def derivatives_full(f: GridFunction, order: int, pts: int = 5):
    """Nodal values of f and its first ``order`` derivatives.

    The singular factor x^(-s) is differentiated analytically; u-derivatives
    use ``pts``-point stencils.  Returns [f, f', ..., f^(order)].
    """
    x = f.mesh.nodes
    u = f.values
    uders = [u] + u_derivatives_stencil(f.mesh, u, order, pts)
    xs = x ** (-f.s) if f.s != 0.0 else np.ones_like(x)
    out = []
    for m in range(order + 1):
        acc = np.zeros_like(u)
        fall = 1.0  # falling factorial (-s)(-s-1)...(-s-j+1)
        for j in range(m + 1):
            acc = acc + math.comb(m, j) * fall * x ** (-float(j)) * uders[m - j]
            fall *= -f.s - j
        out.append(acc * xs)
    return out


# ---------------------------------------------------------------------------
# Serialization (JSON-friendly dictionaries)
# ---------------------------------------------------------------------------


def mesh_to_dict(mesh: Mesh) -> dict:
    return {
        "nodes": mesh.nodes.tolist(),
        "grading_exponent": mesh.grading_exponent,
        "x_min": mesh.x_min,
        "built_for_alpha": mesh.built_for_alpha,
        "orbit_len": mesh.orbit_len,
        "n_request": mesh.n_request,
    }


def mesh_from_dict(d: dict) -> Mesh:
    return Mesh(
        nodes=np.asarray(d["nodes"], dtype=float),
        grading_exponent=float(d["grading_exponent"]),
        x_min=float(d["x_min"]),
        built_for_alpha=float(d["built_for_alpha"]),
        orbit_len=int(d["orbit_len"]),
        n_request=int(d["n_request"]),
    )


def gridfunction_to_dict(f: GridFunction, meta: dict | None = None) -> dict:
    return {
        "mesh": mesh_to_dict(f.mesh),
        "s": f.s,
        "values": f.values.tolist(),
        "meta": dict(meta or {}),
    }


def gridfunction_from_dict(d: dict, mesh: Mesh | None = None) -> GridFunction:
    if mesh is None:
        mesh = mesh_from_dict(d["mesh"])
    return GridFunction(mesh, np.asarray(d["values"], dtype=float), float(d["s"]))
