"""Functions on (0, 1] with an x^(-s) endpoint singularity.

A ``GridFunction`` stores a function as f(x) = x^(-s) * u(x) with bounded
nodal values u on a singularity-graded ``Mesh``.  Quadrature integrates the
piecewise-linear interpolant of u against the exact x^(-s) cell moments, as
a dot product with a nonnegative quadrature vector q_s (``Mesh.quadrature``).
Differentiation uses the product rule with nonuniform stencils on u; the
3-point weights of ``differentiate`` and the 5-point ones of
``derivatives_full`` both come from ``fd_weights``.
Point evaluation uses piecewise-cubic Hermite interpolation of u with
3-point slopes, a read of u at 4 nodes per point whose weights add to
exactly 1 (``_hermite_read``).  ``_operator`` turns rows of such reads into
a matrix on u, applied with ``@``, and is the one place that picks its form:
a numpy gather below ``_CSR_MIN_NODES`` nodes, which never loads scipy, and
CSR from there on, with the same bits.  Either form holds its entries flat,
in row order, as ``indices`` and ``data``.

Everything that depends only on the mesh (cell widths, x^(-s) moments and
quadrature vectors, slope and stencil weights, and the assembled operators
of ``transfer``) is memoized in ``Mesh.cached`` and lives exactly as long
as the mesh.

Meshes are built as the union of the neutral-orbit points g_a^l(1), a
geometric refinement down to ``x_min`` and a polynomially graded bulk; below
``x_min`` the regular factor u is extended as a constant and the quadrature
adds the analytic tail integral.  A mesh is its nodes: it keeps none of the
parameters it was built from, and the density cache hashes its node bytes.
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
]

_GEO_POINTS_PER_DECADE = 24


@dataclass(frozen=True, eq=False)
class Mesh:
    """Sorted node set in (0, 1]: a mesh is its nodes, ``nodes[0] == x_min``
    and ``nodes[-1] == 1``.

    It keeps no record of how it was built; the density cache tells meshes
    apart by the bytes of their nodes.  Meshes compare and hash by identity;
    grid functions only combine when they share the same Mesh object.
    """

    nodes: np.ndarray
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
    def x_min(self) -> float:
        return float(self.nodes[0])

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
    # below 1e-300 the ladder's decade count and the Hermite slopes overflow
    if not (1e-300 <= x_min < 0.5):
        raise ValueError(f"build_mesh: x_min must lie in [1e-300, 1/2), got {x_min:g}")
    a = p.alpha
    gamma = max(2.0, 2.0 / (1.0 - a))

    orbit = [1.0, 0.5]
    x = 0.5
    while len(orbit) <= L:
        x = branch_inverse(p, x)
        if x <= x_min:
            break
        orbit.append(x)

    # every kept orbit point lies above x_min, so the ladder spans > 0 decades
    lo = min(orbit[-1], 0.5)
    decades = math.log10(lo / x_min)
    n_geo = max(8, int(math.ceil(_GEO_POINTS_PER_DECADE * decades)) + 1)
    geo = np.geomspace(x_min, lo, n_geo)

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
    return Mesh(nodes)


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
# Cubic Hermite slopes and evaluation, vectorized.
# ---------------------------------------------------------------------------


def hermite_slopes(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """The 3-point slopes d of the nodal values u.

    Interior d_i = (h_i m_(i-1) + h_(i-1) m_i) / (h_(i-1) + h_i) for the
    secants m and widths h; the ends take the one-sided 3-point value.  No
    limiter: d is linear in u, and the interpolant exact on quadratics.
    """
    h = mesh.widths
    m = np.diff(u)
    m /= h
    wl, wr = mesh.cached("slope", lambda: _frozen(h[1:] / (h[:-1] + h[1:]),
                                                  h[:-1] / (h[:-1] + h[1:])))
    d = np.empty(u.size)
    np.multiply(wl, m[:-1], out=d[1:-1])
    d[1:-1] += wr * m[1:]
    d[0] = ((2.0 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1])
    d[-1] = ((2.0 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2])
    return d


# Below this many mesh nodes ``_operator`` (L_s, A and the pullback kernel)
# builds a numpy gather, at and above it a scipy CSR matrix.  Importing
# scipy.sparse adds 0.13-0.22 s and 16-22 MB of peak RSS to a fresh process;
# the gather's ``@`` of an 8-entry L step takes 3.1-4.0x the time of the
# compiled CSR matvec at 4k-8k nodes (115-130 us against 37 us at 4221) and
# 5-7x at 16k-33k, and of a 4-entry Hermite read 2.5-3.8x (2-core host,
# numpy 2.4, scipy 1.17).  So the CLI's default meshes (4105-4264 nodes),
# whose processes are short, skip the import, and the long power iterations
# on meshes of 7706 nodes and more keep the CSR matvec.
_CSR_MIN_NODES = 6144


class _Gather:
    """Rows of k weighted reads as a numpy gather: row r of G @ v adds
    weights[r, j] * v[cols[r, j]] for j = 0..k-1 in order to a zero start, as
    the CSR matvec adds a row of the same entries, so both give the same bits.
    ``indices`` and ``data`` are the same entries flat, under CSR's names."""

    def __init__(self, cols: np.ndarray, weights: np.ndarray):
        self.cols, self.weights = _frozen(cols, weights)
        self.indices, self.data = cols.ravel(), weights.ravel()

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.cols.shape[0])
        for c, w in zip(self.cols.T, self.weights.T):
            out += w * v[c]
        return out


def _operator(mesh: Mesh, cols: np.ndarray, weights: np.ndarray):
    """The (m, k) rows ``cols``, ``weights`` of weighted reads as an operator
    on u, in the form the mesh size picks: a ``_Gather`` below
    ``_CSR_MIN_NODES`` nodes, a CSR matrix from there on, over the same two
    arrays when ``cols`` has the dtype ``_hermite_read`` gives on this mesh."""
    if mesh.size < _CSR_MIN_NODES:
        return _Gather(cols, weights)
    # imported here, not at module level: a process that builds only small
    # operators never loads scipy
    import scipy.sparse as sp

    m, k = cols.shape
    P = sp.csr_matrix((weights.ravel(), cols.ravel(),
                       np.arange(0, m * k + 1, k, dtype=np.int32)), shape=(m, mesh.size))
    _frozen(P.data, P.indices, P.indptr)
    return P


def _hermite_read(mesh: Mesh, xq: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolation at the 1-d points xq: fills w and returns
    the columns c, so that u(xq[r]) = w[r, 0] u[c[r, 0]] + ... + w[r, 3]
    u[c[r, 3]], added in that order, in the column dtype of the mesh's
    ``_operator`` form: intp below ``_CSR_MIN_NODES`` nodes (numpy gathers
    fastest with it), CSR's int32 from there on.  In cell (i, i+1) the read
    takes u and its slopes (``hermite_slopes``) at i and i+1, so it needs u
    only at the 4 nodes from clip(i-1, 0, n-4) on, one per class mod 4: the
    weights are the reads of the period-4 indicator vectors.  The last one
    makes each row add to exactly 1.0, so reads are exact on constants.
    Points below x_min are clipped to it, where they read u[0].
    """
    x, n = mesh.nodes, mesh.size
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, n - 2)
    x0 = x[idx]
    hh = x[idx + 1] - x0
    t = (np.clip(xq, x[0], 1.0) - x0) / hh
    t2 = t * t
    t3 = t2 * t
    basis = (2.0 * t3 - 3.0 * t2 + 1.0, hh * (t3 - 2.0 * t2 + t),
             3.0 * t2 - 2.0 * t3, hh * (t3 - t2))
    del x0, hh, t, t2, t3  # peak memory: only the basis stays
    c, rows = np.clip(idx - 1, 0, n - 4), np.arange(idx.size)
    for k in range(4):
        e = (np.arange(n) % 4 == k).astype(float)
        d = hermite_slopes(mesh, e)
        w[rows, (k - c) % 4] = (((basis[0] * e[idx] + basis[1] * d[idx])
                                 + basis[2] * e[1:][idx]) + basis[3] * d[1:][idx])
        del e, d  # before the next class's slopes
    part = (w[:, 0] + w[:, 1]) + w[:, 2]
    w[:, 3] = 1.0 - part
    w[:, 3] += 1.0 - (part + w[:, 3])
    dtype = np.intp if n < _CSR_MIN_NODES else np.int32
    return c.astype(dtype)[:, None] + np.arange(4, dtype=dtype)


def evaluate_u(f: GridFunction, xq):
    """Interpolate the regular factor u at xq; constant below x_min.

    A ``_Gather`` of ``_hermite_read``'s rows, the reads that the transfer
    operators are assembled from.
    """
    xq = np.asarray(xq, dtype=float)
    w = np.empty((xq.size, 4))
    return (_Gather(_hermite_read(f.mesh, xq.ravel(), w), w) @ f.values).reshape(xq.shape)


def evaluate(f: GridFunction, x):
    """Evaluate f(x) = x^(-s) u(x) at scalar or array x in (0, 1].

    u is interpolated by piecewise cubics (exact at nodes and for quadratic
    data); below x_min the regular factor is extended as a constant.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if not np.all((xa > 0.0) & (xa <= 1.0 + 1e-12)):  # NaN fails both
        raise ValueError("evaluate: x must lie in (0, 1]")
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


def fd_weights(xw: np.ndarray, centers: np.ndarray, order: int,
               center_pos: np.ndarray) -> np.ndarray:
    """Batched stencil weights for the ``order``-th derivative.

    ``xw`` has shape (n, p): each row is a window of p nodes; ``centers``
    the evaluation points.  Weights come from local polynomial
    interpolation (Vandermonde solve in shifted/scaled coordinates), then
    corrected at ``center_pos``, the index of the center inside each
    window, so constants are annihilated exactly.
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
    if order >= 1:
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
    # difference form (exact on constants), summed one window column at a time
    out = [w[:, 0] * (u[widx[:, 0]] - u) for w in wlist]
    for acc, w in zip(out, wlist):
        for c in range(1, pts):
            acc += w[:, c] * (u[widx[:, c]] - u)
    return out


def derivatives_full(f: GridFunction, order: int):
    """Nodal values of f and its first ``order`` derivatives.

    The singular factor x^(-s) is differentiated analytically; u-derivatives
    use 5-point stencils.  Returns [f, f', ..., f^(order)].
    """
    x = f.mesh.nodes
    u = f.values
    uders = [u] + u_derivatives_stencil(f.mesh, u, order, 5)
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
