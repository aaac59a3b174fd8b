"""Linear response of the invariant measure to the map parameter.

Differentiating the fixed-point equation L rho = rho in the parameter gives
(id - L) d_a rho = (d_a L) rho = M rho = -(X N rho)' = -Y, hence

    value := d/da int psi d mu_a = - sum_k int psi L^k Y dx,

and ``response_series``, ``response_series_forward``, ``susceptibility``
and ``finite_difference_response`` all return this natural derivative
(equivalently, the negated one-sided quotient (mu_a - mu_{a+eps})/eps).
Each of them needs a converged density and raises ``ConvergenceError``
(through ``DensityRecord.require_converged()``) for one that is not.

The resolvent (id - L)^(-1) is realized as the truncated Neumann sum of
the zero-mean source Y, whose terms decay polynomially.  The tail of the
series is estimated from a power-law fit of the computed terms and
reported as an error bar, never added to the value.

``response_source`` returns Y = -M rho from ``transfer.apply_M``, the one
implementation of the operator derivative M = d_a L.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .maps import MapParams, X, forward, forward_deriv
from .grid import GridFunction, Mesh, evaluate, integrate
from .transfer import DensityRecord, _field, _step, apply_M, apply_N, compute_density

__all__ = [
    "Observable",
    "parse_observable",
    "ResponseResult",
    "ResponseDivergenceError",
    "response_source",
    "response_series",
    "response_series_forward",
    "susceptibility",
    "finite_difference_response",
    "observable_mean",
]


class ResponseDivergenceError(ArithmeticError):
    """Series terms fail to decay (diagnostic, not a numerical accident)."""


@dataclass(frozen=True)
class Observable:
    """Bounded observable psi on [0, 1] with optional derivative.

    ``periodic`` records whether psi(0) == psi(1); the susceptibility form
    integrates (psi o T^k)' pointwise, which is only the distributional
    derivative when psi matches at the endpoints (the map is continuous as
    a circle map), so non-periodic observables make that series diverge.
    """

    name: str
    f: Callable
    fprime: Callable | None = None
    periodic: bool = False

    @staticmethod
    def from_gridfunction(g: GridFunction, name: str = "gridfunction") -> "Observable":
        fv = lambda x: evaluate(g, x)
        lo = evaluate(g, g.mesh.x_min)
        hi = evaluate(g, 1.0)
        return Observable(name=name, f=fv, fprime=None, periodic=abs(hi - lo) < 1e-13)


def _monomial(k: int) -> Observable:
    return Observable(
        name="x" if k == 1 else f"x^{k}",
        f=lambda x, k=k: np.asarray(x, dtype=float) ** k,
        fprime=lambda x, k=k: k * np.asarray(x, dtype=float) ** (k - 1),
        periodic=False,
    )


def _cosine(m: int) -> Observable:
    w = 2.0 * math.pi * m
    return Observable(
        name=f"cos{m}" if m != 1 else "cos",
        f=lambda x, w=w: np.cos(w * np.asarray(x, dtype=float)),
        fprime=lambda x, w=w: -w * np.sin(w * np.asarray(x, dtype=float)),
        periodic=True,
    )


def _indicator(a: float, b: float) -> Observable:
    return Observable(
        name=f"ind[{a:g},{b:g}]",
        f=lambda x, a=a, b=b: ((np.asarray(x) >= a) & (np.asarray(x) <= b)).astype(float),
        fprime=None,
        periodic=False,
    )


def parse_observable(token) -> Observable:
    """Builtin observables: const, x, x^2..x^4 (or x2..x4), cos[m], ind:a:b."""
    if isinstance(token, Observable):
        return token
    if isinstance(token, GridFunction):
        return Observable.from_gridfunction(token)
    t = str(token).strip().lower()
    if t in ("const", "1", "one"):
        return Observable("const", f=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          fprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                          periodic=True)
    if t == "x":
        return _monomial(1)
    if t.startswith("x^") or (t.startswith("x") and t[1:].isdigit()):
        k = int(t[2:]) if t.startswith("x^") else int(t[1:])
        if not 1 <= k <= 4:
            raise ValueError(f"monomial degree out of range: {token!r}")
        return _monomial(k)
    if t.startswith("cos"):
        m = int(t[3:]) if t[3:] else 1
        if m < 1:
            raise ValueError(f"cosine frequency must be >= 1: {token!r}")
        return _cosine(m)
    if t.startswith("ind:"):
        parts = t.split(":")
        if len(parts) != 3:
            raise ValueError(f"indicator spec must be ind:a:b, got {token!r}")
        a, b = float(parts[1]), float(parts[2])
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"indicator interval invalid: {token!r}")
        return _indicator(a, b)
    raise ValueError(f"unknown observable {token!r}")


@dataclass
class ResponseResult:
    """Truncated response series with per-term contributions and tail bar.

    value = -(sum of terms); ``tail_estimate`` is the fitted power-law
    remainder beyond k_used, reported as an error bar.
    """

    alpha: float
    observable_id: str
    value: float
    terms: list = field(default_factory=list)
    k_used: int = 0
    tail_estimate: float = math.nan
    method: str = "series_backward"
    decay_exponent: float = math.nan
    diverged: bool = False

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "observable": self.observable_id,
            "value": self.value,
            "k_used": self.k_used,
            "tail_estimate": self.tail_estimate,
            "method": self.method,
            "decay_exponent": self.decay_exponent,
            "diverged": self.diverged,
            "terms": list(self.terms),
        }


def response_source(p: MapParams, d: DensityRecord) -> GridFunction:
    """Source term Y = (X * N rho)' = -M rho, from ``apply_M``.

    Both Leibniz products X' N rho and X (N rho)' are log-bounded: X' ~
    x^a log kills the x^(-a) of rho and X ~ x^(1+a) log kills the
    x^(-1-a) of rho'.  Returned with exponent 0; its integral vanishes up
    to quadrature error since X(0) = X(1) = 0.
    """
    d.require_converged()
    return GridFunction(d.density.mesh, -apply_M(p, d.density).full_values(), 0.0)


def _zero_mean_source(p: MapParams, d: DensityRecord) -> GridFunction:
    """Y projected onto the discrete zero-mean complement.

    The continuum source has int Y = 0 exactly; the discrete quadrature
    defect (x_min boundary plus O(h^2) cell error) would otherwise ride the
    neutral direction of L and floor the series terms at a constant, so it
    is removed along the density (the discrete fixed point).
    """
    y = response_source(p, d)
    defect = integrate(y)
    return y - defect * d.density


def observable_mean(obs: Observable, d: DensityRecord) -> float:
    """int psi d mu via grid quadrature of psi * rho."""
    mesh = d.density.mesh
    psi = np.asarray(obs.f(mesh.nodes), dtype=float)
    return integrate(GridFunction(mesh, psi * d.density.values, d.density.s))


def _fit_tail(terms: np.ndarray, k0: int = 1):
    """Least-squares power-law fit |t_k| ~ C k^(-r) on the last third.

    Returns (r, tail_beyond_last) with the tail summed analytically from
    the fit.  (nan, 0) for degenerate all-tiny series.  A non-summable fit
    (r <= 1) marks divergence (tail = inf) only while the tail terms are
    still comparable to the peak; once they have collapsed to a noise
    floor far below it the series has converged and the floor itself is
    the honest error bar.
    """
    k = np.arange(k0, k0 + terms.size, dtype=float)
    mag = np.abs(terms)
    peak = float(mag.max(initial=0.0))
    if peak <= 1e-6:
        # degenerate all-tiny series (e.g. psi = const): pure noise, no
        # power law to fit; the noise level is the error bar
        return math.nan, 10.0 * float(np.median(mag)) if mag.size else 0.0
    floor = 1e-15 * max(1.0, peak)
    use = mag > floor
    if use.sum() < 4:
        return math.nan, 0.0
    i0 = max(int(2 * use.sum() // 3), 1)
    ks = k[use][i0:]
    ms = mag[use][i0:]
    if ks.size < 3:
        ks, ms = k[use][-3:], mag[use][-3:]
    slope, logc = np.polyfit(np.log(ks), np.log(ms), 1)
    r = -float(slope)
    kend = k[-1]
    if r <= 1.0 + 1e-9:
        tail_level = float(np.median(ms))
        if tail_level <= 1e-4 * peak:
            return r, 10.0 * tail_level  # collapsed to the noise floor
        return r, math.inf
    c = math.exp(float(logc))
    tail = c * kend ** (1.0 - r) / (r - 1.0)
    return r, tail


def _series_result(p, obs_name, terms, k_used, method) -> ResponseResult:
    arr = np.asarray(terms)
    r, tail = _fit_tail(arr)
    diverged = bool(math.isinf(tail) if not math.isnan(r) else False)
    return ResponseResult(
        alpha=p.alpha,
        observable_id=obs_name,
        value=float(-arr.sum()),
        terms=[float(t) for t in arr],
        k_used=int(k_used),
        tail_estimate=float(tail) if not math.isinf(tail) else math.inf,
        method=method,
        decay_exponent=r,
        diverged=diverged,
    )


def response_series(
    p: MapParams,
    d: DensityRecord,
    obs,
    K: int = 256,
    tol: float = 1e-10,
) -> ResponseResult:
    """Backward (push-forward) series: t_k = int psi * L^k Y dx.

    Stops at K terms or once the fitted power-law tail falls below ``tol``;
    the tail estimate goes in the error bar, not the value.
    """
    if K < 1:
        raise ValueError("response_series: K must be >= 1")
    obs = parse_observable(obs)
    d.require_converged()
    mesh = d.density.mesh
    psi = np.asarray(obs.f(mesh.nodes), dtype=float)
    y = _zero_mean_source(p, d)
    q, step, w = mesh.quadrature(y.s), _step(p, mesh, y.s), y.values
    terms = []
    for k in range(K + 1):
        terms.append(float(q @ (psi * w)))
        if k == K:
            break
        w = step(w)
        if k >= 16 and k % 8 == 0:
            _, tail = _fit_tail(np.asarray(terms))
            if not math.isinf(tail) and abs(tail) < tol:
                break
    return _series_result(p, obs.name, terms, len(terms) - 1, "series_backward")


def response_series_forward(
    p: MapParams,
    d: DensityRecord,
    obs,
    K: int = 64,
) -> ResponseResult:
    """Forward (pull-back) series: t_k = int (psi o T^k) Y dx.

    psi is pulled back through the orbits of the quadrature nodes; the
    nodal quadrature resolves psi o T^k only while the expansion 2^k stays
    below the local mesh resolution, so later terms carry an O(sqrt(sum
    h^2)) sampling noise (see ``forward_noise_scale``).
    """
    if K < 1:
        raise ValueError("response_series_forward: K must be >= 1")
    obs = parse_observable(obs)
    d.require_converged()
    mesh = d.density.mesh
    y = _zero_mean_source(p, d)
    orbit = mesh.nodes.copy()
    terms = []
    for k in range(K + 1):
        psi_k = np.asarray(obs.f(orbit), dtype=float)
        terms.append(integrate(GridFunction(mesh, psi_k * y.values, y.s)))
        if k < K:
            orbit = forward(p, orbit)
    return _series_result(p, obs.name, terms, len(terms) - 1, "series_forward")


def forward_noise_scale(mesh: Mesh, obs, d: DensityRecord) -> float:
    """Quadrature-noise scale of forward-series terms beyond the resolution
    horizon: std(psi) * sqrt(sum of squared cell widths) (weighted by |Y|_inf
    is pessimistic; this is the practical error-bar unit)."""
    obs = parse_observable(obs)
    psi = np.asarray(obs.f(mesh.nodes), dtype=float)
    sd = float(np.std(psi))
    return sd * float(np.sqrt(np.sum(mesh.widths**2)))


def _gauss_cells(mesh: Mesh, npts: int = 4):
    """Gauss-Legendre nodes/weights on every mesh cell (flattened)."""

    def build():
        gx, gw = np.polynomial.legendre.leggauss(npts)
        a, b = mesh.nodes[:-1], mesh.nodes[1:]
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        pts = (mid + half * gx[None, :]).ravel()
        wts = (half * gw[None, :]).ravel()
        pts.setflags(write=False)
        wts.setflags(write=False)
        return pts, wts

    return mesh.cached(("gauss", npts), build)


def susceptibility_terms_orbitwise(
    p: MapParams, d: DensityRecord, obs, K: int
) -> np.ndarray:
    """Terms s_k = int (psi' o T^k) (T^k)' X N(rho) dx by the orbitwise
    chain rule on a per-cell Gauss rule.

    Orbits y_{k+1} = T(y_k) and products prod_j T'(y_j) accumulate along
    the quadrature points.  Exact in spirit but only usable while the
    expansion 2^k stays below the mesh resolution; used as the cross-check
    of the preimage-sum evaluation on the early terms.
    """
    obs = parse_observable(obs)
    if obs.fprime is None:
        raise ValueError(f"susceptibility: observable {obs.name!r} has no derivative")
    mesh = d.density.mesh
    pts, wts = _gauss_cells(mesh)
    nr = apply_N(p, d.density)
    base = wts * np.asarray(X(p, pts)) * evaluate(nr, pts)
    orbit = pts.copy()
    deriv = np.ones_like(pts)
    terms = []
    for k in range(K + 1):
        terms.append(float(np.sum(base * deriv * np.asarray(obs.fprime(orbit), dtype=float))))
        if k < K:
            deriv = deriv * np.asarray(forward_deriv(p, orbit, 1))
            orbit = forward(p, orbit)
    return np.asarray(terms)


def susceptibility(
    p: MapParams,
    d: DensityRecord,
    obs,
    z: float = 1.0,
    K: int = 256,
) -> float:
    """Susceptibility series  sum_k z^k int (psi' o T^k) (T^k)' X N(rho) dx.

    The substitution y = T^k x on each monotonicity branch turns the k-th
    term into int psi'(y) (A^k W)(y) dy with W = X * N(rho) and A the
    unweighted preimage-sum operator, which the orbitwise chain rule of
    ``susceptibility_terms_orbitwise`` reproduces within quadrature error
    as long as the expansion 2^k is mesh-resolved.  A has the constant
    eigenfunction with eigenvalue 2; for psi with psi(0) = psi(1) that
    mode integrates against psi' to zero, and it is deflated after every
    application so that quadrature noise is not amplified by 2^k.

    For psi(0) != psi(1) the pointwise series genuinely diverges like 2^k
    (the integration by parts behind it picks up jump terms at the branch
    boundaries of T^k, and the map is only continuous as a circle map), so
    such observables are rejected with ``ResponseDivergenceError``.

    At z = 1 the value equals the backward series value (integration by
    parts identity).
    """
    if abs(z) > 1.0:
        raise ValueError("susceptibility: need |z| <= 1")
    if K < 1:
        raise ValueError("susceptibility: K must be >= 1")
    obs = parse_observable(obs)
    if obs.fprime is None:
        raise ValueError(f"susceptibility: observable {obs.name!r} has no derivative")
    jump = float(obs.f(np.asarray([1.0]))[0] - obs.f(np.asarray([0.0]))[0])
    if abs(jump) > 1e-12:
        raise ResponseDivergenceError(
            f"susceptibility series for {obs.name!r} diverges like 2^k: "
            f"psi(1) - psi(0) = {jump:.3g} != 0 feeds the branch-boundary jump terms"
        )
    d.require_converged()
    mesh = d.density.mesh
    psi_p = np.asarray(obs.fprime(mesh.nodes), dtype=float)
    nr = apply_N(p, d.density)
    q, step = mesh.quadrature(0.0), _step(p, mesh, 0.0, preimage_sum=True)
    w = _field(p, mesh, "X") * nr.full_values()
    terms = []
    for k in range(K + 1):
        terms.append(float(q @ (psi_p * w)))
        if k == K:
            break
        w = step(w)
        w -= q @ w  # deflate the A 1 = 2 mode
    zs = z ** np.arange(len(terms))
    return float(np.sum(zs * np.asarray(terms)))


def finite_difference_response(
    p: MapParams,
    obs,
    eps: float,
    mesh: Mesh,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> float:
    """Response by differencing invariant densities at a +/- eps.

    Central quotient (one-sided upward at the a = 0 boundary), computed on
    the *same* mesh so discretization bias cancels; returns the natural
    derivative quotient (int psi d mu_{a+eps} - int psi d mu_{a-eps})/(2 eps)
    to match the series orientation.  A density that does not converge
    raises ``ConvergenceError``.
    """
    if eps <= 0.0:
        raise ValueError("finite_difference_response: eps must be > 0")
    obs = parse_observable(obs)
    a = p.alpha
    if a + eps >= 1.0:
        raise ValueError("finite_difference_response: alpha + eps must stay below 1")

    def mean_at(alpha_val: float) -> float:
        rec = compute_density(MapParams(alpha_val), mesh, tol=tol, max_iter=max_iter)
        return observable_mean(obs, rec.require_converged())

    if a - eps < 0.0:
        return (mean_at(a + eps) - mean_at(a)) / eps
    return (mean_at(a + eps) - mean_at(a - eps)) / (2.0 * eps)
