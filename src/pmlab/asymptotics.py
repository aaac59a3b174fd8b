"""Neutral-orbit asymptotics, distortion factors, correlation decay, and the
Monte Carlo Birkhoff oracle.

The neutral orbit x_l = g^l(1) controls everything quantitative about the
slow mixing: x_l ~ l^(-1/a) with the proven upper constant
2^(1/a^2 + 1/a), the contraction of the inverse branch along the orbit
satisfies lambda_m(x_l) <= C (1 + m/l)^(-1 - 1/a), and correlations of
Lipschitz observables decay polynomially (exponentially at a = 0).
"""

import math
from dataclasses import dataclass

import numpy as np

from .maps import MapParams, _check_unit, _forward_unchecked, branch_inverse, forward_deriv
from .response import observable_mean, parse_observable
from .transfer import ConvergenceError, DensityRecord, _L

__all__ = [
    "OrbitStats",
    "CorrelationCurve",
    "neutral_orbit",
    "contraction_factor",
    "correlation_decay",
    "birkhoff_average",
]


@dataclass
class OrbitStats:
    """The neutral orbit with bound checks and a tail power-law fit.

    ``upper_margin`` is the worst relative slack in the proven bound
    x_l <= 2^(1/a^2 + 1/a) l^(-1/a); ``lower_c`` the fitted constant in
    x_l >= c (2^a a)^(-1/a) l^(-1/a) (the bound constant is not explicit;
    below a ~ 0.0068 c is under the double range, and reads 0 with
    ``lower_ok`` false).  At a = 0 the orbit is exactly 2^-l and no power
    law is fitted.
    """

    alpha: float
    ell_max: int
    x_ell: np.ndarray
    fitted_exponent: float | None
    upper_ok: bool
    lower_ok: bool
    upper_margin: float
    lower_c: float

    def to_rows(self):
        bound = _upper_bound(self.alpha, self.ell_max)
        x = self.x_ell[1:]
        return list(zip(range(1, self.ell_max + 1), x.tolist(), bound.tolist(),
                        _rel_slack(bound, x).tolist()))


def _upper_bound(a: float, ell_max: int) -> np.ndarray:
    """The bound on x_l for l = 1..ell_max: 2^(1/a^2 + 1/a) l^(-1/a), and at
    a = 0 the exact orbit 2^-l (0 from l = 1075 on).  Formed in log space,
    since the constant exceeds a double below a ~ 0.0316: +inf only where
    the bound itself does."""
    ells = np.arange(1, ell_max + 1, dtype=float)
    if a == 0.0:
        return 2.0**-ells
    with np.errstate(over="ignore"):
        return np.exp2(1.0 / a**2 + 1.0 / a - np.log2(ells) / a)


def _rel_slack(bound: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(bound - x) / bound: 0 where x equals the bound (no 0 / 0 where the
    a = 0 orbit and its bound have both underflowed to 0), 1 where the bound
    is +inf."""
    return np.divide(bound - x, bound, out=np.isinf(bound).astype(float),
                     where=(bound != x) & np.isfinite(bound))


def _inverse_orbit(p: MapParams, n: int) -> np.ndarray:
    """The neutral orbit x_0 = 1, x_l = g(x_(l-1)) for l = 1..n."""
    x = np.empty(n + 1)
    x[0] = 1.0
    for ell in range(1, n + 1):
        x[ell] = branch_inverse(p, x[ell - 1])
    return x


def neutral_orbit(p: MapParams, ell_max: int) -> OrbitStats:
    """Iterate the branch inverse from 1 and test the orbit asymptotics."""
    if ell_max < 2:
        raise ValueError("neutral_orbit: ell_max must be >= 2")
    a = p.alpha
    x = _inverse_orbit(p, ell_max)
    tiny = np.finfo(float).tiny
    if a > 0.0 and x[-1] < tiny:  # subnormal: it stalls or underflows to 0
        raise ConvergenceError(f"neutral orbit at alpha={a:g} leaves the normal "
                               f"range at step {int(np.argmax(x < tiny))}")
    bound = _upper_bound(a, ell_max)
    rel_slack = _rel_slack(bound, x[1:])
    if a == 0.0:
        ok = bool(np.max(np.abs(rel_slack)) < 1e-12)
        return OrbitStats(alpha=a, ell_max=ell_max, x_ell=x, fitted_exponent=None,
                          upper_ok=ok, lower_ok=ok, upper_margin=0.0, lower_c=1.0)
    ells = np.arange(1, ell_max + 1, dtype=float)
    upper_ok = bool(np.all(x[1:] <= bound))
    # log x_l - log((2^a a l)^(-1/a)): the constant exceeds a double below a ~ 0.007
    lower_c = float(np.exp(np.min(np.log(x[1:]) + np.log(2.0**a * a * ells) / a)))
    lo = max(2, ell_max // 10)
    slope = np.polyfit(np.log(ells[lo:]), np.log(x[1 + lo :]), 1)[0]
    return OrbitStats(
        alpha=a,
        ell_max=ell_max,
        x_ell=x,
        fitted_exponent=float(slope),
        upper_ok=upper_ok,
        lower_ok=lower_c > 0.0,
        upper_margin=float(np.min(rel_slack)),
        lower_c=lower_c,
    )


def contraction_factor(p: MapParams, ell: int, m: int) -> float:
    """lambda_m(x_l) = 1 / (f^m)'(x_{l+m}), accumulated in log space.

    The product of 1/T' along the left-branch orbit from x_{l+m} up to
    x_{l+1}; equals 2^-m at a = 0 and obeys the bounded-distortion envelope
    C (1 + m/l)^(-1 - 1/a) in general.
    """
    if ell < 1 or m < 0:
        raise ValueError("contraction_factor: need ell >= 1, m >= 0")
    if m == 0:
        return 1.0
    log_sum = 0.0
    for d in forward_deriv(p, _inverse_orbit(p, ell + m)[ell + 1 :], 1).tolist():
        log_sum += math.log(d)
    return math.exp(-log_sum)


def _mc_step(p: MapParams, xs: np.ndarray, rng) -> np.ndarray:
    """One Monte Carlo orbit step: ``forward``'s bits without its range check.

    At a = 0 the map is the binary shift, so double-precision orbits
    collapse to 0 within ~53 steps; an ulp-scale seeded dither keeps them
    on the attractor (statistics of the absolutely continuous measure are
    robust to this noise, and determinism per seed is preserved).
    """
    xs = _forward_unchecked(p.alpha, xs)
    if p.alpha == 0.0:
        xs = np.minimum(xs + rng.uniform(0.0, 2.0**-50, xs.size), 1.0 - 1e-16)
    return xs


def _check_orbits(name, n_orbits, burn_in, min_orbits):
    if n_orbits < min_orbits:
        raise ValueError(f"{name}: n_orbits must be >= {min_orbits}")
    if burn_in < 0:
        raise ValueError(f"{name}: burn_in must be >= 0")


def _check_lags(N):
    if N < 8:
        raise ValueError("correlation_decay: N must be >= 8")


# Steps per block of the Monte Carlo lag sums and per range check of the
# orbits.  T maps [0, 1] into itself and an orbit that leaves it never
# returns (above 1 it grows, below 0 it turns into NaN), so one check per
# block raises ``forward``'s ValueError for any step that would have.
_MC_BLOCK = 64
# Bootstrap resamples of the Monte Carlo exponent, and the float64 entries
# of one chunk of their orbit counts (32 kB).  A chunk of 4 resamples of
# 1024 orbits is as fast as one of 64, and BLAS keeps the pages its larger
# products touch (64 resamples: +1.1 MB of peak RSS).
_N_BOOT = 200
_BOOT_CHUNK = 1 << 12


def _burn(p: MapParams, xs: np.ndarray, rng, n: int) -> np.ndarray:
    """``n`` Monte Carlo steps, with the range checked once per block."""
    for t0 in range(0, n, _MC_BLOCK):
        for _ in range(min(_MC_BLOCK, n - t0)):
            xs = _mc_step(p, xs, rng)
        _check_unit(xs, "forward", allow_zero=True)
    return xs


@dataclass
class CorrelationCurve:
    """Correlation values C_n with a tail power-law fit.

    ``exponent_ci`` is a 95% interval: from the least-squares slope standard
    error for the operator method, from an orbit-bootstrap for Monte Carlo.
    """

    alpha: float
    psi_id: str
    phi_id: str
    values: np.ndarray
    method: str
    fitted_exponent: float
    exponent_ci: tuple
    standard_errors: np.ndarray | None


def _fit_decay(values, n_lo, n_hi):
    n = np.arange(len(values))
    mask = (n >= n_lo) & (n <= n_hi) & (np.abs(values) > 0)
    floor = 1e-14 * np.max(np.abs(values))
    mask &= np.abs(values) > floor
    if mask.sum() < 4:
        return math.nan, (math.nan, math.nan)
    ln, lc = np.log(n[mask]), np.log(np.abs(values[mask]))
    A = np.vstack([ln, np.ones_like(ln)]).T
    coef, res, _, _ = np.linalg.lstsq(A, lc, rcond=None)
    dof = max(mask.sum() - 2, 1)
    s2 = (res[0] / dof) if res.size else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    se = math.sqrt(max(cov[0, 0], 0.0))
    return float(coef[0]), (float(coef[0] - 1.96 * se), float(coef[0] + 1.96 * se))


def correlation_decay(
    p: MapParams,
    d: DensityRecord | None,
    psi,
    phi,
    N: int,
    method: str = "operator",
    n_orbits: int = 1024,
    orbit_len: int = 65536,
    burn_in: int = 1024,
    seed: int = 0,
) -> CorrelationCurve:
    """Correlations C_n = cov(psi o T^n, phi) under the invariant measure.

    Operator method: C_n = int psi L^n(phi rho) dx - m_phi m_psi.
    It needs a converged density: ``ValueError`` without one, and
    ``ConvergenceError`` through ``require_converged()``.
    Monte Carlo method: empirical lagged covariances over independent
    orbits, with batch-mean standard errors; it does not read ``d``, which
    may be None.  The decay exponent is fitted on n in [N/4, N].
    """
    psi_o, phi_o = parse_observable(psi), parse_observable(phi)
    _check_lags(N)
    if method == "operator":
        if d is None:
            raise ValueError("correlation_decay: the operator method needs a density")
        rho = d.require_params(p).require_converged().density
        mesh = rho.mesh
        x = mesh.nodes
        phi_vals = np.asarray(phi_o.f(x), dtype=float)
        psi_vals = np.asarray(psi_o.f(x), dtype=float)
        # covariance form: the mean is subtracted from the correlation, not
        # from phi itself -- centering the function would destroy a
        # vanishing-near-zero support property and degrade the decay rate
        # from n^(-1/a) to the generic n^(1 - 1/a)
        mean_phi, mean_psi = observable_mean(phi_o, d), observable_mean(psi_o, d)
        q, L, w = mesh.quadrature(rho.s), _L(p, mesh, rho.s), phi_vals * rho.values
        vals = np.empty(N + 1)
        for n in range(N + 1):
            vals[n] = float(q @ (psi_vals * w)) - mean_phi * mean_psi
            if n < N:
                w = L @ w
        if np.max(np.abs(vals)) == 0.0:
            raise ValueError("correlation_decay: all correlations vanish")
        expo, ci = _fit_decay(vals, max(N // 4, 1), N)
        return CorrelationCurve(p.alpha, psi_o.name, phi_o.name, vals, "operator",
                                expo, ci, None)
    if method != "montecarlo":
        raise ValueError("correlation_decay: method must be 'operator' or 'montecarlo'")

    _check_orbits("correlation_decay", n_orbits, burn_in, 2)
    lags = N
    steps = orbit_len - burn_in
    if steps <= lags + 8:
        raise ValueError("correlation_decay: orbit_len too short after burn-in")
    rng = np.random.default_rng(seed)
    xs = _burn(p, rng.uniform(0.0, 1.0, n_orbits), rng, burn_in)
    # sums[n] accumulates psi_t phi_(t-n) one block of steps at a time.
    # Rows [lags, lags + nb) of hist hold the block's phi and rows [0, lags)
    # the phi of the lags steps before it (zeros before the first step, so
    # they add nothing); psi_blk holds the block's psi.
    hist = np.zeros((lags + _MC_BLOCK, n_orbits))
    psi_blk = np.empty((_MC_BLOCK, n_orbits))
    sums = np.zeros((lags + 1, n_orbits))
    phi_sum = np.zeros(n_orbits)
    psi_sum = np.zeros(n_orbits)
    for t0 in range(0, steps, _MC_BLOCK):
        nb = min(_MC_BLOCK, steps - t0)
        for k in range(nb):
            hist[lags + k] = phi_o.f(xs)
            psi_blk[k] = psi_o.f(xs)
            phi_sum += hist[lags + k]
            psi_sum += psi_blk[k]
            xs = _mc_step(p, xs, rng)
        _check_unit(xs, "forward", allow_zero=True)
        for n in range(lags + 1):
            sums[n] += np.einsum("tj,tj->j", psi_blk[:nb], hist[lags - n : lags - n + nb])
        hist[:lags] = hist[nb : nb + lags]
    counts = steps - np.arange(lags + 1, dtype=float)
    # per-orbit covariance estimates: mean psi_{t+n} phi_t - psi_bar phi_bar
    per_orbit = sums / counts[:, None] - (psi_sum / steps)[None, :] * (phi_sum / steps)[None, :]
    vals = per_orbit.mean(axis=1)
    ses = per_orbit.std(axis=1, ddof=1) / math.sqrt(n_orbits)
    n_lo = max(N // 4, 1)
    expo, _ = _fit_decay(vals, n_lo, N)
    # Each resample's means are per_orbit times its orbit counts, so a chunk
    # of resamples is one matmul.
    boots = []
    chunk = max(1, _BOOT_CHUNK // n_orbits)
    for r0 in range(0, _N_BOOT, chunk):
        picked = np.empty((min(chunk, _N_BOOT - r0), n_orbits))
        for row in picked:
            row[:] = np.bincount(rng.integers(0, n_orbits, n_orbits), minlength=n_orbits)
        means = per_orbit @ picked.T
        means /= n_orbits
        for bvals in means.T:
            b, _ = _fit_decay(bvals, n_lo, N)
            if not math.isnan(b):
                boots.append(b)
    ci = (float(np.percentile(boots, 2.5)), float(np.percentile(boots, 97.5))) if boots else (math.nan, math.nan)
    return CorrelationCurve(p.alpha, psi_o.name, phi_o.name, vals, "montecarlo",
                            expo, ci, ses)


def birkhoff_average(
    p: MapParams,
    psi,
    n_orbits: int = 1024,
    orbit_len: int = 16384,
    burn_in: int = 1024,
    seed: int = 0,
) -> tuple[float, float]:
    """Time average of psi over seeded random orbits (ergodic oracle).

    Orbits advance in the compensated form x + 2^a x^(1+a); the mean is the
    grand average after burn-in and the standard error comes from treating
    each orbit as one batch (NaN for a single orbit: one batch has no
    spread).  Identical seeds reproduce identical results.
    """
    obs = parse_observable(psi)
    _check_orbits("birkhoff_average", n_orbits, burn_in, 1)
    if orbit_len <= burn_in:
        raise ValueError("birkhoff_average: orbit_len must exceed burn_in")
    rng = np.random.default_rng(seed)
    xs = _burn(p, rng.uniform(0.0, 1.0, n_orbits), rng, burn_in)
    steps = orbit_len - burn_in
    acc = np.zeros(n_orbits)
    for t0 in range(0, steps, _MC_BLOCK):
        for _ in range(min(_MC_BLOCK, steps - t0)):
            acc += obs.f(xs)
            xs = _mc_step(p, xs, rng)
        _check_unit(xs, "forward", allow_zero=True)
    means = acc / steps
    grand = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(n_orbits)) if n_orbits > 1 else math.nan
    return grand, se
