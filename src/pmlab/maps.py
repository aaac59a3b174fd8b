"""Pomeau-Manneville interval maps and their parameter-derivative fields.

The family is T_a(x) = x*(1 + 2^a * x^a) on [0, 1/2) and T_a(x) = 2x - 1 on
[1/2, 1], for a in [0, 1).  The left branch has a neutral fixed point at 0
(T_a'(0) = 1), which makes mixing polynomial for a > 0.

Everything here is a pure closed-form (or safeguarded-Newton) evaluation:

* the map ``forward`` and its x-derivatives ``forward_deriv``,
* the left-branch inverse g = ``branch_inverse`` and its derivatives
  (``_g_chain``),
* the perturbation field X(x) = v(g(x)) with v = dT/da, together with its
  x-derivatives ``X_prime``, ``X_double_prime`` and a-derivatives
  ``dalpha_X`` etc., all obtained by the chain rule through g.

All functions accept scalars or numpy arrays and are deterministic, so they
are safe to call concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MapParams",
    "forward",
    "forward_deriv",
    "branch_inverse",
    "X",
    "X_prime",
    "X_double_prime",
    "dalpha_X",
    "dalpha_X_prime",
]


@dataclass(frozen=True)
class MapParams:
    """Parameter of one member of the map family; alpha in [0, 1)."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or not (0.0 <= a < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _ret(arr, scalar):
    return float(np.asarray(arr).ravel()[0]) if scalar else arr


def forward(p: MapParams, x):
    """Evaluate T_a(x) on [0, 1].

    The point 1/2 belongs to the right (affine) branch, so
    forward(p, 0.5) == 0 while the left-branch limit at 1/2 is 1.
    The left branch is evaluated as x + 2^a x^(1+a) to avoid cancellation
    near the neutral point.
    """
    xa, scalar = _as_array(x)
    _check_unit(xa, "forward", allow_zero=True)
    return _ret(_forward_unchecked(p.alpha, xa), scalar)


def _forward_unchecked(a: float, x: np.ndarray) -> np.ndarray:
    """The arithmetic of ``forward`` on a float array, without its checks.

    T_a maps [0, 1] into itself in floating point too: just below 1/2 the
    left branch rounds to at most 1.0.  Monte Carlo orbits step through this
    and check their range once per block of steps.
    """
    left = x ** (1.0 + a)
    left *= 2.0**a
    left += x
    right = 2.0 * x
    right -= 1.0
    return np.where(x < 0.5, left, right)


def forward_deriv(p: MapParams, x, order: int = 1):
    """Closed-form branch derivative of T_a of the given order (1..4).

    On [1/2, 1] the branch is affine: returns 2 for order 1, else 0.
    For order >= 2 points with x == 0 on the left branch are rejected when
    a > 0 (the derivative blows up like x^(a-1)).
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("forward_deriv: order must be 1..4")
    a = p.alpha
    xa, scalar = _as_array(x)
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise ValueError("forward_deriv: x outside [0, 1]")
    left = xa < 0.5
    if order >= 2 and a > 0.0 and np.any(left & (xa == 0.0)):
        raise ValueError("forward_deriv: derivative of order >= 2 undefined at x = 0")
    out = np.full_like(xa, 2.0 if order == 1 else 0.0)
    out[left] = _f_deriv(a, xa[left], order)
    return _ret(out, scalar)


def branch_inverse(p: MapParams, y):
    """Invert the left branch: the unique g in [0, 1/2] with f_a(g) = y.

    Newton iteration started at the expansion y*(1 - 2^a y^a), safeguarded
    by bisection on [0, 1/2]; f_a is strictly increasing and convex on the
    branch so the bracket never fails.  It runs to full double precision:
    it stops when f_a(g) == y or when a step no longer moves g.  A scalar y
    runs the same iteration on Python floats and returns the same bits as a
    1-element array, without the per-call overhead of array operations.
    """
    a = p.alpha
    if np.ndim(y) == 0:
        yf = float(y)
        if not 0.0 <= yf <= 1.0:
            raise ValueError("branch_inverse: y outside [0, 1]")
        return 0.5 * yf if a == 0.0 else _branch_inverse_scalar(a, yf)
    ya, scalar = _as_array(y)
    if not np.all((ya >= 0.0) & (ya <= 1.0)):
        raise ValueError("branch_inverse: y outside [0, 1]")
    if a == 0.0:
        return _ret(0.5 * ya, scalar)

    ya = ya.astype(float, copy=True)
    two_a = 2.0**a
    g = ya * (1.0 - two_a * ya**a)
    np.clip(g, 0.0, 0.5, out=g)
    lo = np.zeros_like(ya)
    hi = np.full_like(ya, 0.5)
    done = ya == 0.0  # g(0) = 0 exactly
    exact_one = ya == 1.0  # f_a(1/2) = 1 exactly
    g[exact_one] = 0.5
    done |= exact_one
    for _ in range(100):
        act = ~done
        if not act.any():
            break
        ga = g[act]
        r = ga + two_a * ga ** (1.0 + a) - ya[act]
        high = r > 0.0
        hi[act] = np.where(high, ga, hi[act])
        lo[act] = np.where(high, lo[act], ga)
        conv = r == 0.0
        gn = ga - r / (1.0 + two_a * (1.0 + a) * ga**a)
        outside = (gn <= lo[act]) | (gn >= hi[act])
        gn = np.where(outside, 0.5 * (lo[act] + hi[act]), gn)
        stalled = gn == ga  # bracket collapsed to machine precision
        finished = conv | stalled
        g[act] = np.where(finished, ga, gn)
        done[act] = finished
    if not done.all():
        raise RuntimeError("branch_inverse: Newton/bisection failed to converge")
    return _ret(g, scalar)


def _branch_inverse_scalar(a: float, y: float) -> float:
    """The loop of ``branch_inverse`` on one Python float, step for step.

    Every power goes through the ``np.power`` ufunc, as in the array loop,
    so both paths return the same bits; libm ``pow`` rounds differently
    from numpy's vectorised loop in a few per cent of cases.
    """
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    pw = np.power
    two_a = 2.0**a
    e1 = 1.0 + a
    c1 = two_a * (1.0 + a)
    g = min(max(y * (1.0 - two_a * float(pw(y, a))), 0.0), 0.5)
    lo, hi = 0.0, 0.5
    for _ in range(100):
        r = g + two_a * float(pw(g, e1)) - y
        if r > 0.0:
            hi = g
        else:
            lo = g
        if r == 0.0:
            return g
        gn = g - r / (1.0 + c1 * float(pw(g, a)))
        if gn <= lo or gn >= hi:
            gn = 0.5 * (lo + hi)
        if gn == g:  # bracket collapsed to machine precision
            return g
        g = gn
    raise RuntimeError("branch_inverse: Newton/bisection failed to converge")


def _f_deriv(a: float, g, order: int):
    """Left-branch derivative of T_a on [0, 1/2] (closed at 1/2), vectorized."""
    g = np.asarray(g, dtype=float)
    if order == 1:
        return 1.0 + 2.0**a * (a + 1.0) * g**a
    if a == 0.0:
        return np.zeros_like(g)
    coef = 2.0**a * (a + 1.0) * a
    expo = a - 1.0
    if order >= 3:
        coef *= a - 1.0
        expo -= 1.0
    if order == 4:
        coef *= a - 2.0
        expo -= 1.0
    return coef * g**expo


def _g_chain(p: MapParams, y, order: int):
    """g and its x-derivatives up to ``order`` (max 4) at the points y.

    Inverse-function identities: g' = 1/T'(g), g'' = -T'' g'^3,
    g''' = 3 T''^2 g'^5 - T''' g'^4,
    g'''' = -T'''' g'^5 + 10 T'' T''' g'^6 - 15 T''^3 g'^7.
    """
    a = p.alpha
    g = np.atleast_1d(np.asarray(branch_inverse(p, y), dtype=float))
    gp = 1.0 / _f_deriv(a, g, 1)
    res = [g, gp]
    if order >= 2:
        t2 = _f_deriv(a, g, 2)
        res.append(-t2 * gp**3)
    if order >= 3:
        t3 = _f_deriv(a, g, 3)
        res.append(3.0 * t2**2 * gp**5 - t3 * gp**4)
    if order >= 4:
        t4 = _f_deriv(a, g, 4)
        res.append(-t4 * gp**5 + 10.0 * t2 * t3 * gp**6 - 15.0 * t2**3 * gp**7)
    return res


# ---------------------------------------------------------------------------
# The parameter-velocity field v(y) = dT/da on the left branch and its
# derivatives.  v(y) = 2^a y^(1+a) log(2y); primes are d/dy, "dv" is d/da
# at fixed y.
# ---------------------------------------------------------------------------


def _log2y(y):
    with np.errstate(divide="ignore"):
        return np.log(2.0 * y)


def _v(a, y):
    l2y = _log2y(y)
    with np.errstate(invalid="ignore"):
        out = 2.0**a * y ** (1.0 + a) * l2y
    return np.where(y == 0.0, 0.0, out)


def _v_prime(a, y):
    return 2.0**a * y**a * ((1.0 + a) * _log2y(y) + 1.0)


def _v_second(a, y):
    return 2.0**a * y ** (a - 1.0) * ((a + a * a) * _log2y(y) + 1.0 + 2.0 * a)


def _dv(a, y):
    l2y = _log2y(y)
    with np.errstate(invalid="ignore"):
        out = 2.0**a * y ** (1.0 + a) * l2y * l2y
    return np.where(y == 0.0, 0.0, out)


def _dv_prime(a, y):
    l2y = _log2y(y)
    return 2.0**a * y**a * l2y * ((1.0 + a) * l2y + 2.0)


def _check_unit(xa, name, allow_zero=False):
    lo_ok = (xa >= 0.0) if allow_zero else (xa > 0.0)
    if not np.all(lo_ok & (xa <= 1.0)):
        dom = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name}: x outside {dom}")


def X(p: MapParams, x):
    """Perturbation field X(x) = v(g(x)) = 2^a g^(1+a) log(2 g), X(0) = 0.

    Vanishes at both endpoints: g(1) = 1/2 kills the log factor, and the
    continuous extension at 0 is 0.
    """
    xa, scalar = _as_array(x)
    _check_unit(xa, "X", allow_zero=True)
    g = np.atleast_1d(np.asarray(branch_inverse(p, xa), dtype=float))
    return _ret(_v(p.alpha, g), scalar)


def X_prime(p: MapParams, x):
    """d/dx of X: 2^a g' g^a [(1+a) log(2g) + 1]."""
    xa, scalar = _as_array(x)
    _check_unit(xa, "X_prime")
    g, gp = _g_chain(p, xa, 1)
    return _ret(_v_prime(p.alpha, g) * gp, scalar)


def X_double_prime(p: MapParams, x):
    """d2/dx2 of X: v''(g) g'^2 + v'(g) g''."""
    xa, scalar = _as_array(x)
    _check_unit(xa, "X_double_prime")
    g, gp, gpp = _g_chain(p, xa, 2)
    a = p.alpha
    return _ret(_v_second(a, g) * gp**2 + _v_prime(a, g) * gpp, scalar)


def dalpha_X(p: MapParams, x):
    """d/da of X(x) at fixed x: (d_a v)(g) + v'(g) * d_a g; 0 at x = 0."""
    a = p.alpha
    xa, scalar = _as_array(x)
    _check_unit(xa, "dalpha_X", allow_zero=True)
    g, gp = _g_chain(p, xa, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        G = -_v(a, g) * gp
        out = _dv(a, g) + _v_prime(a, g) * G
    return _ret(np.where(xa == 0.0, 0.0, out), scalar)


def dalpha_X_prime(p: MapParams, x):
    """d/da of X'(x) at fixed x (equals (d_a X)' by mixed-partial symmetry)."""
    a = p.alpha
    xa, scalar = _as_array(x)
    _check_unit(xa, "dalpha_X_prime")
    g, gp = _g_chain(p, xa, 1)
    G = -_v(a, g) * gp
    dgp = -(_v_prime(a, g) + _f_deriv(a, g, 2) * G) * gp**2  # d/da of g'(x)
    out = (_dv_prime(a, g) + _v_second(a, g) * G) * gp + _v_prime(a, g) * dgp
    return _ret(out, scalar)
