"""Invariant-cone membership checks and invariance experiments.

The cones are sets of positive functions pinched by pointwise differential
inequalities, one entry each of the ``_CONES`` table:

* C2:      b1_bar/x phi <= -phi'   <= b1/x phi   and
           b2_bar/x^2 phi <= phi'' <= b2/x^2 phi
* C3:      C2 and |phi'''| <= b3/x^3 phi
* Cstar:   0 <= phi <= 2 a rho m(phi),  -(alpha+1)/x phi <= phi' <= 0
* Cstar1:  0 <= phi <= 2 a rho m(phi),  |phi'| <= b1/x phi

Membership is asserted on the mesh nodes of one window [x_check, 1] (the
testable surrogate for the continuum statements; x_check = 10 x_min keeps
the extrapolation zone out).  Derivatives come from 5-point nonuniform
stencils through the singular factorization, unless a jet supplies them.

``omega_factors`` evaluates the closed-form bracket factors that drive the
invariance proofs for the one-branch operator N: Omega_i <= 1 on (0, 1/2]
is what makes the upper cone inequalities contract.  The third-order
bracket is assembled from the exact chain-rule expansion of (N phi)'''
(coefficients 1, 6, 4, 15, 1, 10, 15).
"""

import math
from dataclasses import dataclass

import numpy as np

from .maps import MapParams, _as_array, _f_deriv, _ret
from .grid import GridFunction, derivatives_full, integrate, integrate_to
from .transfer import DensityRecord, _jet_images, jet_apply, jet_one

__all__ = [
    "ConeParams",
    "ConeReport",
    "check_C2",
    "check_Cstar",
    "check_Cstar1",
    "check_C3",
    "omega_factors",
    "omega_bar_factors",
    "default_cone_params",
    "invariance_experiment",
]

_MARGIN_GUARD = 1e-300


@dataclass(frozen=True)
class ConeParams:
    """Cone constants; the bars are the lower-bound counterparts.

    The invariance regime wants b1 >= alpha + 1, b2 >= b1 (large enough),
    b3 >= b1, and small positive bars; ``default_cone_params`` calibrates
    one admissible choice from the data since only existence is known.
    """

    a: float
    b1: float
    b2: float
    b3: float
    b1_bar: float
    b2_bar: float

    def __post_init__(self):
        if self.a < 1.0:
            raise ValueError("ConeParams: a must be >= 1")
        if self.b2 < self.b1 or self.b3 < self.b1:
            raise ValueError("ConeParams: need b2 >= b1 and b3 >= b1")
        if self.b1_bar <= 0.0 or self.b2_bar <= 0.0:
            raise ValueError("ConeParams: bars must be > 0")

    def to_dict(self) -> dict:
        return {
            "a": self.a, "b1": self.b1, "b2": self.b2, "b3": self.b3,
            "b1_bar": self.b1_bar, "b2_bar": self.b2_bar,
        }


@dataclass
class ConeReport:
    """Outcome of one membership check; reports, never raises, on failure.

    ``margins`` maps inequality name to (worst margin, node where attained)
    with margin = (rhs - lhs) / max(|rhs|, guard).
    """

    cone_id: str
    verdict: bool
    worst_margin: float
    worst_node: float
    margins: dict
    subject: str
    params: dict
    half_mass_margin: float

    def to_dict(self) -> dict:
        return {
            "cone_id": self.cone_id,
            "verdict": bool(self.verdict),
            "worst_margin": self.worst_margin,
            "worst_node": self.worst_node,
            "margins": {k: {"margin": m, "node": x} for k, (m, x) in self.margins.items()},
            "subject": self.subject,
            "params": self.params,
            "half_mass_margin": self.half_mass_margin,
        }


def _margin(lhs, rhs, nodes):
    with np.errstate(over="ignore", divide="ignore"):
        m = (rhs - lhs) / np.maximum(np.abs(rhs), _MARGIN_GUARD)
    i = int(np.argmin(m))
    return float(m[i]), float(nodes[i])


def _window(f: GridFunction):
    x_check = 10.0 * f.mesh.x_min
    mask = f.mesh.nodes >= x_check
    if mask.sum() < 8:
        raise ValueError("cone check: window [x_check, 1] holds fewer than 8 nodes")
    return mask, float(x_check)


@dataclass(frozen=True)
class _Cone:
    """One cone: the derivative order its rows need, whether it carries the
    mass bound phi <= 2 a rho m(phi) and the half-mass report, and its rows
    (name, row) with row(x, d, c) = (lhs, rhs) of lhs <= rhs, where
    d = [phi, phi', ...] on the window and c is the report's params."""

    order: int
    mass: bool
    rows: tuple


_C2_ROWS = (
    ("first_lower", lambda x, d, c: (c["b1_bar"] / x * d[0], -d[1])),
    ("first_upper", lambda x, d, c: (-d[1], c["b1"] / x * d[0])),
    ("second_lower", lambda x, d, c: (c["b2_bar"] / x**2 * d[0], d[2])),
    ("second_upper", lambda x, d, c: (d[2], c["b2"] / x**2 * d[0])),
)

_CONES = {
    "C2": _Cone(2, False, _C2_ROWS),
    "C3": _Cone(3, False, _C2_ROWS + (
        ("third_abs", lambda x, d, c: (np.abs(d[3]), c["b3"] / x**3 * d[0])),
    )),
    "Cstar": _Cone(1, True, (
        ("deriv_lower", lambda x, d, c: (-(c["alpha"] + 1.0) / x * d[0], d[1])),
        ("deriv_upper", lambda x, d, c: (d[1], 0.0 * d[1])),
    )),
    "Cstar1": _Cone(1, True, (
        ("deriv_abs", lambda x, d, c: (np.abs(d[1]), c["b1"] / x * d[0])),
    )),
}


def _check(cone_id, f, params, subject, derivs, density=None) -> ConeReport:
    """Membership of f in the cone ``_CONES[cone_id]`` on the check window.

    ``params`` are the report's params after "cone"; the window start
    fills their "x_check" entry (None) in place.
    """
    cone = _CONES[cone_id]
    mask, xc = _window(f)
    x = f.mesh.nodes[mask]
    if derivs is None:
        derivs = derivatives_full(f, cone.order)
    d = [np.asarray(arr)[mask] for arr in derivs[: cone.order + 1]]
    c = {"cone": cone_id, **params, "x_check": xc}
    margins = {"positivity": _margin(0.0 * d[0], d[0], x)}
    half_mass = math.nan
    if cone.mass:
        if density.density.mesh is not f.mesh:
            raise ValueError("cone check: density and function live on different meshes")
        rho = density.density.full_values()[mask]
        m_phi = integrate(f)
        margins["mass_bound"] = _margin(d[0], 2.0 * c["a"] * rho * m_phi, x)
        half_mass = float((integrate_to(f, 0.5) - 0.5 * m_phi)
                          / max(abs(0.5 * m_phi), _MARGIN_GUARD))
    for name, row in cone.rows:
        margins[name] = _margin(*row(x, d, c), x)
    worst_margin, worst_node = min(margins.values(), key=lambda mx: mx[0])
    return ConeReport(
        cone_id=cone_id,
        verdict=bool(worst_margin >= 0.0),
        worst_margin=worst_margin,
        worst_node=worst_node,
        margins=margins,
        subject=subject,
        params=c,
        half_mass_margin=half_mass,
    )


def check_C2(f: GridFunction, cp: ConeParams, subject: str = "",
             derivs: list | None = None) -> ConeReport:
    """Membership in C2 on the check window.

    ``derivs`` may supply precomputed nodal values [phi, phi', phi''] (e.g.
    from a chain-rule jet); the default is 5-point stencil differentiation.
    """
    return _check("C2", f, {"x_check": None, **cp.to_dict()}, subject, derivs)


def check_C3(f: GridFunction, cp: ConeParams, subject: str = "",
             derivs: list | None = None) -> ConeReport:
    """Membership in C3 = C2 plus the third-derivative pinch.

    Stencil third derivatives need a reasonably fine mesh; jets bypass the
    restriction.
    """
    if derivs is None and f.mesh.size < 2048:
        raise ValueError("check_C3: needs mesh size >= 2048 for stable phi'''")
    return _check("C3", f, {"x_check": None, **cp.to_dict()}, subject, derivs)


def check_Cstar(f: GridFunction, p: MapParams, density: DensityRecord, a: float,
                subject: str = "", derivs: list | None = None) -> ConeReport:
    """Membership in C_*(alpha, a): decreasing, mass-dominated by 2 a rho.

    Also reports the half-mass property int_0^(1/2) phi >= m(phi)/2 (it is
    what upgrades N-images into the doubled-a cone), without letting it
    affect the verdict.
    """
    return _check("Cstar", f, {"alpha": p.alpha, "a": a, "x_check": None},
                  subject, derivs, density.require_params(p))


def check_Cstar1(f: GridFunction, p: MapParams, density: DensityRecord, a: float,
                 b1: float, subject: str = "", derivs: list | None = None) -> ConeReport:
    """Membership in C_*1(alpha, a, b1): |phi'| <= b1 phi / x plus the mass
    bound; the decreasing condition of C_* is dropped."""
    return _check("Cstar1", f,
                  {"alpha": p.alpha, "a": a, "b1": b1, "x_check": None},
                  subject, derivs, density.require_params(p))


# ---------------------------------------------------------------------------
# Bracket factors controlling invariance of the upper cone inequalities
# ---------------------------------------------------------------------------


def _upper_constants(alpha: float) -> tuple[float, float, float]:
    """b1, b2, b3 of the invariance regime (see ``default_cone_params``)."""
    b1 = alpha + 1.0
    b2 = 3.0 * b1 * (1.0 + alpha) + 21.0
    return b1, b2, 3.0 * b2 * (1.0 + alpha) + 2.0 * b1 + 10.0


def _left_branch(p: MapParams, y, name: str):
    """y as an array, whether it was a scalar, T'(y), T''(y) and
    T(y) / (y T'(y)) on the left branch, for y in (0, 1/2]."""
    a = p.alpha
    ya, scalar = _as_array(y)
    if np.any((ya <= 0.0) | (ya > 0.5)):
        raise ValueError(f"{name}: y must lie in (0, 1/2]")
    t1 = _f_deriv(a, ya, 1)
    t = ya + 2.0**a * ya ** (1.0 + a)  # T(y), left branch
    return ya, scalar, t1, _f_deriv(a, ya, 2), t / (ya * t1)


def omega_factors(p: MapParams, y, cp: ConeParams):
    """The three bracket factors (Omega_1, Omega_2, Omega_3) at y in (0, 1/2].

    These multiply b1 phi/x, b2 phi/x^2, b3 phi/x^3 in the bounds for
    -(N phi)', (N phi)'', |(N phi)'''|; invariance of the corresponding
    cone inequality under N holds wherever Omega_i <= 1.  All three are
    identically 1 at alpha = 0.

    Omega_3 comes from the chain-rule expansion of (N phi)''' with
    g'' = -T'' g'^3, g''' = 3 T''^2 g'^5 - T''' g'^4 and
    g'''' = -T'''' g'^5 + 10 T'' T''' g'^6 - 15 T''^3 g'^7, which yields
    phi-coefficients (T'''' , 10 T'' T''', 15 T''^3); the phi'' cross term
    carries 6 T''.
    """
    a = p.alpha
    ya, scalar, t1, t2, base = _left_branch(p, y, "omega_factors")
    t3 = np.abs(_f_deriv(a, ya, 3))
    t4 = np.abs(_f_deriv(a, ya, 4))
    omega1 = base * (ya * t2 / t1 + cp.b1) / cp.b1
    omega2 = base**2 * (
        3.0 * cp.b1 * ya * t2 / t1
        + ya**2 * t3 / t1
        + 3.0 * (ya * t2 / t1) ** 2
        + cp.b2
    ) / cp.b2
    omega3 = base**3 * (
        1.0
        + (
            6.0 * cp.b2 * ya * t2 / t1
            + 4.0 * cp.b1 * ya**2 * t3 / t1
            + 15.0 * cp.b1 * (ya * t2 / t1) ** 2
            + ya**3 * t4 / t1
            + 10.0 * ya**3 * t2 * t3 / t1**2
            + 15.0 * (ya * t2 / t1) ** 3
        )
        / cp.b3
    )
    return tuple(_ret(o, scalar) for o in (omega1, omega2, omega3))


def omega_bar_factors(p: MapParams, y, cp: ConeParams):
    """Lower-bound counterparts (Omega_bar_1, Omega_bar_2); invariance of
    the lower cone inequalities holds wherever they are >= 1."""
    a = p.alpha
    ya, scalar, t1, t2, base = _left_branch(p, y, "omega_bar_factors")
    obar1 = base * (ya * t2 / (cp.b1_bar * t1) + 1.0)
    v = 2.0**a * a * ya**a / t1
    bracket = (
        3.0 * cp.b1_bar * (1.0 + a)
        + (1.0 - a * a)
        + 3.0 * 2.0**a * (1.0 + a) ** 2 * a * ya**a / t1
    )
    obar2 = base**2 * (1.0 + v / cp.b2_bar * bracket)
    return tuple(_ret(o, scalar) for o in (obar1, obar2))


# ---------------------------------------------------------------------------
# Calibration and the invariance experiment
# ---------------------------------------------------------------------------


def _check_k_max(name: str, k_max: int) -> None:
    """``ValueError`` unless k_max >= 1, the iterate count."""
    if k_max < 1:
        raise ValueError(f"{name}: k_max must be >= 1")


def default_cone_params(
    p: MapParams,
    density: DensityRecord,
    k_max: int = 20,
) -> ConeParams:
    """One admissible parameter choice, calibrated from the data.

    Upper constants follow the invariance regime, b1 = alpha + 1,
    b2 = 3 b1 (1 + alpha) + 21 and b3 = 3 b2 (1 + alpha) + 2 b1 + 10, at which
    Omega_3 <= 1 on (0, 1/2].  The lower bars are fitted on the default
    window from L^k(1), k = 1..k_max (whose pinch ratios -phi' x / phi and
    phi'' x^2 / phi sink to ~ alpha x^alpha near 0, so no universal bar
    exists) with headroom 0.5 and the b2_bar = 10 b1_bar coupling; a is fitted
    from sup phi_k / (2 rho m).  Only existence of admissible constants is
    known, so the values are recorded in report metadata, not canonical.
    """
    _check_k_max("default_cone_params", k_max)
    density.require_params(p)
    a_par = p.alpha
    mesh = density.density.mesh
    mask, _ = _window(density.density)
    x = mesh.nodes[mask]
    b1, b2, b3 = _upper_constants(a_par)

    rho = density.density.full_values()[mask]
    m1_min, m2_min, a_need = math.inf, math.inf, 1.0
    # Chain-rule jets of L^k(1) for k = 1..k_max (mass is conserved).
    # Stencil differentiation of interpolation-propagated iterates amplifies
    # the cell-scale interpolation ripple by h^-order and drowns the cone
    # margins near 0, so derivatives are propagated through L exactly.
    jet = jet_one(p, mesh, 2)
    for _ in range(k_max):
        jet = jet_apply(p, jet)
        phi, dphi, d2phi = (fv[mask] for fv in jet.full_values())
        m_phi = integrate(jet.levels[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            m1_min = min(m1_min, float(np.min(-dphi * x / phi)))
            m2_min = min(m2_min, float(np.min(d2phi * x**2 / phi)))
            a_need = max(a_need, float(np.max(phi / (2.0 * rho * m_phi))))
    if not (m1_min > 0.0 and m2_min > 0.0):
        raise ValueError(
            "default_cone_params: no positive lower pinch in the iterates "
            "(at alpha = 0 they are constant and the C2 bars are degenerate; "
            "otherwise the mesh is too coarse) -- pass explicit ConeParams"
        )
    b1_bar = 0.5 * min(m1_min, m2_min / 10.0)
    a_fit = max(2.0**a_par * (a_par + 2.0), 1.1 * a_need, 1.0)
    return ConeParams(a=a_fit, b1=b1, b2=b2, b3=b3,
                      b1_bar=b1_bar, b2_bar=10.0 * b1_bar)


def invariance_experiment(
    p: MapParams,
    cone_id: str,
    cp: ConeParams,
    k_max: int,
    density: DensityRecord,
) -> list[ConeReport]:
    """Check L^k(1) and N(L^k(1)) against one cone for k = 1..k_max.

    For the mass-bound cones the N-images are checked with a doubled to 2a
    (N halves the mass of half-mass-concentrated functions).  One read of
    each jet L^k(1) gives both N(L^k(1)) and the next iterate L^(k+1)(1).
    Returns the flat list of reports, L-iterate then N-image per k.
    """
    _check_k_max("invariance_experiment", k_max)
    if cone_id not in _CONES:
        raise ValueError(f"invariance_experiment: unknown cone {cone_id!r}")
    density.require_params(p)
    reports = []
    jet, _ = _jet_images(p, jet_one(p, density.density.mesh, _CONES[cone_id].order))
    for k in range(1, k_max + 1):
        nxt, njet = _jet_images(p, jet)
        for subject, jt, a_eff in (
            (f"L^{k}(1)", jet, cp.a),
            (f"N(L^{k}(1))", njet, 2.0 * cp.a),
        ):
            func = jt.levels[0]
            derivs = jt.full_values()
            if cone_id == "C2":
                rep = check_C2(func, cp, subject=subject, derivs=derivs)
            elif cone_id == "C3":
                rep = check_C3(func, cp, subject=subject, derivs=derivs)
            elif cone_id == "Cstar":
                rep = check_Cstar(func, p, density, a_eff, subject=subject,
                                  derivs=derivs)
            else:
                rep = check_Cstar1(func, p, density, a_eff, cp.b1, subject=subject,
                                   derivs=derivs)
            rep.params["k"] = k
            reports.append(rep)
        jet = nxt
    return reports
