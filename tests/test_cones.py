"""Cone membership, bracket factors, invariance experiments."""

import math

import numpy as np
import pytest

from pmlab import (
    ConeParams,
    GridFunction,
    MapParams,
    build_mesh,
    check_C2,
    check_C3,
    check_Cstar,
    check_Cstar1,
    compute_density,
    default_cone_params,
    invariance_experiment,
    jet_apply,
    jet_one,
    omega_bar_factors,
    omega_factors,
)
from pmlab import transfer


@pytest.fixture(scope="module")
def p25():
    return MapParams(0.25)


@pytest.fixture(scope="module")
def rec25(p25):
    mesh = build_mesh(p25, 4096, 100, 1e-6)
    return compute_density(p25, mesh, tol=1e-9, max_iter=20000)


@pytest.fixture(scope="module")
def mesh25(rec25):
    return rec25.density.mesh


CP_POWER = ConeParams(a=2.0, b1=0.35, b2=0.6, b3=1.0, b1_bar=0.25, b2_bar=0.3)


class TestConeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConeParams(a=0.5, b1=1.0, b2=21.0, b3=100.0, b1_bar=1e-3, b2_bar=1e-2)
        with pytest.raises(ValueError):
            ConeParams(a=2.0, b1=2.0, b2=1.0, b3=100.0, b1_bar=1e-3, b2_bar=1e-2)
        with pytest.raises(ValueError):
            ConeParams(a=2.0, b1=1.0, b2=21.0, b3=100.0, b1_bar=0.0, b2_bar=1e-2)

    def test_all_constants_required(self):
        # no default fits the regime b1 >= alpha + 1 at every alpha
        with pytest.raises(TypeError):
            ConeParams(a=0.5)


class TestC2:
    def test_power_law_membership(self, mesh25):
        # phi = x^-0.3: -phi' x/phi = 0.3, phi'' x^2/phi = 0.39
        f = GridFunction(mesh25, np.ones(mesh25.size), 0.3)
        assert check_C2(f, CP_POWER).verdict

    def test_power_law_rejected_outside_band(self, mesh25):
        f = GridFunction(mesh25, np.ones(mesh25.size), 0.3)
        tight = ConeParams(a=2.0, b1=0.35, b2=0.6, b3=1.0, b1_bar=0.32, b2_bar=0.3)
        rep = check_C2(f, tight)
        assert not rep.verdict
        assert rep.margins["first_lower"][0] < 0.0

    def test_constant_fails(self, mesh25):
        f = GridFunction(mesh25, np.ones(mesh25.size), 0.0)
        rep = check_C2(f, CP_POWER)
        assert not rep.verdict

    def test_reports_never_throw(self, mesh25):
        f = GridFunction(mesh25, mesh25.nodes.copy(), 0.0)  # increasing: fails
        rep = check_C2(f, CP_POWER)
        assert rep.verdict is False and np.isfinite(rep.worst_node)

    def test_reproducible(self, mesh25):
        f = GridFunction(mesh25, np.ones(mesh25.size), 0.3)
        r1, r2 = check_C2(f, CP_POWER), check_C2(f, CP_POWER)
        assert r1.margins == r2.margins

    def test_monotonicity_in_params(self, mesh25, rec25, p25):
        # enlarging b's and shrinking bars never turns a pass into a fail
        base = default_cone_params(p25, rec25, k_max=5)
        rep = check_C2(rec25.density, base)
        assert rep.verdict
        loose = ConeParams(a=base.a, b1=2 * base.b1, b2=2 * base.b2, b3=2 * base.b3,
                           b1_bar=base.b1_bar / 2, b2_bar=base.b2_bar / 2)
        rep2 = check_C2(rec25.density, loose)
        assert rep2.verdict
        assert rep2.worst_margin >= rep.worst_margin - 1e-12


class TestCstar:
    def test_rho_passes(self, p25, rec25):
        cp = default_cone_params(p25, rec25, k_max=10)
        rep = check_Cstar(rec25.density, p25, rec25, cp.a)
        assert rep.verdict
        assert rep.half_mass_margin > 0.0

    def test_constant_alpha0(self):
        p = MapParams(0.0)
        m = build_mesh(p, 512, 32, 1e-7)
        rec = compute_density(p, m, tol=1e-13)
        one = GridFunction(m, np.ones(m.size), 0.0)
        rep = check_Cstar(one, p, rec, a=1.0)
        assert rep.verdict  # phi' = 0 allowed, 1 <= 2a rho m

    def test_increasing_fails(self, p25, rec25, mesh25):
        f = GridFunction(mesh25, mesh25.nodes.copy(), 0.0)
        rep = check_Cstar(f, p25, rec25, a=4.0)
        assert not rep.verdict
        assert rep.margins["deriv_upper"][0] < 0.0

    def test_alpha_mismatch_rejected(self, rec25):
        one = GridFunction(rec25.density.mesh, np.ones(rec25.density.mesh.size), 0.0)
        with pytest.raises(ValueError):
            check_Cstar(one, MapParams(0.4), rec25, a=2.0)


class TestCstar1:
    def test_rho_passes(self, p25, rec25):
        cp = default_cone_params(p25, rec25, k_max=10)
        rep = check_Cstar1(rec25.density, p25, rec25, cp.a, cp.b1)
        assert rep.verdict

    def test_power_law_derivative_bound(self, p25, rec25, mesh25):
        # phi = x^-alpha passes the derivative inequality when b1 >= alpha
        f = GridFunction(mesh25, np.ones(mesh25.size), 0.25)
        rep = check_Cstar1(f, p25, rec25, a=4.0, b1=0.3)
        assert rep.margins["deriv_abs"][0] > 0.0

    def test_nesting_in_alpha(self, p25, rec25):
        # membership at (alpha, a) upgrades to (beta > alpha, (c2/c1) a):
        # the mass bound only loosens when rho_beta x^beta stays comparable
        p4 = MapParams(0.4)
        mesh4 = build_mesh(p4, 4096, 100, 1e-6)
        rec4 = compute_density(p4, mesh4, tol=1e-8, max_iter=60000)
        cp = default_cone_params(p25, rec25, k_max=10)
        rep = check_Cstar1(rec25.density, p25, rec25, cp.a, cp.b1)
        assert rep.verdict
        c1, c2 = rec4.envelope_band(1e-5)
        # same function, coarser cone at beta = 0.4 on beta's own mesh
        from pmlab.grid import evaluate

        vals = evaluate(rec25.density, mesh4.nodes)
        f_on4 = GridFunction(mesh4, vals * mesh4.nodes ** 0.0, 0.0)
        rep_beta = check_Cstar1(f_on4, p4, rec4, (c2 / c1) * cp.a, cp.b1)
        assert rep_beta.margins["mass_bound"][0] > 0.0


class TestC3:
    def test_power_law_threshold(self, mesh25):
        # |phi'''| x^3 / phi = 0.3 * 1.3 * 2.3 = 0.897 for phi = x^-0.3
        f = GridFunction(mesh25, np.ones(mesh25.size), 0.3)
        ok = ConeParams(a=2.0, b1=0.35, b2=0.6, b3=0.92, b1_bar=0.25, b2_bar=0.3)
        assert check_C3(f, ok).verdict
        bad = ConeParams(a=2.0, b1=0.35, b2=0.6, b3=0.88, b1_bar=0.25, b2_bar=0.3)
        rep = check_C3(f, bad)
        assert not rep.verdict and rep.margins["third_abs"][0] < 0.0

    def test_mesh_size_requirement(self):
        m = build_mesh(MapParams(0.3), 128, 16, 1e-5)
        f = GridFunction(m, np.ones(m.size), 0.3)
        with pytest.raises(ValueError):
            check_C3(f, CP_POWER)

    def test_rho_in_C3(self, p25, rec25):
        cp = default_cone_params(p25, rec25, k_max=10)
        rep = check_C3(rec25.density, cp)
        assert rep.verdict


class TestOmegaFactors:
    def test_alpha0_identity(self):
        p = MapParams(0.0)
        y = np.linspace(1e-6, 0.5, 512)
        cp = ConeParams(a=2.0, b1=1.0, b2=24.0, b3=150.0, b1_bar=1e-3, b2_bar=1e-2)
        o1, o2, o3 = omega_factors(p, y, cp)
        assert np.max(np.abs(o1 - 1.0)) < 1e-12
        assert np.max(np.abs(o2 - 1.0)) < 1e-12
        assert np.max(np.abs(o3 - 1.0)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.9])
    def test_regime_bounds(self, alpha):
        p = MapParams(alpha)
        b1 = alpha + 1.0
        b2 = 3.0 * b1 * (1.0 + alpha) + 21.0
        cp = ConeParams(a=2.0, b1=b1, b2=b2, b3=3.0 * b2 * (1 + alpha) + 2 * b1 + 10,
                        b1_bar=1e-4, b2_bar=1e-3)
        y = np.linspace(0.5 / 512, 0.5, 512)
        o1, o2, o3 = omega_factors(p, y, cp)
        assert np.max(o1) <= 1.0
        assert np.max(o2) <= 1.0
        assert np.max(o3) <= 1.0

    def test_bar_factors_at_least_one(self):
        p = MapParams(0.3)
        cp = ConeParams(a=2.0, b1=1.3, b2=26.0, b3=150.0, b1_bar=1e-3, b2_bar=1e-2)
        y = np.linspace(0.5 / 512, 0.5, 512)
        ob1, ob2 = omega_bar_factors(p, y, cp)
        assert np.min(ob1) >= 1.0
        assert np.min(ob2) >= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            omega_factors(MapParams(0.3), 0.7, CP_POWER)


class TestInvarianceExperiment:
    def test_all_cones_alpha025(self, p25, rec25):
        cp = default_cone_params(p25, rec25, k_max=10)
        for cone in ("Cstar", "Cstar1", "C2"):
            reports = invariance_experiment(p25, cone, cp, 10, rec25)
            assert len(reports) == 20
            assert all(r.verdict for r in reports), cone

    def test_alpha0_trivial(self):
        p = MapParams(0.0)
        m = build_mesh(p, 512, 32, 1e-7)
        rec = compute_density(p, m, tol=1e-13)
        cp = ConeParams(a=1.5, b1=1.0, b2=22.0, b3=120.0, b1_bar=1e-8, b2_bar=1e-7)
        reports = invariance_experiment(p, "Cstar", cp, 5, rec)
        assert all(r.verdict for r in reports if r.subject.startswith("L"))

    def test_unknown_cone(self, p25, rec25):
        with pytest.raises(ValueError):
            invariance_experiment(p25, "C7", None, 3, rec25)

    def test_subjects_and_k(self, p25, rec25):
        cp = default_cone_params(p25, rec25, k_max=3)
        reports = invariance_experiment(p25, "C2", cp, 3, rec25)
        assert [r.subject for r in reports[:2]] == ["L^1(1)", "N(L^1(1))"]
        assert reports[-1].params["k"] == 3

    def test_report_serialization(self, p25, rec25):
        cp = default_cone_params(p25, rec25, k_max=2)
        rep = invariance_experiment(p25, "Cstar", cp, 2, rec25)[0]
        d = rep.to_dict()
        assert d["cone_id"] == "Cstar"
        assert set(d["margins"]) == {"positivity", "mass_bound", "deriv_lower",
                                     "deriv_upper"}


_C2_MARGINS = ["positivity", "first_lower", "first_upper", "second_lower",
               "second_upper"]
_C2_PARAMS = ["cone", "x_check", "a", "b1", "b2", "b3", "b1_bar", "b2_bar"]
# margin names and params keys of each cone's report, in insertion order
_REPORT_SHAPES = {
    "C2": (_C2_MARGINS, _C2_PARAMS),
    "C3": (_C2_MARGINS + ["third_abs"], _C2_PARAMS),
    "Cstar": (["positivity", "mass_bound", "deriv_lower", "deriv_upper"],
              ["cone", "alpha", "a", "x_check"]),
    "Cstar1": (["positivity", "mass_bound", "deriv_abs"],
               ["cone", "alpha", "a", "b1", "x_check"]),
}


@pytest.mark.parametrize("cone", sorted(_REPORT_SHAPES))
def test_report_shape_and_direct_check(cone, p25, rec25, mesh25):
    margin_names, param_keys = _REPORT_SHAPES[cone]
    cp = default_cone_params(p25, rec25, k_max=2)
    reports = invariance_experiment(p25, cone, cp, 2, rec25)
    assert len(reports) == 4
    for r in reports:
        assert r.cone_id == cone
        assert list(r.margins) == margin_names
        assert list(r.params) == param_keys + ["k"]
        assert math.isnan(r.half_mass_margin) == (cone in ("C2", "C3"))

    # k = 2 by hand, through a third-order jet whatever the cone needs
    jet = jet_apply(p25, jet_apply(p25, jet_one(p25, mesh25, 3)))
    njet = transfer._jet_images(p25, jet)[1]
    for rep, jt, a_eff in ((reports[2], jet, cp.a), (reports[3], njet, 2.0 * cp.a)):
        f, derivs = jt.levels[0], jt.full_values()
        if cone == "C2":
            direct = check_C2(f, cp, subject=rep.subject, derivs=derivs)
        elif cone == "C3":
            direct = check_C3(f, cp, subject=rep.subject, derivs=derivs)
        elif cone == "Cstar":
            direct = check_Cstar(f, p25, rec25, a_eff, subject=rep.subject,
                                 derivs=derivs)
        else:
            direct = check_Cstar1(f, p25, rec25, a_eff, cp.b1, subject=rep.subject,
                                  derivs=derivs)
        assert list(direct.params) == param_keys
        assert direct.worst_margin == rep.worst_margin
        assert direct.worst_node == rep.worst_node
        assert direct.margins == rep.margins
        assert direct.verdict == rep.verdict
        assert direct.params == {k: v for k, v in rep.params.items() if k != "k"}


@pytest.mark.parametrize("cone, order", [("Cstar", 1), ("Cstar1", 1), ("C2", 2),
                                         ("C3", 3)])
def test_experiment_reads_each_iterate_once(cone, order, p25, rec25, monkeypatch):
    # one two-branch read of L^k(1) gives N(L^k(1)) and L^(k+1)(1)
    from pmlab import transfer

    cp, k_max = default_cone_params(p25, rec25, k_max=3), 3
    calls = []
    pullback = transfer._pullback
    monkeypatch.setattr(transfer, "_pullback",
                        lambda *a: calls.append(a[2]) or pullback(*a))
    reports = invariance_experiment(p25, cone, cp, k_max, rec25)
    assert len(reports) == 2 * k_max
    assert len(calls) == (k_max + 1) * (order + 1)


def test_default_cone_params_needs_an_iterate(p25, rec25):
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        default_cone_params(p25, rec25, k_max=0)
