"""Response source, series, susceptibility, finite differences."""

import math

import numpy as np
import pytest

from pmlab import (
    ConvergenceError,
    GridFunction,
    MapParams,
    Observable,
    ResponseDivergenceError,
    apply_L,
    apply_M,
    apply_N,
    apply_preimage_sum,
    build_mesh,
    compute_density,
    finite_difference_response,
    integrate,
    observable_mean,
    parse_observable,
    response_series,
    response_series_forward,
    response_source,
    susceptibility,
)
from pmlab.maps import X
from pmlab.response import _endpoint_jump, _zero_mean_source, forward_noise_scale

from oracles import gridfunction_observable, susceptibility_terms_orbitwise


@pytest.fixture(scope="module")
def p25():
    return MapParams(0.25)


@pytest.fixture(scope="module")
def rec25(p25):
    mesh = build_mesh(p25, 8192, 120, 1e-9)
    return compute_density(p25, mesh, tol=1e-10, max_iter=30000)


@pytest.fixture(scope="module")
def rec0():
    p = MapParams(0.0)
    mesh = build_mesh(p, 2048, 60, 1e-10)
    return compute_density(p, mesh, tol=1e-14)


class TestObservables:
    def test_parse_builtins(self):
        assert parse_observable("const").name == "const"
        assert parse_observable("x").name == "x"
        assert parse_observable("x^3").name == "x^3"
        assert parse_observable("x2").name == "x^2"
        assert _endpoint_jump(parse_observable("cos")) == 0.0
        assert parse_observable("cos2").name == "cos2"
        ind = parse_observable("ind:0.25:0.75")
        assert ind.fprime is None
        assert ind.f(np.array([0.5, 0.9])).tolist() == [1.0, 0.0]

    def test_endpoint_jump(self):
        # the one periodicity rule: |psi(1) - psi(0)| <= 1e-12
        for name in ("const", "cos3"):
            assert _endpoint_jump(parse_observable(name)) == 0.0
        for name in ("x", "x^2", "ind:0.5:1"):
            assert _endpoint_jump(parse_observable(name)) == 1.0

    def test_parse_rejects(self):
        for bad in ("x^9", "cos0", "ind:0.5", "nope"):
            with pytest.raises(ValueError):
                parse_observable(bad)

    def test_parse_rejects_other_types(self):
        # the message names the type, not a repr of the token
        mesh = build_mesh(MapParams(0.25), 64, 10, 1e-4)
        g = GridFunction(mesh, np.ones(mesh.size), 0.0)
        for bad, kind in ((g, "GridFunction"), (1, "int"), (None, "NoneType")):
            with pytest.raises(ValueError, match=f"got {kind}$"):
                parse_observable(bad)


class TestResponseSource:
    def test_alpha0_closed_form(self, rec0):
        p = MapParams(0.0)
        y = response_source(p, rec0)
        x = y.mesh.nodes
        expected = (1.0 + np.log(2.0) + np.log(x / 2.0)) / 4.0
        assert np.max(np.abs(y.values - expected)) < 1e-10

    def test_mean_zero(self, p25, rec25):
        # quadrature floor is ~1e-8 at n = 8192 and O(n^-2); the strict
        # 1e-8 gate runs in the acceptance suite on n = 16384
        y = response_source(p25, rec25)
        assert abs(integrate(y)) < 3e-8

    def test_log_envelope_stable(self, p25):
        sups = []
        for n in (4096, 8192):
            mesh = build_mesh(p25, n, 120, 1e-9)
            rec = compute_density(p25, mesh, tol=1e-9, max_iter=20000)
            y = response_source(p25, rec)
            ratio = np.abs(y.values) / (np.abs(np.log(mesh.nodes)) + 1.0)
            sups.append(float(np.max(ratio)))
        assert abs(sups[1] - sups[0]) < 0.1 * sups[0]

    def test_requires_converged(self, p25):
        mesh = build_mesh(p25, 4096, 60, 1e-6)
        rec = compute_density(p25, mesh, tol=1e-13, max_iter=2)
        with pytest.raises(ConvergenceError, match="not converged"):
            response_source(p25, rec)

    def test_is_minus_M_rho(self, p25, rec25):
        # one implementation of the source: Y = -M rho from apply_M
        y = response_source(p25, rec25)
        assert np.array_equal(y.values, -apply_M(p25, rec25.density).full_values())

    def test_fields_cached_per_alpha_and_mesh(self, p25, rec25, monkeypatch):
        # once the closed-form fields are cached on the mesh, neither the
        # source nor the susceptibility inverts the branch again
        import pmlab.maps

        response_source(p25, rec25)
        susceptibility(p25, rec25, "cos", 1.0, 4)
        calls = []
        inverse = pmlab.maps.branch_inverse

        def counting(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(pmlab.maps, "branch_inverse", counting)
        response_source(p25, rec25)
        susceptibility(p25, rec25, "cos", 1.0, 4)
        assert calls == []


class TestResponseSeries:
    def test_constant_observable_zero(self, p25, rec25):
        res = response_series(p25, rec25, "const", K=24)
        assert abs(res.value) < 1e-6
        assert max(abs(t) for t in res.terms) < 1e-7

    def test_sign_convention(self, p25, rec25):
        # value = -(sum of terms)
        res = response_series(p25, rec25, "x", K=64)
        assert res.value == pytest.approx(-sum(res.terms), rel=1e-12)

    def test_linearity(self, p25, rec25):
        r_x = response_series(p25, rec25, "x", K=128)
        r_x2 = response_series(p25, rec25, "x^2", K=128)
        combo = Observable(
            "2x-3x^2",
            f=lambda t: 2.0 * np.asarray(t) - 3.0 * np.asarray(t) ** 2,
            fprime=lambda t: 2.0 - 6.0 * np.asarray(t),
        )
        r_c = response_series(p25, rec25, combo, K=128)
        assert r_c.value == pytest.approx(2 * r_x.value - 3 * r_x2.value, rel=1e-9)

    def test_matches_fd(self, p25, rec25):
        res = response_series(p25, rec25, "x", K=400, tol=1e-12)
        fd = finite_difference_response(p25, "x", 5e-3, rec25.density.mesh, tol=1e-9)
        assert abs(res.value - fd) / abs(fd) < 0.01

    def test_decay_exponent_reported(self, p25, rec25):
        res = response_series(p25, rec25, "x", K=300, tol=1e-13)
        # observed decay in (1/a - 1, 1/a) + slack; report, don't pin the end
        assert 2.0 < res.decay_exponent < 6.0
        assert res.tail_estimate < 1e-4
        assert not res.diverged

    def test_continuity_in_alpha(self):
        # response curve on a 0.05-spaced grid varies without jumps
        vals = []
        for a in np.arange(0.05, 0.36, 0.05):
            p = MapParams(round(a, 2))
            mesh = build_mesh(p, 2048, 80, 1e-7)
            rec = compute_density(p, mesh, tol=1e-8, max_iter=40000)
            vals.append(response_series(p, rec, "x", K=256).value)
        diffs = np.abs(np.diff(vals))
        local = np.median(diffs)
        assert np.max(diffs) <= 10.0 * local


    def test_raw_loop_is_the_series_definition(self, p25, rec25):
        # t_k = int psi L^k Y dx through the public operators, bit for bit
        mesh = rec25.density.mesh
        psi = parse_observable("cos").f(mesh.nodes)
        w = _zero_mean_source(p25, rec25)
        terms = []
        for _ in range(41):
            terms.append(integrate(GridFunction(mesh, psi * w.values, w.s)))
            w = apply_L(p25, w)
        assert response_series(p25, rec25, "cos", K=40, tol=0.0).terms == terms


class TestForwardSeries:
    def test_constant_zero(self, p25, rec25):
        res = response_series_forward(p25, rec25, "const", K=16)
        assert abs(res.value) < 1e-6

    def test_duality_early_terms(self, p25, rec25):
        bwd = response_series(p25, rec25, "x", K=60, tol=1e-14)
        fwd = response_series_forward(p25, rec25, "x", K=60)
        b = np.asarray(bwd.terms[:11])
        f = np.asarray(fwd.terms[:11])
        assert np.max(np.abs(b - f)) < 1e-3

    def test_duality_within_noise_model(self, p25, rec25):
        bwd = response_series(p25, rec25, "x", K=60, tol=1e-14)
        fwd = response_series_forward(p25, rec25, "x", K=60)
        noise = forward_noise_scale(rec25.density.mesh, "x")
        diffs = np.abs(np.asarray(bwd.terms[:61]) - np.asarray(fwd.terms))
        assert np.max(diffs) < 3.0 * noise


class TestSusceptibility:
    def test_z0_single_term(self, p25, rec25):
        s0 = susceptibility(p25, rec25, "cos", z=0.0, K=8)
        orb = susceptibility_terms_orbitwise(p25, rec25, "cos", 0)
        assert s0 == pytest.approx(orb[0], abs=1e-8)

    def test_constant_zero(self, p25, rec25):
        assert susceptibility(p25, rec25, "const", z=1.0, K=16) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orbitwise_agreement_early(self, p25, rec25):
        bwd = response_series(p25, rec25, "cos", K=8, tol=1e-14)
        orb = susceptibility_terms_orbitwise(p25, rec25, "cos", 8)
        assert np.max(np.abs(orb + np.asarray(bwd.terms[:9]))) < 1e-4

    def test_identity_at_z1(self, p25, rec25):
        sus = susceptibility(p25, rec25, "cos", z=1.0, K=300)
        res = response_series(p25, rec25, "cos", K=400, tol=1e-13)
        assert abs(sus - res.value) / abs(res.value) < 0.01

    def test_raw_loop_is_the_preimage_sum_definition(self, p25, rec25):
        # s_k = int psi' A^k W dx with W = X N rho and the A 1 = 2 mode
        # deflated after every application, through the public operators
        mesh = rec25.density.mesh
        x = mesh.nodes
        psi_p = parse_observable("cos2").fprime(x)
        nr = apply_N(p25, rec25.density)
        w = GridFunction(mesh, np.asarray(X(p25, x)) * nr.full_values(), 0.0)
        terms = []
        for _ in range(31):
            terms.append(integrate(GridFunction(mesh, psi_p * w.values, 0.0)))
            w = apply_preimage_sum(p25, w)
            w = GridFunction(mesh, w.values - integrate(w), 0.0)
        for z in (1.0, 0.6):
            expected = float(np.sum(z ** np.arange(31) * np.asarray(terms)))
            assert susceptibility(p25, rec25, "cos2", z, 30) == expected

    def test_divergence_detected(self, p25, rec25):
        with pytest.raises(ResponseDivergenceError):
            susceptibility(p25, rec25, "x", z=1.0, K=40)

    def test_needs_derivative(self, p25, rec25):
        with pytest.raises(ValueError):
            susceptibility(p25, rec25, "ind:0.2:0.8", z=1.0)

    def test_z_domain(self, p25, rec25):
        with pytest.raises(ValueError):
            susceptibility(p25, rec25, "cos", z=1.5)

    def test_z_nan_rejected(self, p25, rec25):
        with pytest.raises(ValueError, match=r"need \|z\| <= 1"):
            susceptibility(p25, rec25, "cos", z=math.nan)


class TestFiniteDifference:
    def test_constant_zero(self, p25, rec25):
        fd = finite_difference_response(p25, "const", 1e-2, rec25.density.mesh,
                                        tol=1e-9)
        assert abs(fd) < 1e-6

    def test_richardson_pair_consistent(self, p25):
        mesh = build_mesh(p25, 2048, 80, 1e-7)
        fd1 = finite_difference_response(p25, "x", 1e-2, mesh, tol=1e-9)
        fd2 = finite_difference_response(p25, "x", 5e-3, mesh, tol=1e-9)
        assert abs(fd1 - fd2) < 0.02 * abs(fd2)

    def test_caller_mesh_keeps_no_operator_of_the_shifted_alphas(self, p25):
        mesh = build_mesh(p25, 256, 40, 1e-5)
        eps = 1e-2
        finite_difference_response(p25, "cos", eps, mesh, tol=1e-8)
        shifted = {p25.alpha - eps, p25.alpha + eps}
        assert not [key for key in mesh._cache
                    if isinstance(key, tuple) and shifted & set(key)]

    def test_one_sided_at_zero(self, rec0):
        p = MapParams(0.0)
        mesh = rec0.density.mesh
        fd = finite_difference_response(p, "x", 5e-3, mesh, tol=1e-10)
        assert math.isfinite(fd)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tol_must_be_finite(self, p25, tol):
        mesh = build_mesh(p25, 256, 40, 1e-5)
        with pytest.raises(ValueError, match="tol must be finite"):
            finite_difference_response(p25, "x", 1e-2, mesh, tol=tol)

    def test_max_iter_must_be_positive(self, p25):
        mesh = build_mesh(p25, 256, 40, 1e-5)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            finite_difference_response(p25, "x", 1e-2, mesh, max_iter=0)

    def test_eps_domain(self, p25, rec25):
        with pytest.raises(ValueError):
            finite_difference_response(MapParams(0.995), "x", 1e-2,
                                       rec25.density.mesh)


class TestTermDecay:
    @pytest.mark.parametrize("alpha,floor", [(0.5, 1.5), (0.6, 1.1666)])
    def test_supported_observable_fast_decay(self, alpha, floor):
        # psi Lipschitz supported in [1/4, 1]: fitted exponent >= 1/a - 0.5
        p = MapParams(alpha)
        mesh = build_mesh(p, 4096, 100, 1e-5)
        rec = compute_density(p, mesh, tol=1e-7, max_iter=60000)
        psi = Observable(
            "ramp14",
            f=lambda t: np.clip((np.asarray(t) - 0.25) / 0.25, 0.0, 1.0),
            fprime=None,
        )
        res = response_series(p, rec, psi, K=200, tol=1e-14)
        assert res.decay_exponent >= floor

    def test_generic_observable_floor(self):
        p = MapParams(0.5)
        mesh = build_mesh(p, 4096, 100, 1e-5)
        rec = compute_density(p, mesh, tol=1e-7, max_iter=60000)
        res = response_series(p, rec, "x", K=200, tol=1e-14)
        assert res.decay_exponent >= 1.0 / 0.5 - 1.0 - 0.3

    def test_mean_via_observable(self, rec25):
        m = observable_mean(parse_observable("const"), rec25)
        assert m == pytest.approx(1.0, abs=1e-10)


class TestIndependentOracles:
    def test_alpha0_response_vs_ulam_fd(self):
        # one-sided FD oracle at alpha = 0 built from a high-resolution
        # Ulam stationary density at alpha = eps (independent of the grid
        # operator path): value = -(mean_eps - 1/2)/eps
        from pmlab import build_ulam, ulam_stationary
        from pmlab.transfer import ulam_mean

        eps = 1e-3
        p_eps = MapParams(eps)
        part = build_mesh(p_eps, 8192, 60, 1e-6)
        ul = build_ulam(p_eps, part)
        st = ulam_stationary(ul, tol=1e-13)
        mean_eps = ulam_mean(ul, st, lambda z: np.asarray(z, dtype=float))
        fd_oracle = (mean_eps - 0.5) / eps  # the natural one-sided quotient

        p0 = MapParams(0.0)
        mesh = build_mesh(p0, 8192, 60, 1e-8)
        rec = compute_density(p0, mesh, tol=1e-14)
        res = response_series(p0, rec, "x", K=200, tol=1e-13)
        # combined tolerance: O(eps) one-sided bias + Ulam discretization
        assert abs(res.value - fd_oracle) < 0.02 * abs(res.value)

    def test_indicator_series_method(self, p25, rec25):
        res = response_series(p25, rec25, "ind:0.5:1", K=256, tol=1e-12)
        # mass of [1/2, 1] decreases as the density concentrates near 0,
        # so the natural derivative is negative
        assert res.value < 0.0
        fd = finite_difference_response(p25, "ind:0.5:1", 5e-3,
                                        rec25.density.mesh, tol=1e-9)
        assert abs(res.value - fd) < 0.03 * abs(fd)

    def test_gridfunction_observable_series(self, p25, rec25):
        mesh = rec25.density.mesh
        g = GridFunction(mesh, np.clip((mesh.nodes - 0.25) * 4.0, 0.0, 1.0), 0.0)
        res = response_series(p25, rec25, gridfunction_observable(g), K=128)
        ref = response_series(
            p25, rec25,
            Observable("ramp", f=lambda t: np.clip((np.asarray(t) - 0.25) * 4.0,
                                                   0.0, 1.0)),
            K=128,
        )
        assert res.value == pytest.approx(ref.value, rel=1e-6)
