"""Neutral orbit, distortion, correlation decay, Birkhoff oracle."""

import decimal
import math
import warnings

import numpy as np
import pytest

from pmlab import (
    ConvergenceError,
    GridFunction,
    MapParams,
    apply_L,
    birkhoff_average,
    build_mesh,
    compute_density,
    contraction_factor,
    correlation_decay,
    integrate,
    neutral_orbit,
    observable_mean,
    parse_observable,
)
from pmlab import asymptotics
from pmlab.asymptotics import _fit_decay, _mc_step
from pmlab.maps import forward


@pytest.fixture(scope="module")
def rec3():
    p = MapParams(0.3)
    mesh = build_mesh(p, 4096, 100, 1e-6)
    return compute_density(p, mesh, tol=1e-9, max_iter=30000)


class TestNeutralOrbit:
    def test_alpha0_exact_geometric(self):
        st = neutral_orbit(MapParams(0.0), 40)
        assert st.upper_ok
        assert np.array_equal(st.x_ell[:6], 2.0 ** -np.arange(6.0))
        assert st.fitted_exponent is None

    def test_upper_bound_explicit_constant(self):
        st = neutral_orbit(MapParams(0.5), 2000)
        assert st.upper_ok
        # spot value: x_l <= 2^(4+2) l^-2
        assert st.x_ell[1000] <= 2.0**6 * 1000.0**-2

    def test_fitted_exponent(self):
        for a in (0.25, 0.5):
            st = neutral_orbit(MapParams(a), 3000)
            assert st.fitted_exponent == pytest.approx(-1.0 / a, rel=0.05)

    def test_lower_constant_positive(self):
        st = neutral_orbit(MapParams(0.4), 1000)
        assert st.lower_ok and 0.0 < st.lower_c < 10.0

    def test_rows(self):
        st = neutral_orbit(MapParams(0.5), 10)
        rows = st.to_rows()
        assert len(rows) == 10
        ell, xl, bound, margin = rows[0]
        assert ell == 1 and xl == 0.5 and bound > xl and margin > 0.0

    def test_rows_alpha0(self):
        # the orbit is exactly geometric: the bound is met with margin 0
        rows = neutral_orbit(MapParams(0.0), 12).to_rows()
        assert [r[0] for r in rows] == list(range(1, 13))
        for ell, xl, bound, margin in rows:
            assert bound == 2.0**-ell and xl == bound and margin == 0.0

    def test_alpha0_past_the_subnormal_limit(self):
        # from l = 1075 on the orbit 2^-l and its bound are both 0: the exact
        # check holds and every margin is 0, with no 0 / 0
        st = neutral_orbit(MapParams(0.0), 1200)
        assert st.upper_ok and st.lower_ok
        assert st.x_ell[1075] == 0.0
        rows = st.to_rows()
        assert all(math.isfinite(r[3]) for r in rows)
        assert rows[1073][1:] == (2.0**-1074, 2.0**-1074, 0.0)
        assert rows[-1][1:] == (0.0, 0.0, 0.0)

    def test_rows_take_the_bound_of_the_stats(self):
        # one bound: the rows' smallest margin is the reported upper_margin
        st = neutral_orbit(MapParams(0.5), 3000)
        assert min(r[3] for r in st.to_rows()) == st.upper_margin
        assert all(type(v) is float for r in st.to_rows() for v in r[1:])

    def test_validation(self):
        with pytest.raises(ValueError):
            neutral_orbit(MapParams(0.3), 1)

    @pytest.mark.parametrize("a, ell_max", [(0.005, 100), (0.005, 1000), (0.02, 100),
                                            (0.02, 10000), (0.031, 100), (0.031, 10000)])
    def test_small_alpha_bound_past_the_double_range(self, a, ell_max):
        # 2^(1/a^2 + 1/a) exceeds a double below a ~ 0.0316: a row's bound is
        # +inf (slack 1) only where the bound itself is, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            st = neutral_orbit(MapParams(a), ell_max)
            rows = st.to_rows()
        ell, x, bound, margin = (np.array(col) for col in zip(*rows))
        assert st.upper_ok and np.all((0.0 < x) & (x <= bound))
        assert np.isinf(bound[0]) and np.all(margin[np.isinf(bound)] == 1.0)
        assert np.all((0.0 <= margin) & (margin <= 1.0))
        assert margin.min() == st.upper_margin
        assert math.isfinite(st.fitted_exponent) and 0.0 <= st.lower_c < 1.0
        assert st.lower_ok == (st.lower_c > 0.0) == (a > 0.0068)
        # the bounds against 40-digit decimal arithmetic
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            e = decimal.Decimal(1.0 / a**2 + 1.0 / a)
            for k in [*range(0, ell_max, 97), ell_max - 1]:
                ref = 2 ** e * decimal.Decimal(int(ell[k])) ** (-1 / decimal.Decimal(a))
                if np.isinf(bound[k]):
                    assert ref > decimal.Decimal(np.finfo(float).max)
                else:
                    assert bound[k] == pytest.approx(float(ref), rel=1e-10)
        if a >= 0.02:  # the lower constant is a double there: x_l >= c l^(-1/a)
            scale = (2.0**a * a) ** (-1.0 / a) * ell ** (-1.0 / a)
            assert st.lower_c == pytest.approx(np.min(x / scale), rel=1e-12)

    @pytest.mark.parametrize("a, step", [(1e-4, 1049), (0.003, 2789), (0.005, 7027)])
    def test_orbit_leaving_the_normal_range_raises(self, a, step):
        # at 1e-4 the orbit underflows to 0; at 0.003 and 0.005 it stalls at a
        # subnormal fixed point of the rounded branch inverse, and a fit to it
        # would read an exponent of about -105 against -1/a
        with pytest.raises(ConvergenceError, match=rf"alpha={a:g} leaves the normal "
                                                   rf"range at step {step}$"):
            neutral_orbit(MapParams(a), 10000)


class TestContractionFactor:
    def test_alpha0_exact(self):
        assert contraction_factor(MapParams(0.0), 3, 7) == pytest.approx(
            2.0**-7, rel=1e-14
        )

    def test_empty_product(self):
        assert contraction_factor(MapParams(0.5), 5, 0) == 1.0

    def test_envelope_spread(self):
        p = MapParams(0.5)
        ratios = []
        for ell in (10, 30, 100):
            for m in (10, 30, 100):
                lam = contraction_factor(p, ell, m)
                ratios.append(lam * (1.0 + m / ell) ** (1.0 + 2.0))
        ratios = np.asarray(ratios)
        assert ratios.max() / ratios.min() < 10.0

    def test_log_space_consistency(self):
        # lambda equals the plain product for short orbits
        from pmlab.maps import branch_inverse, forward_deriv

        p = MapParams(0.4)
        ell, m = 4, 5
        xs = [1.0]
        for _ in range(ell + m):
            xs.append(branch_inverse(p, xs[-1]))
        prod = 1.0
        for j in range(ell + 1, ell + m + 1):
            prod *= 1.0 / forward_deriv(p, xs[j], 1)
        assert contraction_factor(p, ell, m) == pytest.approx(prod, rel=1e-12)


class TestCorrelationDecay:
    def test_alpha0_exponential(self):
        p = MapParams(0.0)
        mesh = build_mesh(p, 2048, 60, 1e-8)
        rec = compute_density(p, mesh, tol=1e-14)
        crv = correlation_decay(p, rec, "x", "x", 30, method="operator")
        v = np.abs(crv.values)
        assert v[1] == pytest.approx(1.0 / 24.0, rel=1e-4)
        C = 4.0 * max(v[n] * 2.0**n for n in range(1, 6))
        assert all(v[n] <= C * 2.0**-n for n in range(1, 26))

    def test_centered_constant_vanishes(self, rec3):
        p = MapParams(0.3)
        crv = correlation_decay(p, rec3, "x", "const", 10, method="operator")
        # zero up to the quadrature floor of the product of means
        assert np.max(np.abs(crv.values)) < 1e-7

    def test_mc_matches_operator(self, rec3):
        p = MapParams(0.3)
        op = correlation_decay(p, rec3, "x", "x", 20, method="operator")
        mc = correlation_decay(
            p, rec3, "x", "x", 20, method="montecarlo",
            n_orbits=2048, orbit_len=16384, burn_in=1024, seed=11,
        )
        z = np.abs(op.values - mc.values) / np.maximum(mc.standard_errors, 1e-12)
        assert np.max(z) < 3.0

    def test_mc_deterministic(self, rec3):
        p = MapParams(0.3)
        kw = dict(method="montecarlo", n_orbits=256, orbit_len=4096,
                  burn_in=256, seed=5)
        c1 = correlation_decay(p, rec3, "x", "x", 8, **kw)
        c2 = correlation_decay(p, rec3, "x", "x", 8, **kw)
        assert np.array_equal(c1.values, c2.values)

    def test_raw_loop_is_the_operator_definition(self, rec3):
        # C_n = int psi L^n(phi rho) dx - m_phi m_psi through the public
        # operators, bit for bit
        p = MapParams(0.3)
        psi, phi = parse_observable("cos"), parse_observable("x^2")
        rho = rec3.density
        x = rho.mesh.nodes
        means = observable_mean(phi, rec3) * observable_mean(psi, rec3)
        w = GridFunction(rho.mesh, phi.f(x) * rho.values, rho.s)
        expected = []
        for _ in range(21):
            expected.append(integrate(GridFunction(rho.mesh, psi.f(x) * w.values, w.s)) - means)
            w = apply_L(p, w)
        crv = correlation_decay(p, rec3, psi, phi, 20, method="operator")
        assert np.array_equal(crv.values, expected)

    def test_operator_needs_a_density(self):
        with pytest.raises(ValueError, match="operator method needs a density"):
            correlation_decay(MapParams(0.3), None, "x", "x", 8, method="operator")

    def test_operator_needs_a_converged_density(self, rec3):
        p = MapParams(0.3)
        rec = compute_density(p, rec3.density.mesh, tol=1e-13, max_iter=3)
        with pytest.raises(ConvergenceError, match="not converged"):
            correlation_decay(p, rec, "x", "x", 8, method="operator")

    def test_method_validation(self, rec3):
        with pytest.raises(ValueError):
            correlation_decay(MapParams(0.3), rec3, "x", "x", 20, method="banana")

    # (alpha, psi, phi, N, n_orbits, orbit_len, burn_in): steps that are not
    # a multiple of the 64-step block, N > 64, a single partial block, and
    # the dithered alpha = 0 orbits
    @pytest.mark.parametrize("a, psi, phi, N, n_orbits, orbit_len, burn_in", [
        (0.3, "cos", "x", 20, 64, 700, 50),
        (0.4, "x", "cos2", 80, 32, 600, 0),
        (0.5, "x^2", "x", 8, 16, 40, 10),
        (0.0, "cos", "x", 16, 48, 400, 30),
    ])
    def test_blocked_lag_sums_match_step_loop(self, a, psi, phi, N, n_orbits,
                                              orbit_len, burn_in):
        p = MapParams(a)
        crv = correlation_decay(p, None, psi, phi, N, method="montecarlo",
                                n_orbits=n_orbits, orbit_len=orbit_len,
                                burn_in=burn_in, seed=9)
        # reference: one step and one lag at a time over a ring of phi values
        psi_f, phi_f = parse_observable(psi).f, parse_observable(phi).f
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.0, 1.0, n_orbits)
        for _ in range(burn_in):
            xs = _mc_step(p, xs, rng)
        steps = orbit_len - burn_in
        ring = np.empty((N + 1, n_orbits))
        sums = np.zeros((N + 1, n_orbits))
        phi_sum = np.zeros(n_orbits)
        psi_sum = np.zeros(n_orbits)
        for t in range(steps):
            phi_t, psi_t = phi_f(xs), psi_f(xs)
            ring[t % (N + 1)] = phi_t
            phi_sum += phi_t
            psi_sum += psi_t
            for n in range(min(t, N) + 1):
                sums[n] += psi_t * ring[(t - n) % (N + 1)]
            xs = _mc_step(p, xs, rng)
        counts = steps - np.arange(N + 1.0)
        per_orbit = sums / counts[:, None] - (psi_sum / steps) * (phi_sum / steps)
        vals = per_orbit.mean(axis=1)
        ses = per_orbit.std(axis=1, ddof=1) / np.sqrt(n_orbits)
        expo, _ = _fit_decay(vals, max(N // 4, 1), N)

        assert np.max(np.abs(crv.values - vals)) <= 1e-12 * np.max(np.abs(vals))
        assert np.max(np.abs(crv.standard_errors - ses) / ses) <= 1e-10
        assert abs(crv.fitted_exponent - expo) <= 1e-9

    @pytest.mark.parametrize("kw, match", [
        (dict(n_orbits=1), "n_orbits must be >= 2"),
        (dict(n_orbits=0), "n_orbits must be >= 2"),
        (dict(burn_in=-1), "burn_in must be >= 0"),
    ])
    def test_mc_validation(self, kw, match):
        args = dict(n_orbits=16, orbit_len=256, burn_in=16) | kw
        with pytest.raises(ValueError, match=match):
            correlation_decay(MapParams(0.3), None, "x", "x", 8,
                              method="montecarlo", **args)

    def test_short_orbit_rejected_before_burn_in(self, monkeypatch):
        from pmlab import asymptotics

        steps = []
        mc_step = asymptotics._mc_step
        monkeypatch.setattr(asymptotics, "_mc_step",
                            lambda *a: steps.append(1) or mc_step(*a))
        with pytest.raises(ValueError, match="orbit_len too short"):
            correlation_decay(MapParams(0.3), None, "x", "x", 8, method="montecarlo",
                              n_orbits=16, orbit_len=32, burn_in=16)
        assert steps == []


def _forward_dithered(p, xs, rng):
    """``forward``, plus the alpha = 0 dither written out."""
    xs = forward(p, xs)
    if p.alpha == 0.0:
        xs = np.minimum(xs + rng.uniform(0.0, 2.0**-50, xs.size), 1.0 - 1e-16)
    return xs


class TestMonteCarloStep:
    @pytest.mark.parametrize("a", [0.0, 0.1, 0.25, 0.5, 0.9])
    def test_step_is_forward_bitwise(self, a):
        p = MapParams(a)
        edges = [0.0, 2.0**-1074, np.nextafter(0.5, 0.0), 0.5, 1.0]
        x = np.concatenate([edges, np.random.default_rng(1).uniform(0.0, 1.0, 10_000)])
        got = _mc_step(p, x, np.random.default_rng(2))
        want = _forward_dithered(p, x, np.random.default_rng(2))
        assert got.tobytes() == want.tobytes()

    def test_unit_interval_is_invariant_in_floating_point(self):
        # the premise of checking the orbits' range once per block: just
        # below 1/2 the left branch rounds to at most 1.0
        x = np.concatenate([np.nextafter(0.5, 0.0) - 2.0**-54 * np.arange(32),
                            [0.0, 2.0**-1074, 0.5, 1.0]])
        for a in np.linspace(0.0, 0.999, 2000):
            y = forward(MapParams(a), x)
            assert 0.0 <= y.min() and y.max() <= 1.0

    @pytest.mark.parametrize("a", [0.3, 0.0])
    def test_birkhoff_is_the_forward_loop_bitwise(self, a):
        p = MapParams(a)
        mean, se = birkhoff_average(p, "cos", 48, 1000, 100, seed=4)
        f = parse_observable("cos").f
        rng = np.random.default_rng(4)
        xs = rng.uniform(0.0, 1.0, 48)
        for _ in range(100):
            xs = _forward_dithered(p, xs, rng)
        acc = np.zeros(48)
        for _ in range(900):
            acc += f(xs)
            xs = _forward_dithered(p, xs, rng)
        means = acc / 900
        assert mean == float(means.mean())
        assert se == float(means.std(ddof=1) / math.sqrt(48))

    # a chunk of 7 resamples leaves a ragged last chunk of 4
    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("chunk", [7, None])
    def test_bootstrap_is_the_gather_and_mean_loop(self, monkeypatch, seed, chunk):
        n_orbits, N, steps = 96, 12, 400
        if chunk is not None:
            monkeypatch.setattr(asymptotics, "_BOOT_CHUNK", chunk * n_orbits)
        p = MapParams(0.3)
        crv = correlation_decay(p, None, "x", "x", N, method="montecarlo",
                                n_orbits=n_orbits, orbit_len=steps + 40, burn_in=40,
                                seed=seed)
        # reference: per-step lag sums, then one gather and mean per resample
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, 1.0, n_orbits)
        for _ in range(40):
            xs = forward(p, xs)
        traj = np.empty((steps, n_orbits))
        for t in range(steps):
            traj[t] = xs
            xs = forward(p, xs)
        counts = steps - np.arange(N + 1.0)
        sums = np.array([(traj[n:] * traj[: steps - n]).sum(axis=0) for n in range(N + 1)])
        mean = traj.mean(axis=0)
        per_orbit = sums / counts[:, None] - mean * mean
        boots = []
        for _ in range(200):
            pick = rng.integers(0, n_orbits, n_orbits)
            b, _ = _fit_decay(per_orbit[:, pick].mean(axis=1), max(N // 4, 1), N)
            if not math.isnan(b):
                boots.append(b)
        ci = (np.percentile(boots, 2.5), np.percentile(boots, 97.5))

        assert np.max(np.abs(crv.values - per_orbit.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(np.subtract(crv.exponent_ci, ci))) <= 1e-10

    @pytest.mark.parametrize("shift", [2.0, np.nan])
    @pytest.mark.parametrize("at", [5, 100])
    @pytest.mark.parametrize("run", [
        lambda p: correlation_decay(p, None, "x", "x", 8, method="montecarlo",
                                    n_orbits=16, orbit_len=300, burn_in=20),
        lambda p: birkhoff_average(p, "x", 16, 300, 20),
    ], ids=["correlation_decay", "birkhoff_average"])
    def test_orbit_leaving_the_interval_raises(self, monkeypatch, shift, at, run):
        # at step 5 (burn-in) or 100 (the sums), mid-block; the orbit never returns
        steps = []
        mc_step = asymptotics._mc_step

        def leaky(p, xs, rng):
            steps.append(1)
            xs = mc_step(p, xs, rng)
            return xs + shift if len(steps) == at else xs

        monkeypatch.setattr(asymptotics, "_mc_step", leaky)
        with pytest.raises(ValueError, match=r"forward: x outside \[0, 1\]"):
            run(MapParams(0.3))
        assert len(steps) < at + asymptotics._MC_BLOCK


class TestBirkhoff:
    def test_constant(self):
        mean, se = birkhoff_average(MapParams(0.3), "const", 64, 2048, 256, seed=1)
        assert mean == 1.0 and se == 0.0

    def test_alpha0_mean(self):
        mean, se = birkhoff_average(MapParams(0.0), "x", 1024, 16384, 1024, seed=42)
        assert abs(mean - 0.5) < 3.0 * se

    def test_matches_grid_quadrature(self, rec3):
        from pmlab import observable_mean, parse_observable

        p = MapParams(0.3)
        mean, se = birkhoff_average(p, "x", 2048, 16384, 1024, seed=7)
        grid = observable_mean(parse_observable("x"), rec3)
        assert abs(mean - grid) < 3.0 * se

    def test_determinism(self):
        a = birkhoff_average(MapParams(0.4), "x", 128, 4096, 256, seed=3)
        b = birkhoff_average(MapParams(0.4), "x", 128, 4096, 256, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            birkhoff_average(MapParams(0.3), "x", 8, 100, 200)

    def test_orbit_count_and_burn_in_validation(self):
        with pytest.raises(ValueError, match="n_orbits must be >= 1"):
            birkhoff_average(MapParams(0.3), "x", 0, 100, 10)
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            birkhoff_average(MapParams(0.3), "x", 8, 100, -1)
        mean, _ = birkhoff_average(MapParams(0.3), "x", 1, 100, 0)
        assert 0.0 < mean < 1.0

    def test_one_orbit_has_no_standard_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = birkhoff_average(MapParams(0.3), "x", 1, 100, 10)
        assert 0.0 < mean < 1.0
        assert math.isnan(se)
