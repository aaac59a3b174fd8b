"""Map family: closed forms against independent oracles.

Frozen DERIVED values were computed with mpmath (50 digits); the
computations are quoted next to each value.  Finite-difference oracles run
live since they are cheap.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmlab import (
    MapParams,
    X,
    X_double_prime,
    X_prime,
    branch_inverse,
    dalpha_X,
    dalpha_X_prime,
    forward,
    forward_deriv,
)
from pmlab.maps import _g_chain

ALPHAS = [0.0, 0.1, 0.25, 0.4, 0.5, 0.75]


class TestForward:
    def test_alpha_zero_doubling(self):
        p = MapParams(0.0)
        assert forward(p, 0.25) == 0.5
        assert forward(p, 0.0) == 0.0

    def test_fixed_point_zero(self):
        for a in ALPHAS:
            assert forward(MapParams(a), 0.0) == 0.0

    def test_derived_value(self):
        # mpmath: mpf('0.3')*(1 + 2**mpf('0.5') * mpf('0.3')**mpf('0.5'))
        # = 0.53237900077244496...
        assert forward(MapParams(0.5), 0.3) == pytest.approx(
            0.532379000772445, abs=1e-15
        )

    def test_branch_convention_at_half(self):
        for a in ALPHAS:
            p = MapParams(a)
            assert forward(p, 0.5) == 0.0  # right branch owns 1/2
            assert forward(p, 0.5 - 1e-12) == pytest.approx(1.0, abs=1e-10)
            assert forward(p, 1.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            forward(MapParams(0.3), 1.5)
        with pytest.raises(ValueError):
            forward(MapParams(0.3), -0.1)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            MapParams(1.0)
        with pytest.raises(ValueError):
            MapParams(-0.2)

    @given(st.floats(0.0, 0.95), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_on_branches(self, a, i):
        p = MapParams(a)
        xs = np.linspace(0.0, 0.5 - 1e-9, 203)[i : i + 3]
        vals = forward(p, xs)
        assert np.all(np.diff(vals) > 0)
        xs = np.linspace(0.5, 1.0, 203)[i : i + 3]
        assert np.all(np.diff(forward(p, xs)) > 0)


class TestForwardDeriv:
    def test_alpha_zero(self):
        assert forward_deriv(MapParams(0.0), 0.3, 1) == 2.0

    def test_derived_first_derivative(self):
        # 1 + 2**0.5 * 1.5 * 0.25**0.5 = 2.06066017177982...
        assert forward_deriv(MapParams(0.5), 0.25, 1) == pytest.approx(
            2.060660171779821, abs=1e-15
        )

    def test_affine_branch(self):
        p = MapParams(0.7)
        assert forward_deriv(p, 0.75, 1) == 2.0
        for order in (2, 3, 4):
            assert forward_deriv(p, 0.75, order) == 0.0

    def test_domain_error_order2_at_zero(self):
        with pytest.raises(ValueError):
            forward_deriv(MapParams(0.3), 0.0, 2)

    def test_fd_consistency_orders(self):
        p = MapParams(0.45)
        xs = np.geomspace(1e-4, 0.49, 25)
        for order in (1, 2, 3):
            h = 1e-6 * np.maximum(xs, 1e-2)
            fd = (
                forward_deriv(p, xs + h, order) - forward_deriv(p, xs - h, order)
            ) / (2 * h)
            closed = forward_deriv(p, xs, order + 1)
            scale = np.max(np.abs(closed))
            assert np.max(np.abs(fd - closed)) < 1e-5 * scale


class TestBranchInverse:
    def test_alpha_zero_halving(self):
        assert branch_inverse(MapParams(0.0), 0.7) == 0.35

    def test_endpoints(self):
        for a in ALPHAS:
            p = MapParams(a)
            assert branch_inverse(p, 1.0) == 0.5
            assert branch_inverse(p, 0.0) == 0.0

    def test_derived_root(self):
        # mpmath bisection of x*(1 + sqrt(2)*sqrt(x)) = 0.4 to 50 digits:
        # 0.23691688122070395136...
        g = branch_inverse(MapParams(0.5), 0.4)
        assert g == pytest.approx(0.2369168812207040, abs=1e-14)

    @given(st.floats(0.0, 0.95), st.floats(1e-12, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a, y):
        p = MapParams(a)
        g = branch_inverse(p, y)
        assert g <= 0.5
        assert abs(forward(p, g) - y) <= 1e-12 if g < 0.5 else True
        if g == 0.5:
            assert y == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        p = MapParams(0.6)
        ys = np.linspace(0.0, 1.0, 400)
        gs = branch_inverse(p, ys)
        assert np.all(np.diff(gs) > 0)

    def test_expansion_bound(self):
        # |g(y) - y(1 - 2^a y^a)| <= C y^(1+2a) with stable fitted C
        for a in (0.25, 0.5, 0.75):
            p = MapParams(a)
            y = np.geomspace(1e-8, 1.0, 400)
            g = branch_inverse(p, y)
            ratio = np.abs(g - y * (1.0 - 2.0**a * y**a)) / y ** (1.0 + 2 * a)
            c_coarse = np.max(ratio[::2])
            assert np.max(ratio) < 1.5 * c_coarse + 1e-12  # stable, finite
            assert np.max(ratio) < 20.0

    def test_tiny_arguments(self):
        p = MapParams(0.1)
        y = 1e-40
        g = branch_inverse(p, y)
        assert abs(forward(p, g) - y) < 1e-15 * y

    def test_scalar_kernel_matches_array_path(self):
        # a scalar y runs its own Newton loop on Python floats; it must
        # return the bits of the array loop, including at y = 0 and y = 1
        rng = np.random.default_rng(2)
        ys = np.concatenate([rng.uniform(0.0, 1.0, 400),
                             np.geomspace(1e-300, 1.0, 400), [0.0, 1.0]])
        for a in np.linspace(0.05, 0.9, 18):
            p = MapParams(a)
            scalar = np.array([branch_inverse(p, y) for y in ys.tolist()])
            assert np.array_equal(scalar, branch_inverse(p, ys)), a

    def test_scalar_orbit_matches_array_orbit(self):
        for a in (0.1, 0.5, 0.9):
            p = MapParams(a)
            xs, xa = [1.0], [np.array([1.0])]
            for _ in range(3000):
                xs.append(branch_inverse(p, xs[-1]))
                xa.append(branch_inverse(p, xa[-1]))
            assert np.array_equal(np.array(xs), np.concatenate(xa)), a

    def test_scalar_and_array_errors_agree(self):
        p = MapParams(0.3)
        for y in (-0.1, 1.5, np.float64(2.0), np.array(-1e-300)):
            for arg in (y, np.array([y])):
                with pytest.raises(ValueError, match="y outside"):
                    branch_inverse(p, arg)
        for arg in (math.nan, np.array([math.nan])):
            with pytest.raises(ValueError, match="y outside"):
                branch_inverse(p, arg)


class TestBranchInverseDeriv:
    """The derivatives of g from ``_g_chain``, which the pullbacks and jets read."""

    def test_alpha_zero(self):
        assert _g_chain(MapParams(0.0), 0.3, 1)[1][0] == 0.5

    def test_at_one(self):
        for a in ALPHAS:
            assert _g_chain(MapParams(a), 1.0, 1)[1][0] == pytest.approx(
                1.0 / (2.0 + a), rel=1e-13
            )

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_fd_consistency(self, order):
        p = MapParams(0.5)
        ys = np.geomspace(1e-5, 1.0, 30)
        h = 1e-6 * np.maximum(ys, 1e-2)
        lo = np.clip(ys - h, 1e-9, 1.0)
        hi = np.clip(ys + h, None, 1.0)
        fd = (_g_chain(p, hi, order - 1)[order - 1]
              - _g_chain(p, lo, order - 1)[order - 1]) / (hi - lo)
        closed = _g_chain(p, ys, order)[order]
        assert np.max(np.abs(fd - closed)) < 1e-4 * np.max(np.abs(closed))


class TestPerturbationFields:
    def test_X0_closed_form(self):
        p = MapParams(0.0)
        xs = np.linspace(0.01, 1.0, 50)
        expected = xs * (np.log(2.0) + np.log(xs / 2.0)) / 2.0
        assert np.max(np.abs(X(p, xs) - expected)) < 1e-15
        assert X(p, 0.5) == pytest.approx(-np.log(2.0) / 4.0, abs=1e-16)

    def test_X0_prime_closed_form(self):
        p = MapParams(0.0)
        xs = np.linspace(0.01, 1.0, 50)
        expected = (1.0 + np.log(2.0) + np.log(xs / 2.0)) / 2.0
        assert np.max(np.abs(X_prime(p, xs) - expected)) < 1e-15

    def test_zeros_at_endpoints(self):
        for a in ALPHAS:
            p = MapParams(a)
            assert X(p, 1.0) == 0.0
            assert X(p, 0.0) == 0.0

    def test_x_derivative_chain(self):
        p = MapParams(0.35)
        xs = np.geomspace(1e-5, 1.0, 40)
        h = 1e-6 * np.maximum(xs, 1e-2)
        lo, hi = np.clip(xs - h, 1e-9, 1), np.clip(xs + h, None, 1.0)
        fd = (X(p, hi) - X(p, lo)) / (hi - lo)
        assert np.max(np.abs(fd - X_prime(p, xs))) < 1e-5 * np.max(np.abs(X_prime(p, xs)))
        fd2 = (X_prime(p, hi) - X_prime(p, lo)) / (hi - lo)
        assert np.max(np.abs(fd2 - X_double_prime(p, xs))) < 1e-4 * np.max(
            np.abs(X_double_prime(p, xs))
        )

    @pytest.mark.parametrize(
        "field,dfield",
        [(X, dalpha_X), (X_prime, dalpha_X_prime)],
    )
    def test_alpha_derivatives_match_fd(self, field, dfield):
        xs = np.geomspace(1e-5, 1.0, 40)
        for a in (0.25, 0.5, 0.7):
            eps = 1e-5
            fd = (field(MapParams(a + eps), xs) - field(MapParams(a - eps), xs)) / (
                2 * eps
            )
            closed = dfield(MapParams(a), xs)
            assert np.max(np.abs(fd - closed)) < 1e-7 * max(
                np.max(np.abs(closed)), 1.0
            )

    def test_dalpha_X_at_one_matches_fd(self):
        # X_b(1) = 0 for every b (g_b(1) = 1/2 kills log(2g)), so the
        # a-derivative vanishes; the FD oracle confirms within 1e-7.
        for a in (0.2, 0.5):
            eps = 1e-6
            fd = (X(MapParams(a + eps), 1.0) - X(MapParams(a - eps), 1.0)) / (2 * eps)
            assert abs(dalpha_X(MapParams(a), 1.0) - fd) < 1e-7
            assert abs(dalpha_X(MapParams(a), 1.0)) < 1e-14

    def test_dalpha_X_boundary_alpha_zero(self):
        eps = 1e-6
        fd = (X(MapParams(eps), 0.5) - X(MapParams(0.0), 0.5)) / eps
        assert abs(dalpha_X(MapParams(0.0), 0.5) - fd) < 1e-5

    def test_dalpha_X_vanishes_at_zero(self):
        assert dalpha_X(MapParams(0.4), 0.0) == 0.0

    def test_fd_constant_stable_under_h_halving(self):
        # |closed - FD| <= C h^2 with C stable as h is halved
        p = MapParams(0.45)
        xs = np.geomspace(1e-6, 1.0, 30)
        cs = []
        for h_rel in (1e-4, 5e-5):
            h = h_rel * np.maximum(xs, 1e-2)
            lo, hi = np.clip(xs - h, 1e-12, 1.0), np.clip(xs + h, None, 1.0)
            fd = (X(p, hi) - X(p, lo)) / (hi - lo)
            cs.append(np.max(np.abs(fd - X_prime(p, xs)) / h**2))
        assert 0.2 < cs[1] / cs[0] < 5.0

    def test_envelope_bounds(self):
        # |X| <= c x^(1+b)(|log x|+1) etc., with sup ratio finite and stable
        # under grid refinement
        for a in (0.25, 0.6):
            p = MapParams(a)
            for n in (200, 400):
                xs = np.geomspace(1e-8, 1.0, n)
                env = np.abs(np.log(xs)) + 1.0
                r1 = np.max(np.abs(X(p, xs)) / (xs ** (1 + a) * env))
                r2 = np.max(np.abs(X_prime(p, xs)) / (xs**a * env))
                r3 = np.max(np.abs(X_double_prime(p, xs)) / (xs ** (a - 1) * env))
                r4 = np.max(np.abs(dalpha_X(p, xs)) / (xs ** (1 + a) * env**2))
                for r in (r1, r2, r3, r4):
                    assert math.isfinite(r) and r < 10.0

    def test_domain_errors(self):
        p = MapParams(0.3)
        for fn in (X_prime, X_double_prime, dalpha_X_prime):
            with pytest.raises(ValueError):
                fn(p, 0.0)
        with pytest.raises(ValueError):
            X(p, -0.5)

    def test_nan_is_outside_the_domain(self):
        p = MapParams(0.3)
        fns = (forward, forward_deriv, branch_inverse, X, X_prime, X_double_prime,
               dalpha_X, dalpha_X_prime)
        for fn in fns:
            for arg in (math.nan, np.array([0.25, math.nan])):
                with pytest.raises(ValueError, match="outside"):
                    fn(p, arg)
