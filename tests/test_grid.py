"""Graded meshes, weighted quadrature, differentiation, interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmlab import MapParams, GridFunction, build_mesh, evaluate, grid
from pmlab.grid import (
    differentiate,
    derivatives_full,
    integrate,
    integrate_to,
    l1_norm,
    u_derivatives_stencil,
)
from pmlab.maps import branch_inverse


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(MapParams(0.5), 1024, 64, 1e-8)


class TestBuildMesh:
    def test_invariants(self, mesh):
        x = mesh.nodes
        assert np.all(np.diff(x) > 0)
        assert x[0] == 1e-8
        assert x[-1] == 1.0
        assert 0.5 in x

    def test_orbit_nodes_alpha_zero(self):
        m = build_mesh(MapParams(0.0), 128, 20, 1e-9)
        for ell in range(21):
            assert 2.0**-ell in m.nodes

    def test_orbit_nodes_present(self):
        p = MapParams(0.4)
        m = build_mesh(p, 256, 30, 1e-8)
        xl = 1.0
        for _ in range(30):
            xl = branch_inverse(p, xl)
            assert np.min(np.abs(m.nodes - xl)) == 0.0

    def test_orbit_bound(self):
        # x_100 under the explicit upper constant at alpha = 0.5
        p = MapParams(0.5)
        m = build_mesh(p, 256, 100, 1e-10)
        xl = 1.0
        for _ in range(100):
            xl = branch_inverse(p, xl)
        assert xl <= 2.0 ** (1 / 0.25 + 1 / 0.5) * 100.0 ** (-2.0)

    def test_orbit_clipped_at_x_min(self):
        # requesting more orbit points than fit above x_min truncates
        p = MapParams(0.1)
        m = build_mesh(p, 128, 100, 1e-4)
        assert np.all(m.nodes >= 1e-4)
        orbit = [1.0]
        while orbit[-1] > 1e-4:
            orbit.append(branch_inverse(p, orbit[-1]))
        assert len(orbit) - 1 < 100  # the last point is below x_min
        assert np.all(np.isin(orbit[:-1], m.nodes))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_mesh(MapParams(0.3), 32, 10, 1e-8)
        with pytest.raises(ValueError):
            build_mesh(MapParams(0.3), 128, 0, 1e-8)

    def test_quasi_uniform_neighbours(self, mesh):
        h = np.diff(mesh.nodes)
        ratios = h[1:] / h[:-1]
        assert ratios.min() > 0.2 and ratios.max() < 5.0

    def test_grading_exponent(self):
        # the graded bulk is (i/n)^gamma, gamma = max(2, 2/(1-alpha))
        assert build_mesh(MapParams(0.0), 128, 8, 1e-6).nodes[-2] == (127 / 128) ** 2.0
        assert build_mesh(MapParams(0.5), 128, 8, 1e-6).nodes[-2] == (127 / 128) ** 4.0


class TestIntegrate:
    def test_constant(self, mesh):
        assert integrate(GridFunction(mesh, np.ones(mesh.size), 0.0)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_inverse_sqrt(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.5)
        assert integrate(f) == pytest.approx(2.0, abs=1e-13)

    def test_linear(self, mesh):
        f = GridFunction(mesh, mesh.nodes.copy(), 0.0)
        assert integrate(f) == pytest.approx(0.5, abs=1e-12)

    def test_weighted_power(self, mesh):
        # u = x against x^-0.3: integral of x^0.7 = 1/1.7
        f = GridFunction(mesh, mesh.nodes.copy(), 0.3)
        assert integrate(f) == pytest.approx(1.0 / 1.7, rel=1e-12)

    def test_non_integrable_exponent(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        bad = GridFunction(mesh, f.values, 0.0)
        object.__setattr__(bad, "s", 1.2)
        with pytest.raises(ValueError):
            integrate(bad)

    def test_linearity_and_positivity(self, mesh, rng):
        u1 = rng.uniform(0.0, 2.0, mesh.size)
        u2 = rng.uniform(0.0, 2.0, mesh.size)
        f1 = GridFunction(mesh, u1, 0.25)
        f2 = GridFunction(mesh, u2, 0.25)
        lhs = integrate(GridFunction(mesh, 2.0 * u1 - 0.5 * u2, 0.25))
        assert lhs == pytest.approx(2.0 * integrate(f1) - 0.5 * integrate(f2), rel=1e-12)
        assert integrate(f1) >= 0.0

    def test_integrate_to_node(self, mesh):
        one = GridFunction(mesh, np.ones(mesh.size), 0.0)
        assert integrate_to(one, 0.5) == pytest.approx(0.5, abs=1e-14)
        with pytest.raises(ValueError):
            integrate_to(one, 0.1234567891234)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.75])
    def test_quadrature_vector(self, mesh, rng, s):
        # q_s . u equals the cell-moment rule, and q_s >= 0 keeps
        # l1_norm = q_s . |u| an L1 norm
        m0, m1c, tail = mesh.moments(s)
        q = mesh.quadrature(s)
        assert np.all(q >= 0.0)
        x = mesh.nodes
        for u in (1.0 + x * np.cos(3.0 * x), rng.uniform(0.0, 2.0, mesh.size),
                  rng.standard_normal(mesh.size)):
            ubar = 0.5 * (u[:-1] + u[1:])
            slope = np.diff(u) / mesh.widths
            explicit = np.sum(ubar * m0 + slope * m1c) + u[0] * tail
            scale = np.sum(np.abs(ubar) * m0 + np.abs(slope * m1c)) + abs(u[0]) * tail
            f = GridFunction(mesh, u, s)
            assert abs(integrate(f) - explicit) <= 1e-14 * scale
            assert l1_norm(f) == float(q @ np.abs(u))

    @pytest.mark.parametrize("power", [0, 1, 2])
    def test_refinement_stability(self, power):
        # halving the maximum cell width changes int(rho-like * psi) for
        # psi in {1, x, x^2} by less than the declared quadrature
        # tolerance (1e-7 at n = 2048; observed convergence is O(n^-2))
        p = MapParams(0.5)
        vals = []
        for n in (2048, 4096):
            m = build_mesh(p, n, 64, 1e-8)
            f = GridFunction(m, m.nodes**power / (1.0 + m.nodes), 0.5)
            vals.append(integrate(f))
        assert abs(vals[0] - vals[1]) < 1e-7


class TestDifferentiate:
    def test_constant_exact_zero(self, mesh):
        f = GridFunction(mesh, np.full(mesh.size, 3.7), 0.0)
        assert np.max(np.abs(differentiate(f).values)) == 0.0

    def test_quadratic(self, mesh):
        f = GridFunction(mesh, mesh.nodes**2, 0.0)
        d = differentiate(f)
        x = mesh.nodes
        rel = np.abs(d.values / x - 2.0 * x) / np.maximum(2.0 * x, 1e-4)
        assert np.max(rel[2:-2]) < 1e-10

    def test_quadratic_one_sided_ends(self, mesh):
        # the end nodes use one-sided 3-point windows, exact on quadratics
        x = mesh.nodes
        d = differentiate(GridFunction(mesh, x + x**2, 0.0))
        for i in (0, -1):
            assert d.values[i] / x[i] == pytest.approx(1.0 + 2.0 * x[i], rel=1e-12)

    def test_pure_power_analytic(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.3)
        d = differentiate(f)
        assert d.s == 1.3
        assert np.max(np.abs(d.values + 0.3)) < 1e-12

    def test_exponent_increments(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.25)
        assert differentiate(differentiate(f)).s == 2.25

    def test_second_antiderivative_recovery(self, mesh):
        # d/dx of the antiderivative of sin recovers sin to O(h^2) away
        # from the singular end
        x = mesh.nodes
        f = GridFunction(mesh, -np.cos(3.0 * x) / 3.0, 0.0)
        d = differentiate(f)
        err = np.abs(d.values / x - np.sin(3.0 * x))
        assert np.max(err[x > 1e-3]) < 5e-5


class TestEvaluate:
    def test_nodes_exact(self, mesh, rng):
        u = rng.uniform(0.5, 2.0, mesh.size)
        f = GridFunction(mesh, u, 0.4)
        out = evaluate(f, mesh.nodes)
        assert np.max(np.abs(out - u * mesh.nodes**-0.4)) < 1e-12 * np.max(np.abs(out))

    def test_linear_exact(self, mesh):
        xq = np.sqrt(mesh.nodes[:-1] * mesh.nodes[1:])
        for poly in (lambda x: 2.0 * x + 1.0, lambda x: 3.0 * x * x - 2.0 * x + 0.5):
            f = GridFunction(mesh, poly(mesh.nodes), 0.0)
            assert np.max(np.abs(evaluate(f, xq) - poly(xq))) < 1e-12

    def test_constant_extension_below_x_min(self, mesh):
        f = GridFunction(mesh, 1.0 + mesh.nodes, 0.0)
        assert evaluate(f, mesh.x_min * 0.01) == pytest.approx(1.0 + mesh.x_min)

    def test_domain_errors(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        with pytest.raises(ValueError):
            evaluate(f, 0.0)
        with pytest.raises(ValueError):
            evaluate(f, 1.5)

    def test_nan_rejected(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(f, np.nan)
        with pytest.raises(ValueError, match="must lie in"):
            evaluate(f, np.array([0.5, np.nan]))

    def test_scalar_returns_float(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        assert isinstance(evaluate(f, 0.3), float)


def _hermite_operator(mesh, xq):
    """``grid._hermite_read``'s rows at xq as a ``grid._operator``."""
    w = np.empty((xq.size, 4))
    return grid._operator(mesh, grid._hermite_read(mesh, xq, w), w)


class TestHermiteWeights:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
    def test_rows_add_to_one_exactly(self, alpha, monkeypatch):
        # every read is exact on constants, as a gather and as CSR
        p = MapParams(alpha)
        mesh = build_mesh(p, 1024, 64, 1e-8)
        x, n = mesh.nodes, mesh.size
        queries = (branch_inverse(p, x), 0.5 * (x + 1.0), x,
                   np.random.default_rng(22).uniform(0.0, 1.0, 2000))
        for csr_min in (n + 1, n):
            monkeypatch.setattr(grid, "_CSR_MIN_NODES", csr_min)
            for xq in queries:
                P = _hermite_operator(mesh, xq)
                if csr_min > n:
                    assert P.cols.shape == (xq.size, 4) and P.cols.max() < n
                else:
                    assert P.format == "csr" and P.shape == (xq.size, n)
                assert np.all(P @ np.ones(n) == 1.0)


class TestGridFunctionAlgebra:
    def test_mesh_identity_required(self, mesh):
        other = build_mesh(MapParams(0.5), 1024, 64, 1e-8)
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        g = GridFunction(other, np.ones(other.size), 0.0)
        with pytest.raises(ValueError):
            _ = f + g

    def test_add_promotes_exponent(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        g = GridFunction(mesh, np.ones(mesh.size), 0.5)
        h = f + g
        assert h.s == 0.5
        assert np.allclose(h.full_values(), f.full_values() + g.full_values())

    def test_mul_adds_exponents(self, mesh):
        f = GridFunction(mesh, 2.0 * np.ones(mesh.size), 0.25)
        g = GridFunction(mesh, 3.0 * np.ones(mesh.size), 0.5)
        h = f * g
        assert h.s == 0.75
        assert np.all(h.values == 6.0)

    def test_values_finite_required(self, mesh):
        bad = np.ones(mesh.size)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(mesh, bad, 0.0)

    def test_immutable(self, mesh):
        f = GridFunction(mesh, np.ones(mesh.size), 0.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    @given(st.floats(0.0, 0.9), st.floats(0.0, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_l1_triangle_inequality(self, s1, s2):
        m = _SMALL_MESH
        rng = np.random.default_rng(int(1000 * (s1 + 2 * s2)))
        f = GridFunction(m, rng.uniform(-1, 1, m.size), round(s1, 3))
        g = GridFunction(m, rng.uniform(-1, 1, m.size), round(s2, 3))
        assert l1_norm(f + g) <= l1_norm(f) + l1_norm(g) + 1e-12


_SMALL_MESH = build_mesh(MapParams(0.3), 128, 16, 1e-6)


class TestStencils:
    def test_third_derivative_power(self):
        m = build_mesh(MapParams(0.3), 2048, 64, 1e-7)
        f = GridFunction(m, np.ones(m.size), 0.3)
        ders = derivatives_full(f, 3)
        x = m.nodes
        expected = -0.3 * 1.3 * 2.3 * x ** (-3.3)
        win = x > 1e-4
        rel = np.abs(ders[3] - expected) / np.abs(expected)
        assert np.max(rel[win]) < 2e-2

    def test_stencil_constants_exact(self):
        m = _SMALL_MESH
        d = u_derivatives_stencil(m, np.full(m.size, 2.5), 3, 5)
        for arr in d:
            assert np.max(np.abs(arr)) == 0.0


class TestEvaluateRefinement:
    def test_density_off_node_cauchy(self):
        # evaluating a propagated density off-node is Cauchy under mesh
        # refinement
        from pmlab import MapParams, compute_density

        p = MapParams(0.5)
        xq = np.array([0.0123, 0.0717, 0.2345, 0.6789, 0.9321])
        vals = []
        for n in (2048, 4096):
            m = build_mesh(p, n, 80, 1e-6)
            rec = compute_density(p, m, tol=1e-8, max_iter=30000)
            vals.append(evaluate(rec.density, xq))
        assert np.max(np.abs(vals[1] - vals[0])) < 5e-5
