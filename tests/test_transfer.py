"""Transfer operators, parameter derivatives, densities, Ulam oracle."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmlab import (
    ConvergenceError,
    GridFunction,
    Jet,
    MapParams,
    apply_L,
    apply_M,
    apply_N,
    apply_d2L,
    apply_preimage_sum,
    branch_inverse,
    build_mesh,
    build_ulam,
    compute_density,
    correlation_decay,
    default_cone_params,
    integrate,
    invariance_experiment,
    jet_apply,
    jet_one,
    l1_norm,
    response_series,
    response_series_forward,
    seven_term_decomposition,
    susceptibility,
    ulam_mean,
    ulam_stationary,
)
from pmlab import grid, transfer
from pmlab.grid import _CSR_MIN_NODES, _Gather, _hermite_read, _operator, evaluate_u
from pmlab.maps import _g_chain, forward
from pmlab.transfer import _default_max_iter

from oracles import ulam_l1_distance


def _rel_gap(a, b):
    """max |a - b| relative to max |b|: the assembled step and the kernel sum
    the same terms in different orders."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def p3():
    return MapParams(0.3)


@pytest.fixture(scope="module")
def mesh3(p3):
    return build_mesh(p3, 4096, 100, 1e-6)


@pytest.fixture(scope="module")
def rec3(p3, mesh3):
    return compute_density(p3, mesh3, tol=1e-9, max_iter=30000)


class TestApplyL:
    def test_alpha0_fixed_point(self):
        p = MapParams(0.0)
        m = build_mesh(p, 512, 32, 1e-8)
        one = GridFunction(m, np.ones(m.size), 0.0)
        # the assembled step sums 8 products a row, so 1 is fixed to rounding
        assert np.max(np.abs(apply_L(p, one).values - one.values)) <= 1e-15

    def test_alpha0_linear(self):
        p = MapParams(0.0)
        m = build_mesh(p, 512, 32, 1e-8)
        f = GridFunction(m, m.nodes.copy(), 0.0)
        out = apply_L(p, f)
        expected = m.nodes / 2.0 + 0.25
        # tiny deviation only below the constant-extension zone
        win = m.nodes > 10 * m.x_min
        assert np.max(np.abs(out.values - expected)[win]) < 1e-12

    def test_mass_conservation(self, p3, mesh3, rng):
        # smooth random test functions (interpolation of pure nodal noise
        # is not mass-conserving to quadrature accuracy)
        c = rng.uniform(-1.0, 1.0, 4)
        x = mesh3.nodes
        u = 1.5 + c[0] * x + c[1] * np.cos(3 * x) + c[2] * x**2 + c[3] * np.sin(x)
        f = GridFunction(mesh3, u, 0.3)
        assert integrate(apply_L(p3, f)) == pytest.approx(integrate(f), abs=2e-8)

    def test_linear(self, p3, mesh3, rng):
        # the Hermite slopes carry no limiter, so L is one fixed matrix
        u = GridFunction(mesh3, rng.uniform(0.5, 2.0, mesh3.size), 0.3)
        v = GridFunction(mesh3, np.cos(7.0 * mesh3.nodes) - 0.2, 0.3)
        lhs = apply_L(p3, u + 2.5 * v).values
        rhs = apply_L(p3, u).values + 2.5 * apply_L(p3, v).values
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * np.linalg.norm(lhs)

    def test_branch_decomposition_exact(self, p3, mesh3, rng):
        from pmlab.transfer import _g_nodes, _pullback

        f = GridFunction(mesh3, rng.uniform(0.5, 2.0, mesh3.size), 0.3)
        wg, wr = _pullback(p3, mesh3, f.s, f.values)
        left, right = wg * _g_nodes(p3, mesh3)[1], 0.5 * wr
        assert _rel_gap(apply_L(p3, f).values, left + right) <= 2e-15
        assert np.array_equal(apply_N(p3, f).values, left)

    @given(st.tuples(*[st.floats(-1.0, 1.0) for _ in range(4)]))
    @settings(max_examples=15, deadline=None)
    def test_positivity_and_mass_properties(self, coeffs):
        # smooth nonnegative f: L f stays nonnegative and keeps its mass
        p = MapParams(0.3)
        mesh = _PROP_MESH
        x = mesh.nodes
        c = np.asarray(coeffs)
        u = 2.5 + c[0] * x + c[1] * np.cos(3.0 * x) + c[2] * x**2 + c[3] * np.sin(2.0 * x)
        assert np.all(u > 0)
        f = GridFunction(mesh, u, 0.3)
        lf = apply_L(p, f)
        assert np.all(lf.values >= 0.0)
        # quadrature tolerance of the coarse property mesh (n = 512)
        assert integrate(lf) == pytest.approx(integrate(f), abs=1e-5)

    def test_duality(self, p3, mesh3, rec3):
        # int (psi o T) f dx = int psi L f dx for piecewise-smooth psi
        f = rec3.density
        x = mesh3.nodes
        psi = np.cos(2.0 * np.pi * x)
        lhs = integrate(GridFunction(mesh3, np.cos(2.0 * np.pi * forward(p3, x)) * f.values, f.s))
        Lf = apply_L(p3, f)
        rhs = integrate(GridFunction(mesh3, psi * Lf.values, Lf.s))
        assert lhs == pytest.approx(rhs, abs=5e-7)


class TestApplyN:
    def test_alpha0_constant(self):
        p = MapParams(0.0)
        m = build_mesh(p, 512, 32, 1e-8)
        one = GridFunction(m, np.ones(m.size), 0.0)
        assert np.all(apply_N(p, one).values == 0.5)

    def test_zero(self, p3, mesh3):
        z = GridFunction(mesh3, np.zeros(mesh3.size), 0.3)
        assert np.all(apply_N(p3, z).values == 0.0)

    def test_N_below_rho(self, p3, rec3):
        nr = apply_N(p3, rec3.density)
        assert np.all(nr.values <= rec3.density.values + 1e-14)


class TestApplyM:
    def test_alpha0_closed_form(self):
        p = MapParams(0.0)
        m = build_mesh(p, 2048, 60, 1e-8)
        one = GridFunction(m, np.ones(m.size), 0.0)
        out = apply_M(p, one)
        expected = -(1.0 + np.log(2.0) + np.log(m.nodes / 2.0)) / 4.0
        assert np.max(np.abs(out.values - expected)) < 1e-14

    def test_zero(self, p3, mesh3):
        z = GridFunction(mesh3, np.zeros(mesh3.size), 0.3)
        assert np.all(apply_M(p3, z).values == 0.0)

    def test_fd_consistency_order(self, p3, rec3):
        # matches the alpha-difference of L at O(eps^2) + mesh error; the
        # order >= 1.8 assertion at {1e-3, 5e-4} lives in the acceptance
        # suite on a finer mesh
        f = rec3.density
        Mf = apply_M(p3, f)
        eps = 2e-3
        pp, pm = MapParams(0.3 + eps), MapParams(0.3 - eps)
        fd = (1.0 / (2 * eps)) * (apply_L(pp, f) - apply_L(pm, f))
        assert l1_norm(fd - Mf) < 5e-6

    def test_mean_zero_on_density(self, p3, rec3):
        assert abs(integrate(apply_M(p3, rec3.density))) < 2e-5


class TestApplyD2L:
    def test_zero(self, p3, mesh3):
        z = GridFunction(mesh3, np.zeros(mesh3.size), 0.3)
        assert np.all(apply_d2L(p3, z).values == 0.0)

    def test_fd2_consistency(self, p3, mesh3):
        one = GridFunction(mesh3, mesh3.nodes**0.3, 0.3)
        d2 = apply_d2L(p3, one)
        eps = 1e-3
        pp, pm = MapParams(0.3 + eps), MapParams(0.3 - eps)
        fd2 = (1.0 / eps**2) * (
            (apply_L(pp, one) - 2.0 * apply_L(p3, one)) + apply_L(pm, one)
        )
        assert l1_norm(fd2 - d2) < 1e-3

    def test_seven_terms_sum_exactly(self, p3, rec3):
        f = apply_L(p3, GridFunction(rec3.density.mesh, rec3.density.mesh.nodes**0.3, 0.3))
        terms = seven_term_decomposition(p3, f)
        assert len(terms) == 7
        total = terms[0].values.copy()
        for t in terms[1:]:
            total += t.values
        assert np.max(np.abs(total - apply_d2L(p3, f).values)) < 1e-10

    def test_log_squared_envelope(self, p3, mesh3):
        # |d2L (L 1)|(x) <= C (|log x| + 1)^2 with moderate fitted C
        one = GridFunction(mesh3, mesh3.nodes**0.3, 0.3)
        f = apply_L(p3, one)
        d2 = apply_d2L(p3, f)
        env = (np.abs(np.log(mesh3.nodes)) + 1.0) ** 2
        ratio = np.abs(d2.full_values()) / env
        assert np.max(ratio) < 10.0


class TestJets:
    def test_jet_of_L1_matches_closed_forms(self, p3, mesh3):
        jet = jet_apply(p3, jet_one(p3, mesh3, 3))
        g, gp, gpp, gppp, gpppp = _g_chain(p3, mesh3.nodes, 4)
        truth = [gp + 0.5, gpp, gppp, gpppp]
        win = mesh3.nodes >= 1e-5
        for j in range(4):
            rel = np.abs(jet.levels[j].full_values() - truth[j]) / np.max(
                np.abs(truth[j][win])
            )
            assert np.max(rel[win]) < 1e-4

    def test_jet_level0_equals_apply_L(self, p3, mesh3):
        jet = jet_apply(p3, jet_one(p3, mesh3, 2))
        one = GridFunction(mesh3, mesh3.nodes**0.3, 0.3)
        assert np.max(np.abs(jet.levels[0].values - apply_L(p3, one).values)) < 1e-14

    def test_one_read_gives_both_images(self, p3, mesh3, monkeypatch):
        from pmlab import transfer

        jet = jet_apply(p3, jet_one(p3, mesh3, 3))
        exponents = []
        pullback = transfer._pullback
        monkeypatch.setattr(transfer, "_pullback",
                            lambda *a: exponents.append(a[2]) or pullback(*a))
        l_img, n_img = transfer._jet_images(p3, jet)
        assert exponents == [lv.s for lv in jet.levels]  # one read per level
        monkeypatch.undo()
        f = jet.levels[0]
        assert _rel_gap(l_img.levels[0].values, apply_L(p3, f).values) <= 2e-15
        assert np.array_equal(n_img.levels[0].values, apply_N(p3, f).values)
        for again, img in ((jet_apply(p3, jet), l_img),
                           (transfer._jet_images(p3, jet)[1], n_img)):
            assert [lv.s for lv in again.levels] == [lv.s for lv in img.levels]
            assert all(np.array_equal(a.values, b.values)
                       for a, b in zip(again.levels, img.levels))


@pytest.fixture(scope="module")
def mesh_csr(p3):
    """A mesh large enough for CSR pullbacks (mesh3 reads them by gather)."""
    return build_mesh(p3, 8192, 100, 1e-6)


def _kernel(p, mesh):
    """The pullback kernel's operator, built by one read."""
    transfer._pullback(p, mesh, 0.0, np.ones(mesh.size))
    return mesh._cache[("pullbacks", p.alpha)]


def _entries(L, k):
    """(cols, weights) of a gather or CSR operator, in rows of k."""
    return L.indices.reshape(-1, k), L.data.reshape(-1, k)


class TestPullbackData:
    """The per-(alpha, mesh) pullback data reproduces the direct formulas
    with either representation (bit for bit, the assembled step to
    rounding), and is freed with its mesh."""

    def test_representation_follows_mesh_size(self, p3, mesh3, mesh_csr):
        assert mesh3.size < _CSR_MIN_NODES <= mesh_csr.size
        assert isinstance(_kernel(p3, mesh3), _Gather)
        assert _kernel(p3, mesh_csr).format == "csr"

    def test_apply_N_matches_direct_evaluation(self, p3, mesh3, mesh_csr):
        rng = np.random.default_rng(11)
        for mesh in (mesh3, mesh_csr):
            x = mesh.nodes
            g, gp = _g_chain(p3, x, 1)
            assert np.any(g < mesh.x_min)  # the constant extension is exercised
            for s in (0.0, p3.alpha):
                f = GridFunction(mesh, rng.standard_normal(mesh.size), s)
                direct = evaluate_u(f, g) * np.exp(s * (np.log(x) - np.log(g))) * gp
                assert np.array_equal(apply_N(p3, f).values, direct)

    def test_apply_preimage_sum_matches_direct_evaluation(self, p3, mesh3, mesh_csr):
        rng = np.random.default_rng(13)
        for mesh in (mesh3, mesh_csr):
            x = mesh.nodes
            f = GridFunction(mesh, rng.standard_normal(mesh.size), 0.0)
            direct = evaluate_u(f, branch_inverse(p3, x)) + evaluate_u(f, 0.5 * (x + 1.0))
            assert _rel_gap(apply_preimage_sum(p3, f).values, direct) <= 2e-15

    def test_gather_equals_csr_matvec_bitwise(self, p3, mesh_csr):
        x, n = mesh_csr.nodes, mesh_csr.size
        xq = np.concatenate([branch_inverse(p3, x), 0.5 * (x + 1.0), [0.5 * mesh_csr.x_min]])
        w = np.empty((xq.size, 4))
        cols = _hermite_read(mesh_csr, xq, w)
        P, G = _operator(mesh_csr, cols, w), _Gather(cols, w)
        assert P.format == "csr"
        rng = np.random.default_rng(14)
        # the last u makes every product -0.0: both sums start at +0.0
        for u in (rng.standard_normal(n), -np.abs(rng.standard_normal(n)),
                  np.full(n, -0.0)):
            assert (G @ u).tobytes() == (P @ u).tobytes()

    def test_kernel_is_the_preimage_sum_in_rows_of_4(self, p3, mesh3, mesh_csr):
        # row i of A is node i's read at g, then at r, and the kernel reads
        # those entries in place
        rng = np.random.default_rng(17)
        for mesh in (mesh3, mesh_csr):
            x, n = mesh.nodes, mesh.size
            P = _kernel(p3, mesh)
            cols, w = _entries(transfer._A(p3, mesh), 8)
            kcols, kw = _entries(P, 4)
            assert kcols.shape == (2 * n, 4)
            assert np.shares_memory(kcols, cols) and np.shares_memory(kw, w)
            g = branch_inverse(p3, x)
            for s in (0.0, p3.alpha):
                u = rng.standard_normal(n)
                wg, wr = transfer._pullback(p3, mesh, s, u)
                for b, (got, xq) in enumerate(((wg, g), (wr, 0.5 * (x + 1.0)))):
                    term = np.zeros(n)
                    for j in range(4 * b, 4 * b + 4):
                        term += w[:, j] * u[cols[:, j]]
                    term *= np.exp(s * (np.log(x) - np.log(xq)))
                    assert got.tobytes() == term.tobytes()

    @pytest.mark.parametrize("n", [1024, 8192])
    def test_one_set_of_hermite_weights_per_alpha(self, p3, n):
        mesh = build_mesh(p3, n, 100, 1e-6)
        rec = compute_density(p3, mesh, tol=1e-8)
        response_series(p3, rec, "cos", K=16)
        susceptibility(p3, rec, "cos", 0.5, 16)
        invariance_experiment(p3, "C3", default_cone_params(p3, rec, k_max=3), 3, rec)
        a = p3.alpha
        ops = {k for k, v in mesh._cache.items()
               if isinstance(v, _Gather) or hasattr(v, "format")}
        assert ops == {("L", a, a), ("A", a), ("pullbacks", a)}
        (cols, w), (kcols, kw) = (_entries(mesh._cache[("A", a)], 8),
                                  _entries(mesh._cache[("pullbacks", a)], 4))
        assert np.shares_memory(kcols, cols) and np.shares_memory(kw, w)
        # L of the density shares A's columns, and keeps its own scaled weights
        lcols, lw = _entries(mesh._cache[("L", a, a)], 8)
        assert np.shares_memory(lcols, cols) and not np.shares_memory(lw, w)

    def test_jet_level0_is_apply_L_exactly(self, p3, mesh3):
        rng = np.random.default_rng(12)
        for s in (0.0, p3.alpha):
            f = GridFunction(mesh3, rng.standard_normal(mesh3.size), s)
            jet = jet_apply(p3, Jet((f,)))
            assert _rel_gap(jet.levels[0].values, apply_L(p3, f).values) <= 2e-15

    def test_mesh_is_freed(self, p3):
        mesh = build_mesh(p3, 256, 16, 1e-6)
        ref = weakref.ref(mesh)
        rec = compute_density(p3, mesh, tol=1e-6)
        jet_apply(p3, jet_one(p3, mesh, 3))
        apply_preimage_sum(p3, GridFunction(mesh, np.ones(mesh.size)))
        del mesh, rec
        gc.collect()
        assert ref() is None


class TestAssembledStep:
    """Every L^k loop applies one matrix, L_s per (alpha, s) or A per alpha:
    8 entries a row, a numpy gather or CSR by mesh size."""

    @pytest.fixture(scope="class")
    def rho_csr(self, p3, mesh_csr):
        return compute_density(p3, mesh_csr, tol=1e-8).density

    def test_step_equals_kernel_sum(self, p3, mesh3, mesh_csr, rec3, rho_csr):
        rng = np.random.default_rng(15)
        for mesh, rho in ((mesh3, rec3.density), (mesh_csr, rho_csr)):
            gp = _g_chain(p3, mesh.nodes, 1)[1]
            # A has no singular factor: its only exponent is 0
            for s, L, is_A in ((0.0, transfer._L(p3, mesh, 0.0), False),
                               (p3.alpha, transfer._L(p3, mesh, p3.alpha), False),
                               (0.0, transfer._A(p3, mesh), True)):
                assert isinstance(L, _Gather) == (mesh.size < _CSR_MIN_NODES)
                assert L.data.shape == L.indices.shape == (8 * mesh.size,)
                for u in (rho.values, rng.uniform(0.5, 2.0, mesh.size)):
                    wg, wr = transfer._pullback(p3, mesh, s, u)
                    kernel = wg + wr if is_A else gp * wg + 0.5 * wr
                    assert _rel_gap(L @ u, kernel) <= 2e-15

    def test_gather_equals_csr_step_bitwise(self, p3, mesh_csr, monkeypatch):
        rng = np.random.default_rng(16)
        n = mesh_csr.size
        # the gather is assembled on a copy of the mesh with an empty cache
        fresh = dataclasses.replace(mesh_csr, _cache={})
        for build in (lambda mesh: transfer._L(p3, mesh, p3.alpha),
                      lambda mesh: transfer._A(p3, mesh)):
            P = build(mesh_csr)
            with monkeypatch.context() as m:
                m.setattr(grid, "_CSR_MIN_NODES", n + 1)
                G = build(fresh)
            assert P.format == "csr"
            assert isinstance(G, _Gather) and G.cols.shape == (n, 8)
            for u in (rng.standard_normal(n), -np.abs(rng.standard_normal(n)),
                      np.full(n, -0.0)):
                assert (G @ u).tobytes() == (P @ u).tobytes()

    def test_loops_do_not_read_the_kernel(self, p3, mesh3, mesh_csr, rec3, monkeypatch):
        calls = []
        pullback = transfer._pullback
        monkeypatch.setattr(transfer, "_pullback",
                            lambda *a: calls.append(a[2]) or pullback(*a))
        for mesh in (mesh3, mesh_csr):
            compute_density(p3, mesh, tol=1e-6)
        assert calls == []
        for run in (lambda K: response_series(p3, rec3, "cos", K=K, tol=0.0),
                    lambda K: susceptibility(p3, rec3, "cos", 0.5, K)):
            counts = []
            for K in (8, 64):
                calls.clear()
                run(K)
                counts.append(len(calls))
            assert counts[0] == counts[1]

    def test_density_solve_keeps_no_pullback_operators(self, p3):
        mesh = build_mesh(p3, 8192, 100, 1e-6)
        compute_density(p3, mesh, tol=1e-6)
        assert ("pullbacks", p3.alpha) not in mesh._cache
        assert ("A", p3.alpha) not in mesh._cache
        assert mesh._cache[("L", p3.alpha, p3.alpha)].nnz == 8 * mesh.size


@pytest.mark.parametrize("use", [
    lambda p, rec: response_series(p, rec, "cos", K=8),
    lambda p, rec: response_series_forward(p, rec, "cos", K=8),
    lambda p, rec: susceptibility(p, rec, "cos", 0.5, 8),
    lambda p, rec: correlation_decay(p, rec, "x", "x", 8),
    lambda p, rec: default_cone_params(p, rec, k_max=3),
    lambda p, rec: invariance_experiment(
        p, "C2", default_cone_params(rec.params, rec, k_max=3), 3, rec),
], ids=["response_series", "response_series_forward", "susceptibility",
        "correlation_decay", "default_cone_params", "invariance_experiment"])
def test_density_of_another_alpha_is_refused(rec3, use):
    with pytest.raises(ValueError, match=r"alpha=0\.3 used at alpha=0\.4"):
        use(MapParams(0.4), rec3)


class TestComputeDensity:
    @pytest.mark.parametrize("x_min", [1e-150, 1e-300])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.6])
    def test_tiny_x_min_reads_no_high_derivative(self, alpha, x_min):
        # the fourth derivative of g overflows from x_min ~ 1e-120 down
        # (alpha = 0.25); the solve and the series read only g and g', and
        # RuntimeWarning is an error here
        p = MapParams(alpha)
        mesh = build_mesh(p, 256, 32, x_min)
        rec = compute_density(p, mesh, tol=1e-4).require_converged()
        response_series(p, rec, "cos", K=8)
        response_series_forward(p, rec, "cos", K=8)
        susceptibility(p, rec, "cos", 0.5, 8)

    def test_alpha0_one_step(self):
        p = MapParams(0.0)
        m = build_mesh(p, 512, 32, 1e-8)
        rec = compute_density(p, m, tol=1e-14)
        assert rec.iterations == 1
        assert rec.residual <= 1e-14
        assert rec.converged
        assert np.max(np.abs(rec.density.full_values() - 1.0)) < 1e-12

    def test_record_invariants(self, rec3):
        assert rec3.converged
        assert rec3.normalization == pytest.approx(1.0, abs=1e-12)
        assert np.all(rec3.density.values >= 0.0)
        c1, c2 = rec3.envelope_band()
        assert 0.0 < c1 <= c2 and c2 / c1 < 10.0

    def test_fixed_point_residual(self, p3, rec3):
        assert l1_norm(apply_L(p3, rec3.density) - rec3.density) < 5e-9

    def test_unconverged_flagged(self, p3, mesh3):
        rec = compute_density(p3, mesh3, tol=1e-13, max_iter=3)
        assert not rec.converged
        assert rec.iterations == 3
        assert rec.residual > 1e-13

    def test_require_converged_is_the_gate(self, p3, mesh3, rec3):
        assert rec3.require_converged() is rec3
        rec = compute_density(p3, mesh3, tol=1e-13, max_iter=3)
        with pytest.raises(ConvergenceError,
                           match=r"alpha=0.3 not converged \(residual .* > tol 1.0e-13\)"):
            rec.require_converged()
        # the flag is derived from residual and tol, never stored
        assert dataclasses.replace(rec, tol=rec.residual).converged
        assert not dataclasses.replace(rec3, residual=2.0 * rec3.tol).converged

    @pytest.mark.parametrize("max_iter", [8, 16, 64, None])
    def test_raw_loop_is_the_power_iteration(self, p3, mesh3, max_iter):
        # the definition: renormalized L^k 1 through the public operators,
        # stopped on the L1 distance of successive iterates
        tol = 1e-9
        f = GridFunction(mesh3, mesh3.nodes**0.3, 0.3)
        f = (1.0 / integrate(f)) * f
        budget = 30000 if max_iter is None else max_iter
        iterations, residual = 0, np.inf
        for k in range(budget):
            nxt = apply_L(p3, f)
            nxt = (1.0 / integrate(nxt)) * nxt
            residual = l1_norm(nxt - f)
            f = nxt
            iterations = k + 1
            if residual <= tol:
                break
        rec = compute_density(p3, mesh3, tol=tol, max_iter=budget)
        assert rec.iterations == iterations
        assert rec.converged == (residual <= tol)
        assert rec.residual == pytest.approx(residual, rel=1e-12)
        assert np.max(np.abs(rec.density.values - f.values) / np.abs(f.values)) <= 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_default_max_iter_checks_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            _default_max_iter(0.3, tol)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_tol_must_be_finite_and_positive(self, p3, tol):
        mesh = build_mesh(p3, 256, 40, 1e-5)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            compute_density(p3, mesh, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_must_be_positive(self, p3, max_iter):
        mesh = build_mesh(p3, 256, 40, 1e-5)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            compute_density(p3, mesh, max_iter=max_iter)

    def test_polynomial_rate(self, p3, mesh3):
        # ||f_k - rho||_1 consistent with k^(1 - 1/alpha) up to log factors
        ref = compute_density(p3, mesh3, tol=1e-11, max_iter=30000)
        errs = []
        ks = (8, 16, 32, 64)
        for k in ks:
            it = compute_density(p3, mesh3, tol=0.0 + 1e-300, max_iter=k)
            errs.append(l1_norm(it.density - ref.density))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(ks))
        target = 1.0 - 1.0 / 0.3
        assert slopes.mean() < target + 0.75  # decaying at a polynomial rate
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


class TestUlam:
    def test_row_sums(self, p3):
        part = build_mesh(p3, 512, 32, 1e-4)
        U = build_ulam(p3, part)
        sums = np.asarray(U.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert U.matrix.min() >= 0.0

    def test_matches_brute_force_overlaps(self):
        # entry (i, j) = Leb(cell i meeting a preimage of cell j) / |cell i|
        p = MapParams(0.3)
        part = build_mesh(p, 64, 8, 1e-4)
        U = build_ulam(p, part)
        e = U.edges
        m = e.size - 1
        pre = [(branch_inverse(p, e[j]), branch_inverse(p, e[j + 1]))
               for j in range(m)] + [(0.5 * (e[j] + 1.0), 0.5 * (e[j + 1] + 1.0))
                                     for j in range(m)]
        dense = np.zeros((m, m))
        for i in range(m):
            for k, (lo, hi) in enumerate(pre):
                over = min(e[i + 1], hi) - max(e[i], lo)
                if over > 0.0:
                    dense[i, k % m] += over / (e[i + 1] - e[i])
        assert np.array_equal(U.matrix.toarray(), dense)

    def test_alpha0_uniform_stationary(self):
        p = MapParams(0.0)
        part = build_mesh(p, 256, 16, 1e-3)
        U = build_ulam(p, part)
        st = ulam_stationary(U, tol=1e-13)
        assert np.max(np.abs(st.values - 1.0)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5])
    def test_stationary_matches_bordered_solve(self, alpha):
        # the chain is exactly stochastic, so [[I - P^T, 1], [1^T, 0]] has
        # the stationary cell masses (and a zero border) as its solution
        p = MapParams(alpha)
        U = build_ulam(p, build_mesh(p, 256, 40, 1e-5))
        m = U.widths.size
        bordered = np.ones((m + 1, m + 1))
        bordered[:m, :m] = np.eye(m) - U.matrix.T.toarray()
        bordered[m, m] = 0.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        mass = np.linalg.solve(bordered, rhs)[:m]
        st = ulam_stationary(U, tol=1e-13)
        assert np.sum(np.abs(st.values * U.widths - mass)) <= 1e-9

    def test_stationary_budget_exhausted(self, p3):
        U = build_ulam(p3, build_mesh(p3, 256, 40, 1e-5))
        with pytest.raises(ConvergenceError, match="residual"):
            ulam_stationary(U, tol=1e-13, max_iter=5)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_stationary_tol_must_be_finite_and_positive(self, p3, tol):
        U = build_ulam(p3, build_mesh(p3, 256, 40, 1e-5))
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            ulam_stationary(U, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1, None])
    def test_stationary_max_iter_must_be_positive(self, p3, max_iter):
        U = build_ulam(p3, build_mesh(p3, 256, 40, 1e-5))
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            ulam_stationary(U, max_iter=max_iter)

    def test_stationary_mean_matches_grid(self, p3, rec3):
        part = build_mesh(p3, 2048, 60, 1e-5)
        U = build_ulam(p3, part)
        st = ulam_stationary(U, tol=1e-12)
        mean_ulam = ulam_mean(U, st, lambda x: np.asarray(x, dtype=float))
        x = rec3.density.mesh.nodes
        mean_grid = integrate(GridFunction(rec3.density.mesh, x * rec3.density.values, 0.3))
        assert mean_ulam == pytest.approx(mean_grid, abs=2e-3)

    def test_l1_distance_shrinks_under_refinement(self):
        # joint refinement study at alpha = 0.4: grid and Ulam densities
        # approach each other in L1
        p4 = MapParams(0.4)
        dists = []
        for n, n_ulam in ((2048, 512), (4096, 2048)):
            mesh = build_mesh(p4, n, 80, 1e-5)
            rec = compute_density(p4, mesh, tol=1e-8, max_iter=60000)
            part = build_mesh(p4, n_ulam, 60, 1e-5)
            U = build_ulam(p4, part)
            st = ulam_stationary(U, tol=1e-12)
            dists.append(ulam_l1_distance(rec, U, st))
        assert dists[1] < dists[0]
        assert dists[1] < 0.02


_PROP_MESH = build_mesh(MapParams(0.3), 512, 40, 1e-6)
