"""Density cache discipline and the command-line surface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmlab import MapParams, Mesh, build_mesh, cli, compute_density
from pmlab.cache import (
    SCHEMA_VERSION,
    DensityCache,
    cache_key,
    density_record_from_dict,
    density_record_to_dict,
    resolve_cache_dir,
)
from pmlab.cli import main


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PMLAB_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestCache:
    def test_key_stability_and_sensitivity(self):
        p = MapParams(0.3)
        mesh = build_mesh(p, 128, 16, 1e-6)
        k1 = cache_key(0.3, mesh, 1e-8)
        k2 = cache_key(0.3, build_mesh(p, 128, 16, 1e-6), 1e-8)
        assert k1 == k2 and len(k1) == 64
        assert cache_key(0.31, mesh, 1e-8) != k1
        assert cache_key(0.3, mesh, 1e-9) != k1
        # a nudged node gives another key
        nodes = mesh.nodes.copy()
        nodes[5] *= 1.0 + 1e-12
        assert cache_key(0.3, Mesh(nodes), 1e-8) != k1

    def test_record_round_trip(self):
        p = MapParams(0.2)
        mesh = build_mesh(p, 128, 16, 1e-6)
        rec = compute_density(p, mesh, tol=1e-8)
        d = json.loads(json.dumps(density_record_to_dict(rec)))
        assert "mesh" not in d and "nodes" not in d
        back = density_record_from_dict(d, mesh)
        assert back.params.alpha == 0.2 and back.density.mesh is mesh
        assert back.density.s == rec.density.s
        assert back.iterations == rec.iterations
        assert back.converged == rec.converged
        assert np.array_equal(back.density.values, rec.density.values)

    def test_put_get(self, tmp_path):
        p = MapParams(0.2)
        mesh = build_mesh(p, 128, 16, 1e-6)
        rec = compute_density(p, mesh, tol=1e-8)
        cache = DensityCache(tmp_path / "c")
        key = cache_key(0.2, mesh, 1e-8)
        assert cache.get(key, mesh) is None
        path = cache.put(key, rec)
        assert path.exists()
        again = cache.get(key, mesh)
        assert again is not None and again.iterations == rec.iterations
        assert not list(path.parent.glob("*.tmp"))
        # values that do not fit the caller's mesh are a miss
        assert cache.get(key, build_mesh(p, 256, 16, 1e-6)) is None
        # so is a file copied under another key, though it fits the mesh
        other = cache_key(0.2, mesh, 1e-9)
        cache.path(other).write_bytes(path.read_bytes())
        assert cache.get(other, mesh) is None

    def test_unconverged_record_is_a_miss(self, tmp_path):
        p = MapParams(0.2)
        mesh = build_mesh(p, 128, 16, 1e-6)
        rec = compute_density(p, mesh, tol=1e-8)
        cache = DensityCache(tmp_path / "c")
        key = cache_key(0.2, mesh, 1e-8)
        path = cache.put(key, rec)
        stored = json.loads(path.read_text())
        stored["residual"] = 2.0 * stored["tol"]
        path.write_text(json.dumps(stored))
        assert cache.get(key, mesh) is None

    def test_resolve_dir_precedence(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PMLAB_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"
        monkeypatch.delenv("PMLAB_CACHE_DIR")
        assert resolve_cache_dir(None).name == "pmlab"


DENS_ARGS = ["density", "--alpha", "0", "--mesh", "256", "--orbit-points", "16",
             "--x-min", "1e-8"]


def _dens_mesh():
    """The mesh of DENS_ARGS."""
    return build_mesh(MapParams(0.0), 256, 16, 1e-8)


class TestCli:
    def test_density_exit0_and_idempotent(self, cache_env, capsys):
        out1 = cache_env / "d1.csv"
        out2 = cache_env / "d2.csv"
        assert main(DENS_ARGS + ["--out", str(out1)]) == 0
        assert main(DENS_ARGS + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        head = out1.read_text().splitlines()
        assert head[0].startswith(f"# pmlab schema={SCHEMA_VERSION} config=")
        assert head[1] == "x,rho,envelope_ratio"

    def test_density_domain_error_exit1(self, cache_env, capsys):
        assert main(["density", "--alpha", "1.0"]) == 1

    def test_density_nonconverged_exit2(self, cache_env, capsys):
        code = main(DENS_ARGS[:1] + ["--alpha", "0.5", "--mesh", "256",
                                     "--orbit-points", "16", "--x-min", "1e-6",
                                     "--tol", "1e-13", "--max-iter", "3"])
        assert code == 2

    def test_unconverged_record_not_served(self, cache_env, capsys):
        args = ["density", "--alpha", "0.3", "--mesh", "256", "--orbit-points",
                "16", "--x-min", "1e-6", "--tol", "1e-8"]
        assert main(args + ["--max-iter", "3"]) == 2
        assert main(args) == 0

    def test_corrupt_record_is_a_miss(self, cache_env, tmp_path, capsys):
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d1.csv")]) == 0
        (record,) = (cache_env / "cache").glob("density-*.json")
        record.write_bytes(record.read_bytes()[:200])
        assert DensityCache(record.parent).get(record.stem[len("density-"):],
                                               _dens_mesh()) is None
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d2.csv")]) == 0
        assert json.loads(record.read_text())["converged"] is True
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_older_schema_record_is_recomputed(self, cache_env, tmp_path, capsys):
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d1.csv")]) == 0
        (record,) = (cache_env / "cache").glob("density-*.json")
        stored = json.loads(record.read_text())
        stored["schema_version"] = 1  # a record of the PCHIP-slope operator
        record.write_text(json.dumps(stored))
        assert DensityCache(record.parent).get(record.stem[len("density-"):],
                                               _dens_mesh()) is None
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d2.csv")]) == 0
        assert json.loads(record.read_text())["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize("field", ["node", "alpha", "tol"])
    def test_mismatched_record_is_recomputed(self, cache_env, tmp_path, capsys, field):
        # node: a record copied over from another mesh's file is a miss;
        # alpha, tol: a record edited under the request's key is served by
        # the cache but refused by the command
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d1.csv")]) == 0
        (record,) = (cache_env / "cache").glob("density-*.json")
        good = record.read_text()
        cache = DensityCache(record.parent)
        key = record.stem[len("density-"):]
        if field == "node":
            assert main(DENS_ARGS + ["--mesh", "512", "--out", str(tmp_path / "d3.csv")]) == 0
            (other,) = set(record.parent.glob("density-*.json")) - {record}
            record.write_bytes(other.read_bytes())
            assert cache.get(key, _dens_mesh()) is None
        else:
            stored = json.loads(good)
            stored[field] = 0.25 if field == "alpha" else 10.0 * stored["tol"]
            record.write_text(json.dumps(stored))
            assert cache.get(key, _dens_mesh()) is not None
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d2.csv")]) == 0
        assert record.read_text() == good
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    @pytest.mark.parametrize("mesh", ["256", "8192"])  # the gather and the CSR form
    def test_second_run_is_a_cache_hit(self, cache_env, tmp_path, capsys, monkeypatch,
                                       mesh):
        calls, solve = [], cli.compute_density
        monkeypatch.setattr(cli, "compute_density",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        args = ["density", "--mesh", mesh, "--orbit-points", "32"]
        assert main(args + ["--out", str(tmp_path / "d1.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "d2.csv")]) == 0
        assert len(calls) == 1
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_changed_mesh_is_a_new_key(self, cache_env, tmp_path, capsys, monkeypatch):
        # the nodes are in the key: a change to build_mesh needs no schema bump
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d1.csv")]) == 0
        (record,) = (cache_env / "cache").glob("density-*.json")
        build, solve, calls = cli.build_mesh, cli.compute_density, []

        def nudged(*a, **k):
            nodes = build(*a, **k).nodes.copy()
            nodes[5] *= 1.0 + 1e-12
            return Mesh(nodes)

        monkeypatch.setattr(cli, "build_mesh", nudged)
        monkeypatch.setattr(cli, "compute_density",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        assert main(DENS_ARGS + ["--out", str(tmp_path / "d2.csv")]) == 0
        assert len(calls) == 1
        records = set(record.parent.glob("density-*.json"))
        assert len(records) == 2 and record in records

    @pytest.mark.parametrize("x_min", ["1e-307", "1e-320"])
    def test_tiny_x_min_exit1(self, cache_env, tmp_path, capsys, x_min):
        # below 1e-300 the mesh's decade count and the Hermite slopes overflow
        out = tmp_path / "d.csv"
        assert main(["density", "--x-min", x_min, "--mesh", "256", "--orbit-points", "16",
                     "--out", str(out)]) == 1
        assert "pmlab: error: build_mesh: x_min must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0.1:inf:0.1", "0.1:nan:0.1", "0.1:0.2:inf",
                                      "nan:0.2:0.1"])
    def test_sweep_non_finite_alphas_exit1(self, cache_env, tmp_path, capsys, spec):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--alphas", spec, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pmlab: error:") and "--alphas" in err[0]
        assert not out.exists()

    def test_density_json_format(self, cache_env, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(DENS_ARGS + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["schema_version"] == SCHEMA_VERSION
        assert payload["record"]["converged"] is True
        assert payload["envelope"]["c1"] == pytest.approx(1.0, abs=1e-12)

    def test_response_const_zero(self, cache_env, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["response", "--alpha", "0", "--mesh", "1024",
                     "--orbit-points", "24", "--x-min", "1e-8",
                     "--obs", "const", "--K", "16", "--methods", "backward",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        # zero up to the per-application quadrature mass drift at this
        # coarse mesh (K * O(n^-2)); typical response values are ~0.2
        assert abs(payload["results"]["backward"]["value"]) < 5e-5

    def test_validate_gate_pass(self, cache_env, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(["validate", "--alpha", "0.25", "--mesh", "2048",
                     "--orbit-points", "60", "--x-min", "1e-7",
                     "--tol", "1e-9", "--obs", "x", "--K", "300",
                     "--eps", "1e-2,5e-3", "--gate", "0.03",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["comparisons"]["fd"] <= 0.03

    def test_validate_gate_failure_exit2(self, cache_env, tmp_path, capsys):
        code = main(["validate", "--alpha", "0.25", "--mesh", "2048",
                     "--orbit-points", "60", "--x-min", "1e-7",
                     "--tol", "1e-9", "--obs", "x", "--K", "300",
                     "--eps", "1e-2", "--gate", "1e-9"])
        assert code == 2

    def test_validate_forward_series_gate_exit2(self, cache_env, tmp_path, capsys,
                                                monkeypatch):
        # a zero noise scale: any forward-series term deviation fails its gate
        monkeypatch.setattr(cli, "forward_noise_scale", lambda mesh, obs: 0.0)
        code = main(["validate", "--alpha", "0.25", "--mesh", "256",
                     "--orbit-points", "16", "--tol", "1e-6", "--obs", "x",
                     "--K", "16", "--eps", "1e-2", "--gate", "1.0",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "forward-series terms deviate" in err and "(3 x 0.000e+00)" in err

    def test_cones_omega_alpha0(self, cache_env, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = main(["cones", "--alpha", "0", "--cone", "omega",
                     "--grid", "512", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["max"]["omega1"] - 1.0) < 1e-12
        assert abs(payload["max"]["omega2"] - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.9])
    def test_cones_omega_uses_experiment_b3(self, cache_env, tmp_path, capsys, alpha):
        # the table evaluates Omega_3 at the b3 of default_cone_params
        out = tmp_path / "o.json"
        assert main(["cones", "--alpha", str(alpha), "--cone", "omega",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        b1 = alpha + 1.0
        b2 = 3.0 * b1 * (1.0 + alpha) + 21.0
        assert payload["cone_params"]["b3"] == 3.0 * b2 * (1.0 + alpha) + 2.0 * b1 + 10.0
        assert payload["max"]["omega3"] <= 1.0

    def test_cones_experiment(self, cache_env, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["cones", "--alpha", "0.25", "--cone", "Cstar",
                     "--kmax", "3", "--mesh", "1024", "--orbit-points", "40",
                     "--x-min", "1e-6", "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[:3] == ["k", "subject", "cone"]
        assert len(lines) == 2 + 6  # header rows + 3k x (L, N)

    # the jet derivatives overflow at such x_min: C3's parameters read an
    # order-2 jet, its experiment an order-3 jet.  RuntimeWarning is an error
    # under the test settings, so none may be emitted on the way.
    @pytest.mark.parametrize("x_min, order", [("1e-300", 2), ("1e-100", 3)])
    def test_cones_tiny_x_min_is_a_numerical_failure(self, cache_env, tmp_path, capsys,
                                                     x_min, order):
        out = tmp_path / "c.csv"
        code = main(["cones", "--cone", "C3", "--x-min", x_min, "--mesh", "256",
                     "--orbit-points", "32", "--kmax", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"jet of order {order}" in err and f"x_min={float(x_min):g}" in err
        assert not out.exists()

    def test_decay_outputs(self, cache_env, tmp_path, capsys):
        prefix = str(tmp_path / "dec")
        code = main(["decay", "--alpha", "0.3", "--mesh", "1024",
                     "--orbit-points", "40", "--x-min", "1e-6",
                     "--tol", "1e-8", "--psi", "x", "--phi", "x",
                     "--N", "16", "--method", "operator",
                     "--orbits", "64", "--orbit-len", "4096",
                     "--burn-in", "256", "--seed", "3",
                     "--ell-max", "100", "--out", prefix])
        assert code == 0
        assert (tmp_path / "dec_corr.csv").exists()
        assert (tmp_path / "dec_orbit.csv").exists()
        stats = json.loads((tmp_path / "dec_stats.json").read_text())
        assert stats["neutral_orbit"]["upper_ok"] is True
        assert stats["birkhoff"]["standard_error"] > 0.0

    @pytest.mark.parametrize("extra", [
        ["--method", "montecarlo", "--orbits", "1"],
        ["--method", "operator", "--orbits", "0"],
        ["--method", "montecarlo", "--burn-in", "-8"],
    ])
    def test_decay_bad_orbit_counts_exit1(self, cache_env, tmp_path, capsys, extra):
        code = main(["decay", "--alpha", "0.3", "--mesh", "1024",
                     "--orbit-points", "40", "--x-min", "1e-6", "--tol", "1e-8",
                     "--N", "8", "--orbits", "16", "--orbit-len", "256",
                     "--burn-in", "16", "--ell-max", "20",
                     "--out", str(tmp_path / "bad")] + extra)
        assert code == 1
        err = capsys.readouterr().err
        assert "n_orbits must be" in err or "burn_in must be" in err
        assert not (tmp_path / "bad_corr.csv").exists()

    def test_decay_montecarlo_method(self, cache_env, tmp_path, capsys):
        prefix = str(tmp_path / "mc")
        code = main(["decay", "--alpha", "0.3", "--mesh", "1024",
                     "--orbit-points", "40", "--x-min", "1e-6",
                     "--tol", "1e-8", "--psi", "x", "--phi", "x",
                     "--N", "8", "--method", "montecarlo",
                     "--orbits", "128", "--orbit-len", "4096",
                     "--burn-in", "256", "--seed", "9",
                     "--ell-max", "64", "--out", prefix])
        assert code == 0
        stats = json.loads((tmp_path / "mc_stats.json").read_text())
        assert stats["correlation"]["method"] == "montecarlo"

    def test_decay_montecarlo_needs_no_density(self, cache_env, tmp_path, capsys):
        # a budget no density can meet: the orbit statistics never ask for one
        prefix = str(tmp_path / "P")
        code = main(["decay", "--alpha", "0.3", "--method", "montecarlo",
                     "--mesh", "1024", "--orbit-points", "40", "--N", "8",
                     "--orbits", "64", "--orbit-len", "512", "--burn-in", "16",
                     "--max-iter", "5", "--out", prefix])
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("P_*")) == \
            ["P_corr.csv", "P_orbit.csv", "P_stats.json"]
        assert not list((tmp_path / "cache").glob("density-*.json"))

    @pytest.mark.parametrize("alpha, ell_max", [("0.3", 64), ("0", 1200)])
    def test_decay_orbit_csv_fields_are_plain_floats(self, cache_env, tmp_path, capsys,
                                                     alpha, ell_max):
        # numpy scalars are written as Python floats (0.5, not np.float64(0.5)),
        # and at alpha = 0 the orbit past 2^-1074 has margin 0, not NaN
        prefix = str(tmp_path / "P")
        code = main(["decay", "--alpha", alpha, "--method", "montecarlo",
                     "--N", "20", "--orbits", "16", "--orbit-len", "1024",
                     "--burn-in", "64", "--ell-max", str(ell_max), "--out", prefix])
        assert code == 0
        lines = (tmp_path / "P_orbit.csv").read_text().splitlines()
        assert lines[1] == "ell,x_ell,bound,margin" and len(lines) == ell_max + 2
        for line in lines[2:]:
            assert "np." not in line
            assert np.all(np.isfinite([float(v) for v in line.split(",")]))
        stats = json.loads((tmp_path / "P_stats.json").read_text())
        assert stats["neutral_orbit"]["upper_ok"] is True

    def test_decay_small_alpha(self, cache_env, tmp_path, capsys):
        # the orbit's bound constant 2^(1/a^2 + 1/a) is past the double range
        args = ["decay", "--method", "montecarlo", "--N", "20", "--orbits", "16",
                "--orbit-len", "1024", "--burn-in", "64"]
        assert main(args + ["--alpha", "0.02", "--ell-max", "100",
                            "--out", str(tmp_path / "P")]) == 0
        lines = (tmp_path / "P_orbit.csv").read_text().splitlines()
        assert lines[2] == "1,0.5,inf,1.0" and len(lines) == 102
        stats = json.loads((tmp_path / "P_stats.json").read_text())
        assert stats["neutral_orbit"]["upper_ok"] is True
        # at alpha = 1e-4 the orbit leaves the normal range: a numerical failure
        assert main(args + ["--alpha", "1e-4", "--ell-max", "10000",
                            "--out", str(tmp_path / "Q")]) == 2
        assert "leaves the normal range at step 1049" in capsys.readouterr().err
        assert not list(tmp_path.glob("Q_*"))

    @pytest.mark.parametrize("methods", ["bogus", ","])
    def test_response_unknown_method_exit1(self, cache_env, tmp_path, capsys, methods):
        out = tmp_path / "r.csv"
        code = main(["response", "--alpha", "0.2", "--methods", methods,
                     "--mesh", "256", "--orbit-points", "16", "--tol", "1e-6",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "pmlab: error:" in err
        assert ("'bogus'" in err) if methods == "bogus" else ("no method" in err)
        assert not out.exists()
        assert not list((tmp_path / "cache").glob("density-*.json"))

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--eps", "abc"], "could not convert"),
        (["validate", "--eps", "1e-2,0"], "must be > 0"),
        (["validate", "--eps", "0.8"], "stay below 1"),
        (["sweep", "--alphas", "0.2", "--fd-eps", "-0.01"], "must be > 0"),
        (["sweep", "--alphas", "0.2,0.5", "--fd-eps", "0.5"], "stay below 1"),
        (["decay", "--method", "montecarlo", "--ell-max", "1"], "ell_max"),
        (["decay", "--method", "operator", "--ell-max", "1"], "ell_max"),
        (["density", "--max-iter", "0"], "max_iter must be >= 1"),
        (["validate", "--max-iter", "-1"], "max_iter must be >= 1"),
        (["response", "--K", "0"], "K must be >= 1"),
        (["validate", "--K", "0"], "K must be >= 1"),
        (["sweep", "--alphas", "0.2", "--K", "0"], "K must be >= 1"),
        (["cones", "--kmax", "0"], "k_max must be >= 1"),
        (["decay", "--method", "operator", "--N", "4"], "N must be >= 8"),
        (["decay", "--method", "operator", "--burn-in", "-1"], "burn_in must be >= 0"),
        (["sweep", "--alphas", "0.2", "--fd-eps", "-1e-2"], "must be > 0"),
        (["response", "--obs", "bogus"], "unknown observable 'bogus'"),
        (["validate", "--obs", "bogus"], "unknown observable 'bogus'"),
        (["sweep", "--alphas", "0.2", "--obs", "bogus"], "unknown observable 'bogus'"),
        (["decay", "--method", "operator", "--psi", "bogus"], "unknown observable 'bogus'"),
        (["response", "--z", "2"], "need |z| <= 1"),
        (["decay", "--method", "operator", "--seed", "-1"], "non-negative"),
        (["validate", "--gate", "-1"], "gate must be >= 0"),
        (["sweep", "--alphas", "0.2", "--workers", "-3"], "workers must be >= 1"),
        (["sweep", "--alphas", "0.2", "--workers", "0"], "workers must be >= 1"),
    ])
    def test_usage_checked_before_work(self, cache_env, tmp_path, capsys, monkeypatch,
                                       argv, message):
        calls = []
        for name in ("compute_density", "correlation_decay"):
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _fn=fn, **k:
                                calls.append(_fn.__name__) or _fn(*a, **k))
        if argv[0] == "decay":  # the case's own flags come last and win
            argv = argv[:1] + ["--N", "8", "--orbits", "16", "--orbit-len", "256",
                               "--burn-in", "16"] + argv[1:]
        code = main(argv + ["--alpha", "0.2", "--mesh", "256", "--orbit-points", "16",
                            "--tol", "1e-6", "--out", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.glob("out*"))
        assert not list((tmp_path / "cache").glob("density-*.json"))

    def test_decay_one_orbit_standard_error_exit2(self, cache_env, tmp_path, capsys):
        code = main(["decay", "--alpha", "0.3", "--mesh", "1024",
                     "--orbit-points", "40", "--x-min", "1e-6", "--tol", "1e-8",
                     "--N", "8", "--method", "operator", "--orbits", "1",
                     "--orbit-len", "256", "--burn-in", "16", "--ell-max", "20",
                     "--out", str(tmp_path / "one")])
        assert code == 2
        assert "standard error" in capsys.readouterr().err
        assert not list(tmp_path.glob("one_*"))

    @pytest.mark.parametrize("cmd", [
        ["validate"],
        ["sweep", "--alphas", "0.25", "--fd-eps", "1e-2"],
    ])
    def test_fd_density_not_converged_exit2(self, cache_env, tmp_path, capsys, cmd):
        flags = ["--alpha", "0.25", "--mesh", "1024", "--orbit-points", "40"]
        assert main(["density"] + flags + ["--out", str(tmp_path / "d.csv")]) == 0
        assert main(cmd + flags + ["--max-iter", "5"]) == 2
        assert "not converged" in capsys.readouterr().err

    def test_sweep_columns(self, cache_env, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "0.0,0.1", "--obs", "x",
                     "--mesh", "512", "--orbit-points", "24", "--x-min", "1e-7",
                     "--tol", "1e-8", "--K", "64", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha,observable,value,tail,k_used,fd_value,rel_diff"
        assert len(lines) == 4

    def test_sweep_fd_columns(self, cache_env, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "0.1", "--obs", "x", "--fd-eps", "5e-3",
                     "--mesh", "512", "--orbit-points", "24", "--x-min", "1e-7",
                     "--tol", "1e-8", "--K", "64", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()[1:]
        cols = dict(zip(header.split(","), row.split(",")))
        assert np.isfinite(float(cols["fd_value"]))
        assert np.isfinite(float(cols["rel_diff"]))

    def test_response_susceptibility_value(self, cache_env, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["response", "--alpha", "0.2", "--mesh", "1024",
                     "--orbit-points", "40", "--x-min", "1e-7", "--obs", "cos",
                     "--K", "32", "--methods", "susceptibility",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        sus = json.loads(out.read_text())["results"]["susceptibility"]
        assert "error" not in sus and np.isfinite(sus["value"])

    def test_response_default_methods_nonperiodic_obs(self, cache_env, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["response", "--alpha", "0.2", "--mesh", "1024",
                     "--orbit-points", "40", "--x-min", "1e-7", "--obs", "x",
                     "--K", "32", "--format", "json", "--out", str(out)])
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert np.isfinite(results["forward"]["value"])
        assert "diverges like 2^k" in results["susceptibility"]["error"]

    def test_validate_periodic_obs_has_susceptibility_row(self, cache_env, tmp_path,
                                                         capsys):
        out = tmp_path / "v.csv"
        code = main(["validate", "--alpha", "0.25", "--mesh", "2048",
                     "--orbit-points", "60", "--x-min", "1e-7", "--tol", "1e-9",
                     "--obs", "cos", "--K", "300", "--eps", "1e-2", "--gate", "0.03",
                     "--out", str(out)])
        assert code == 0
        rows = {r.split(",")[0]: r.split(",")[1:]
                for r in out.read_text().splitlines()[2:]}
        value, rel = (float(v) for v in rows["susceptibility"])
        assert np.isfinite(value) and rel <= 0.03

    def test_negative_exponent_values_parse(self):
        assert cli.build_parser().parse_args(["response", "--z", "-1e-1"]).z == -0.1

    def test_sweep_own_density_not_converged_exit2(self, cache_env, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "0.2,0.3", "--mesh", "1024",
                     "--orbit-points", "40", "--max-iter", "5", "--out", str(out)])
        assert code == 2
        assert "density at alpha=0.2 not converged" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_worker_pool_matches_serial(self, tmp_path, capsys):
        flags = ["sweep", "--alphas", "0.05,0.1", "--obs", "x", "--mesh", "512",
                 "--orbit-points", "24", "--x-min", "1e-7", "--K", "64"]
        runs = {}
        for w in ("1", "2"):
            out, cache = tmp_path / f"s{w}.csv", tmp_path / f"cache{w}"
            assert main(flags + ["--workers", w, "--cache-dir", str(cache),
                                 "--out", str(out)]) == 0
            records = {f.name: f.read_bytes() for f in cache.glob("density-*.json")}
            runs[w] = out.read_text().split("\n", 1), records
        (head1, rows1), rec1 = runs["1"]
        (head2, rows2), rec2 = runs["2"]
        # the config hash on the first line leaves out --workers
        assert head1 == head2
        assert rows1 == rows2 and len(rows1.splitlines()) == 3
        assert len(rec1) == 2 and rec1 == rec2

    @pytest.mark.parametrize("alphas, width", [("0.05,0.1", [2]), ("0.05", [])])
    def test_sweep_pool_no_wider_than_alphas(self, cache_env, tmp_path, capsys,
                                             monkeypatch, alphas, width):
        # the pool forks all max_workers processes at its first submit
        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--alphas", alphas, "--workers", "8", "--mesh", "256",
                     "--orbit-points", "24", "--tol", "1e-6", "--K", "16",
                     "--out", str(out)]) == 0
        assert widths == width
        assert len(out.read_text().splitlines()) == 2 + alphas.count(",") + 1

    def test_sweep_worker_not_converged_exit2(self, cache_env, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "0.2,0.3", "--workers", "2",
                     "--mesh", "1024", "--orbit-points", "40", "--max-iter", "5",
                     "--out", str(out)])
        assert code == 2
        assert "not converged" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_without_out_exits_before_work(self, cache_env, capsys):
        code = main(["decay", "--alpha", "0.3", "--mesh", "1024",
                     "--orbit-points", "40", "--N", "8", "--orbits", "256",
                     "--orbit-len", "8192"])
        assert code == 1
        assert "--out prefix is required" in capsys.readouterr().err
        assert not list((cache_env / "cache").glob("density-*.json"))

    def test_config_file_and_flag_precedence(self, cache_env, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.0, "mesh": 256, "orbit_points": 16,
                                   "x_min": 1e-8, "format": "json"}))
        out1 = tmp_path / "a.json"
        assert main(["density", "--config", str(cfg), "--out", str(out1)]) == 0
        payload = json.loads(out1.read_text())
        assert payload["record"]["alpha"] == 0.0
        # flag overrides the file
        out2 = tmp_path / "b.json"
        assert main(["density", "--config", str(cfg), "--alpha", "0.1",
                     "--tol", "1e-6", "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["record"]["alpha"] == 0.1

    def test_config_unknown_key(self, cache_env, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["density", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("content, message", [
        ({"mesh": "abc"}, "invalid value for 'mesh': 'abc'"),
        ({"mesh": 256, "format": "xml"}, "invalid value for 'format': 'xml'"),
        (5, "expected a JSON object"),
    ])
    def test_config_bad_value_exit1(self, cache_env, tmp_path, capsys, content,
                                    message):
        cfg, out = tmp_path / "cfg.json", tmp_path / "d.csv"
        cfg.write_text(json.dumps(content))
        assert main(["density", "--alpha", "0", "--orbit-points", "16",
                     "--config", str(cfg), "--out", str(out)]) == 1
        assert f"pmlab: error: config file: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_typed_like_its_flag(self, cache_env, tmp_path, capsys):
        # "alpha": 0 resolves to 0.0 as --alpha 0 does, so the config hashes agree
        cfg, out1, out2 = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"alpha": 0, "mesh": 256, "orbit_points": 16,
                                   "x_min": 1e-8}))
        assert main(["density", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(DENS_ARGS + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv, flag", [
        (["validate", "--obs", "cos", "--K", "16", "--eps", "5e-3", "--gate", "nan"],
         "--gate"),
        (["response", "--obs", "cos", "--K", "16", "--methods", "susceptibility",
          "--z", "nan"], "--z"),
        (["density", "--tol", "inf"], "--tol"),
        (["density", "--tol", "nan"], "--tol"),
        (["density", "--config", "CFG"], "--gate"),
    ], ids=["gate-nan", "z-nan", "tol-inf", "tol-nan", "config-NaN"])
    def test_non_finite_float_exit1(self, cache_env, tmp_path, capsys, argv, flag):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text('{"gate": NaN}')  # json.load accepts the NaN literal
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        assert main(argv + ["--alpha", "0.2", "--mesh", "256", "--orbit-points", "40",
                            "--out", str(out)]) == 1
        assert f"pmlab: error: {flag} must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (cache_env / "cache").exists()

    @pytest.mark.parametrize("argv", [
        ["density", "--bogus", "1"],
        ["density", "--mesh", "abc"],
        ["nosuch"],
        ["sweep", "--alphas", "0.1:0.2:0"],
        ["sweep", "--alphas", "0.2:0.1:0.05"],
        ["sweep", "--alphas", "0.1:0.2"],
        ["sweep", "--alphas", "0.1:0.2:0.05:0.1"],
        ["cones", "--cone", "omega", "--grid", "0"],
    ])
    def test_usage_error_exit1(self, cache_env, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse's errors leave main this way
            code = exc.code
        assert code == 1
        err = capsys.readouterr().err
        assert "pmlab: error:" in err
        if "--alphas" in argv:
            assert "--alphas" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, alphas", [
        ("0.05:0.45:0.05", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]),
        ("0.0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0.05:0.45:0.07", [0.05, 0.12, 0.19, 0.26, 0.33, 0.4]),
        ("0.9:0.96:0.1", [0.9]),
        ("0.2:0.1:0.05", []),
        ("0.1,0.3", [0.1, 0.3]),
    ])
    def test_parse_alphas_stops_at_stop(self, spec, alphas):
        assert cli._parse_alphas(spec) == alphas

    @pytest.mark.parametrize("argv, code", [
        (["density", "--mesh", "abc"], 1),
        (["sweep", "--alphas", "0.1:0.2:0"], 1),
        (["density", "--help"], 0),
    ])
    def test_process_exit_code(self, tmp_path, argv, code):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "pmlab.cli"] + argv, env=env,
                             cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == code
        assert "Traceback" not in run.stderr


COMMON_FLAGS = [
    ("--alpha", "float", None), ("--cache-dir", None, None),
    ("--config", None, None), ("--format", None, ["csv", "json"]),
    ("--max-iter", "int", None), ("--mesh", "int", None),
    ("--orbit-points", "int", None), ("--out", None, None),
    ("--tol", "float", None), ("--x-min", "float", None),
]
SERIES_FLAGS = [("--K", "int", None), ("--obs", None, None),
                ("--series-tol", "float", None)]
COMMAND_FLAGS = {
    "density": [],
    "response": SERIES_FLAGS + [("--methods", None, None), ("--z", "float", None)],
    "validate": SERIES_FLAGS + [("--eps", None, None), ("--gate", "float", None)],
    "cones": [("--cone", None, ["Cstar", "Cstar1", "C2", "C3", "omega"]),
              ("--grid", "int", None), ("--kmax", "int", None)],
    "decay": [("--N", "int", None), ("--burn-in", "int", None),
              ("--ell-max", "int", None), ("--method", None, ["operator", "montecarlo"]),
              ("--orbit-len", "int", None), ("--orbits", "int", None),
              ("--phi", None, None), ("--psi", None, None), ("--seed", "int", None)],
    "sweep": SERIES_FLAGS + [("--alphas", None, None), ("--fd-eps", "float", None),
                             ("--workers", "int", None)],
}
DEFAULT_CONFIG = {
    "alpha": 0.25, "mesh": 4096, "orbit_points": 128, "x_min": 1e-10,
    "tol": 1e-8, "max_iter": None, "format": "csv", "out": None,
    "cache_dir": None, "obs": "x", "K": 256, "series_tol": 1e-10,
    "eps": "1e-2,5e-3", "gate": 0.03,
    "methods": "backward,forward,susceptibility", "cone": "Cstar", "kmax": 20,
    "grid": 512, "psi": "x", "phi": "x", "N": 100, "method": "operator",
    "orbits": 1024, "orbit_len": 65536, "burn_in": 1024, "seed": 0,
    "ell_max": 10000, "alphas": "0.05:0.45:0.05", "workers": 1, "fd_eps": 0.0,
    "z": 1.0,
}


def test_cli_surface(monkeypatch, capsys):
    """Each command's flags (type, choices) and its resolved default config."""
    ap = cli.build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(COMMAND_FLAGS)
    resolved = cli._resolved
    seen = []

    def stop_after_resolving(ns):
        seen.append(resolved(ns))
        raise ValueError("stop")

    monkeypatch.setattr(cli, "_resolved", stop_after_resolving)
    for name, sp in sub.choices.items():
        flags = []
        for a in sp._actions:
            if a.option_strings == ["-h", "--help"]:
                continue
            (flag,) = a.option_strings
            assert a.dest == flag[2:].replace("-", "_")
            flags.append((flag, getattr(a.type, "__name__", None),
                          list(a.choices) if a.choices else None))
        assert sorted(flags) == sorted(COMMON_FLAGS + COMMAND_FLAGS[name]), name
        assert main([name]) == 1
        # repr keeps the types: 0 and 0.0 give different config hashes
        expected = {**DEFAULT_CONFIG, "command": name}
        assert {k: repr(v) for k, v in seen.pop().items()} == \
            {k: repr(v) for k, v in expected.items()}, name
