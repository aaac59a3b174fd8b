"""scipy loads only when a large operator is built.

Importing pmlab, its CLI and the orbit statistics (Monte Carlo decay,
Birkhoff means, the neutral orbit) must not import scipy, and neither may
operators on meshes below ``grid._CSR_MIN_NODES`` nodes, whose assembled L
steps and Hermite pullback operators are numpy gathers: the CLI commands
at their default mesh among them.  The first density solve on a larger
mesh loads ``scipy.sparse`` for the CSR matrix of its assembled step.
The pytest process has scipy loaded already, so each check runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmlab

SRC = str(Path(pmlab.__file__).parents[1])


def _scipy_modules_after(code, tmp_path):
    """The scipy entries of sys.modules after ``code`` runs in a new process."""
    env = {**os.environ, "PYTHONPATH": SRC, "PMLAB_CACHE_DIR": str(tmp_path / "cache")}
    script = (code + "\nimport json, sys\nprint(json.dumps(sorted("
              "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert _scipy_modules_after("import pmlab, pmlab.cli", tmp_path) == []


def test_montecarlo_decay_loads_no_scipy(tmp_path):
    code = ("from pmlab.cli import main\n"
            "assert main(['decay', '--alpha', '0.3', '--method', 'montecarlo', "
            "'--N', '8', '--orbits', '64', '--orbit-len', '512', '--burn-in', '16', "
            "'--ell-max', '64', '--out', 'mc']) == 0")
    assert _scipy_modules_after(code, tmp_path) == []
    assert sorted(p.name for p in tmp_path.glob("mc_*")) == \
        ["mc_corr.csv", "mc_orbit.csv", "mc_stats.json"]


def test_density_solve_loads_scipy_sparse_only_from_csr_size(tmp_path):
    code = ("from pmlab import MapParams, build_mesh, compute_density\n"
            "from pmlab.grid import _CSR_MIN_NODES\n"
            "p = MapParams(0.3)\n"
            "mesh = build_mesh(p, {n}, 16, 1e-5)\n"
            "assert (mesh.size >= _CSR_MIN_NODES) == {csr}\n"
            "compute_density(p, mesh, tol=1e-6, max_iter=4)")
    assert _scipy_modules_after(code.format(n=256, csr=False), tmp_path) == []
    assert "scipy.sparse" in _scipy_modules_after(code.format(n=8192, csr=True), tmp_path)


@pytest.mark.parametrize("argv", [
    ["density", "--alpha", "0.25"],
    ["response", "--alpha", "0.15", "--obs", "x", "--format", "json"],
    ["validate", "--alpha", "0.2", "--obs", "cos", "--eps", "5e-3"],
    ["cones", "--alpha", "0.3", "--cone", "C2", "--kmax", "20"],
    ["sweep", "--alphas", "0.05,0.08,0.1,0.12", "--obs", "x"],
], ids=lambda argv: argv[0])
def test_cli_default_mesh_loads_no_scipy(tmp_path, argv):
    code = f"from pmlab.cli import main\nassert main({argv + ['--out', 'out']!r}) == 0"
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "out").exists()
