"""scipy loads only when a sparse operator is built.

Importing pmlab, its CLI and the orbit statistics (Monte Carlo decay,
Birkhoff means, the neutral orbit) must not import scipy; the first
operator assembly must.  The pytest process has scipy loaded already, so
each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_density_solve_loads_scipy_sparse(tmp_path):
    code = ("from pmlab import MapParams, build_mesh, compute_density\n"
            "p = MapParams(0.3)\n"
            "compute_density(p, build_mesh(p, 256, 16, 1e-5), tol=1e-6)")
    assert "scipy.sparse" in _scipy_modules_after(code, tmp_path)
