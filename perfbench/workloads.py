"""The benchmark's four workloads: seeded task tables, tasks and output checks.

Every workload turns ``--seed`` into a task list drawn from fixed
configuration tables.  The seed changes the inputs pmlab receives (mesh
node counts, orbit-point counts, Monte Carlo seeds, task order) but not the
kind or amount of work in a pass, so that passes of different seeds cost
the same.  pmlab is reached only through ``pmlab.<name>`` lookups at call
time and through the ``pmlab`` command line, so a traced run sees every
call.

A task returns ``(errors, failures)``: accuracy figures that the run
reduces by maximum, and the messages of the output checks it failed.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pmlab

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Gates of the acceptance suite (tests/test_acceptance.py): 5e-4 absolute
# between observable means (criterion 13), 3 % between response methods
# (criteria 5 and 6), 3 standard errors for Monte Carlo means (criterion 13).
MEAN_GATE = 5e-4
RESPONSE_GATE = 0.03
MC_SIGMAS = 3.0

DENSITY_OBS = ("x", "x^2", "cos")
RESPONSE_OBS = ("x", "x^2", "cos", "cos2")
PERIODIC_OBS = ("cos", "cos2")

# Acceptance-suite density configurations (criteria 2, 3 and 12).  alpha =
# 0.5 is the alpha >= 1/2 case whose stopping rule understates the error.
DENSITY_TABLE = {
    "full": [
        dict(alpha=0.1, n=8192, L=100, x_min=1e-5, tol=1e-9),
        dict(alpha=0.25, n=32768, L=300, x_min=1e-10, tol=1e-9),
        dict(alpha=0.4, n=8192, L=100, x_min=1e-5, tol=1e-8),
        dict(alpha=0.5, n=8192, L=120, x_min=1e-5, tol=1e-8),
    ],
    "tiny": [
        dict(alpha=0.1, n=256, L=40, x_min=1e-5, tol=1e-7),
        dict(alpha=0.25, n=512, L=40, x_min=1e-5, tol=1e-7),
    ],
}
# Fixed coarser partition of the Ulam oracle (criterion 13 uses 8192).
ULAM_PARTITION = {"full": dict(n=2048, L=100, x_min=1e-5),
                  "tiny": dict(n=256, L=40, x_min=1e-5)}
ULAM_TOL = 1e-13

# Criterion 5's mesh and tolerance; the alphas span [0.1, 0.45].
ANALYSIS = {
    "full": dict(alphas=(0.25, 0.45), n=8192, L=150, x_min=1e-6, tol=1e-8,
                 K=512, K_forward=64, K_sus=300, kmax=20, N=100),
    "tiny": dict(alphas=(0.25,), n=256, L=40, x_min=1e-6, tol=1e-7,
                 K=32, K_forward=8, K_sus=32, kmax=3, N=16),
}
CONES = ("Cstar", "Cstar1", "C2", "C3")

MONTECARLO = {
    "full": dict(alphas=(0.1, 0.25, 0.4, 0.5), orbits=1024, N=100, corr_len=1536,
                 birkhoff_len=4608, burn_in=512, ell_max=2500, ell=100, m=300),
    "tiny": dict(alphas=(0.25,), orbits=64, N=16, corr_len=256,
                 birkhoff_len=256, burn_in=64, ell_max=200, ell=10, m=10),
}
# Monte Carlo generator seeds; --seed picks one per alpha.  Every entry is
# verified against the reference means by make_references.py.
MC_SEEDS = tuple(range(1000, 1016))

# Each command runs at its own alpha, so the cold pass misses the cache on
# every density and the warm pass hits on every one.
CLI = {
    "full": dict(mesh=4096, orbit_points=128, commands=[
        ("density", ["density", "--alpha", "0.25"]),
        ("response", ["response", "--alpha", "0.15", "--obs", "x", "--format", "json"]),
        ("validate", ["validate", "--alpha", "0.2", "--obs", "cos", "--eps", "5e-3"]),
        ("cones", ["cones", "--alpha", "0.3", "--cone", "C2", "--kmax", "20"]),
        ("sweep", ["sweep", "--alphas", "0.05,0.08,0.1,0.12", "--obs", "x"]),
    ]),
    "tiny": dict(mesh=256, orbit_points=40, commands=[
        ("density", ["density", "--alpha", "0.25", "--tol", "1e-6"]),
        ("response", ["response", "--alpha", "0.15", "--obs", "x", "--K", "16",
                      "--tol", "1e-6", "--format", "json"]),
        ("validate", ["validate", "--alpha", "0.2", "--obs", "cos", "--eps", "5e-3",
                      "--K", "16", "--tol", "1e-6", "--gate", "1.0"]),
        ("cones", ["cones", "--alpha", "0.3", "--cone", "C2", "--kmax", "3",
                   "--tol", "1e-6"]),
        ("sweep", ["sweep", "--alphas", "0.05,0.1", "--obs", "x", "--K", "16",
                   "--tol", "1e-6"]),
    ]),
}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def _key(alpha):
    return f"{alpha:g}"


def _jitter(rng, cfg):
    """Seeded mesh inputs: node count within 1 %, orbit points within 10."""
    out = dict(cfg)
    out["n"] = cfg["n"] + int(rng.integers(-(cfg["n"] // 128), cfg["n"] // 128 + 1))
    out["L"] = cfg["L"] + int(rng.integers(-10, 11))
    return out


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _x(z):
    return np.asarray(z, dtype=float)


class Task:
    """One unit of work; ``phase`` groups task times within a pass."""

    def __init__(self, name, fn, phase="pass"):
        self.name, self.fn, self.phase = name, fn, phase


# ---------------------------------------------------------------------------
# density: cold mesh + power iteration + Ulam oracle
# ---------------------------------------------------------------------------


class Density:
    """Cold ``build_mesh`` + ``compute_density``, then the Ulam oracle."""

    def __init__(self, seed, size, root):
        self.size = size
        rng = np.random.default_rng(seed)
        table = [_jitter(rng, c) for c in DENSITY_TABLE[size]]
        self.configs = [table[i] for i in rng.permutation(len(table))]
        self.refs = load_references()["density"]

    def setup(self):
        pass

    def tasks(self):
        return [Task(f"density a={c['alpha']} n={c['n']}", lambda c=c: self._solve(c))
                for c in self.configs]

    def _solve(self, c):
        p = pmlab.MapParams(c["alpha"])
        mesh = pmlab.build_mesh(p, c["n"], c["L"], c["x_min"])
        rec = pmlab.compute_density(p, mesh, tol=c["tol"])
        means = {o: pmlab.observable_mean(pmlab.parse_observable(o), rec)
                 for o in DENSITY_OBS}
        part = ULAM_PARTITION[self.size]
        U = pmlab.build_ulam(p, pmlab.build_mesh(p, part["n"], part["L"], part["x_min"]))
        ulam_x = pmlab.ulam_mean(U, pmlab.ulam_stationary(U, tol=ULAM_TOL), _x)
        ref = self.refs[_key(c["alpha"])]["means"]
        failures = [
            f"a={c['alpha']} mean {o}: |{means[o]:.8g} - ref {ref[o]:.8g}| > {MEAN_GATE:g}"
            for o in DENSITY_OBS if abs(means[o] - ref[o]) > MEAN_GATE
        ]
        if abs(ulam_x - means["x"]) > MEAN_GATE:
            failures.append(f"a={c['alpha']} Ulam mean {ulam_x:.8g} vs grid "
                            f"{means['x']:.8g} beyond {MEAN_GATE:g}")
        err = max(_rel(means[o], ref[o]) for o in DENSITY_OBS)
        return {"transfer.density_err": err}, failures


# ---------------------------------------------------------------------------
# analysis: response series, susceptibility, cones, operator decay on
# densities solved during set-up
# ---------------------------------------------------------------------------


class Analysis:
    """Response, cone and decay computations on densities solved in set-up."""

    def __init__(self, seed, size, root):
        rng = np.random.default_rng(seed)
        self.cfg = ANALYSIS[size]
        base = {k: self.cfg[k] for k in ("n", "L")}
        self.meshes = {a: _jitter(rng, base) for a in self.cfg["alphas"]}
        self.order = [self.cfg["alphas"][i] for i in rng.permutation(len(self.cfg["alphas"]))]
        self.refs = load_references()["response"]
        self.densities = {}

    def setup(self):
        for a in self.order:
            m = self.meshes[a]
            p = pmlab.MapParams(a)
            mesh = pmlab.build_mesh(p, m["n"], m["L"], self.cfg["x_min"])
            self.densities[a] = pmlab.compute_density(p, mesh, tol=self.cfg["tol"])

    def tasks(self):
        out = []
        for a in self.order:
            state = {}
            out += [
                Task(f"backward a={a}", lambda a=a, s=state: self._backward(a, s)),
                Task(f"forward a={a}", lambda a=a: self._forward(a)),
                Task(f"susceptibility a={a}", lambda a=a, s=state: self._sus(a, s)),
                Task(f"cones a={a}", lambda a=a: self._cones(a)),
                Task(f"decay a={a}", lambda a=a: self._decay(a)),
                Task(f"d2L a={a}", lambda a=a: self._d2l(a)),
            ]
        return out

    def _backward(self, a, state):
        p, rec = pmlab.MapParams(a), self.densities[a]
        ref = self.refs[_key(a)]
        failures, errs = [], []
        for o in RESPONSE_OBS:
            res = pmlab.response_series(p, rec, o, K=self.cfg["K"], tol=1e-13)
            state[o] = res.value
            rel = _rel(res.value, ref[o]["value"])
            errs.append(rel)
            if rel > RESPONSE_GATE:
                failures.append(f"a={a} backward {o}: {res.value:.6g} vs ref "
                                f"{ref[o]['value']:.6g} (rel {rel:.3%})")
        return {"response.response_err": max(errs)}, failures

    def _forward(self, a):
        pmlab.response_series_forward(pmlab.MapParams(a), self.densities[a], "x",
                                      K=self.cfg["K_forward"])
        return {}, []

    def _sus(self, a, state):
        p, rec = pmlab.MapParams(a), self.densities[a]
        failures = []
        for o in PERIODIC_OBS:
            sus = pmlab.susceptibility(p, rec, o, 1.0, self.cfg["K_sus"])
            if o not in state:
                failures.append(f"a={a} susceptibility {o}: no backward value")
            elif _rel(sus, state[o]) > RESPONSE_GATE:
                failures.append(f"a={a} susceptibility {o}: {sus:.6g} vs backward "
                                f"{state[o]:.6g}")
        return {}, failures

    def _cones(self, a):
        p, rec = pmlab.MapParams(a), self.densities[a]
        kmax = self.cfg["kmax"]
        cp = pmlab.default_cone_params(p, rec, k_max=kmax)
        failures = []
        for cone in CONES:
            for r in pmlab.invariance_experiment(p, cone, cp, kmax, rec):
                if not r.verdict:
                    failures.append(f"a={a} {cone} {r.subject}: margin {r.worst_margin:.3g}")
        return {}, failures

    def _decay(self, a):
        pmlab.correlation_decay(pmlab.MapParams(a), self.densities[a], "x", "x",
                                self.cfg["N"], method="operator")
        return {}, []

    def _d2l(self, a):
        pmlab.apply_d2L(pmlab.MapParams(a), self.densities[a].density)
        return {}, []


# ---------------------------------------------------------------------------
# montecarlo: orbit statistics that bypass grid and transfer
# ---------------------------------------------------------------------------


class MonteCarlo:
    """Monte Carlo correlations and Birkhoff means, neutral orbit, distortion."""

    def __init__(self, seed, size, root):
        rng = np.random.default_rng(seed)
        self.cfg = MONTECARLO[size]
        alphas = self.cfg["alphas"]
        self.order = [alphas[i] for i in rng.permutation(len(alphas))]
        self.seeds = {a: int(MC_SEEDS[rng.integers(len(MC_SEEDS))]) for a in alphas}
        self.refs = load_references()["density"]

    def setup(self):
        pass

    def tasks(self):
        out = []
        for a in self.order:
            out += [
                Task(f"mc decay a={a}", lambda a=a: self._decay(a)),
                Task(f"birkhoff a={a}", lambda a=a: self._birkhoff(a)),
                Task(f"neutral orbit a={a}", lambda a=a: self._orbit(a)),
                Task(f"contraction a={a}", lambda a=a: self._contraction(a)),
            ]
        return out

    def _decay(self, a):
        c = self.cfg
        pmlab.correlation_decay(pmlab.MapParams(a), None, "x", "x", c["N"],
                                method="montecarlo", n_orbits=c["orbits"],
                                orbit_len=c["corr_len"], burn_in=c["burn_in"],
                                seed=self.seeds[a])
        return {}, []

    def _birkhoff(self, a):
        c = self.cfg
        mean, se = pmlab.birkhoff_average(pmlab.MapParams(a), "x", c["orbits"],
                                          c["birkhoff_len"], c["burn_in"],
                                          seed=self.seeds[a] + 1)
        ref = self.refs[_key(a)]["means"]["x"]
        if abs(mean - ref) > MC_SIGMAS * se:
            return {}, [f"a={a} Birkhoff mean {mean:.6f} vs ref {ref:.6f} "
                        f"beyond {MC_SIGMAS:g} SE ({se:.2e})"]
        return {}, []

    def _orbit(self, a):
        st = pmlab.neutral_orbit(pmlab.MapParams(a), self.cfg["ell_max"])
        return {}, [] if st.upper_ok else [f"a={a} neutral orbit above its upper bound"]

    def _contraction(self, a):
        pmlab.contraction_factor(pmlab.MapParams(a), self.cfg["ell"], self.cfg["m"])
        return {}, []


# ---------------------------------------------------------------------------
# cli: the command list against an empty, then a filled cache directory
# ---------------------------------------------------------------------------


class Cli:
    """``pmlab`` subprocesses, one at a time: a cold pass, then a warm pass."""

    def __init__(self, seed, size, root):
        rng = np.random.default_rng(seed)
        cfg = CLI[size]
        mesh = cfg["mesh"] + int(rng.integers(-(cfg["mesh"] // 128), cfg["mesh"] // 128 + 1))
        orbit = cfg["orbit_points"] + int(rng.integers(-8, 9))
        cmds = cfg["commands"]
        self.commands = [
            (name, argv + ["--mesh", str(mesh), "--orbit-points", str(orbit)])
            for name, argv in (cmds[i] for i in rng.permutation(len(cmds)))
        ]
        self.root = root
        self.work = root / ".perfbench" / "cli"
        self.env = None
        self.tracer_dir = None  # set by a traced run: spans go there
        self.last = {}  # (phase, command) -> (seconds, span report or None, exit code)

    def setup(self):
        self.env = dict(os.environ)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env.pop("PMLAB_CACHE_DIR", None)

    def tasks(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        for d in ("cache", "cold", "warm"):
            (self.work / d).mkdir(parents=True)
        self.last = {}
        out = []
        for phase in ("cold", "warm"):
            out += [Task(f"{phase} {name}",
                         lambda phase=phase, name=name, argv=argv: self._run(phase, name, argv),
                         phase=f"{phase}_pass_s")
                    for name, argv in self.commands]
        return out

    def _run(self, phase, name, argv):
        ext = "json" if "json" in argv else "csv"
        out_file = self.work / phase / f"{name}.{ext}"
        full = argv + ["--cache-dir", str(self.work / "cache"), "--out", str(out_file)]
        if self.tracer_dir is None:
            cmd = [sys.executable, "-m", "pmlab.cli"] + full
            report = None
        else:
            report = self.tracer_dir / f"{phase}-{name}.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), "--report", str(report),
                   "--"] + full
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        dt = time.perf_counter() - t0
        self.last[(phase, name)] = (dt, report, proc.returncode)
        failures = []
        if proc.returncode != 0:
            failures.append(f"{phase} {name}: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        elif phase == "warm":
            cold = self.work / "cold" / out_file.name
            if not cold.exists() or cold.read_bytes() != out_file.read_bytes():
                failures.append(f"warm {name}: output differs from the cold pass")
        return {}, failures


WORKLOADS = {
    "density": Density,
    "analysis": Analysis,
    "montecarlo": MonteCarlo,
    "cli": Cli,
}
