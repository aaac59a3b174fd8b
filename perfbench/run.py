"""pmlab benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload density --seed 1 --seconds 28 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Earlier lines carry the run metadata, every metric with its
unit, and any failed output check.  A full record (metadata, metrics,
failures) and, for traced runs, the spans as JSON lines are written under
``.perfbench/`` in the repository root.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS threads at the processors this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ[var])
        except (KeyError, ValueError):
            cur = nproc
        os.environ[var] = str(min(max(cur, 1), nproc))
    return nproc


def import_seconds(module):
    """Import time of ``module`` in a fresh interpreter (the CLI's cost too)."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def metadata(nproc):
    import numpy
    import scipy

    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "pmlab").glob("*.py")))
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_pmlab_lines": src_lines,
    }


class PassResult:
    def __init__(self):
        self.task_s = {}  # task name -> (phase, seconds)
        self.errors = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    @property
    def total(self):
        return sum(t for _, t in self.task_s.values())


def run_pass(wl, tracer=None):
    res = PassResult()
    for i, task in enumerate(wl.tasks()):
        t0 = time.perf_counter()
        try:
            errs, fails = tracer.run_task(i, task.fn) if tracer else task.fn()
        except Exception as exc:  # a raising task is a failed task, not a crash
            errs, fails = {}, [f"{task.name}: {type(exc).__name__}: {exc}"]
        res.task_s[task.name] = (task.phase, time.perf_counter() - t0)
        res.attempted += 1
        res.failed += bool(fails)
        res.messages += fails
        for k, v in errs.items():
            res.errors[k] = max(res.errors.get(k, 0.0), v)
    return res


def median_pass_s(passes, phase=None):
    """Sum over tasks of each task's median time across ``passes``.

    A slow spell of the shared machine that hits a task in fewer than half
    of the passes is dropped by that task's median, even when the spells of
    different tasks fall in different passes.
    """
    total = 0.0
    for name, (ph, _) in passes[0].task_s.items():
        if phase is None or ph == phase:
            total += statistics.median(p.task_s[name][1] for p in passes)
    return total


def measure_setup(wl, module):
    """Median over SETUP_REPEATS of fresh-process import plus workload set-up."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds(module)
        t0 = time.perf_counter()
        wl.setup()
        totals.append(imp + time.perf_counter() - t0)
    return statistics.median(totals)


def timed_loop(seconds, one_round):
    """Call ``one_round`` until another round would overrun ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced_passes(wl, workload, seconds):
    """The timed phase of an untraced run, and the peak RSS after its first pass.

    pmlab's lru_caches keep each pass's meshes alive, so the peak grows with
    the number of passes, which depends on the machine's speed; the first
    pass fixes what is measured.
    """
    passes, rss = [], []

    def one():
        passes.append(run_pass(wl))
        if not rss:
            rss.append(peak_rss_mb(workload))

    timed_loop(seconds, one)
    return passes, rss[0]


def end_to_end(passes, setup_s, rss_mb):
    """The end-to-end metrics; every workload reports all of them."""
    metrics = {
        "wall_s": (median_pass_s(passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def accuracy(passes):
    """Median over passes of each answer error the workload's tasks report."""
    keys = {k for p in passes for k in p.errors}
    return {k: statistics.median(p.errors[k] for p in passes if k in p.errors)
            for k in sorted(keys)}


def traced(wl, workload, seconds, seed):
    import tracing

    untraced, traced_passes = [], []
    tracer = tracing.Tracer()
    run_dir = OUT / f"trace-{workload}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cli_reports = []

    def one_round():
        untraced.append(run_pass(wl))
        if workload == "cli":
            wl.tracer_dir = run_dir
            traced_passes.append(run_pass(wl))
            wl.tracer_dir = None
            cli_reports.append(dict(wl.last))
            return
        tracer.install()
        try:
            traced_passes.append(run_pass(wl, tracer))
        finally:
            tracer.uninstall()

    timed_loop(seconds, one_round)
    n = len(traced_passes)
    wall = median_pass_s(traced_passes)
    plain = median_pass_s(untraced)
    if workload == "cli":
        vals, covered = cli_layers(cli_reports, tracing)
        vals["cli.cold_pass_s"] = median_pass_s(traced_passes, "cold_pass_s")
        vals["cli.warm_pass_s"] = median_pass_s(traced_passes, "warm_pass_s")
    else:
        summary = tracer.summary()
        tracer.write_jsonl(run_dir / "spans.jsonl")
        vals = tracing.layer_values(summary, n)
        covered = summary["root_s"] / sum(p.total for p in traced_passes)
    vals.update(accuracy(untraced + traced_passes))
    vals["trace.wall_s"] = wall
    vals["trace.untraced_wall_s"] = plain
    vals["trace.overhead_s"] = wall - plain
    vals["trace.covered_frac"] = covered
    units = dict(tracing.layer_metrics())
    metrics = {k: {"value": vals[k], "unit": units[k]} for k, _ in tracing.layer_metrics()}
    return metrics, untraced + traced_passes


def cli_layers(cycles, tracing):
    """Per-layer values of the cli workload from the per-process reports."""
    summaries, imports, walls, covered, per_cmd = [], [], 0.0, 0.0, {}
    warm = {"hits": 0, "lookups": 0}
    exits = 0
    for cycle in cycles:
        for (phase, name), (dt, report, code) in cycle.items():
            per_cmd.setdefault(f"cli.{name}.{phase}_s", []).append(dt)
            exits += code != 0
            walls += dt
            if not report.exists():
                continue
            rep = json.loads(report.read_text())
            summaries.append(rep["summary"])
            imports.append(rep["import_s"])
            covered += rep["import_s"] + rep["summary"]["root_s"]
            if phase == "warm":
                counts = rep["summary"]["counts"]
                warm["hits"] += counts.get("cache.hits", 0)
                warm["lookups"] += counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    vals = tracing.layer_values(tracing.merge(summaries), len(cycles))
    # on the warm pass every lookup should hit
    vals["cache.hit_ratio"] = warm["hits"] / warm["lookups"] if warm["lookups"] else 0.0
    vals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for c in tracing.CLI_COMMANDS:
        for ph in ("cold", "warm"):
            vals[f"cli.{c}.{ph}_s"] = statistics.median(per_cmd.get(f"cli.{c}.{ph}_s", [0.0]))
    vals["cli.nonzero_exits"] = exits / len(cycles)
    return vals, covered / walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("density", "analysis", "montecarlo", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pmlab" / "__init__.py").is_file():
        print(f"perfbench: no pmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_threads()  # before numpy is imported
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, ROOT)
    if args.trace:
        wl.setup()
        metrics, passes = traced(wl, args.workload, args.seconds, args.seed)
    else:
        setup_s = measure_setup(wl, "pmlab.cli" if args.workload == "cli" else "pmlab")
        passes, rss_mb = untraced_passes(wl, args.workload, args.seconds)
        metrics = end_to_end(passes, setup_s, rss_mb)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = sorted({m for p in passes for m in p.messages})
    meta = metadata(nproc)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, size=args.size, passes=len(passes))
    errors = accuracy(passes)
    record = {"meta": meta, "metrics": metrics, "accuracy": errors, "failures": messages,
              "task_seconds": [{k: t for k, (_, t) in p.task_s.items()} for p in passes]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, err in errors.items():
        print(f"# accuracy {name} = {err:.6g} relative")
    for msg in messages[:20]:
        print(f"# FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
