"""Tiny-size smoke test of every workload.

    python3 perfbench/smoke.py

Runs each workload at smoke-test sizes (``--size tiny``) for one second,
untraced and traced, and checks that every output check passed and that the
last output line is the result object with the keys, metric names and units
of BENCHMARK.json.  Finally it copies BENCHMARK.json and
perfbench/ into an empty directory and checks that the benchmark refuses
to run there (nonzero exit, no result line).  Exits nonzero on any problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("density", "analysis", "montecarlo", "cli")


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if list(result["metrics"]) != expected[trace]:
                missing = set(expected[trace]) ^ set(result["metrics"])
                problems.append(f"{tag}: metric names differ from BENCHMARK.json: {missing}")
            if any(m["unit"] != units.get(k) for k, m in result["metrics"].items()):
                problems.append(f"{tag}: a metric unit differs from BENCHMARK.json")
            if not result["attempted"] >= 1:
                problems.append(f"{tag}: nothing attempted")
            if not result["correct"]:
                problems.append(f"{tag}: {result['failed']} tasks failed their checks")
            print(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "density", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare directory: the benchmark did not refuse to run")
    else:
        print(f"bare directory: refused with exit {proc.returncode}")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
