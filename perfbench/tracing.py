"""Span tracing of pmlab's public functions, installed from outside the package.

``Tracer.install`` rebinds each traced function in every loaded ``pmlab``
module namespace that holds it (and patches the two traced classes), so
calls made between pmlab modules are recorded as well as the benchmark's
own calls.  ``Tracer.uninstall`` restores the originals, which lets one
process alternate traced and untraced passes to measure the overhead.

Spans are kept in flat arrays (name id, start, end, parent, task) and are
written as JSON lines only when asked; ``summary`` turns them into per-name
call counts, inclusive seconds and self seconds, where self time is a
span's duration minus the durations of its direct children.
"""

import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, metric prefix); a class attribute is "Class.method".
FUNCTIONS = [
    ("maps", "forward", "maps.forward"),
    ("maps", "branch_inverse", "maps.branch_inverse"),
    ("grid", "build_mesh", "grid.build_mesh"),
    ("grid", "integrate", "grid.integrate"),
    ("grid", "l1_norm", "grid.l1_norm"),
    ("grid", "evaluate_u", "grid.evaluate_u"),
    ("grid", "differentiate", "grid.differentiate"),
    ("grid", "GridFunction.__post_init__", "grid.GridFunction"),
    ("transfer", "compute_density", "transfer.compute_density"),
    ("transfer", "apply_L", "transfer.apply_L"),
    ("transfer", "apply_N", "transfer.apply_N"),
    ("transfer", "apply_preimage_sum", "transfer.apply_preimage_sum"),
    ("transfer", "jet_apply", "transfer.jet_apply"),
    ("transfer", "apply_d2L", "transfer.apply_d2L"),
    ("transfer", "build_ulam", "transfer.build_ulam"),
    ("transfer", "ulam_stationary", "transfer.ulam_stationary"),
    ("response", "response_source", "response.response_source"),
    ("response", "response_series", "response.response_series"),
    ("response", "response_series_forward", "response.response_series_forward"),
    ("response", "susceptibility", "response.susceptibility"),
    ("response", "finite_difference_response", "response.finite_difference_response"),
    ("cones", "default_cone_params", "cones.default_cone_params"),
    ("cones", "invariance_experiment", "cones.invariance_experiment"),
    ("cones", "check_C2", "cones.check"),
    ("cones", "check_C3", "cones.check"),
    ("cones", "check_Cstar", "cones.check"),
    ("cones", "check_Cstar1", "cones.check"),
    ("asymptotics", "correlation_decay", "asymptotics.correlation_decay"),
    ("asymptotics", "birkhoff_average", "asymptotics.birkhoff_average"),
    ("asymptotics", "neutral_orbit", "asymptotics.neutral_orbit"),
    ("cache", "DensityCache.get", "cache.get"),
    ("cache", "DensityCache.put", "cache.put"),
]

# Span names that can enclose other traced spans, so they report .self_s.
# correlation_decay is split by method into two span names.
_LEAVES = {
    "maps.forward", "maps.branch_inverse", "grid.integrate", "grid.evaluate_u",
    "grid.GridFunction", "cache.put",
}
SPAN_NAMES = []
for _mod, _attr, _name in FUNCTIONS:
    for _n in ((_name + "_mc", _name + "_op") if _attr == "correlation_decay" else (_name,)):
        if _n not in SPAN_NAMES:
            SPAN_NAMES.append(_n)
SPAN_NAMES += ["cli.main", "bench.task"]

COUNTS = [
    ("grid.mesh_nodes", "count"),
    ("transfer.compute_density.iterations", "count"),
    ("transfer.compute_density.unconverged", "count"),
    ("transfer.apply_L.node_evals", "count"),
    ("response.response_series.terms", "count"),
    ("response.response_series.diverged", "count"),
    ("cones.failed_verdicts", "count"),
    ("asymptotics.mc_orbit_steps", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "B"),
    ("cache.read_errors", "count"),
]

CLI_COMMANDS = ("density", "response", "validate", "cones", "sweep")

# Whole-run values: answer errors against the stored references, CLI process
# timings, and the tracing overhead.
RUN_METRICS = [
    ("transfer.density_err", "relative"),
    ("response.response_err", "relative"),
    ("cli.import_s", "s"),
    ("cli.cold_pass_s", "s"),
    ("cli.warm_pass_s", "s"),
]
RUN_METRICS += [(f"cli.{c}.{p}_s", "s") for c in CLI_COMMANDS for p in ("cold", "warm")]
RUN_METRICS += [
    ("cli.nonzero_exits", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.covered_frac", "ratio"),
]


def layer_metrics():
    """Every per-layer metric (name, unit) that a traced run reports."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        if name not in _LEAVES:
            out.append((f"{name}.self_s", "s"))
    return out + COUNTS + RUN_METRICS


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self._ids = {}
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.task_id = -1
        self.counts = {}
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def run_task(self, task_id, fn):
        """Run ``fn`` as one benchmark task under a root ``bench.task`` span."""
        self.task_id = task_id
        i = self.open(self.intern("bench.task"))
        try:
            return fn()
        finally:
            self.close(i)
            self.task_id = -1

    # -- rebinding ---------------------------------------------------------
    def install(self):
        """Wrap every function in FUNCTIONS wherever a pmlab module holds it.

        Modules imported after this call keep the original functions, so
        import every pmlab module the run uses first.
        """
        hooks = _hooks()
        for mod_name, attr, span in FUNCTIONS:
            mod = importlib.import_module(f"pmlab.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, span, hooks.get(span)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, span, hooks.get(span))
            for name, m in list(sys.modules.items()):
                if (name == "pmlab" or name.startswith("pmlab.")) and \
                        m.__dict__.get(attr) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def _wrap(self, fn, span, hook):
        if span == "asymptotics.correlation_decay":
            sig = inspect.signature(fn)
            mc, op = self.intern(span + "_mc"), self.intern(span + "_op")

            def name_of(args, kwargs):
                method = sig.bind(*args, **kwargs).arguments.get("method", "operator")
                return mc if method == "montecarlo" else op
        else:
            nid = self.intern(span)

            def name_of(args, kwargs):
                return nid

        def wrapper(*args, **kwargs):
            i = self.open(name_of(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i)
                if hook is not None:
                    hook(self, fn, args, kwargs, None, True)
                raise
            self.close(i)
            if hook is not None:
                hook(self, fn, args, kwargs, out, False)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # -- output ------------------------------------------------------------
    def spans(self):
        """The recorded spans as numpy arrays (name, start, end, parent, task)."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.task, dtype=np.int32))

    def summary(self):
        """{span name: [calls, inclusive s, self s]} plus the raw counts."""
        name, start, end, parent, _ = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_s = dur - child
        stats = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            stats[nm] = [int(sel.sum()), float(dur[sel].sum()), float(self_s[sel].sum())]
        return {"spans": stats, "counts": dict(self.counts),
                "root_s": float(dur[~has_parent].sum())}

    def write_jsonl(self, path):
        name, start, end, parent, task = self.spans()
        with open(path, "w") as fh:
            for i in range(name.size):
                fh.write(json.dumps({
                    "span": self.names[name[i]], "start": float(start[i]),
                    "end": float(end[i]), "parent": int(parent[i]),
                    "task": int(task[i]),
                }) + "\n")


def merge(summaries):
    """Sum several ``Tracer.summary`` results (e.g. one per CLI process)."""
    out = {"spans": {}, "counts": {}, "root_s": 0.0}
    for s in summaries:
        for nm, (c, t, st) in s["spans"].items():
            acc = out["spans"].setdefault(nm, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += t
            acc[2] += st
        for k, v in s["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["root_s"] += s["root_s"]
    return out


def layer_values(summary, passes):
    """Per-pass span and count metrics from a (merged) summary.

    The whole-run values of RUN_METRICS start at 0; the caller fills in
    those its workload measures.
    """
    vals = {key: 0.0 for key, _ in RUN_METRICS}
    for name in SPAN_NAMES:
        c, t, st = summary["spans"].get(name, [0, 0.0, 0.0])
        vals[f"{name}.calls"] = c / passes
        vals[f"{name}.s"] = t / passes
        if name not in _LEAVES:
            vals[f"{name}.self_s"] = st / passes
    counts = summary["counts"]
    for key, _ in COUNTS:
        vals[key] = counts.get(key, 0) / passes
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    vals["cache.hit_ratio"] = counts.get("cache.hits", 0) / lookups if lookups else 0.0
    return vals


# -- count hooks -------------------------------------------------------------


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _hooks():
    def mesh(tr, fn, args, kwargs, out, failed):
        if not failed:
            tr.count("grid.mesh_nodes", out.size)

    def density(tr, fn, args, kwargs, out, failed):
        if not failed:
            tr.count("transfer.compute_density.iterations", out.iterations)
            tr.count("transfer.compute_density.unconverged", int(not out.converged))

    def apply_l(tr, fn, args, kwargs, out, failed):
        f = args[1] if len(args) > 1 else kwargs["f"]
        tr.count("transfer.apply_L.node_evals", f.mesh.size)

    def series(tr, fn, args, kwargs, out, failed):
        if not failed:
            tr.count("response.response_series.terms", len(out.terms))
            tr.count("response.response_series.diverged", int(out.diverged))

    def verdict(tr, fn, args, kwargs, out, failed):
        if failed or not out.verdict:
            tr.count("cones.failed_verdicts")

    def mc_steps(tr, fn, args, kwargs, out, failed):
        if fn.__name__ == "correlation_decay" and \
                _arg(fn, args, kwargs, "method") != "montecarlo":
            return
        tr.count("asymptotics.mc_orbit_steps",
                 _arg(fn, args, kwargs, "n_orbits") * _arg(fn, args, kwargs, "orbit_len"))

    def cache_get(tr, fn, args, kwargs, out, failed):
        if failed:
            tr.count("cache.read_errors")
        else:
            tr.count("cache.hits" if out is not None else "cache.misses")

    def cache_put(tr, fn, args, kwargs, out, failed):
        if not failed:
            tr.count("cache.bytes_written", out.stat().st_size)

    return {
        "grid.build_mesh": mesh,
        "transfer.compute_density": density,
        "transfer.apply_L": apply_l,
        "response.response_series": series,
        "cones.check": verdict,
        "asymptotics.correlation_decay": mc_steps,
        "asymptotics.birkhoff_average": mc_steps,
        "cache.get": cache_get,
        "cache.put": cache_put,
    }
