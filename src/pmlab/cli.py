"""Command-line driver: density cache, response validation, cone and decay
experiments, parameter sweeps.

Configuration precedence is flags > config file (--config, JSON) >
defaults.  Every output file carries the schema version and a hash of the
resolved configuration, and no timestamps, so identical invocations produce
bit-identical files (density results come from the cache on reruns).

Every option is declared once, as a row of ``_OPTIONS``: that table is the
one source of the flags, their defaults and the keys a config file may set.

Exit codes: 0 ok, 1 usage/domain error (bad flags and config-file values
included, non-finite float options among them), 2 numerical gate failure
or non-convergence.  Every command that needs the invariant density
passes its record through ``DensityRecord.require_converged()``, the one
convergence gate; ``density`` alone writes a flagged record before it
exits 2.
"""

import argparse
import concurrent.futures
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .maps import MapParams
from .grid import build_mesh
from .transfer import ConvergenceError, _check_max_iter, compute_density
from .cache import (
    SCHEMA_VERSION,
    DensityCache,
    cache_key,
    density_record_to_dict,
    resolve_cache_dir,
)
from .cones import (
    ConeParams,
    _check_k_max,
    _upper_constants,
    default_cone_params,
    invariance_experiment,
    omega_factors,
    omega_bar_factors,
)
from .response import (
    ResponseDivergenceError,
    _check_fd_eps,
    _check_K,
    _check_z,
    _endpoint_jump,
    finite_difference_response,
    forward_noise_scale,
    parse_observable,
    response_series,
    response_series_forward,
    susceptibility,
)
from .asymptotics import (_check_lags, _check_orbits, birkhoff_average,
                          correlation_decay, neutral_orbit)

__all__ = ["main"]


class GateFailure(RuntimeError):
    """A configured numerical gate was exceeded (exit code 2)."""


def _resolved(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    given = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file: expected a JSON object")
        cfg.update({k: _file_value(k, v) for k, v in file_cfg.items()})
    cfg.update(given)  # flags win
    for key, value in cfg.items():  # json.load and float() both accept NaN
        if _KWARGS[key].get("type") is float and not math.isfinite(value):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {value!r}")
    _check_max_iter("compute_density", cfg["max_iter"])
    cfg["command"] = args.command
    return cfg


def _file_value(key: str, value):
    """A config-file value, converted and checked as its flag's text would be
    (``"alpha": 0`` is 0.0); null only where the default is None."""
    if key not in _KWARGS:
        raise ValueError(f"config file: unknown key {key!r}")
    if value is None and _DEFAULTS[key] is None:
        return None
    kwargs = _KWARGS[key]
    try:
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            new = kwargs.get("type", str)(str(value))
            if new in kwargs.get("choices", (new,)):
                return new
    except ValueError:
        pass
    raise ValueError(f"config file: invalid value for {key!r}: {value!r}")


def _config_hash(cfg: dict) -> str:
    # output destinations and the pool width do not affect the numbers:
    # identical numerical configs must produce bit-identical files
    skip = {"out", "cache_dir", "workers"}
    blob = json.dumps({k: cfg[k] for k in sorted(cfg) if k not in skip},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path, cfg, header, rows):
    lines = [f"# pmlab schema={SCHEMA_VERSION} config={_config_hash(cfg)}",
             ",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write_json(path, cfg, payload: dict):
    meta = {"schema_version": SCHEMA_VERSION, "config_sha256": _config_hash(cfg)}
    _write(path, json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n")


def _emit(path, cfg, header, rows, json_payload):
    if cfg["format"] == "json":
        _write_json(path, cfg, json_payload)
    else:
        _write_csv(path, cfg, header, rows)


def _get_density(cfg, alpha=None):
    """Cache-backed density for the configured mesh.

    The key hashes the mesh nodes, so a changed mesh is a new key.  Only
    converged records are stored, and the cache serves no other (a stored
    unconverged one, from an older version, is a miss): ``max_iter`` is not
    part of the key.  Nor does it serve a copied file, or a record of
    another alpha or tol than the request's: that is a miss too, recomputed
    and overwritten.  A recomputed record may still be unconverged; callers
    gate it with ``rec.require_converged()``.
    """
    alpha = cfg["alpha"] if alpha is None else alpha
    p = MapParams(alpha)
    mesh = build_mesh(p, cfg["mesh"], cfg["orbit_points"], cfg["x_min"])
    key = cache_key(alpha, mesh, cfg["tol"])
    cache = DensityCache(resolve_cache_dir(cfg["cache_dir"]))
    rec = cache.get(key, mesh)
    if rec is None or rec.params != p or rec.tol != cfg["tol"]:
        rec = compute_density(p, mesh, tol=cfg["tol"], max_iter=cfg["max_iter"])
        if rec.converged:
            cache.put(key, rec)
    return p, rec, key


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_density(cfg) -> int:
    p, rec, key = _get_density(cfg)
    x = rec.density.mesh.nodes
    rho = rec.density.full_values()
    rows = list(zip(x.tolist(), rho.tolist(), (rho * x**p.alpha).tolist()))
    c1, c2 = rec.envelope_band()
    _emit(
        cfg["out"], cfg,
        ["x", "rho", "envelope_ratio"],
        rows,
        {"record": density_record_to_dict(rec), "nodes": x.tolist(), "cache_key": key,
         "envelope": {"c1": c1, "c2": c2}},
    )
    print(
        f"density alpha={p.alpha:g}: iterations={rec.iterations} "
        f"residual={rec.residual:.3e} converged={rec.converged} "
        f"envelope c2/c1={c2 / c1:.3f}",
        file=sys.stderr,
    )
    return 0 if rec.converged else 2


_RESPONSE_METHODS = ("backward", "forward", "susceptibility")


def cmd_response(cfg) -> int:
    methods = [m.strip() for m in cfg["methods"].split(",") if m.strip()]
    unknown = [m for m in methods if m not in _RESPONSE_METHODS]
    if unknown or not methods:
        what = f"unknown method {unknown[0]!r}" if unknown else "no method"
        raise ValueError(f"response: --methods gives {what}; "
                         f"choose from {','.join(_RESPONSE_METHODS)}")
    _check_K("response_series", cfg["K"])
    _check_z(cfg["z"])
    obs = parse_observable(cfg["obs"])
    p, rec, _ = _get_density(cfg)
    rec.require_converged()
    results = {}
    if "backward" in methods:
        results["backward"] = response_series(p, rec, obs, cfg["K"], cfg["series_tol"]).to_dict()
    if "forward" in methods:
        results["forward"] = response_series_forward(p, rec, obs, min(cfg["K"], 64)).to_dict()
    if "susceptibility" in methods:
        try:
            results["susceptibility"] = {
                "value": susceptibility(p, rec, obs, cfg["z"], cfg["K"]),
                "z": cfg["z"],
            }
        except (ResponseDivergenceError, ValueError) as exc:
            results["susceptibility"] = {"error": str(exc)}
    rows = []
    for name, res in results.items():
        rows.append((name, res.get("value", math.nan), res.get("tail_estimate", math.nan),
                     res.get("k_used", 0)))
    _emit(cfg["out"], cfg, ["method", "value", "tail_estimate", "k_used"], rows,
          {"alpha": p.alpha, "observable": obs.name, "results": results})
    return 0


def cmd_validate(cfg) -> int:
    p = MapParams(cfg["alpha"])
    epsilons = [float(e) for e in cfg["eps"].split(",")]  # checked before any work
    for eps in epsilons:
        _check_fd_eps(p.alpha, eps)
    _check_K("response_series", cfg["K"])
    if cfg["gate"] < 0.0:
        raise ValueError("validate: --gate must be >= 0")
    obs = parse_observable(cfg["obs"])
    rec = _get_density(cfg)[1].require_converged()
    series = response_series(p, rec, obs, cfg["K"], cfg["series_tol"])
    rows = [("series_backward", series.value, math.nan)]
    comparisons = {}
    # the forward (nodal pull-back) series carries quadrature sampling
    # noise beyond the mesh-resolution horizon; its value is reported and
    # its terms are checked against the noise model, but it does not drive
    # the exit gate
    k_fwd = min(cfg["K"], 64)
    fwd = response_series_forward(p, rec, obs, k_fwd)
    rows.append(("series_forward", fwd.value, _rel(fwd.value, series.value)))
    noise = forward_noise_scale(rec.density.mesh, obs)
    term_dev = max(
        abs(a - b) for a, b in zip(fwd.terms, series.terms[: k_fwd + 1])
    )
    forward_terms_ok = term_dev <= 3.0 * noise
    if obs.fprime is not None and not _endpoint_jump(obs):
        sus = susceptibility(p, rec, obs, 1.0, cfg["K"])
        rows.append(("susceptibility", sus, _rel(sus, series.value)))
        comparisons["susceptibility"] = _rel(sus, series.value)
    mesh = rec.density.mesh
    fd_vals = {}
    for eps in epsilons:
        fd = finite_difference_response(p, obs, eps, mesh, tol=cfg["tol"],
                                        max_iter=cfg["max_iter"])
        fd_vals[eps] = fd
        rows.append((f"fd_eps={eps:g}", fd, _rel(fd, series.value)))
    gate_rel = max(_rel(fd, series.value) for fd in fd_vals.values())
    comparisons["fd"] = gate_rel
    _emit(cfg["out"], cfg, ["method", "value", "rel_diff_vs_series"], rows,
          {"alpha": p.alpha, "observable": obs.name,
           "series": series.to_dict(), "fd": {str(k): v for k, v in fd_vals.items()},
           "comparisons": comparisons, "gate": cfg["gate"],
           "forward": {"value": fwd.value, "max_term_deviation": term_dev,
                       "noise_scale": noise, "terms_within_noise": forward_terms_ok}})
    worst = max(comparisons.values())
    if worst > cfg["gate"]:
        raise GateFailure(
            f"cross-method disagreement {worst:.4f} exceeds gate {cfg['gate']:g}"
        )
    if not forward_terms_ok:
        raise GateFailure(
            f"forward-series terms deviate {term_dev:.3e} beyond the noise "
            f"model (3 x {noise:.3e})"
        )
    return 0


def cmd_cones(cfg) -> int:
    p = MapParams(cfg["alpha"])
    if cfg["cone"] == "omega":
        if cfg["grid"] < 1:
            raise ValueError("cones: --grid must be >= 1")
        y = np.linspace(0.5 / cfg["grid"], 0.5, cfg["grid"])
        b1, b2, b3 = _upper_constants(p.alpha)
        cp = ConeParams(a=2.0, b1=b1, b2=b2, b3=b3, b1_bar=1e-3, b2_bar=1e-2)
        o1, o2, o3 = omega_factors(p, y, cp)
        ob1, ob2 = omega_bar_factors(p, y, cp)
        rows = list(zip(y.tolist(), o1.tolist(), o2.tolist(), o3.tolist(),
                        ob1.tolist(), ob2.tolist()))
        _emit(cfg["out"], cfg,
              ["y", "omega1", "omega2", "omega3", "omega1_bar", "omega2_bar"],
              rows,
              {"alpha": p.alpha, "cone_params": cp.to_dict(),
               "max": {"omega1": float(np.max(o1)), "omega2": float(np.max(o2)),
                       "omega3": float(np.max(o3))}})
        return 0
    _check_k_max("default_cone_params", cfg["kmax"])
    rec = _get_density(cfg)[1].require_converged()
    cp = default_cone_params(p, rec, k_max=cfg["kmax"])
    reports = invariance_experiment(p, cfg["cone"], cp, cfg["kmax"], rec)
    rows = [
        (r.params.get("k"), r.subject, r.cone_id, int(r.verdict), r.worst_margin,
         r.worst_node)
        for r in reports
    ]
    _emit(cfg["out"], cfg,
          ["k", "subject", "cone", "verdict", "worst_margin", "worst_node"],
          rows,
          {"alpha": p.alpha, "cone_params": cp.to_dict(),
           "reports": [r.to_dict() for r in reports]})
    return 0


def cmd_decay(cfg) -> int:
    prefix = cfg["out"]
    if prefix is None:
        raise ValueError("decay: --out prefix is required (writes three files)")
    p = MapParams(cfg["alpha"])
    np.random.SeedSequence(cfg["seed"])  # numpy's own check of --seed
    orbit = neutral_orbit(p, cfg["ell_max"])  # checks --ell-max before any other work
    _check_lags(cfg["N"])
    _check_orbits("birkhoff_average", cfg["orbits"], cfg["burn_in"], 1)
    psi, phi = parse_observable(cfg["psi"]), parse_observable(cfg["phi"])
    # only the operator method reads the density; the orbit statistics do not
    rec = (_get_density(cfg)[1].require_converged()
           if cfg["method"] == "operator" else None)
    curve = correlation_decay(
        p, rec, psi, phi, cfg["N"], method=cfg["method"],
        n_orbits=cfg["orbits"], orbit_len=cfg["orbit_len"],
        burn_in=cfg["burn_in"], seed=cfg["seed"],
    )
    mean, se = birkhoff_average(p, psi, cfg["orbits"],
                                max(cfg["orbit_len"], 2 * cfg["burn_in"] + 8),
                                cfg["burn_in"], cfg["seed"])
    if not math.isfinite(se):
        raise GateFailure(f"Birkhoff standard error undefined ({se}) "
                          f"with {cfg['orbits']} orbit(s)")
    _write_csv(f"{prefix}_corr.csv", cfg, ["n", "C_n"],
               list(enumerate(curve.values.tolist())))
    _write_csv(f"{prefix}_orbit.csv", cfg, ["ell", "x_ell", "bound", "margin"],
               orbit.to_rows())
    _write_json(f"{prefix}_stats.json", cfg, {
        "alpha": p.alpha,
        "correlation": {
            "psi": curve.psi_id, "phi": curve.phi_id, "method": curve.method,
            "fitted_exponent": curve.fitted_exponent,
            "exponent_ci": list(curve.exponent_ci),
        },
        "neutral_orbit": {
            "ell_max": orbit.ell_max,
            "fitted_exponent": orbit.fitted_exponent,
            "upper_ok": orbit.upper_ok, "upper_margin": orbit.upper_margin,
            "lower_c": orbit.lower_c,
        },
        "birkhoff": {"observable": psi.name,
                     "mean": mean, "standard_error": se,
                     "seed": cfg["seed"]},
    })
    return 0


def _parse_alphas(spec: str) -> list[float]:
    if ":" in spec:
        try:
            a, b, step = (float(t) for t in spec.split(":"))
        except ValueError:
            raise ValueError(f"sweep: --alphas must be start:stop:step, got {spec!r}") from None
        if not all(map(math.isfinite, (a, b, step))):
            raise ValueError(f"sweep: --alphas start, stop and step must be finite, got {spec!r}")
        if not step > 0.0:
            raise ValueError(f"sweep: --alphas step must be > 0, got {step:g}")
        # every a + i step up to b; the slack keeps b when (b - a) / step rounds low
        n = math.floor((b - a) / step + 1e-9) + 1
        return [round(a + i * step, 12) for i in range(n)]
    return [float(t) for t in spec.split(",") if t.strip()]


def _sweep_one(cfg, alpha):
    p, rec, _ = _get_density(cfg, alpha=alpha)
    res = response_series(p, rec, cfg["obs"], cfg["K"], cfg["series_tol"])
    fd_val = rel = math.nan
    if cfg["fd_eps"]:
        fd_val = finite_difference_response(p, cfg["obs"], cfg["fd_eps"],
                                            rec.density.mesh, tol=cfg["tol"],
                                            max_iter=cfg["max_iter"])
        rel = _rel(fd_val, res.value)
    return (alpha, res.observable_id, res.value, res.tail_estimate, res.k_used,
            fd_val, rel)


def cmd_sweep(cfg) -> int:
    alphas = _parse_alphas(cfg["alphas"])
    if not alphas or any(not 0.0 <= a < 1.0 for a in alphas):
        raise ValueError("sweep: --alphas must give one or more alphas in [0, 1)")
    if cfg["fd_eps"]:  # 0 is off; the largest alpha bounds alpha + eps
        _check_fd_eps(max(alphas), cfg["fd_eps"])
    _check_K("response_series", cfg["K"])
    parse_observable(cfg["obs"])  # checked here; the pool gets the name, which pickles
    if cfg["workers"] < 1:
        raise ValueError("sweep: --workers must be >= 1")
    # the pool forks all of its processes at the first submit
    workers = min(cfg["workers"], len(alphas))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_one, [cfg] * len(alphas), alphas))
    else:
        rows = [_sweep_one(cfg, a) for a in alphas]
    header = ["alpha", "observable", "value", "tail", "k_used", "fd_value", "rel_diff"]
    _emit(cfg["out"], cfg, header, rows,
          {"rows": [dict(zip(header, r)) for r in rows]})
    return 0


def _rel(v, ref):
    return abs(v - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_COMMANDS = {
    "density": (cmd_density, "compute/cache the invariant density"),
    "response": (cmd_response, "linear-response series"),
    "validate": (cmd_validate, "cross-validate response methods"),
    "cones": (cmd_cones, "cone invariance experiment / omega table"),
    "decay": (cmd_decay, "correlation decay + orbit + Birkhoff stats"),
    "sweep": (cmd_sweep, "response curve over an alpha grid"),
}

_SERIES = "response validate sweep"

# One row per option: key, default, the commands that take it ("*" for all)
# and its argparse keywords.  The flag is --<key with - for _>.
_OPTIONS = [
    ("alpha", 0.25, "*", dict(type=float, help="map parameter in [0, 1)")),
    ("mesh", 4096, "*", dict(type=int, help="graded-node count n")),
    ("orbit_points", 128, "*", dict(type=int, help="neutral-orbit points L in the mesh")),
    ("x_min", 1e-10, "*", dict(type=float, help="mesh lower cutoff")),
    ("tol", 1e-8, "*", dict(type=float, help="density L1 stopping tolerance")),
    ("max_iter", None, "*", dict(type=int, help="density iteration cap")),
    ("format", "csv", "*", dict(choices=("csv", "json"), help="output format")),
    ("out", None, "*", dict(help="output path (default stdout)")),
    ("cache_dir", None, "*", dict(help="density cache directory")),
    ("obs", "x", _SERIES, dict(help="observable (const,x,x^2..x^4,cos[m],ind:a:b)")),
    ("K", 256, _SERIES, dict(type=int, help="series truncation")),
    ("series_tol", 1e-10, _SERIES,
     dict(type=float, help="stop when fitted tail is below this")),
    ("eps", "1e-2,5e-3", "validate", dict(help="comma list of FD epsilons")),
    ("gate", 0.03, "validate", dict(type=float, help="relative disagreement gate")),
    ("methods", ",".join(_RESPONSE_METHODS), "response",
     dict(help="comma list: " + ",".join(_RESPONSE_METHODS))),
    ("cone", "Cstar", "cones", dict(choices=("Cstar", "Cstar1", "C2", "C3", "omega"),
                                    help="cone to test, or the omega table")),
    ("kmax", 20, "cones", dict(type=int, help="iterate count")),
    ("grid", 512, "cones", dict(type=int, help="y-grid size for omega table")),
    ("psi", "x", "decay", dict(help="observable psi (also the Birkhoff mean)")),
    ("phi", "x", "decay", dict(help="observable phi")),
    ("N", 100, "decay", dict(type=int, help="maximum lag")),
    ("method", "operator", "decay", dict(choices=("operator", "montecarlo"),
                                         help="correlation method")),
    ("orbits", 1024, "decay", dict(type=int, help="random orbits")),
    ("orbit_len", 65536, "decay", dict(type=int, help="steps per orbit")),
    ("burn_in", 1024, "decay", dict(type=int, help="discarded initial steps")),
    ("seed", 0, "decay", dict(type=int, help="random seed")),
    ("ell_max", 10000, "decay", dict(type=int, help="neutral-orbit length")),
    ("alphas", "0.05:0.45:0.05", "sweep", dict(help="comma list or start:stop:step")),
    ("workers", 1, "sweep", dict(type=int, help="process-pool width")),
    ("fd_eps", 0.0, "sweep",
     dict(type=float, help="also compute FD response at this epsilon (0 = off)")),
    ("z", 1.0, "response", dict(type=float, help="susceptibility evaluation point")),
]

_DEFAULTS = {key: default for key, default, _, _ in _OPTIONS}
_KWARGS = {key: kwargs for key, _, _, kwargs in _OPTIONS}


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors on exit 1 (2 is the gate code here), that
    takes negative numbers in exponent notation (``-1e-2``) as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.exit(1, f"{self.format_usage()}pmlab: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pmlab",
        description="Transfer-operator laboratory for intermittent interval maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        # unset flags stay out of the namespace, so config and defaults fill them
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for key, _, commands, kwargs in _OPTIONS:
            if commands == "*" or name in commands.split():
                sp.add_argument("--" + key.replace("_", "-"), **kwargs)
        sp.add_argument("--config", help="JSON config file (flags take precedence)")
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return _COMMANDS[ns.command][0](_resolved(ns))
    except (GateFailure, ConvergenceError) as exc:
        print(f"pmlab: gate failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ResponseDivergenceError) as exc:
        print(f"pmlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
