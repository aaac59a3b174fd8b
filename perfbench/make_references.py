"""Regenerate perfbench/references.json, the stored answers the benchmark checks.

Run from the repository root (about ten minutes on two cores; the parts
can run in parallel and each updates only its own section):

    python3 perfbench/make_references.py --part density
    python3 perfbench/make_references.py --part response
    python3 perfbench/make_references.py --part verify

* ``density``: observable means per alpha of the density and Monte Carlo
  tables, on the same mesh family (orbit points, x_min) as the benchmark
  but with 4x the nodes and tolerance 1e-11.  The error estimate is the
  drift to 2x the nodes plus the drift to tolerance 1e-10.  Each is
  cross-checked against the Ulam oracle on the 8192-cell partition of
  acceptance criterion 13.
* ``response``: d/da of the observable means per alpha of the analysis
  table, as the Richardson extrapolation of central finite differences
  (eps = 1e-2 and 5e-3) on 2x the benchmark's nodes at tolerance 1e-11.
  The error estimate is the Richardson correction plus the drift to the
  benchmark's node count.  Each is cross-checked against the backward
  series with K = 4096 on the same density.
* ``verify``: recomputes the baseline ``density_err`` and ``response_err``
  on the untouched benchmark configurations, checks that every reference
  error estimate is at most a tenth of them, and runs every Monte Carlo
  seed of the table against its reference mean.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pmlab  # noqa: E402
import workloads as W  # noqa: E402

REF_TOL = 1e-11
FD_EPS = (1e-2, 5e-3)
SERIES_K = 4096


def log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def means_on(alpha, n, L, x_min, tol, obs):
    p = pmlab.MapParams(alpha)
    rec = pmlab.compute_density(p, pmlab.build_mesh(p, n, L, x_min), tol=tol)
    if not rec.converged:
        raise RuntimeError(f"reference density a={alpha} n={n} did not converge")
    return {o: pmlab.observable_mean(pmlab.parse_observable(o), rec) for o in obs}, rec


def density_family():
    """alpha -> benchmark configuration whose mesh family the reference uses."""
    fam = {W._key(c["alpha"]): c for c in W.DENSITY_TABLE["full"]}
    for a in W.MONTECARLO["full"]["alphas"]:
        if W._key(a) not in fam:
            raise SystemExit(f"Monte Carlo alpha {a} has no density configuration")
    return fam


def part_density():
    out = {}
    for key, c in density_family().items():
        a, L, x_min = c["alpha"], c["L"], c["x_min"]
        n = 4 * c["n"]
        log(f"density a={a}: n={n}, tol={REF_TOL:g}")
        fine, _ = means_on(a, n, L, x_min, REF_TOL, W.DENSITY_OBS)
        half, _ = means_on(a, n // 2, L, x_min, REF_TOL, W.DENSITY_OBS)
        loose, _ = means_on(a, n, L, x_min, 10 * REF_TOL, W.DENSITY_OBS)
        err = {o: (abs(fine[o] - half[o]) + abs(fine[o] - loose[o])) / abs(fine[o])
               for o in W.DENSITY_OBS}
        p = pmlab.MapParams(a)
        U = pmlab.build_ulam(p, pmlab.build_mesh(p, 8192, 100, 1e-5))
        ulam = pmlab.ulam_mean(U, pmlab.ulam_stationary(U, tol=W.ULAM_TOL), W._x)
        out[key] = {
            "alpha": a, "L": L, "x_min": x_min, "n": n, "tol": REF_TOL,
            "means": fine, "rel_error": err,
            "ulam_8192": {"mean_x": ulam, "diff": abs(ulam - fine["x"]),
                          "gate": W.MEAN_GATE,
                          "ok": abs(ulam - fine["x"]) <= W.MEAN_GATE},
        }
        log(f"  means {fine} rel_error {max(err.values()):.2e} "
            f"ulam diff {abs(ulam - fine['x']):.2e}")
    return out


def fd_response(alpha, n, cfg, eps_list):
    p = pmlab.MapParams(alpha)
    mesh = pmlab.build_mesh(p, n, cfg["L"], cfg["x_min"])
    quotients = []
    for eps in eps_list:
        hi = pmlab.compute_density(pmlab.MapParams(alpha + eps), mesh, tol=REF_TOL)
        lo = pmlab.compute_density(pmlab.MapParams(alpha - eps), mesh, tol=REF_TOL)
        if not (hi.converged and lo.converged):
            raise RuntimeError(f"FD density at a={alpha} +/- {eps} did not converge")
        quotients.append({
            o: (pmlab.observable_mean(pmlab.parse_observable(o), hi)
                - pmlab.observable_mean(pmlab.parse_observable(o), lo)) / (2 * eps)
            for o in W.RESPONSE_OBS})
    coarse, fine = quotients
    rich = {o: (4 * fine[o] - coarse[o]) / 3 for o in W.RESPONSE_OBS}
    return rich, fine, mesh


def part_response():
    cfg = W.ANALYSIS["full"]
    out = {}
    for a in cfg["alphas"]:
        n = 2 * cfg["n"]
        log(f"response a={a}: n={n}, eps={FD_EPS}")
        rich, plain, mesh = fd_response(a, n, cfg, FD_EPS)
        rich_b, _, _ = fd_response(a, cfg["n"], cfg, FD_EPS)
        p = pmlab.MapParams(a)
        rec = pmlab.compute_density(p, mesh, tol=cfg["tol"])
        entry = {}
        for o in W.RESPONSE_OBS:
            series = pmlab.response_series(p, rec, o, K=SERIES_K, tol=1e-13)
            err = (abs(rich[o] - plain[o]) + abs(rich[o] - rich_b[o])) / abs(rich[o])
            entry[o] = {
                "value": rich[o], "rel_error": err, "n": n, "tol": REF_TOL,
                "fd_eps": list(FD_EPS),
                "series_K": SERIES_K, "series_value": series.value,
                "series_tail": series.tail_estimate,
                "series_rel_diff": W._rel(series.value, rich[o]),
            }
            log(f"  {o}: {rich[o]:.8g} rel_error {err:.2e} "
                f"series(K={SERIES_K}) rel diff {entry[o]['series_rel_diff']:.2e}")
        out[W._key(a)] = entry
    return out


def part_verify(refs):
    dens_errs = []
    for c in W.DENSITY_TABLE["full"]:
        means, _ = means_on(c["alpha"], c["n"], c["L"], c["x_min"], c["tol"], W.DENSITY_OBS)
        ref = refs["density"][W._key(c["alpha"])]["means"]
        dens_errs.append(max(W._rel(means[o], ref[o]) for o in W.DENSITY_OBS))
        log(f"baseline density a={c['alpha']}: err {dens_errs[-1]:.3e}")
    cfg = W.ANALYSIS["full"]
    resp_errs = []
    for a in cfg["alphas"]:
        p = pmlab.MapParams(a)
        rec = pmlab.compute_density(p, pmlab.build_mesh(p, cfg["n"], cfg["L"], cfg["x_min"]),
                                    tol=cfg["tol"])
        ref = refs["response"][W._key(a)]
        errs = [W._rel(pmlab.response_series(p, rec, o, K=cfg["K"], tol=1e-13).value,
                       ref[o]["value"]) for o in W.RESPONSE_OBS]
        resp_errs.append(max(errs))
        log(f"baseline response a={a}: err {resp_errs[-1]:.3e}")
    max_d = max(max(e["rel_error"].values()) for e in refs["density"].values())
    max_r = max(v["rel_error"] for e in refs["response"].values() for v in e.values())
    mc = W.MONTECARLO["full"]
    seeds = {}
    for a in mc["alphas"]:
        ref = refs["density"][W._key(a)]["means"]["x"]
        zs = []
        for s in W.MC_SEEDS:
            mean, se = pmlab.birkhoff_average(pmlab.MapParams(a), "x", mc["orbits"],
                                              mc["birkhoff_len"], mc["burn_in"], seed=s + 1)
            zs.append(abs(mean - ref) / se)
        seeds[W._key(a)] = {"max_z": max(zs), "z": zs}
        log(f"Monte Carlo a={a}: max |mean - ref| / SE = {max(zs):.2f} over "
            f"{len(zs)} seeds")
    return {
        "density_err": max(dens_errs), "response_err": max(resp_errs),
        "max_density_ref_error": max_d, "max_response_ref_error": max_r,
        "density_ref_ok": max_d <= max(dens_errs) / 10,
        "response_ref_ok": max_r <= max(resp_errs) / 10,
        "montecarlo_seeds": seeds,
        "montecarlo_ok": all(v["max_z"] <= W.MC_SIGMAS for v in seeds.values()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", required=True, choices=("density", "response", "verify"))
    args = ap.parse_args()
    if args.part == "density":
        section = part_density()
    elif args.part == "response":
        section = part_response()
    else:
        section = part_verify(W.load_references())
    refs = W.load_references() if W.REFERENCES.exists() else {}
    refs[{"verify": "baseline"}.get(args.part, args.part)] = section
    W.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    log(f"wrote section {args.part!r} of {W.REFERENCES}")
    if args.part == "verify":
        ok = section["density_ref_ok"] and section["response_ref_ok"] \
            and section["montecarlo_ok"]
        log("verify: " + ("all reference checks pass" if ok else "REFERENCE CHECK FAILED"))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
