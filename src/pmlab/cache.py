"""Disk cache for invariant-density records.

Records are JSON files keyed by SHA-256 of (alpha, mesh parameters, tol,
schema version); writes go through a temporary file and an atomic rename,
so concurrent readers never observe partial files (single-writer,
multi-reader discipline).
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .maps import MapParams
from .grid import gridfunction_from_dict, gridfunction_to_dict
from .transfer import DensityRecord

__all__ = [
    "SCHEMA_VERSION",
    "cache_key",
    "density_record_to_dict",
    "density_record_from_dict",
    "DensityCache",
    "resolve_cache_dir",
]

SCHEMA_VERSION = 2
_ENV_VAR = "PMLAB_CACHE_DIR"


def cache_key(alpha: float, mesh_spec: dict, tol: float) -> str:
    """SHA-256 over the canonical (alpha, mesh parameters, tol, schema)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "alpha": float(alpha),
        "mesh": {k: mesh_spec[k] for k in sorted(mesh_spec)},
        "tol": float(tol),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def density_record_to_dict(rec: DensityRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": rec.params.alpha,
        "density": gridfunction_to_dict(rec.density),
        "iterations": rec.iterations,
        "residual": rec.residual,
        "normalization": rec.normalization,
        "tol": rec.tol,
        "converged": rec.converged,
    }


def density_record_from_dict(d: dict) -> DensityRecord:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {d.get('schema_version')!r}")
    return DensityRecord(
        params=MapParams(d["alpha"]),
        density=gridfunction_from_dict(d["density"]),
        iterations=int(d["iterations"]),
        residual=float(d["residual"]),
        normalization=float(d["normalization"]),
        tol=float(d["tol"]),
    )


def resolve_cache_dir(explicit: str | None = None) -> Path:
    """Flag > environment > default (~/.cache/pmlab)."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pmlab"


class DensityCache:
    """File-per-record JSON store with atomic writes."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"density-{key}.json"

    def get(self, key: str) -> DensityRecord | None:
        """The stored record, or None (a miss) if it is missing, truncated,
        malformed or not converged; the next ``put`` replaces it atomically."""
        path = self.path(key)
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                rec = density_record_from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError):
            return None
        return rec if rec.converged else None

    def put(self, key: str, rec: DensityRecord) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        payload = json.dumps(density_record_to_dict(rec))
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
