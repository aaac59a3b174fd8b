"""Disk cache for invariant-density records.

Records are JSON files keyed by SHA-256 of (schema version, alpha, tol) and
the bytes of the mesh nodes; a record holds the density's values, no mesh,
and ``get`` puts them on the caller's mesh.  Writes go through a temporary
file and an atomic rename, so concurrent readers never observe partial files
(single-writer, multi-reader discipline).
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .maps import MapParams
from .grid import GridFunction, Mesh
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


def cache_key(alpha: float, mesh: Mesh, tol: float) -> str:
    """SHA-256 over the canonical (schema, alpha, tol) and the node bytes."""
    head = {"schema": SCHEMA_VERSION, "alpha": float(alpha), "tol": float(tol)}
    h = hashlib.sha256(json.dumps(head, sort_keys=True, separators=(",", ":")).encode())
    h.update(mesh.nodes.tobytes())
    return h.hexdigest()


def density_record_to_dict(rec: DensityRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": rec.params.alpha,
        "values": rec.density.values.tolist(),
        "iterations": rec.iterations,
        "residual": rec.residual,
        "normalization": rec.normalization,
        "tol": rec.tol,
        "converged": rec.converged,
    }


def density_record_from_dict(d: dict, mesh: Mesh) -> DensityRecord:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {d.get('schema_version')!r}")
    p = MapParams(d["alpha"])
    return DensityRecord(
        params=p,
        density=GridFunction(mesh, d["values"], p.alpha),
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

    def get(self, key: str, mesh: Mesh) -> DensityRecord | None:
        """The stored record on ``mesh``, or None (a miss) if it is missing,
        malformed, of another schema or key (a copied file), does not fit the
        mesh or did not converge; the next ``put`` replaces it atomically."""
        path = self.path(key)
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                d = json.load(fh)
            if d.get("key") != key:
                return None
            rec = density_record_from_dict(d, mesh)
        except (ValueError, KeyError, TypeError, AttributeError):
            return None
        return rec if rec.converged else None

    def put(self, key: str, rec: DensityRecord) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        payload = json.dumps({**density_record_to_dict(rec), "key": key})
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
