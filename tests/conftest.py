"""Shared fixtures: densities are expensive, so a module-wide store hands
out memoized records keyed by their full parameter set."""

import numpy as np
import pytest
from hypothesis import settings

from pmlab import MapParams, build_mesh, compute_density

# numerical gates are calibrated; keep example generation reproducible
settings.register_profile("pmlab", derandomize=True, deadline=None)
settings.load_profile("pmlab")


@pytest.fixture(scope="module")
def store():
    cache = {}

    def density(alpha, n, L, x_min, tol, max_iter=200_000):
        key = (alpha, n, L, x_min, tol, max_iter)
        if key not in cache:
            p = MapParams(alpha)
            mesh = build_mesh(p, n, L, x_min)
            cache[key] = compute_density(p, mesh, tol=tol, max_iter=max_iter)
        return cache[key]

    return density


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
