"""Independent oracles that only the tests use.

``ulam_l1_distance`` compares a grid density with the Ulam stationary
density of ``transfer.build_ulam``; ``susceptibility_terms_orbitwise``
evaluates the susceptibility terms by the orbitwise chain rule, the
cross-check of ``response.susceptibility``'s preimage-sum evaluation;
``gridfunction_observable`` reads a grid function as an observable.
"""

import math

import numpy as np

from pmlab.grid import GridFunction, Mesh, _frozen, evaluate, integrate_to
from pmlab.maps import MapParams, X, forward, forward_deriv
from pmlab.response import Observable, parse_observable
from pmlab.transfer import DensityRecord, UlamOperator, apply_N


def gridfunction_observable(g: GridFunction, name: str = "gridfunction") -> Observable:
    return Observable(name=name, f=lambda x: evaluate(g, x))


def ulam_l1_distance(record: DensityRecord, U: UlamOperator,
                     stationary: GridFunction) -> float:
    """L1 distance between a grid density and the Ulam piecewise-constant one.

    Cellwise 2-point Gauss sampling of the grid density; the first cell
    (0, edges[1]] is compared through its mass instead, since the grid
    density is singular there.
    """
    a, b = U.edges[:-1], U.edges[1:]
    h = b - a
    off = 0.5 / math.sqrt(3.0)
    d_ulam = stationary.values
    total = 0.0
    for sgn in (-1.0, 1.0):
        xq = 0.5 * (a[1:] + b[1:]) + sgn * off * h[1:]
        rho = evaluate(record.density, xq)
        total += 0.5 * np.sum(h[1:] * np.abs(rho - d_ulam[1:]))
    # mass difference on the unresolved first cell
    m_grid = integrate_to(record.density, _nearest_node(record.density.mesh, b[0]))
    total += abs(m_grid - d_ulam[0] * h[0])
    return float(total)


def _nearest_node(mesh: Mesh, xv: float) -> float:
    i = int(np.clip(np.searchsorted(mesh.nodes, xv), 0, mesh.size - 1))
    if i > 0 and abs(mesh.nodes[i - 1] - xv) < abs(mesh.nodes[i] - xv):
        i -= 1
    return float(mesh.nodes[i])


def _gauss_cells(mesh: Mesh):
    """4-point Gauss-Legendre nodes/weights on every mesh cell (flattened)."""

    def build():
        gx, gw = np.polynomial.legendre.leggauss(4)
        a, b = mesh.nodes[:-1], mesh.nodes[1:]
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        pts = (mid + half * gx[None, :]).ravel()
        wts = (half * gw[None, :]).ravel()
        return _frozen(pts, wts)

    return mesh.cached("gauss", build)


def susceptibility_terms_orbitwise(
    p: MapParams, d: DensityRecord, obs, K: int
) -> np.ndarray:
    """Terms s_k = int (psi' o T^k) (T^k)' X N(rho) dx by the orbitwise
    chain rule on a per-cell Gauss rule.

    Orbits y_{k+1} = T(y_k) and products prod_j T'(y_j) accumulate along
    the quadrature points.  Exact in spirit but only usable while the
    expansion 2^k stays below the mesh resolution; used as the cross-check
    of the preimage-sum evaluation on the early terms.
    """
    obs = parse_observable(obs)
    if obs.fprime is None:
        raise ValueError(f"susceptibility: observable {obs.name!r} has no derivative")
    mesh = d.density.mesh
    pts, wts = _gauss_cells(mesh)
    nr = apply_N(p, d.density)
    base = wts * np.asarray(X(p, pts)) * evaluate(nr, pts)
    orbit = pts.copy()
    deriv = np.ones_like(pts)
    terms = []
    for k in range(K + 1):
        terms.append(float(np.sum(base * deriv * np.asarray(obs.fprime(orbit), dtype=float))))
        if k < K:
            deriv = deriv * np.asarray(forward_deriv(p, orbit, 1))
            orbit = forward(p, orbit)
    return np.asarray(terms)
