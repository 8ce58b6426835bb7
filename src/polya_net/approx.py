"""Classical single-urn approximations of individual node processes.

Three ways to pick the correlation parameter of an approximating classical
urn process for a node: a computational divergence-minimizing fit, and two
closed-form choices aimed at large and at small networks.  The initial red
fraction is always the node's super-urn fraction, so one-step marginals
match by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exact
from .contagion import ConstantDelta, UrnInit
from .errors import DegenerateMarginal, DomainError, InvalidParameter
from .graph import Network

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Coarse grid on [0, delta_max] followed by golden-section refinement."""

    delta_max: float
    coarse_points: int = 200
    refine_tol: float = 1e-6


@dataclass(frozen=True)
class Model1Fit:
    delta_hat: float
    kl: float
    grid_deltas: np.ndarray
    grid_kl: np.ndarray


def rho_for_node(net: Network, init: UrnInit, i: int):
    """Initial red fraction of node i's super urn."""
    nbrs = net.closed_neighbors[i]
    red = sum(init.red[j] for j in nbrs)
    total = sum(init.totals[j] for j in nbrs)
    return red / total


def node_delta(net: Network, init: UrnInit, i: int, delta):
    """Correlation parameter N * delta / (super-urn total) used by both
    analytical models."""
    total = sum(init.totals[j] for j in net.closed_neighbors[i])
    return net.node_count * delta / total


def model2a_delta(net: Network, init: UrnInit, i: int, delta):
    """Large-network analytic choice: matches the first and the (n,1)-step
    second-order statistics of the node process on a complete network."""
    d = node_delta(net, init, i, delta)
    n = net.node_count
    return d / (n + (n - 1) * d)


def model2b_delta(net: Network, init: UrnInit, i: int, delta):
    """Small-network analytic choice: the same matching transform applied to
    the correlation parameter reduced by a factor of N."""
    d = node_delta(net, init, i, delta)
    n = net.node_count
    return d / (n * n + (n - 1) * d)


def divergence_at(marginal: Mapping, rho: float, n: int, delta: float) -> float:
    """Per-step KL divergence of a node marginal from the classical joint
    with parameters (rho, delta)."""
    counts, entropy = _count_masses(marginal, n)
    return _kl_from_counts(counts, entropy, rho, n, delta)


def _count_masses(marginal: Mapping, n: int):
    """Collapse a node marginal onto red counts; the classical joint is
    exchangeable so the cross term only needs count masses."""
    counts = np.zeros(n + 1)
    entropy_term = 0.0
    total = 0.0
    for a, p in marginal.items():
        pf = float(p)
        if pf < 0 or len(a) != n:
            raise DegenerateMarginal("marginal must assign nonnegative mass to {0,1}^n")
        total += pf
        if pf > 0:
            counts[sum(a)] += pf
            entropy_term += pf * math.log(pf)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise DegenerateMarginal(f"marginal mass {total} is not 1")
    return counts, entropy_term


def _kl_from_counts(counts, entropy_term, rho, n, delta) -> float:
    logq = exact.classical_count_log_probs(exact.PolyaParams(rho, delta), n)
    return (entropy_term - float(np.dot(counts, logq))) / n


def model1_fit(marginal: Mapping, rho: float, n: int, search: SearchConfig) -> Model1Fit:
    """Divergence-minimizing correlation parameter for a node marginal.

    Coarse grid first; the best grid point brackets a golden-section
    refinement (assuming the observed unimodality), falling back to the best
    grid point if refinement does not improve on it.
    """
    rho = float(rho)
    counts, entropy = _count_masses(marginal, n)
    objective = lambda d: _kl_from_counts(counts, entropy, rho, n, d)
    grid = np.linspace(0.0, search.delta_max, search.coarse_points)
    grid_kl = np.array([objective(d) for d in grid])
    k = int(np.argmin(grid_kl))
    lo = grid[k - 1] if k > 0 else grid[0]
    hi = grid[k + 1] if k + 1 < len(grid) else grid[-1]
    d_hat, kl_hat = _golden_section(objective, float(lo), float(hi), search.refine_tol)
    if grid_kl[k] < kl_hat:
        d_hat, kl_hat = float(grid[k]), float(grid_kl[k])
    return Model1Fit(delta_hat=d_hat, kl=kl_hat, grid_deltas=grid, grid_kl=grid_kl)


def _golden_section(f, lo: float, hi: float, tol: float):
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = f(d)
    x = (lo + hi) / 2
    return x, f(x)


def default_search(net: Network, init: UrnInit, i: int, delta,
                   coarse_points: int = 200, refine_tol: float = 1e-6) -> SearchConfig:
    """Grid domain [0, 10 * node correlation parameter]."""
    return SearchConfig(delta_max=10.0 * float(node_delta(net, init, i, delta)),
                        coarse_points=coarse_points, refine_tol=refine_tol)


def fit_node(net: Network, init: UrnInit, delta, i: int, n: int,
             marginal: Mapping | None = None,
             search: SearchConfig | None = None) -> dict:
    """All three approximations for one node, as a JSON-ready record.

    ``marginal`` defaults to the exact node marginal at horizon n (complete
    networks use the count dynamic program, others full enumeration).
    """
    if 10 * node_delta(net, init, i, delta) > sys.float_info.max:
        raise DomainError("the fit's search range, 10 x the node correlation parameter, "
                          "is outside the float range; use a smaller reinforcement")
    if marginal is None:
        marginal = node_marginal_for_fit(net, init, delta, i, n)
    rho = float(rho_for_node(net, init, i))
    if search is None:
        search = default_search(net, init, i, delta)
    fit = model1_fit(marginal, rho, n, search)
    d_prime = float(model2a_delta(net, init, i, delta))
    d_star = float(model2b_delta(net, init, i, delta))
    return {
        "node": i,
        "rho": rho,
        "delta_hat": fit.delta_hat,
        "kl": fit.kl,
        "delta_prime": d_prime,
        "kl_prime": divergence_at(marginal, rho, n, d_prime),
        "delta_star": d_star,
        "kl_star": divergence_at(marginal, rho, n, d_star),
    }


def node_marginal_for_fit(net: Network, init: UrnInit, delta, i: int, n: int,
                          cap: int = exact.ENUMERATION_CAP) -> Mapping:
    """Marginal of node i's first n draws under constant reinforcement.

    Complete networks go through the count dynamic program; others enumerate
    in float, whatever the input arithmetic (fits are float-valued downstream
    either way).  Both are held to ``cap``: 2^cap float64 cells in the DP's
    final level, 2^cap assignments in the enumeration.
    """
    from .graph import classify

    if classify(net) == "complete":
        exact.check_count_dp_cap(net.node_count, n, cap)
        rho = float(rho_for_node(net, init, i))
        d = float(node_delta(net, init, i, delta))
        return exact.complete_node_marginal(rho, d, net.node_count, n)
    table = exact.enumerate_joint(net, init, ConstantDelta(delta), n, exact=False, cap=cap)
    return table.node_marginal(i)


@dataclass(frozen=True)
class ExactRepresentationReport:
    """Worst-case gap between a node marginal and its matched classical joint.

    The matched joint is exact under stationarity/symmetry assumptions that
    real networks only approximate; the max absolute deviation quantifies
    how far they are violated.
    """

    node: int
    horizon: int
    max_deviation: object


def exact_representation_gap(net: Network, init: UrnInit, delta, n: int, node: int = 0,
                             cap: int = exact.ENUMERATION_CAP) -> ExactRepresentationReport:
    from .graph import classify

    if classify(net) != "complete":
        raise InvalidParameter("the exact-representation check applies to complete networks")
    sched = ConstantDelta(delta)
    table = exact.enumerate_joint(net, init, sched, n, exact=exact._is_exact(init, sched),
                                  cap=cap)
    marginal = table.node_marginal(node)
    rho = rho_for_node(net, init, node)
    d_prime = model2a_delta(net, init, node, delta)
    params = exact.PolyaParams(rho, d_prime)
    worst = None
    for a, p in marginal.items():
        q = exact.classical_polya_joint(params, a)
        dev = abs(p - q)
        if worst is None or dev > worst:
            worst = dev
    return ExactRepresentationReport(node=node, horizon=n, max_deviation=worst)


def recommend_model(node_count: int, small_threshold: int = 20) -> str:
    """Advisory mapping from network size to the analytic model family."""
    return "IIb" if node_count <= small_threshold else "IIa"
