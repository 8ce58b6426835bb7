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
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import exact
from .contagion import ConstantDelta, UrnInit, check_node
from .errors import (DegenerateMarginal, DomainError, InvalidParameter, check_int, check_real,
                     to_float)
from .graph import Network, classify

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the largest coarse grid: each point is a row of n + 1 log-probabilities
# and one dot product, so 2^16 of them stay within the 2^24-cell budget of
# a table up to horizon n = 255
MAX_COARSE_POINTS = 1 << 16


@dataclass(frozen=True)
class SearchConfig:
    """Coarse grid on [0, delta_max] followed by golden-section refinement."""

    delta_max: float
    coarse_points: int = 200
    refine_tol: float = 1e-6

    def __post_init__(self):
        check_real(check_int(self.coarse_points, "coarse_points"), "coarse_points", 1,
                   MAX_COARSE_POINTS)
        # a zero tolerance would never end the refinement
        check_real(self.refine_tol, "refine_tol", 0, brackets="()")
        check_real(self.delta_max, "delta_max", 0)


@dataclass(frozen=True)
class Model1Fit:
    delta_hat: float
    kl: float
    grid_deltas: np.ndarray
    grid_kl: np.ndarray


def _node_params(net: Network, init: UrnInit, i: int, delta):
    """(rho, N * delta / super-urn total) of node i, from one sum of each
    color over its closed neighbourhood."""
    i = check_node(i, net.node_count)
    check_real(delta, "delta", 0)
    nbrs = net.closed_neighbors[i]
    total = sum(init.totals[j] for j in nbrs)
    # a float delta divides by the total as a float, which an exact total may be past
    d = net.node_count * delta / (total if isinstance(delta, (int, Fraction))
                                  else to_float(total, f"node {i}'s super-urn total"))
    if isinstance(d, float) and not math.isfinite(d):
        raise DomainError(f"the node correlation parameter {net.node_count} x {delta} / "
                          f"{total} is outside the float range; use a smaller reinforcement")
    return sum(init.red[j] for j in nbrs) / total, d


def rho_for_node(net: Network, init: UrnInit, i: int):
    """Initial red fraction of node i's super urn."""
    return _node_params(net, init, i, 0)[0]


def node_delta(net: Network, init: UrnInit, i: int, delta):
    """Correlation parameter N * delta / (super-urn total) used by both
    analytical models."""
    return _node_params(net, init, i, delta)[1]


def model2a_delta(net: Network, init: UrnInit, i: int, delta):
    """Large-network analytic choice: matches the first and the (n,1)-step
    second-order statistics of the node process on a complete network."""
    return _model2a(node_delta(net, init, i, delta), net.node_count)


def model2b_delta(net: Network, init: UrnInit, i: int, delta):
    """Small-network analytic choice: the same matching transform applied to
    the correlation parameter reduced by a factor of N."""
    return _model2b(node_delta(net, init, i, delta), net.node_count)


def _model2a(d, n):
    return d / (n + (n - 1) * d)


def _model2b(d, n):
    return d / (n * n + (n - 1) * d)


def divergence_at(marginal: Mapping, rho: float, n: int, delta: float) -> float:
    """Per-step KL divergence of a node marginal from the classical joint
    with parameters (rho, delta)."""
    counts, entropy = _mapping_counts(marginal, n)
    return _kl_from_counts(counts, entropy, rho, n, delta)


def _mapping_counts(marginal: Mapping, n: int):
    """``_count_masses`` of a marginal keyed by draw tuples, in its order."""
    reds = []
    for a in marginal:
        if not isinstance(a, tuple) or len(a) != n or any(x not in (0, 1) for x in a):
            raise DegenerateMarginal(f"marginal keys must be {n} draws of 0 or 1, got {a!r}")
        reds.append(sum(a))
    probs = np.fromiter((float(p) for p in marginal.values()), np.float64, len(reds))
    return _count_masses(probs, np.array(reds, dtype=np.intp), n)


def _red_counts(n: int) -> np.ndarray:
    """The red draws of each code 0..2^n - 1, its popcount: code c + 2^t
    has one more red than code c < 2^t."""
    reds = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        reds = np.concatenate((reds, reds + 1))
    return reds


def _count_masses(probs: np.ndarray, reds: np.ndarray, n: int):
    """Collapse a node marginal onto red counts; the classical joint is
    exchangeable so the cross term only needs count masses.

    ``probs[c]`` is the probability of a draw sequence with ``reds[c]``
    reds: the marginal in code order (``reds`` from :func:`_red_counts`)
    or a Mapping's values in its order.  Each count adds its masses in
    that order (``np.bincount`` adds one weight at a time), and the
    entropy term sums p * log(p) over the positive p in that order too."""
    if (probs < 0).any():
        raise DegenerateMarginal("marginal must assign nonnegative mass to {0,1}^n")
    counts = np.bincount(reds, weights=probs, minlength=n + 1)
    total = float(counts.sum())
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise DegenerateMarginal(f"marginal mass {total} is not 1")
    entropy_term = 0.0
    for pf in probs.tolist():
        if pf > 0:
            entropy_term += pf * math.log(pf)
    return counts, entropy_term


def _kl_rows(counts, entropy_term, rho, n, deltas) -> np.ndarray:
    """Per-step KL divergence of the collapsed marginal from the classical
    joint at (rho, each of ``deltas``): one log-probability row per delta,
    each dotted with the counts on its own so that it keeps the bits of
    that delta alone.  A row that is not finite in floats, from a delta
    too large, is a ``DomainError``."""
    exact.PolyaParams(rho, float(np.min(deltas)))  # the rho and delta checks
    check_int(n, "the horizon n", minimum=1)
    logq = exact._count_log_prob_rows(float(rho), deltas, n)
    cross = np.array([np.dot(counts, row) for row in logq])
    return (entropy_term - cross) / n


def _kl_from_counts(counts, entropy_term, rho, n, delta) -> float:
    return float(_kl_rows(counts, entropy_term, rho, n, np.array([float(delta)]))[0])


def model1_fit(marginal: Mapping, rho: float, n: int, search: SearchConfig) -> Model1Fit:
    """Divergence-minimizing correlation parameter for a node marginal.

    Coarse grid first; the best grid point brackets a golden-section
    refinement (assuming the observed unimodality), falling back to the best
    grid point if refinement does not improve on it.
    """
    counts, entropy = _mapping_counts(marginal, n)
    return _fit_counts(counts, entropy, float(rho), n, search)


def _fit_counts(counts, entropy, rho: float, n: int, search: SearchConfig) -> Model1Fit:
    """``model1_fit`` on a marginal already collapsed by ``_count_masses``."""
    grid = np.linspace(0.0, search.delta_max, search.coarse_points)
    grid_kl = _kl_rows(counts, entropy, rho, n, grid)
    k = int(np.argmin(grid_kl))
    lo = grid[k - 1] if k > 0 else grid[0]
    hi = grid[k + 1] if k + 1 < len(grid) else grid[-1]
    objective = lambda d: _kl_from_counts(counts, entropy, rho, n, d)
    d_hat, kl_hat = _golden_section(objective, float(lo), float(hi), search.refine_tol)
    if grid_kl[k] < kl_hat:
        d_hat, kl_hat = float(grid[k]), float(grid_kl[k])
    return Model1Fit(delta_hat=d_hat, kl=kl_hat, grid_deltas=grid, grid_kl=grid_kl)


def _golden_section(f, lo: float, hi: float, tol: float):
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    width = hi - lo
    while width > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = f(d)
        # a tolerance below the float spacing at the bracket would never be
        # met: stop once the bracket no longer narrows
        if not hi - lo < width:
            break
        width = hi - lo
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
    networks use the count dynamic program, others an expansion that merges
    histories reaching the same urn state), which reaches the fit as the
    array that ``node_marginal_for_fit`` keys.  The super urn is summed
    once: rho, the node correlation parameter, the search range and both
    analytic choices derive from those two sums.
    """
    rho, d = _node_params(net, init, i, delta)
    if 10 * d > sys.float_info.max:
        raise DomainError("the fit's search range, 10 x the node correlation parameter, "
                          "is outside the float range; use a smaller reinforcement")
    if marginal is None:
        probs = _fit_marginal_probs(net, init, delta, i, n, rho, d)
        counts, entropy = _count_masses(probs, _red_counts(n), n)
    else:
        counts, entropy = _mapping_counts(marginal, n)
    rho = float(rho)
    if search is None:  # default_search's, from the sums above
        search = SearchConfig(delta_max=10.0 * float(d))
    # the three divergences share one collapse of the 2^n marginal entries
    fit = _fit_counts(counts, entropy, rho, n, search)
    d_prime = float(_model2a(d, net.node_count))
    d_star = float(_model2b(d, net.node_count))
    return {
        "node": i,
        "rho": rho,
        "delta_hat": fit.delta_hat,
        "kl": fit.kl,
        "delta_prime": d_prime,
        "kl_prime": _kl_from_counts(counts, entropy, rho, n, d_prime),
        "delta_star": d_star,
        "kl_star": _kl_from_counts(counts, entropy, rho, n, d_star),
    }


def node_marginal_for_fit(net: Network, init: UrnInit, delta, i: int, n: int) -> dict:
    """Marginal of node i's first n draws under constant reinforcement,
    keyed by draw tuples in code order.

    Complete networks go through the count dynamic program; others through
    :func:`exact.float_node_marginal_probs`, a float expansion that merges
    the histories with equal red counts per node, whatever the input
    arithmetic (fits are float-valued downstream either way).  Both are held
    to the enumeration cap: the DP to 2^n x (N * n + 1) <= 2^24 float64
    cells, the size its last level would have if it expanded every step (it
    meets in the middle and keeps about 2^(n/2) x (N * n/2 + 1) cells per
    pass), the expansion to N * n <= 24, the bits of an enumeration table
    (it keeps at most 2^t (t+1)^(N-1) rows at step t).  The values are
    those of the (2^n,) array that ``fit_node`` collapses when it is given
    no marginal, so fitting this dict gives the same record.
    """
    rho, d = _node_params(net, init, i, delta)
    return exact._draw_dict(_fit_marginal_probs(net, init, delta, i, n, rho, d))


def _fit_marginal_probs(net, init, delta, i, n, rho, d) -> np.ndarray:
    """``node_marginal_for_fit`` as a (2^n,) float array in code order;
    ``rho`` and ``d`` are node i's from :func:`_node_params`."""
    if classify(net) == "complete":
        return exact.complete_node_marginal_probs(float(rho), float(d), net.node_count, n)
    return exact.float_node_marginal_probs(net, init, ConstantDelta(delta), n, i)


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


def exact_representation_gap(net: Network, init: UrnInit, delta, n: int,
                             node: int = 0) -> ExactRepresentationReport:
    if classify(net) != "complete":
        raise InvalidParameter("the exact-representation check applies to complete networks")
    sched = ConstantDelta(delta)
    table = exact.enumerate_joint(net, init, sched, n, exact=exact._is_exact(init, sched))
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
