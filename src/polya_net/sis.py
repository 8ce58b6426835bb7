"""Discrete-time SIS comparator: mean-field probability recursion and the
spectral epidemic threshold.

The escape probability prod_{j ~ i} (1 - beta P_j) is multiplied per
segment of the open neighbourhoods, ``net.open_csr``, via
``np.multiply.reduceat``: left to right, in ascending node order.  This
order fixes the output bits of the recursion, and with them of the ``sis``
command's CSV and the fig5 ``sis_reference_*.csv`` files.  Several rate
pairs run as the rows of one (R, N) state: every update is elementwise and
the products run along the last axis, so each row keeps the bits of its
own run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contagion import UrnInit
from .errors import ParameterOutOfRange, SizeMismatch, check_int, check_real
from .exact import check_cell_budget
from .graph import Network


@dataclass(frozen=True)
class SisParams:
    """Per-contact infection probability and per-step recovery probability."""

    beta: float
    delta_sis: float

    def __post_init__(self):
        check_real(self.beta, "beta", 0, 1, error=ParameterOutOfRange)
        check_real(self.delta_sis, "delta_sis", 0, 1, error=ParameterOutOfRange)


@dataclass(frozen=True)
class SisState:
    time: int
    probs: np.ndarray  # per-node infection probability, values in [0, 1]


def default_initial_probs(init: UrnInit) -> np.ndarray:
    """Couple the comparator to an urn setup: P_i(0) = initial red fraction."""
    return np.array([_red_fraction(r, t) for r, t in zip(init.red, init.totals)])


def _red_fraction(red, total) -> float:
    try:
        return float(red) / float(total)
    except OverflowError:  # exact masses past the float range; their ratio is not
        return float(Fraction(red) / Fraction(total))


def _recursion(net: Network, params: Sequence[SisParams]):
    """The update P(t) -> P(t+1) of (R, N) states, row r under
    ``params[r]``, as ``advance(p, out)``."""
    indptr, indices = net.open_csr
    # exact rates are welcome, but the recursion runs in floats
    starts = indptr[:-1]
    beta = np.array([float(rates.beta) for rates in params])[:, None]
    keep = np.array([1.0 - rates.delta_sis for rates in params])[:, None]

    def advance(p: np.ndarray, out: np.ndarray) -> None:
        factors = (1.0 - beta * p)[:, indices]
        # reduceat gives an empty segment its start element, not 1; only
        # K1's node has no neighbours, and its escape is the empty product
        escape = (np.multiply.reduceat(factors, starts, axis=-1) if len(indices)
                  else np.ones_like(p))
        np.add(p * keep, (1.0 - p) * (1.0 - escape), out=out)

    return advance


def sis_step(state: SisState, net: Network, params: SisParams) -> SisState:
    """One update of the mean-field recursion.

    P_i(t+1) = P_i(t)(1 - delta_sis)
             + (1 - P_i(t)) (1 - prod_{j ~ i} (1 - beta P_j(t))).
    Preserves [0, 1] for valid parameters.
    """
    p = np.asarray(state.probs, dtype=np.float64)
    if p.shape != (net.node_count,):
        raise SizeMismatch("probability vector does not match the network")
    nxt = np.empty((1, net.node_count))
    _recursion(net, (params,))(p[None], nxt)
    return SisState(time=state.time + 1, probs=nxt[0])


@dataclass(frozen=True)
class SisTrajectory:
    probs: np.ndarray  # shape (horizon + 1, N); row t = state at time t
    mean: np.ndarray   # shape (horizon + 1,)

    @property
    def horizon(self) -> int:
        return self.probs.shape[0] - 1


def sis_run(net: Network, init_probs, params: SisParams, horizon: int) -> SisTrajectory:
    """Iterate the recursion, recording the per-node and mean probabilities."""
    return sis_run_many(net, init_probs, (params,), horizon)[0]


def sis_run_many(net: Network, init_probs, params: Sequence[SisParams],
                 horizon: int) -> list[SisTrajectory]:
    """:func:`sis_run` from one initial vector under each rate pair in
    ``params``, as the rows of one recursion: per rate pair, in order, its
    trajectory, bit-equal to its own :func:`sis_run`.  The trajectories are
    views of one (R, horizon + 1, N) array."""
    horizon = check_real(check_int(horizon, "horizon"), "horizon", 0, error=ParameterOutOfRange)
    check_cell_budget(len(params) * net.node_count, horizon, "a trajectory")
    p0 = np.asarray(init_probs, dtype=np.float64)
    if p0.shape != (net.node_count,):
        raise SizeMismatch("initial probability vector does not match the network")
    if not np.all((p0 >= 0) & (p0 <= 1)):
        raise ParameterOutOfRange("initial probabilities must lie in [0, 1]")
    probs = np.empty((len(params), horizon + 1, net.node_count))
    probs[:, 0] = p0
    advance = _recursion(net, params)
    for t in range(horizon):
        advance(probs[:, t], probs[:, t + 1])
    means = probs.mean(axis=-1)
    return [SisTrajectory(probs=p, mean=m) for p, m in zip(probs, means)]


def threshold_classify(net: Network, params: SisParams, tol: float = 1e-9) -> str:
    """'dies_out' when delta_sis > beta * lambda_max, 'endemic' when smaller,
    'critical' within tol of equality."""
    check_real(tol, "tol", 0)
    gap = params.delta_sis - params.beta * net.spectral_radius
    if abs(gap) <= tol:
        return "critical"
    return "dies_out" if gap > 0 else "endemic"
