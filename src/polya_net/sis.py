"""Discrete-time SIS comparator: mean-field probability recursion and the
spectral epidemic threshold.

The escape probability prod_{j ~ i} (1 - beta P_j) is multiplied left to
right in ``net.neighbors`` order: one column of ``net.neighbor_table`` per
factor, padded rows multiplying by exactly 1.0.  This order fixes the
output bits of the recursion, and with them of the ``sis`` command's CSV and
the fig5 ``sis_reference_*.csv`` files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contagion import UrnInit
from .errors import CapExceeded, ParameterOutOfRange, SizeMismatch
from .exact import ENUMERATION_CAP
from .graph import Network


@dataclass(frozen=True)
class SisParams:
    """Per-contact infection probability and per-step recovery probability."""

    beta: float
    delta_sis: float

    def __post_init__(self):
        if not 0 <= self.beta <= 1 or not 0 <= self.delta_sis <= 1:
            raise ParameterOutOfRange(
                f"beta and delta_sis must lie in [0, 1], got "
                f"({self.beta}, {self.delta_sis})"
            )


@dataclass(frozen=True)
class SisState:
    time: int
    probs: np.ndarray  # per-node infection probability, values in [0, 1]


def default_initial_probs(init: UrnInit) -> np.ndarray:
    """Couple the comparator to an urn setup: P_i(0) = initial red fraction."""
    return np.array([float(r) / float(t) for r, t in zip(init.red, init.totals)])


def _recursion(net: Network, params: SisParams):
    """The update P(t) -> P(t+1) as ``advance(p, out)``.  ``factors`` holds
    1 - beta P_j for every node and, in slot N, the 1.0 that padded table
    entries select."""
    n = net.node_count
    columns = np.ascontiguousarray(net.neighbor_table.T)
    factors = np.ones(n + 1)
    keep = 1.0 - params.delta_sis

    def advance(p: np.ndarray, out: np.ndarray) -> None:
        np.subtract(1.0, params.beta * p, out=factors[:n])
        escape = np.ones(n)
        for col in columns:  # left to right in net.neighbors order
            escape *= factors[col]
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
    nxt = np.empty(net.node_count)
    _recursion(net, params)(p, nxt)
    return SisState(time=state.time + 1, probs=nxt)


@dataclass(frozen=True)
class SisTrajectory:
    probs: np.ndarray  # shape (horizon + 1, N); row t = state at time t
    mean: np.ndarray   # shape (horizon + 1,)

    @property
    def horizon(self) -> int:
        return self.probs.shape[0] - 1


def sis_run(net: Network, init_probs, params: SisParams, horizon: int) -> SisTrajectory:
    """Iterate the recursion, recording the per-node and mean probabilities."""
    if horizon < 0:
        raise ParameterOutOfRange(f"horizon must be >= 0, got {horizon}")
    cells = (horizon + 1) * net.node_count
    if cells > 1 << ENUMERATION_CAP:
        raise CapExceeded(f"a trajectory of {net.node_count} nodes x {horizon} steps needs "
                          f"{cells} cells, more than the cap of 2^{ENUMERATION_CAP}")
    p0 = np.asarray(init_probs, dtype=np.float64)
    if p0.shape != (net.node_count,):
        raise SizeMismatch("initial probability vector does not match the network")
    if not np.all((p0 >= 0) & (p0 <= 1)):
        raise ParameterOutOfRange("initial probabilities must lie in [0, 1]")
    probs = np.empty((horizon + 1, net.node_count))
    probs[0] = p0
    advance = _recursion(net, params)
    for t in range(horizon):
        advance(probs[t], probs[t + 1])
    return SisTrajectory(probs=probs, mean=probs.mean(axis=1))


def threshold_classify(net: Network, params: SisParams, tol: float = 1e-9) -> str:
    """'dies_out' when delta_sis > beta * lambda_max, 'endemic' when smaller,
    'critical' within tol of equality."""
    gap = params.delta_sis - params.beta * net.spectral_radius
    if abs(gap) <= tol:
        return "critical"
    return "dies_out" if gap > 0 else "endemic"
