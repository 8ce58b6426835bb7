"""Urn state machine for the network contagion process.

Each node holds an urn of red (infection) and black (health) mass.  A node
draws from its *super urn*, the pooled contents of its closed neighborhood,
and the drawn color's reinforcement mass is added to the node's own urn.
All mass arithmetic is type-agnostic: exact ``Fraction`` inputs stay exact,
floats stay floats.  States are values (copy, never mutate in place).

:class:`UrnBatch` is the float64 counterpart for many copies of the process
at once (Monte Carlo trials, enumerated histories).  Both record gains as
(red, total), like the urns, and with finite memory M expire step t-M's
gains before adding step t's, so the same draws give the same float bits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import HypothesisViolation, InvalidParameter, SizeMismatch
from .graph import Network


@dataclass(frozen=True)
class UrnInit:
    """Initial per-node urn contents; every node needs both colors present."""

    red: tuple
    black: tuple

    def __post_init__(self):
        # integer masses are held as Fractions, so exact arithmetic never
        # divides two ints into a float; str() of each mass is unchanged
        for name in ("red", "black"):
            object.__setattr__(self, name, tuple(
                Fraction(v) if isinstance(v, int) else v for v in getattr(self, name)))
        if len(self.red) != len(self.black):
            raise SizeMismatch("red and black initial masses differ in length")
        for i, (r, b) in enumerate(zip(self.red, self.black)):
            if r <= 0 or b <= 0:
                raise InvalidParameter(
                    f"initial masses must be positive on both colors (node {i}: "
                    f"red={r}, black={b})"
                )
            total = r + b
            if isinstance(total, float) and not math.isfinite(total):
                raise InvalidParameter(
                    f"initial urn totals must be finite (node {i}: red={r}, black={b})"
                )

    @property
    def node_count(self) -> int:
        return len(self.red)

    @cached_property
    def totals(self) -> tuple:
        """Per-node red + black, summed once per instance."""
        return tuple(r + b for r, b in zip(self.red, self.black))


def uniform_init(n: int, red=1, black=1) -> UrnInit:
    return UrnInit(red=(red,) * n, black=(black,) * n)


def _finite_float(x) -> float:
    """``float(x)`` of a reinforcement mass, which must be finite."""
    try:
        out = float(x)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InvalidParameter(f"reinforcement masses must be finite floats, got {x}")
    return out


class DeltaSchedule:
    """Reinforcement masses added after each draw, per node and time step.

    ``red_mass(i, t, ...)`` is the mass added to node i's urn when its draw
    at time t (t >= 1) is red, ``black_mass`` likewise for black.  Both are
    nonnegative; a schedule that is identically zero everywhere degenerates
    into sampling with replacement and is rejected where detectable.

    ``masses(t, u, s)`` is the batched float form used by :class:`UrnBatch`:
    given the (rows, N) urn proportions ``u`` and super-urn proportions
    ``s`` before step t, it returns float (red, black) masses broadcastable
    to (rows, N).
    """

    def red_mass(self, i: int, t: int, state: "NetworkState | None" = None,
                 net: Network | None = None):
        raise NotImplementedError

    def black_mass(self, i: int, t: int, state: "NetworkState | None" = None,
                   net: Network | None = None):
        raise NotImplementedError

    def masses(self, t: int, u: np.ndarray, s: np.ndarray):
        raise NotImplementedError

    @property
    def equal_masses(self):
        """The float masses (a scalar or one per node) when every node's red
        and black masses are equal and constant in time, else ``None``."""
        return None

    def check_size(self, node_count: int, steps: int) -> None:
        """Raise ``SizeMismatch`` unless the schedule gives masses for
        ``node_count`` nodes at steps 1..``steps``.  Schedules computed
        from the state fit any size."""

    def describe(self) -> dict:
        raise NotImplementedError

    def parameter_values(self) -> tuple:
        """Representative mass values, used to decide exact vs float arithmetic."""
        raise NotImplementedError


class ConstantDelta(DeltaSchedule):
    """Time-constant reinforcement; scalar applies to every node."""

    def __init__(self, red, black=None):
        self.red = red
        self.black = red if black is None else black
        for v in (self.red, self.black):
            for x in v if isinstance(v, (tuple, list)) else (v,):
                if x < 0:
                    raise InvalidParameter("reinforcement masses must be >= 0")
        self._floats = tuple(
            np.array([_finite_float(x) for x in v]) if isinstance(v, (tuple, list))
            else _finite_float(v)
            for v in (self.red, self.black)
        )

    def _get(self, v, i):
        return v[i] if isinstance(v, (tuple, list)) else v

    def red_mass(self, i, t, state=None, net=None):
        return self._get(self.red, i)

    def black_mass(self, i, t, state=None, net=None):
        return self._get(self.black, i)

    def masses(self, t, u, s):
        return self._floats

    @property
    def equal_masses(self):
        red, black = self._floats
        return None if np.any(red != black) else red if np.ndim(red) else black

    def check_size(self, node_count, steps):
        for v in (self.red, self.black):
            if isinstance(v, (tuple, list)) and len(v) != node_count:
                raise SizeMismatch(
                    f"schedule has masses for {len(v)} nodes, network has {node_count}")

    def describe(self):
        fmt = lambda v: [str(x) for x in v] if isinstance(v, (tuple, list)) else str(v)
        return {"kind": "constant", "red": fmt(self.red), "black": fmt(self.black)}

    def parameter_values(self):
        out = []
        for v in (self.red, self.black):
            out.extend(v if isinstance(v, (tuple, list)) else (v,))
        return tuple(out)


class TabulatedDelta(DeltaSchedule):
    """Explicit per-step tables; row t-1 holds the per-node masses for step t."""

    def __init__(self, red_rows: Sequence[Sequence], black_rows: Sequence[Sequence]):
        if len(red_rows) != len(black_rows):
            raise SizeMismatch("red and black tables differ in step count")
        self.red_rows = [tuple(r) for r in red_rows]
        self.black_rows = [tuple(r) for r in black_rows]
        for rows in (self.red_rows, self.black_rows):
            for row in rows:
                if any(x < 0 for x in row):
                    raise InvalidParameter("reinforcement masses must be >= 0")
        self._floats = [
            (np.array([_finite_float(x) for x in r]), np.array([_finite_float(x) for x in b]))
            for r, b in zip(self.red_rows, self.black_rows)
        ]

    def red_mass(self, i, t, state=None, net=None):
        return self.red_rows[t - 1][i]

    def black_mass(self, i, t, state=None, net=None):
        return self.black_rows[t - 1][i]

    def masses(self, t, u, s):
        return self._floats[t - 1]

    def check_size(self, node_count, steps):
        if len(self.red_rows) < steps:
            raise SizeMismatch(f"schedule has {len(self.red_rows)} steps, need {steps}")
        for row in self.red_rows + self.black_rows:
            if len(row) != node_count:
                raise SizeMismatch(
                    f"schedule has masses for {len(row)} nodes, network has {node_count}")

    def describe(self):
        return {
            "kind": "tabulated",
            "red": [[str(x) for x in row] for row in self.red_rows],
            "black": [[str(x) for x in row] for row in self.black_rows],
        }

    def parameter_values(self):
        return tuple(x for rows in (self.red_rows, self.black_rows)
                     for row in rows for x in row)


class CuringDelta(DeltaSchedule):
    """Black mass tied to the balance threshold of the current state.

    Adds ``multiplier`` times the curing bound (see :func:`curing_delta_bound`)
    of black mass per black draw; multiplier 1 balances the expected added
    red mass against the expected urn growth, larger multipliers push each
    node's urn proportion down, smaller ones let it rise.
    """

    def __init__(self, delta_red, multiplier=1):
        if delta_red < 0 or multiplier < 0:
            raise InvalidParameter("delta_red and multiplier must be >= 0")
        self.delta_red = delta_red
        self.multiplier = multiplier
        self._floats = (_finite_float(delta_red), _finite_float(multiplier))

    def red_mass(self, i, t, state=None, net=None):
        return self.delta_red

    def black_mass(self, i, t, state=None, net=None):
        if state is None or net is None:
            raise InvalidParameter("curing schedule needs the current state and network")
        return self.multiplier * curing_delta_bound(state, net, i, self.delta_red)

    def masses(self, t, u, s):
        dr, mult = self._floats
        return dr, mult * dr * (1.0 - u) * s / (u * (1.0 - s))

    def describe(self):
        return {
            "kind": "curing",
            "red": str(self.delta_red),
            "multiplier": str(self.multiplier),
        }

    def parameter_values(self):
        return (self.delta_red, self.multiplier)


@dataclass
class NetworkState:
    """Urn masses after ``time`` completed draw steps.

    ``red_mass[i] / total_mass[i]`` is node i's individual urn proportion.
    With finite memory M, ``window`` keeps the last M steps' (red, total)
    gains, tuples shared by copies, to expire them; base masses (the initial
    urns) never expire and are kept separately for window-based recomputation.
    """

    time: int
    red_mass: list
    total_mass: list
    base_red: tuple
    base_total: tuple
    memory: int | None = None
    window: deque = field(default_factory=deque)

    @property
    def node_count(self) -> int:
        return len(self.red_mass)

    def copy(self) -> "NetworkState":
        return replace(self, red_mass=list(self.red_mass),
                       total_mass=list(self.total_mass), window=deque(self.window))

    def urn_proportion(self, i: int):
        return self.red_mass[i] / self.total_mass[i]

    def urn_proportions(self) -> list:
        return [r / x for r, x in zip(self.red_mass, self.total_mass)]

    def snapshot(self) -> dict:
        """JSON-ready summary of the state."""
        return {
            "time": self.time,
            "red_mass": [str(v) for v in self.red_mass],
            "total_mass": [str(v) for v in self.total_mass],
            "memory": self.memory,
        }


def initial_state(net: Network, init: UrnInit, memory: int | None = None) -> NetworkState:
    if init.node_count != net.node_count:
        raise SizeMismatch(
            f"urn init has {init.node_count} nodes, network has {net.node_count}"
        )
    if memory is not None and memory < 1:
        raise InvalidParameter(f"finite memory must be >= 1, got {memory}")
    return NetworkState(
        time=0,
        red_mass=list(init.red),
        total_mass=list(init.totals),
        base_red=tuple(init.red),
        base_total=init.totals,
        memory=memory,
    )


def super_urn_proportion(state: NetworkState, net: Network, i: int):
    """Red fraction of node i's super urn (pooled closed neighborhood)."""
    nbrs = net.closed_neighbors[i]
    red = sum(state.red_mass[j] for j in nbrs)
    total = sum(state.total_mass[j] for j in nbrs)
    return red / total


def conditional_draw_probabilities(state: NetworkState, net: Network) -> list:
    """P(next draw is red | full history), one entry per node."""
    return [super_urn_proportion(state, net, i) for i in range(net.node_count)]


def step_masses(state: NetworkState, net: Network, sched: DeltaSchedule) -> tuple:
    """(red, black): per-node lists of the masses that the step after
    ``state`` adds on a red and on a black draw."""
    t = state.time + 1
    nodes = range(net.node_count)
    return ([sched.red_mass(i, t, state, net) for i in nodes],
            [sched.black_mass(i, t, state, net) for i in nodes])


def apply_draws(state: NetworkState, net: Network, draws: Sequence[int],
                sched: DeltaSchedule, masses: tuple | None = None) -> NetworkState:
    """Advance one step deterministically given the draw outcomes.

    Node i gains its red mass for the step if draws[i] is 1, else its black
    mass.  In finite-memory mode a full window's oldest gains, those of M
    steps ago, are expired first, so the returned state's masses cover only
    the trailing window.  ``masses`` is :func:`step_masses` of ``state``,
    passed in by callers that advance one state by many draw combinations.
    """
    if len(draws) != net.node_count:
        raise SizeMismatch(f"need {net.node_count} draws, got {len(draws)}")
    red, black = step_masses(state, net, sched) if masses is None else masses
    gains = (tuple([r if d else 0 for r, d in zip(red, draws)]),
             tuple([r if d else b for r, b, d in zip(red, black, draws)]))
    red_mass, total_mass = state.red_mass, state.total_mass
    window = deque(state.window)
    if state.memory is not None:
        if len(window) == state.memory:
            old_red, old_total = window.popleft()
            red_mass = [m - g for m, g in zip(red_mass, old_red)]
            total_mass = [m - g for m, g in zip(total_mass, old_total)]
        window.append(gains)
    return NetworkState(state.time + 1, [m + g for m, g in zip(red_mass, gains[0])],
                        [m + g for m, g in zip(total_mass, gains[1])],
                        state.base_red, state.base_total, state.memory, window)


def sample_step(state: NetworkState, net: Network, sched: DeltaSchedule, rng):
    """Draw one step: independent Bernoulli(super-urn proportion) per node.

    Consumes exactly ``node_count`` uniforms from ``rng`` in node order, so
    trajectories are reproducible from the generator stream.
    """
    probs = conditional_draw_probabilities(state, net)
    u = rng.random(net.node_count)
    draws = tuple(1 if u[i] < probs[i] else 0 for i in range(net.node_count))
    return draws, apply_draws(state, net, draws, sched)


@dataclass(frozen=True)
class DrawRecord:
    """Time-indexed draw outcomes; ``steps[t-1][i]`` is node i's draw at time t."""

    steps: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def node_sequence(self, i: int) -> tuple[int, ...]:
        return tuple(step[i] for step in self.steps)


def simulate_path(net: Network, init: UrnInit, sched: DeltaSchedule, horizon: int,
                  rng, memory: int | None = None):
    """Reference scalar sampler: returns (DrawRecord, final NetworkState)."""
    state = initial_state(net, init, memory=memory)
    sched.check_size(net.node_count, horizon)
    steps = []
    for _ in range(horizon):
        draws, state = sample_step(state, net, sched, rng)
        steps.append(draws)
    return DrawRecord(steps=tuple(steps)), state


def record_float_faults(faults: list) -> np.errstate:
    """An ``np.errstate`` under which every float range fault (an overflow,
    a NaN, a division by zero) appends its kind to ``faults`` instead of
    warning: a batch whose masses left the float range is meaningless from
    that step on."""
    return np.errstate(over="call", invalid="call", divide="call",
                       call=lambda kind, flag: faults.append(kind))


# UrnBatch pools the neighbourhoods of larger networks by CSR sums
DENSE_POOLING_MAX_NODES = 32


def import_pooling(net: Network) -> None:
    """Import what :class:`UrnBatch` needs to pool ``net``: ``scipy.sparse``
    above ``DENSE_POOLING_MAX_NODES`` nodes, nothing otherwise.  A process
    pool calls this before it forks, so that no worker imports it again."""
    if net.node_count > DENSE_POOLING_MAX_NODES:
        import scipy.sparse  # noqa: F401


class UrnBatch:
    """Float64 urn masses of many copies of the process: ``red`` and
    ``total`` (rows x N) are the two planes of one (2, rows, N) array, as are
    each step's gains.  With finite memory M a ring keeps the last M steps'
    gains so they can be expired, as in :func:`apply_draws`.

    Networks of at most ``DENSE_POOLING_MAX_NODES`` (32) nodes pool
    neighbourhoods by dense BLAS products, larger ones by CSR sums.  The
    split is part of the output bits: the two sum a neighbourhood in
    different orders, and their results differ in the last bit for some
    networks of 20 nodes and more.
    """

    def __init__(self, net: Network, init: UrnInit, rows: int, memory: int | None = None):
        start = initial_state(net, init, memory=memory)
        n = net.node_count
        first = np.array([start.red_mass, start.total_mass], dtype=float)
        self._set_masses(np.repeat(first[:, None, :], rows, axis=1))
        self.memory = memory
        # slot (t-1) % M holds step t's gains, planes ordered as _masses'
        self._ring = None if memory is None else np.zeros((memory, 2, rows, n))
        # dense neighborhood sums beat CSR on small networks
        if n <= DENSE_POOLING_MAX_NODES:
            self._dense, self._csr = net.closed_adjacency, None
        else:
            from scipy.sparse import csr_matrix

            # from the sorted neighbourhoods, never from N x N dense arrays
            nbrs = net.closed_neighbors
            indptr = np.cumsum([0, *map(len, nbrs)])
            self._dense, self._csr = None, csr_matrix(
                (np.ones(indptr[-1]), np.concatenate(nbrs), indptr), shape=(n, n))

    def _set_masses(self, masses: np.ndarray) -> None:
        self._masses = masses
        self.red, self.total = masses
        self._u = masses[0] / masses[1]

    def proportions(self) -> np.ndarray:
        """``red / total``, kept up to date by :meth:`step`; read-only."""
        return self._u

    def super_urn(self) -> np.ndarray:
        """Red fraction of every node's super urn, per row."""
        if self._csr is None:
            # one product per plane: a stacked product moves rows across the
            # BLAS kernels' row tails, which changes last bits
            return (self.red @ self._dense) / (self.total @ self._dense)
        # the closed adjacency is symmetric, so csr @ m.T sums every
        # neighbourhood in the same ascending order as m @ csr, without the
        # transposed copy of csr that scipy builds for m @ csr
        rows = self.red.shape[0]
        both = (self._csr @ self._masses.reshape(2 * rows, -1).T).T
        return both[:rows] / both[rows:]

    def pooled_totals_finite(self) -> bool:
        """Whether every super urn's total mass, a closed-neighbourhood sum
        of ``total``, is a finite float; a node's own urn is in its sum, so
        an infinite or NaN urn fails too."""
        pooled = self.total @ self._dense if self._csr is None else self._csr @ self.total.T
        return bool(np.isfinite(pooled).all())

    def tile(self, reps: int) -> None:
        """Repeat the rows ``reps`` times: row c * rows + r copies row r."""
        self._set_masses(np.tile(self._masses, (1, reps, 1)))
        if self._ring is not None:
            self._ring = np.tile(self._ring, (1, 1, reps, 1))

    def step(self, t: int, z: np.ndarray, s: np.ndarray, sched: DeltaSchedule) -> None:
        """Apply step t's draws ``z`` (0/1 floats, rows x N) drawn at
        super-urn proportions ``s``: expire step t-M's gains, then add the
        gains ``z*dr`` (red) and ``(1-z)*db + z*dr`` (total).  The draw mask
        selects finite masses exactly; the curing mass is infinite only
        where s == 1 or the urn proportion is 0."""
        dr, db = sched.masses(t, self._u, s)
        if self._ring is None:
            gains = np.empty_like(self._masses)  # not kept: less peak memory
        else:
            gains = self._ring[(t - 1) % self.memory]
            if t > self.memory:
                self._masses -= gains
        np.multiply(z, dr, out=gains[0])
        np.multiply(1.0 - z, db, out=gains[1])
        gains[1] += gains[0]
        self._masses += gains
        np.divide(self.red, self.total, out=self._u)


def finite_memory_conditional(state: NetworkState, net: Network, i: int):
    """P(next draw red) for a finite-memory state, recomputed from the window.

    Independent of the incrementally maintained masses: starts from the base
    (initial) neighborhood masses and adds only the window's red and total
    gains, so it depends on nothing but the last M draws.  While the window
    is not yet full (time <= M) this coincides with the full-history value.
    """
    if state.memory is None:
        raise InvalidParameter("state has infinite memory; use super_urn_proportion")
    nbrs = net.closed_neighbors[i]
    red = sum(state.base_red[j] for j in nbrs)
    total = sum(state.base_total[j] for j in nbrs)
    for red_gain, total_gain in state.window:
        for j in nbrs:
            red = red + red_gain[j]
            total = total + total_gain[j]
    return red / total


def expected_urn_increment(state: NetworkState, net: Network, i: int, delta):
    """One-step conditional drift of node i's urn proportion.

    Valid only under equal urn totals and a constant equal red/black
    reinforcement mass ``delta``; the drift is then
    delta * sum_{j ~ i} (U_j - U_i) / ((X + delta) * (deg_i + 1)),
    which vanishes exactly when node i's neighbors average to its own
    proportion (and hence for every node of a network where all proportions
    agree).
    """
    totals = state.total_mass
    if any(x != totals[0] for x in totals):
        raise HypothesisViolation(
            "equal urn totals across nodes are required for the drift formula"
        )
    if delta < 0:
        raise InvalidParameter("delta must be >= 0")
    u = state.urn_proportions()
    diff_sum = sum(u[j] - u[i] for j in net.neighbors[i])
    denom = (totals[i] + delta) * (net.degrees[i] + 1)
    return delta * diff_sum / denom


def curing_delta_bound(state: NetworkState, net: Network, i: int, delta_red):
    """Black-mass threshold delta_red * (1 - U_i) * S_i / (U_i * (1 - S_i)).

    Adding exactly this much black mass per black draw makes the one-step
    ratio of conditional expectations E[red mass] / E[total mass] equal the
    current proportion U_i; the conditional expectation of the proportion
    itself crosses U_i at this threshold only when U_i = S_i, and in the
    limit of urn totals large against the added masses.  E[U'] is strictly
    decreasing in the black mass, and zero black mass always gives a
    nonnegative drift.
    """
    u = state.urn_proportion(i)
    s = super_urn_proportion(state, net, i)
    return delta_red * (1 - u) * s / (u * (1 - s))


def network_susceptibility(state: NetworkState):
    """Average individual urn proportion over all nodes."""
    u = state.urn_proportions()
    return sum(u) / len(u)
