"""Urn state machine for the network contagion process.

Each node holds an urn of red (infection) and black (health) mass.  A node
draws from its *super urn*, the pooled contents of its closed neighborhood,
and the drawn color's reinforcement mass is added to the node's own urn.
All mass arithmetic is type-agnostic: exact ``Fraction`` inputs stay exact,
floats stay floats.  States are values (copy, never mutate in place).

:class:`UrnBatch` holds many copies of the process at once (Monte Carlo
trials, enumerated histories), in float64 or, for exact tables, in
``Fraction`` objects pooled by closed-neighbourhood sums.  Both engines
take a step's masses from ``DeltaSchedule.masses``, add gains as (red,
total), like the urns, and with finite memory M expire step t-M's gains
before adding step t's: a state keeps the gains of its window, a batch
keeps each step's draws, a byte each, and masses, and makes their gains
again by the arithmetic that added them.  So the same draws give equal
``Fraction``s, and the same float bits wherever the super-urn
proportions agree: always under CSR pooling, while dense BLAS pooling
may round them otherwise.
Under equal, time-constant red and black masses every copy's urn totals
are the same, so a float batch of more than 32 nodes keeps them as one
shared row after its red rows, pooled beside them and added and expired
with them; a batch of at most 32 nodes keeps a total plane, for its
BLAS products' bits and its speed on narrow rows; either gains the equal
mass itself.  Such a shared-row batch whose urns and masses are
integers, and whose pooled totals stay below 2^24 up to its horizon,
holds its masses in float32: its sums are exact and its divides
float64, so it keeps the float64 batch's bits.  A batch divides out its
urn proportions only when they are read (:meth:`UrnBatch.proportions`).
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (DomainError, HypothesisViolation, InvalidParameter, SizeMismatch,
                     check_int, check_real, to_float)
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
            check_real(r, f"node {i}'s initial red mass", 0, brackets="()")
            check_real(b, f"node {i}'s initial black mass", 0, brackets="()")
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
    n = check_real(check_int(n, "n"), "n", 1, sys.maxsize)  # a tuple's limit
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

    ``masses(t, u, s)``, the one mass rule of :func:`apply_draws` and
    :class:`UrnBatch`, gives the nonnegative (red, black) masses added at
    step t >= 1 on a red and on a black draw, broadcastable to the (rows, N)
    or (N,) urn proportions ``u`` and super-urn proportions ``s`` before the
    step.  ``u``'s dtype picks the arithmetic (:meth:`_params`), so float
    masses are bit-equal in both engines whenever ``s`` is; on dense-pooled
    networks they differ only through ``s``.  A schedule that is zero
    everywhere degenerates into sampling with replacement and is rejected
    where detectable.
    """

    def masses(self, t: int, u: np.ndarray, s: np.ndarray):
        raise NotImplementedError

    def _params(self, u: np.ndarray):
        """The schedule's values, in one layout: as given for exact (object)
        proportions ``u``, so exact tables stay exact, else as floats."""
        return self._given if u.dtype == object else self._floats

    @property
    def equal_masses(self):
        """The float masses (a scalar or one per node) when every node's red
        and black masses are equal, as given, and constant in time, else
        ``None``."""
        return None

    @property
    def reads_proportions(self) -> bool:
        """Whether ``masses`` reads the values of ``u``, not only its dtype."""
        return False

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
        for x in self.parameter_values():
            check_real(x, "a reinforcement mass", 0)
        self._given = (self.red, self.black)
        self._floats = tuple(
            np.array([_finite_float(x) for x in v]) if isinstance(v, (tuple, list))
            else _finite_float(v)
            for v in self._given
        )

    def masses(self, t, u, s):
        return self._params(u)

    @cached_property
    def equal_masses(self):
        red, black = (np.asarray(v, dtype=object) for v in self._given)
        if np.any(red != black):  # as given: exact masses may round to equal floats
            return None
        red, black = self._floats
        return red if np.ndim(red) else black

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
        for x in self.parameter_values():
            check_real(x, "a reinforcement mass", 0)
        self._given = list(zip(self.red_rows, self.black_rows))
        self._floats = [
            (np.array([_finite_float(x) for x in r]), np.array([_finite_float(x) for x in b]))
            for r, b in self._given
        ]

    def masses(self, t, u, s):
        return self._params(u)[t - 1]

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
        self.delta_red = check_real(delta_red, "delta_red", 0)
        self.multiplier = check_real(multiplier, "multiplier", 0)
        self._given = (delta_red, multiplier)
        self._floats = (_finite_float(delta_red), _finite_float(multiplier))

    def masses(self, t, u, s):
        dr, mult = self._params(u)
        return dr, _curing_mass(dr, u, s, mult)

    reads_proportions = True

    def describe(self):
        return {
            "kind": "curing",
            "red": str(self.delta_red),
            "multiplier": str(self.multiplier),
        }

    def parameter_values(self):
        return (self.delta_red, self.multiplier)


def _curing_mass(delta_red, u, s, multiplier=1):
    """``multiplier`` times the curing bound of urn proportions ``u`` and
    super-urn proportions ``s``: scalars or arrays, exact or float.  It is
    infinite where s == 1 or u == 0: numpy flags that, scalar arithmetic
    raises ``DomainError``."""
    try:
        return multiplier * delta_red * (1 - u) * s / (u * (1 - s))
    except ZeroDivisionError:
        raise DomainError("the curing mass is infinite where a super-urn proportion "
                          "is 1 or an urn proportion 0") from None


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
        i = check_node(i, self.node_count)
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
    if memory is not None:
        memory = check_int(memory, "memory", minimum=1)
    return NetworkState(
        time=0,
        red_mass=list(init.red),
        total_mass=list(init.totals),
        base_red=tuple(init.red),
        base_total=init.totals,
        memory=memory,
    )


def check_node(i, node_count: int, name: str = "node") -> int:
    """``i`` as an int; ``InvalidParameter`` unless it is an integer node
    index below ``node_count``."""
    return check_real(check_int(i, name), name, 0, node_count, "[)")


def super_urn_proportion(state: NetworkState, net: Network, i: int):
    """Red fraction of node i's super urn (pooled closed neighborhood)."""
    nbrs = net.closed_neighbors[check_node(i, net.node_count)]
    red = sum(state.red_mass[j] for j in nbrs)
    total = sum(state.total_mass[j] for j in nbrs)
    return red / total


def conditional_draw_probabilities(state: NetworkState, net: Network) -> list:
    """P(next draw is red | full history), one entry per node."""
    return [super_urn_proportion(state, net, i) for i in range(net.node_count)]


def step_masses(state: NetworkState, net: Network, sched: DeltaSchedule,
                s: Sequence | None = None) -> tuple:
    """(red, black): per-node lists of the masses that the step after
    ``state`` adds on a red and on a black draw, from ``sched.masses`` of its
    urn and super-urn proportions (``s``, if pooled already); a proportion
    outside [0, 1] (NaN, once float masses overflowed) or masses outside the
    float range (a curing mass where s rounds to 1) raise ``DomainError``."""
    u = np.array(state.urn_proportions())
    s = np.array(conditional_draw_probabilities(state, net) if s is None
                 else [check_real(x, "a super-urn proportion", 0, 1, error=DomainError)
                       for x in s])
    t = state.time + 1
    with float_range(f"reinforcement masses left the float range at step {t}"):
        masses = sched.masses(t, u, s)
    return tuple(np.broadcast_to(np.asarray(m, dtype=u.dtype), u.shape).tolist()
                 for m in masses)


def apply_draws(state: NetworkState, net: Network, draws: Sequence[int],
                sched: DeltaSchedule, masses: tuple | None = None) -> NetworkState:
    """Advance one step deterministically given the draw outcomes.

    Node i gains its red mass for the step if draws[i] is 1, else its black
    mass.  In finite-memory mode a full window's oldest gains, those of M
    steps ago, are expired first, so the returned state's masses cover only
    the trailing window.  ``masses`` is :func:`step_masses` of ``state``,
    passed in by callers that have pooled the super urns already.
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
    return draws, apply_draws(state, net, draws, sched, step_masses(state, net, sched, probs))


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
    from .exact import check_cell_budget  # exact imports this module

    horizon = check_int(horizon, "horizon", minimum=0)
    check_cell_budget(net.node_count, horizon, "a path")
    state = initial_state(net, init, memory=memory)
    sched.check_size(net.node_count, horizon)
    steps = []
    for _ in range(horizon):
        draws, state = sample_step(state, net, sched, rng)
        steps.append(draws)
    return DrawRecord(steps=tuple(steps)), state


@contextlib.contextmanager
def float_range(message: str):
    """``DomainError(message)`` after the block if numpy flagged a float
    range fault (an overflow, a NaN, a division by zero) in it, which then
    does not warn: masses that left the float range are meaningless from
    that step on."""
    faults = []
    with np.errstate(over="call", invalid="call", divide="call",
                     call=lambda *fault: faults.append(fault)):
        yield
    if faults:
        raise DomainError(message)


# UrnBatch pools the neighbourhoods of float batches of up to this many
# nodes by dense BLAS products, of larger ones by CSR sums, which need
# scipy.sparse: the two step loops cross between 88 and 128 nodes on BA
# networks, and the cap takes in 100-node runs, which then import no scipy
# (the table is in CHANGES.md)
DENSE_POOLING_MAX_NODES = 100
# float batches of more nodes keep equal-mass urn totals as one shared row
TOTAL_PLANE_MAX_NODES = 32


def import_pooling(net: Network) -> None:
    """Import what :class:`UrnBatch` needs to pool ``net``: ``scipy.sparse``
    above ``DENSE_POOLING_MAX_NODES`` nodes, nothing otherwise (dense
    pooling is numpy's).  A process pool calls this before it forks, so
    that no worker imports it again."""
    if net.node_count > DENSE_POOLING_MAX_NODES:
        import scipy.sparse  # noqa: F401


def _pools_exactly(net: Network, first: np.ndarray, masses, horizon: int | None) -> bool:
    """Whether a float32 batch holds and pools ``first``, float64 red and
    total rows, and ``horizon`` steps' gains of the equal ``masses`` (a
    scalar or one per node) exactly: whether every one of these values is
    an integer and every closed-neighbourhood sum of the urn totals after
    ``horizon`` steps, the largest value the batch holds or pools, is below
    2^24.  Float32 holds every integer up to 2^24, so any sum of such
    values, in any order, equals the float64 sum.  Never for an unknown
    ``horizon``."""
    if horizon is None or horizon >= 1 << 24:
        return False
    masses = np.broadcast_to(masses, first.shape[1:])
    values = np.concatenate([first.ravel(), masses])
    # every value below 2^24 before any product, so that none overflows
    if not (np.all(values < 1 << 24) and np.all(values == np.floor(values))):
        return False
    last = first[1].astype(np.int64) + horizon * masses.astype(np.int64)
    return bool(np.add.reduceat(last[net.indices], net.indptr[:-1]).max() < 1 << 24)


class UrnBatch:
    """Urn masses of many copies of the process (rows x N ``red`` and
    ``total``): float64 (float32 where pooling is exact, below), or
    ``Fraction`` objects in an ``exact`` batch.
    The mass planes, (P, rows, N), hold ``red`` and, unless the total is a
    shared row (below), ``total``; each step's gains have the same planes.
    With finite memory M a ring keeps the last M steps' draws, a (M, rows,
    N) uint8 array, and the masses ``sched.masses`` gave each of them;
    step t-M's gains are made again from these, by the arithmetic that
    added them (:meth:`_fill_gains`), and expired, as in
    :func:`apply_draws`.  A memory of at least ``horizon``, the steps the
    batch will take, never expires a gain.

    An exact batch adds up each closed neighbourhood, as
    :func:`super_urn_proportion` does; float batches on at most
    ``DENSE_POOLING_MAX_NODES`` (100) nodes pool neighbourhoods by dense
    BLAS products, larger ones by CSR sums.  The split is part of the
    output bits: the two sum a neighbourhood in different orders, and their
    results differ in the last bit for some networks of 20 nodes and more.

    Given ``sched`` with ``equal_masses`` (red and black masses equal and
    constant), a step's total gain is those masses whatever was drawn, so
    every row's total is the same.  A float batch of more than
    ``TOTAL_PLANE_MAX_NODES`` (32) nodes then keeps ``total`` as one shared
    (N,) row, the last row of the red plane (``total`` is a read-only
    broadcast view of it): a step adds, and the ring expires, its gain with
    the red rows' gains.  CSR pooling pools the red rows and the row in one
    product, and a CSR sum adds a neighbourhood in the same order for one
    row as for many; dense pooling pools the row by an (N,) @ (N, N)
    product beside the red rows' (rows, N) one.  Batches of at most 32
    nodes keep the total plane: the row's broadcast divide is slower on
    narrow rows, and their bits stay those of a product per plane.

    A shared-row batch decides when it is built whether its pooling is
    exact (:func:`_pools_exactly`): whether its initial red and total
    masses and its equal masses are integers and every closed-neighbourhood
    sum of the totals after ``horizon`` steps is below 2^24.  It then holds
    its planes and gains in float32 and pools them with a float32
    copy of the closed adjacency, or of the CSR matrix above the
    dense-pooling cap.  Float32 holds every integer up to 2^24, so each sum
    is the float64 sum, in any order and BLAS kernel; finite memory only
    subtracts integers; and every divide (:meth:`super_urn`,
    :meth:`proportions`) is float64, so the batch has the float64 batch's
    bits.  Exact pooling is therefore not an output-bit rule: for integer
    urns and masses, float32 and float64, dense and CSR pooling give the
    same bits on any CPU.  Every other batch (at most 32 nodes, non-integer
    or unequal masses, curing and tabulated schedules, no ``horizon``, and
    enumeration's, built without a schedule) stays float64.
    """

    def __init__(self, net: Network, init: UrnInit, rows: int, memory: int | None = None,
                 sched: DeltaSchedule | None = None, exact: bool = False,
                 horizon: int | None = None):
        start = initial_state(net, init, memory=memory)
        memory = start.memory
        if horizon is not None and memory is not None and memory >= horizon:
            memory = None  # a run of ``horizon`` steps never expires a gain
        n = net.node_count
        rows = check_int(rows, "rows", minimum=1)
        # the red and total planes' bytes, and a ring of a byte a draw, and
        # of a float64 black mass a draw where a step's masses are per row
        per_row = sched is not None and sched.reads_proportions
        if rows * n * (16 + (memory or 0) * (9 if per_row else 1)) > sys.maxsize:
            raise InvalidParameter(f"{rows} rows of {n} nodes and a ring of {memory or 0} "
                                   "steps of them are more than an array holds")
        self._segments = self._dense = self._csr = None
        if exact:  # each closed neighbourhood is a CSR segment, summed
            self._segments = (net.indices, net.indptr[:-1])
        elif n <= DENSE_POOLING_MAX_NODES:  # BLAS products, no scipy
            self._dense = net.closed_adjacency
        else:
            from scipy.sparse import csr_matrix

            # the network's own neighbourhood arrays, never N x N dense ones
            self._csr = csr_matrix(
                (np.ones(len(net.indices)), net.indices, net.indptr), shape=(n, n))
        masses = [start.red_mass, start.total_mass]
        if not exact:  # an exact mass past the float range is a DomainError
            masses = [[to_float(m, "an initial urn mass") for m in row] for row in masses]
        first = np.array(masses, dtype=object if exact else float)
        self._ratio = first.dtype  # the urn and super-urn proportions' dtype
        self._shared = (not exact and n > TOTAL_PLANE_MAX_NODES and sched is not None
                        and sched.equal_masses is not None)
        if self._shared and _pools_exactly(net, first, sched.equal_masses, horizon):
            first = first.astype(np.float32)
            self._dense, self._csr = (a if a is None else a.astype(np.float32)
                                      for a in (self._dense, self._csr))
        planes = np.repeat(first[:, None, :], rows, axis=1)
        if self._shared:  # the red rows, then the one total row
            planes = np.concatenate([planes[:1], first[None, 1:]], axis=1)
        self.memory = memory
        self._set_planes(planes)
        # slot (t-1) % M of _draws and of _masses holds step t's draws, a byte
        # each, and the masses that sched.masses gave it; _masses grows to M
        # slots over the first M steps
        self._draws = None if memory is None else np.zeros((memory, rows, n), np.uint8)
        self._masses = []

    def _set_planes(self, planes: np.ndarray) -> None:
        self._planes = planes
        self._gains = gains = np.zeros_like(planes)  # each step's, written over the last
        if self._shared:
            self.red, row = planes[0, :-1], planes[0, -1]
            self.total = np.broadcast_to(row, self.red.shape)
            self._gained = gains[0, :-1], gains[0, -1]  # red rows' gains, the row's
        else:
            self.red, self.total = planes
            self._gained = tuple(gains)
        self._u = None  # red / total, made by the first read
        self._fresh = False  # whether _u holds red / total

    def proportions(self) -> np.ndarray:
        """``red / total``, divided out on the first read after a
        :meth:`step` or :meth:`take` into one array; read-only."""
        if not self._fresh:
            self._u = np.divide(self.red, self.total, out=self._u, dtype=self._ratio)
            self._fresh = True
        return self._u

    def super_urn(self, out: np.ndarray | None = None) -> np.ndarray:
        """Red fraction of every node's super urn, per row: into ``out``, a
        C-contiguous (rows, N) array, if given, else a new array."""
        if self._segments is not None:
            indices, starts = self._segments
            red, total = np.add.reduceat(self._planes[..., indices], starts, axis=-1)
            return np.divide(red, total, out=out)
        if self._csr is None:
            # one product per plane (or shared row): a stacked product moves
            # rows across the BLAS kernels' row tails, which changes last bits
            return np.divide(self.red @ self._dense, self._totals() @ self._dense, out=out,
                             dtype=self._ratio)
        # the closed adjacency is symmetric, so csr @ m.T sums every
        # neighbourhood in the same ascending order as m @ csr, without the
        # transposed copy of csr that scipy builds for m @ csr
        planes, rows = self._planes, self.red.shape[0]
        pooled = (self._csr @ planes.reshape(-1, planes.shape[-1]).T).T
        # a shared total row is the last pooled row, else the total rows
        return np.divide(pooled[:rows], pooled[rows] if self._shared else pooled[rows:],
                         out=out, dtype=self._ratio)

    def _totals(self) -> np.ndarray:
        """The urn totals as stored: the shared (N,) row, or the total plane."""
        return self._planes[0, -1] if self._shared else self.total

    def pooled_totals_finite(self) -> bool:
        """Whether every super urn's total mass, a closed-neighbourhood sum
        of ``total``, is a finite float; a node's own urn is in its sum, so
        an infinite or NaN urn fails too.  Float batches only."""
        totals = self._totals()
        pooled = totals @ self._dense if self._csr is None else self._csr @ totals.T
        return bool(np.isfinite(pooled).all())

    def take(self, rows: np.ndarray) -> None:
        """Keep the given rows, in that order (an index may repeat): row k
        becomes a copy of row ``rows[k]``; a shared total row stays one row."""
        count = self.red.shape[0]

        def pick(a):  # rows on a's second-to-last axis, copied in C order like a new batch's
            taken = np.take(a, rows, axis=-2)
            return np.concatenate([taken, a[..., count:, :]], axis=-2) if self._shared else taken

        self._set_planes(pick(self._planes))
        if self._draws is not None:
            self._draws = np.take(self._draws, rows, axis=-2)
            # a mass with a row axis (curing's black mass) follows its rows
            self._masses = [tuple(np.take(m, rows, axis=-2) if np.ndim(m) == 2 else m
                                  for m in masses) for masses in self._masses]

    def _fill_gains(self, z: np.ndarray, masses: tuple, sched: DeltaSchedule) -> None:
        """Write the gains of draws ``z`` (0/1, rows x N) at ``masses``, a
        step's ``sched.masses``, into ``_gains``, in its dtype: ``z*dr``
        (red) and ``(1-z)*db + z*dr`` (total).  ``z`` may be the gains' own
        red rows, which are read before they are written."""
        dr, db = masses
        red, total = self._gained
        product = not self._shared and sched.equal_masses is None
        if product:
            np.subtract(1, z, out=total, dtype=total.dtype)
        # in the gains' dtype: a float32 batch's masses are integers below 2^24
        np.multiply(z, dr, out=red, dtype=red.dtype)
        if product:
            total *= db
            total += red
        else:
            total[...] = db

    def step(self, t: int, z: np.ndarray, s: np.ndarray, sched: DeltaSchedule) -> None:
        """Apply step t's draws ``z`` (0/1, rows x N, in either float dtype;
        ints in an exact batch) drawn at super-urn proportions ``s``:
        expire step t-M's gains, then add the gains ``z*dr`` (red) and
        ``(1-z)*db + z*dr`` (total), no float entering an exact batch.
        The draw mask selects finite masses exactly; the curing mass is
        infinite only where s == 1 or the urn proportion is 0.  Under
        ``sched.equal_masses`` that total gain is ``db`` for a 0/1 ``z``,
        to the bit, so the totals (a plane, or a shared row, whose batch
        was built with ``sched``) gain ``db`` itself.  The urn proportions
        are divided out here only for a schedule that
        ``reads_proportions``.  With finite memory the ring keeps ``z`` and
        the masses, and step t-M's gains are made again from them by the
        same arithmetic (:meth:`_fill_gains`), so they are the gains that
        step added, to the bit."""
        u = self.proportions() if sched.reads_proportions else self.red  # else only its dtype
        masses = sched.masses(t, u, s)
        if self._draws is not None:
            slot = (t - 1) % self.memory
            if t > self.memory:
                old = self._gained[0]
                np.copyto(old, self._draws[slot])
                self._fill_gains(old, self._masses[slot], sched)
                self._planes -= self._gains
                self._masses[slot] = masses
            else:
                self._masses.append(masses)
            self._draws[slot] = z
        self._fill_gains(z, masses, sched)
        self._planes += self._gains
        self._fresh = False


def finite_memory_conditional(state: NetworkState, net: Network, i: int):
    """P(next draw red) for a finite-memory state, recomputed from the window.

    Independent of the incrementally maintained masses: starts from the base
    (initial) neighborhood masses and adds only the window's red and total
    gains, so it depends on nothing but the last M draws.  While the window
    is not yet full (time <= M) this coincides with the full-history value.
    """
    if state.memory is None:
        raise InvalidParameter("state has infinite memory; use super_urn_proportion")
    nbrs = net.closed_neighbors[check_node(i, net.node_count)]
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
    check_real(delta, "delta", 0)
    i = check_node(i, net.node_count)
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
    check_real(delta_red, "delta_red", 0)
    return _curing_mass(delta_red, state.urn_proportion(i),
                        super_urn_proportion(state, net, i))


def network_susceptibility(state: NetworkState):
    """Average individual urn proportion over all nodes."""
    u = state.urn_proportions()
    return sum(u) / len(u)
