"""Exact finite-horizon distributions of the contagion draw process.

Joint tables enumerate every draw assignment by one level-by-level
expansion on a :class:`contagion.UrnBatch`: in ``Fraction`` arithmetic, so
distribution identities can be asserted with ``==`` instead of
tolerances, or in float64 for larger spaces.  Its peak holds the table and
one level's urn states, a few float64 or ``Fraction`` objects a cell.  An
expansion that merges histories reaching the same urn state gives node
marginals without the float table, and a dynamic program provides node
marginals on complete networks far beyond the enumeration cap.  Classical
single-urn joints, divergence rates, and the limiting Beta density/CDF
live here as well.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import contagion, output
from .contagion import DeltaSchedule, UrnInit
from .errors import (
    ENUMERATION_CAP,
    CapExceeded,
    DomainError,
    InvalidParameter,
    SupportMismatch,
    check_cells,
    check_int,
    check_real,
    to_float,
)
from .graph import Network


@dataclass(frozen=True)
class PolyaParams:
    """Classical single-urn process parameters: initial red fraction and
    reinforcement mass normalized by the urn total."""

    rho: object
    delta: object

    def __post_init__(self):
        check_real(self.rho, "rho", 0, 1, "()")
        check_real(self.delta, "delta", 0)


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    def __post_init__(self):
        check_real(self.alpha, "alpha", 0, brackets="()")
        check_real(self.beta, "beta", 0, brackets="()")

    @classmethod
    def from_polya(cls, params: PolyaParams) -> "BetaParams":
        check_real(params.delta, "the limit distribution's delta", 0, brackets="()")
        return cls(
            alpha=to_float(params.rho / params.delta, "alpha"),
            beta=to_float((1 - params.rho) / params.delta, "beta"),
        )


def _check_cap(node_count: int, horizon: int, cap: int = ENUMERATION_CAP,
               error: type = CapExceeded) -> int:
    """The assignment bits, node_count * horizon; ``error`` past 2^cap."""
    # the cap bounds what is allocated, so it may be lowered but never raised
    if check_int(cap, "cap", minimum=0) > ENUMERATION_CAP:
        raise InvalidParameter(f"cap 2^{cap} is above the largest allowed, 2^{ENUMERATION_CAP}")
    bits = node_count * horizon
    if bits > cap:
        raise error(
            f"{node_count} nodes x {horizon} steps = 2^{bits} assignments "
            f"exceeds the cap of 2^{cap}"
        )
    return bits


def _check_assignment(assignment, node_count: int, horizon: int | None = None) -> int:
    """The horizon of ``assignment``; ``SupportMismatch`` unless it has
    ``node_count`` rows of one length (``horizon`` if given) of 0/1 draws."""
    if len(assignment) != node_count:
        raise SupportMismatch(f"assignment must cover {node_count} nodes, got {len(assignment)}")
    horizon = len(assignment[0]) if horizon is None else horizon
    for i, seq in enumerate(assignment):
        if len(seq) != horizon or any(a not in (0, 1) for a in seq):
            raise SupportMismatch(f"node {i} sequence must be {horizon} draws of 0 or 1")
    return horizon


@dataclass
class JointTable:
    """Probability of every draw assignment up to a fixed horizon.

    Assignments are encoded as integers with bit (t-1)*N + i holding node
    i's draw at time t.  ``probs`` is an ndarray indexed by that code, of
    ``Fraction`` objects in exact mode and float64 otherwise.  Marginals
    and event probabilities are axis sums over one view of it, an array with a
    length-2 axis per bit (axis (t-1)*N + i for node i at time t), in
    ``Fraction`` or float64 arithmetic as the table is.
    """

    node_count: int
    horizon: int
    probs: object
    exact: bool

    def __post_init__(self):
        self._bits = self.node_count * self.horizon

    def code_of(self, assignment: Sequence[Sequence[int]]) -> int:
        _check_assignment(assignment, self.node_count, self.horizon)
        return sum(1 << (t * self.node_count + i) for i, seq in enumerate(assignment)
                   for t, a in enumerate(seq) if a)

    def probability(self, assignment: Sequence[Sequence[int]]):
        return self.probs[self.code_of(assignment)]

    def total(self):
        if self.exact:
            return self._sum_out(self._cube())
        return float(np.sum(self.probs))

    def _cube(self) -> np.ndarray:
        """The table viewed with one length-2 axis per assignment bit, so
        that axis (t-1)*N + i is node i's draw at time t."""
        return self.probs.reshape((2,) * self._bits).T

    def _sum_out(self, view, axes=None):
        """``np.sum(view, axis=axes)`` (all axes by default), one axis at a
        time from the last, i.e. from the last draw backwards.  Exact tables
        need this order: siblings that share a history prefix share most of
        their denominator, so the partial sums stay small, while adding a
        curing table's Fractions in code order grows them without bound.
        Float tables gain from it too: every step adds pairs of partial
        sums, a tree with error ~ log2(cells) ulps, where one ``np.sum``
        over the strided many-axis view adds whole rows in sequence."""
        for a in sorted(range(np.ndim(view)) if axes is None else axes, reverse=True):
            view = view.sum(axis=a)
        return view

    def node_marginal(self, i: int, window: tuple[int, int] | None = None) -> dict:
        """Distribution of node i's draws over the window (1-indexed, inclusive),
        summing out all other coordinates.  Defaults to the full horizon.
        Keys are draw tuples, in the order of their assignment codes; the
        values are those of :meth:`node_marginal_probs`."""
        return _draw_dict(self.node_marginal_probs(i, window))

    def node_marginal_probs(self, i: int,
                            window: tuple[int, int] | None = None) -> np.ndarray:
        """``node_marginal`` as an array in code order: entry c is the
        probability of the draws whose bit t-lo is node i's draw at time t."""
        i = contagion.check_node(i, self.node_count)
        lo, hi = window if window is not None else (1, self.horizon)
        lo = check_int(lo, "window start", minimum=1)
        hi = check_real(check_int(hi, "window end"), "window end", lo, self.horizon)
        keep = {(t - 1) * self.node_count + i for t in range(lo, hi + 1)}
        m = self._sum_out(self._cube(),
                          tuple(a for a in range(self._bits) if a not in keep))
        return m.T.reshape(-1)

    def event_probability(self, fixed: Mapping[tuple[int, int], int]):
        """Probability that each (node, time) in ``fixed`` drew the given bit."""
        index = [slice(None)] * self._bits
        for (i, t), bit in fixed.items():
            i = contagion.check_node(i, self.node_count)
            check_real(check_int(t, "time"), "time", 1, self.horizon)
            if bit not in (0, 1):
                raise InvalidParameter(f"draw at (node={i}, time={t}) must be 0 or 1, got {bit}")
            index[(t - 1) * self.node_count + i] = int(bit)
        return self._sum_out(self._cube()[tuple(index)])

    def write_csv(self, target, header_lines: Sequence[str] = ()) -> None:
        """One row per assignment: a_i_t columns node-major, then the
        probability as p_num/p_den (exact) or a float column p.  ``target``
        is a path or a text stream.  The rows go out 2^12 codes at a time,
        the square root of the largest table, each bit column a shift of
        the block's codes.  An exact numerator or denominator with more
        digits than the interpreter converts to a string raises
        ``DomainError`` before anything is written."""
        if self.exact:
            self._check_str_digits()
        n, cols = self.node_count, [(i, t) for i in range(self.node_count)
                                    for t in range(self.horizon)]

        def blocks(size=1 << (ENUMERATION_CAP // 2)):
            for lo in range(0, self.probs.size, size):
                probs = self.probs[lo:lo + size]
                codes = np.arange(lo, lo + probs.size)
                yield [(codes >> (t * n + i)) & 1 for i, t in cols] + (
                    [[p.numerator for p in probs], [p.denominator for p in probs]]
                    if self.exact else [probs])

        output.write_rows(target, header_lines, [f"a_{i + 1}_{t + 1}" for i, t in cols]
                          + (["p_num", "p_den"] if self.exact else ["p"]), blocks())

    def _check_str_digits(self) -> None:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if not limit:
            return
        bound = 10 ** limit
        for code, p in enumerate(self.probs):
            frac = Fraction(p)
            if abs(frac.numerator) >= bound or frac.denominator >= bound:
                raise DomainError(
                    f"the exact probability of assignment code {code} has a numerator "
                    f"or denominator of more than {limit} digits, the interpreter's "
                    "int-to-string limit; write a float table instead")


def _draw_dict(probs) -> dict:
    """``probs``, a distribution over the 2^h draw sequences of one node
    in code order (bit t-1 of the code is the draw at time t), keyed by
    draw tuples."""
    horizon = len(probs).bit_length() - 1
    keys = (k[::-1] for k in itertools.product((0, 1), repeat=horizon))
    return dict(zip(keys, probs))


def joint_probability(net: Network, init: UrnInit, sched: DeltaSchedule,
                      assignment: Sequence[Sequence[int]],
                      memory: int | None = None):
    """Chain-rule probability of one full assignment (node-major sequences)."""
    n = _check_assignment(assignment, net.node_count)
    state = contagion.initial_state(net, init, memory=memory)
    sched.check_size(net.node_count, n)
    prob = Fraction(1) if _is_exact(init, sched) else 1.0
    for draws in zip(*assignment):
        s = contagion.conditional_draw_probabilities(state, net)
        for i, d in enumerate(draws):
            prob = prob * (s[i] if d else 1 - s[i])
        state = contagion.apply_draws(state, net, draws, sched)
    return prob


def _is_exact(init: UrnInit, sched: DeltaSchedule) -> bool:
    probe = [*init.red, *init.black, *sched.parameter_values()]
    return all(isinstance(v, (int, Fraction)) for v in probe)


def enumerate_joint(net: Network, init: UrnInit, sched: DeltaSchedule, horizon: int,
                    exact: bool = True, cap: int = ENUMERATION_CAP,
                    memory: int | None = None) -> JointTable:
    """Full assignment table at the given horizon.

    Exact mode requires rational inputs and gives ``Fraction``s with total
    mass exactly 1.  Both modes expand all histories level by level
    (:func:`_expand`) on one ``UrnBatch``, keeping the table and the urn
    states of the level before the last draw: a small multiple of the
    float64 table (128 MiB at the default cap), or a few ``Fraction``
    objects a cell (cycle4 at horizon 4, 2^16 cells, peaks near 12 MB).
    """
    horizon = check_int(horizon, "horizon", minimum=1)
    n = net.node_count
    _check_cap(n, horizon, cap)
    sched.check_size(n, horizon - 1)  # masses added after the last draw never count
    if exact and not _is_exact(init, sched):
        raise InvalidParameter("exact enumeration needs integer or Fraction urn masses "
                               "and reinforcements; pass exact=False for floats")
    batch = contagion.UrnBatch(net, init, 1, memory=memory, exact=exact, horizon=horizon)
    probs = np.array([Fraction(1) if exact else 1.0], dtype=batch.red.dtype)
    for t in range(1, horizon + 1):
        keep = np.arange(probs.size << n) if t < horizon else None
        probs = _expand(batch, probs, t, sched, keep)
    return JointTable(n, horizon, probs, exact=exact)


def _combo_products(prob, s):
    """prob * prod_i (s_i or 1-s_i) for every draw combo, built by doubling."""
    products = [prob]
    for si in s:
        fail = 1 - si
        products = [p * fail for p in products] + [p * si for p in products]
    return products


def _combo_bits(n: int) -> np.ndarray:
    """(2^n, n) int array: row c holds draw combo c, node i's draw in bit i."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def _expand(batch, probs, t, sched, keep=None):
    """Level t of an expansion, in the arithmetic of ``probs``' dtype and
    ``batch``.  Row r of ``batch`` is a history of t - 1 steps with
    probability ``probs[r]``; entry c * width + r of the result is the
    probability of history r extended by draw combo c.  Given ``keep``,
    indices of such entries, ``batch`` steps to those histories, in that
    order: each kept row is its history's row, taken, then stepped by its
    combo (a step acts row by row, so no other row is stepped)."""
    n = batch.red.shape[1]
    # networks under the enumeration cap pool by dense products, which raise
    # a float flag on overflow
    with contagion.float_range(f"urn masses left the float range by step {t}; use "
                               "smaller urn masses or reinforcements, or exact mode"):
        s = batch.super_urn()
        width = probs.shape[0]
        # the array form of _combo_products: row c holds combo c's products
        level = np.empty((1 << n, width), dtype=probs.dtype)
        level[0] = probs
        for i in range(n):
            half = level[:1 << i]
            np.multiply(half, s[:, i], out=level[1 << i:2 << i])
            half *= 1 - s[:, i]
        if keep is not None:
            combo, history = np.divmod(keep, width)
            batch.take(history)
            # np.take gathers rows faster than fancy indexing
            batch.step(t, np.take(_combo_bits(n).astype(probs.dtype), combo, axis=0),
                       np.take(s, history, axis=0), sched)
    return level.reshape(-1)


def float_node_marginal_probs(net: Network, init: UrnInit, sched: DeltaSchedule,
                              horizon: int, node: int) -> np.ndarray:
    """Node ``node``'s draw distribution as a (2^horizon,) float array in
    code order: ``enumerate_joint(..., exact=False).node_marginal_probs(node)``
    up to rounding, without the 2^(N * horizon) table, for a schedule with
    ``equal_masses``.

    Under such a schedule a step adds exactly delta_j or 0 to node j's red
    mass and exactly delta_j to its total, so after t steps the urn planes
    depend on a history only through each node's red-draw count: the chain
    is lumpable (Kemeny and Snell, *Finite Markov Chains*, 6.3), and
    histories with equal counts hold bit-identical planes.  The expansion
    keeps one row per distinct key, the node's draws so far plus every
    node's red count.  Each level extends every row by its 2^N draw combos
    (:func:`_expand`, as the float table does) and merges the rows of each
    key: their probabilities are added in row order (``np.bincount``), and
    only the first row is stepped and kept.  The last step extends only the
    node's own draw, since every other last draw is summed out.  A level
    has at most 2^t (t+1)^(N-1) rows, never more than the table's 2^(N t),
    and the cap refuses the same inputs as the table's.
    """
    horizon = check_int(horizon, "horizon", minimum=1)
    n = net.node_count
    _check_cap(n, horizon)
    node = contagion.check_node(node, n)
    sched.check_size(n, horizon - 1)
    if sched.equal_masses is None:
        raise InvalidParameter("merging histories by red counts needs equal, "
                               "time-constant red and black masses")
    batch = contagion.UrnBatch(net, init, 1)
    probs = np.ones(1)
    # per row: the node's draws so far (bit t-1: time t), every node's red count
    drawn = np.zeros(1, dtype=np.int64)
    reds = np.zeros((1, n), dtype=np.int64)
    for t in range(1, horizon):  # N <= 12 from here, as N * horizon <= 24
        combos = _combo_bits(n)
        # the keys of level t's rows, in _expand's order: the node's draws
        # in the low t bits, the red counts above them in radix t + 1
        drawn = ((combos[:, node, None] << (t - 1)) | drawn).reshape(-1)
        reds = (combos[:, None, :] + reds).reshape(-1, n)
        key = drawn + ((reds @ (t + 1) ** np.arange(n)) << t)
        _, first, merged = np.unique(key, return_index=True, return_inverse=True)
        probs = np.bincount(merged, weights=_expand(batch, probs, t, sched, first))
        drawn, reds = drawn[first], reds[first]
    with contagion.float_range(f"urn masses left the float range by step {horizon}; use "
                               "smaller urn masses or reinforcements, or exact mode"):
        s = batch.super_urn()[:, node]
    # the last draw is the top code bit: black codes, then red ones
    size = 1 << (horizon - 1)
    return np.concatenate((np.bincount(drawn, probs * (1.0 - s), minlength=size),
                           np.bincount(drawn, probs * s, minlength=size)))


def iter_histories(net: Network, init: UrnInit, sched: DeltaSchedule, steps: int,
                   memory: int | None = None):
    """Iterate (draw steps, probability, state) over every history of the
    given length; the arguments are checked before the first history."""
    steps = check_int(steps, "steps", minimum=0)
    _check_cap(net.node_count, steps)
    start = contagion.initial_state(net, init, memory=memory)
    sched.check_size(net.node_count, steps)
    one = Fraction(1) if _is_exact(init, sched) else 1.0
    return _iter_histories(net, sched, start, (), one, steps)


def _iter_histories(net, sched, state, prefix, prob, remaining):
    if remaining == 0:
        yield prefix, prob, state
        return
    n = net.node_count
    s = contagion.conditional_draw_probabilities(state, net)
    masses = contagion.step_masses(state, net, sched, s)  # shared by all 2^N children
    for combo, p in enumerate(_combo_products(prob, s)):
        draws = tuple((combo >> i) & 1 for i in range(n))
        child = contagion.apply_draws(state, net, draws, sched, masses)
        yield from _iter_histories(net, sched, child, prefix + (draws,), p, remaining - 1)


@dataclass(frozen=True)
class InfectionRate:
    value: object
    exact: bool
    trials: int | None = None


def average_infection_rate(net: Network, init: UrnInit, sched: DeltaSchedule, n: int,
                           mode: str = "exact", trials: int = 100_000, seed: int = 0,
                           memory: int | None = None) -> InfectionRate:
    """Average over nodes of P(draw at time n is red).

    ``mode='exact'`` enumerates and raises ``CapExceeded`` past the cap;
    ``mode='auto'`` falls back to a Monte Carlo estimate flagged as inexact.
    """
    n = check_int(n, "the draw time n", minimum=1)
    if mode not in ("exact", "auto"):
        raise InvalidParameter(f"mode must be 'exact' or 'auto', got {mode!r}")
    try:
        _check_cap(net.node_count, n - 1)
    except CapExceeded:
        if mode == "exact":
            raise
        from .montecarlo import RunConfig, run_trials

        cfg = RunConfig(net=net, init=init, sched=sched, horizon=n,
                        trials=trials, seed=seed, memory=memory)
        stats = run_trials(cfg)
        return InfectionRate(value=float(stats.infection_rate[n]), exact=False,
                             trials=trials)
    # P(Z_{i,n}=1) = E[S_{i,n-1}]: average the conditional over all histories
    # of length n-1.
    acc = [None] * net.node_count
    for _, prob, state in iter_histories(net, init, sched, n - 1, memory=memory):
        s = contagion.conditional_draw_probabilities(state, net)
        for i in range(net.node_count):
            term = prob * s[i]
            acc[i] = term if acc[i] is None else acc[i] + term
    value = sum(acc) / net.node_count
    return InfectionRate(value=value, exact=True)


# ----------------------------------------------------------------------
# Closed forms for complete networks
# ----------------------------------------------------------------------

def complete_marginal(rho):
    """P(any node's draw at any time is red) on a complete network."""
    return check_real(rho, "rho", 0, 1, "()")


def complete_n1_joint(rho, delta, node_count: int):
    """P(draws at times n and 1 are both red) on a complete network.

    Holds for every n >= 2 and for cross-node pairs as well:
    rho * (rho + (1 + (N-1) rho) delta / N) / (1 + delta).
    """
    PolyaParams(rho, delta)  # the rho and delta checks
    n = check_int(node_count, "node_count", minimum=1)
    return rho * (rho + (1 + (n - 1) * rho) * delta / n) / (1 + delta)


def nonstationarity_witness(rho, delta):
    """Consecutive-pair probabilities at times (2,1) and (3,2), 2-node case.

    Returns (P(Z_2=1, Z_1=1), P(Z_3=1, Z_2=1)); the two differ whenever
    delta > 0, witnessing that the network draw process is not stationary.
    """
    PolyaParams(rho, delta)  # the rho and delta checks
    p21 = rho * (rho + (1 + rho) * delta / 2) / (1 + delta)
    try:  # past the float range, a float power raises and a sum or product is inf
        den = 4 * (1 + delta) ** 2 * (1 + 2 * delta)  # above every term of p21
        p32 = rho * (
            4 * rho
            + delta * (2 + 14 * rho)
            + delta ** 2 * (6 + 14 * rho)
            + delta ** 3 * (5 + 3 * rho)
        ) / den
    except OverflowError:
        den = p32 = math.inf
    if den == math.inf or p32 == math.inf:
        raise DomainError(f"pair probabilities at delta {delta} leave the float range")
    return p21, p32


# ----------------------------------------------------------------------
# Classical single-urn process
# ----------------------------------------------------------------------

def classical_polya_joint(params: PolyaParams, draws: Sequence[int]):
    """Joint probability of a draw sequence under the classical urn process.

    Sequential-product form: at step t the red probability is
    (rho + delta * reds_so_far) / (1 + (t-1) * delta).  Exact for rational
    inputs; equals the Gamma-ratio closed form (see the _gamma variant).
    """
    rho, delta = params.rho, params.delta
    prob = Fraction(1) if isinstance(rho, (int, Fraction)) and isinstance(delta, (int, Fraction)) else 1.0
    if isinstance(prob, float):  # the largest denominator, the last step's, must be finite
        check_real(1 + (len(draws) - 1) * to_float(delta, "delta"),
                   f"the urn total after {len(draws) - 1} steps", error=DomainError)
    reds = 0
    for t, a in enumerate(draws, start=1):
        denom = 1 + (t - 1) * delta
        p_red = (rho + delta * reds) / denom
        prob = prob * (p_red if a else 1 - p_red)
        reds += 1 if a else 0
    return prob


def classical_polya_joint_gamma(params: PolyaParams, draws: Sequence[int]) -> float:
    """Gamma-ratio form of the classical joint, via log-gamma (needs delta > 0)."""
    rho, delta = float(params.rho), to_float(params.delta, "delta")
    check_real(delta, "the Gamma-ratio form's delta", 0, brackets="()", error=DomainError)
    n = _check_assignment([draws], 1)
    k = sum(draws)
    lg = math.lgamma
    try:  # a tiny delta takes lgamma past the float range
        log_q = (
            lg(1 / delta)
            + lg(rho / delta + k)
            + lg((1 - rho) / delta + n - k)
            - lg(1 / delta + n)
            - lg(rho / delta)
            - lg((1 - rho) / delta)
        )
    except OverflowError:
        raise DomainError(f"the Gamma-ratio form at delta {delta} is past the float "
                          "range") from None
    return math.exp(log_q)


def classical_polya_table(params: PolyaParams, n: int) -> dict:
    """Full joint over {0,1}^n as a dict keyed by draw tuples."""
    n = check_int(n, "n", minimum=0)
    _check_cap(1, n)
    out = {}
    for code in range(1 << n):
        draws = tuple((code >> (t - 1)) & 1 for t in range(1, n + 1))
        out[draws] = classical_polya_joint(params, draws)
    return out


def classical_count_log_probs(params: PolyaParams, n: int) -> np.ndarray:
    """log Q(a^n) for each red count 0..n (the joint depends only on the count);
    ``DomainError`` if a value is not finite in floats."""
    n = check_int(n, "n", minimum=0)
    check_cells(n + 1, f"the classical count log-probabilities over {n} steps need a table")
    return _count_log_prob_rows(float(params.rho), np.array([to_float(params.delta, "delta")]),
                                n)[0]


def _count_log_prob_rows(rho: float, deltas: np.ndarray, n: int) -> np.ndarray:
    """Row g is ``classical_count_log_probs`` at (rho, deltas[g]), with the
    same bits as that delta alone: every row is formed by the same
    elementwise operations, a cumulative sum along the row and a sum of
    the row.  The caller has checked rho and the deltas; a row that is not
    finite in floats, from a delta too large, is a ``DomainError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = deltas[:, None] * np.arange(n)
        # reds[g, k], blacks[g, k]: log-probability factors of the first k reds, blacks
        zero = np.zeros((len(deltas), 1))
        reds = np.concatenate((zero, np.cumsum(np.log(rho + d), axis=1)), axis=1)
        blacks = np.concatenate((zero, np.cumsum(np.log(1 - rho + d), axis=1)), axis=1)
        denom = np.sum(np.log(1 + d), axis=1, keepdims=True)
        rows = (reds + blacks[:, ::-1]) - denom
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise DomainError(f"the classical log-probabilities at delta {deltas[~finite][0]} "
                          f"over {n} steps are not finite in floats; use a smaller "
                          "reinforcement")
    return rows


def kl_rate(p: Mapping, q: Mapping, n: int) -> float:
    """Per-step Kullback-Leibler divergence (1/n) sum p log(p/q), natural log."""
    n = check_int(n, "n", minimum=1)
    total = 0.0
    for key, pv in p.items():
        pf = float(pv)
        if pf == 0.0:
            continue
        qv = q.get(key)
        if qv is None or float(qv) <= 0.0:
            raise SupportMismatch(f"q vanishes on {key} where p is positive")
        total += pf * (math.log(pf) - math.log(float(qv)))
    return total / n


# ----------------------------------------------------------------------
# Beta limit distribution
# ----------------------------------------------------------------------

def _log_beta_norm(params: BetaParams) -> float:
    """log(1 / B(alpha, beta)), the log of the Beta density's normaliser;
    ``DomainError`` if it is not finite in floats."""
    a, b = params.alpha, params.beta
    try:
        out = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    except OverflowError:
        out = math.nan
    if not math.isfinite(out):
        raise DomainError(f"the Beta normaliser at ({a}, {b}) leaves the float range")
    return out


def beta_pdf(params: BetaParams, x: float) -> float:
    check_real(x, "the pdf's x", 0, 1, "()", error=DomainError)
    a, b = params.alpha, params.beta
    return math.exp(_log_beta_norm(params) + (a - 1) * math.log(x) + (b - 1) * math.log(1 - x))


# the most continued-fraction steps beta_cdf takes for a value: the mode of
# Beta(a, a) takes 21 at a = 56.5, 536 at 1e6 and 4889 at 1e9
BETA_CF_MAX_STEPS = 5000
# a continued-fraction step whose factor is within this of 1 ends the value
_BETA_CF_TOL = 2 * np.finfo(float).eps
# denominators are kept at least this far from zero (the modified Lentz method)
_BETA_CF_TINY = 1e-300
# how far past [0, 1] a value may round before it is a DomainError: the
# prefactor's exp of a log near -700 costs a few hundred ulps, which can
# carry a value next to 1 past it (by 2.4e-14 at alpha = 1e-300)
_BETA_CDF_SLACK = 1e-12


def beta_cdf(params: BetaParams, x):
    """Regularized incomplete beta I_x(alpha, beta); accepts the closed
    interval [0, 1].

    ``x`` is a float, giving a float, or an array, giving an array; both go
    through one vectorised evaluation of the continued fraction for
    I_x(a, b) by the modified Lentz method (Press et al., *Numerical
    Recipes*, section 6.4), taken for I_{1-x}(b, a) where x > (a + 1) /
    (a + b + 2), so that it converges fast, and times its prefactor
    x^a (1-x)^b / B(a, b) (:func:`_log_beta_front`).  Below x = 1/2, where
    1 - x rounds, the mirrored side takes the fraction of I_{-z}(b, 1-a-b)
    over x instead, z = (1 - x) / x: by Pfaff's transformation, Cephes'
    ``incbd`` in z, whose complement x is exact.  A value outside
    [0, 1] (or NaN) is a ``DomainError``, and so is a continued fraction
    that has not converged within ``BETA_CF_MAX_STEPS`` steps, or a result
    more than ``_BETA_CDF_SLACK`` outside [0, 1]; a result within it is
    clipped to [0, 1]."""
    xs = np.asarray(x, dtype=np.float64)
    outside = ~((xs >= 0) & (xs <= 1))
    if outside.any():
        bad = x if xs.ndim == 0 else xs[outside][0]
        raise DomainError(f"cdf is defined on [0, 1], got {bad}")
    a, b = params.alpha, params.beta
    flat = xs.ravel()
    front = np.exp(_log_beta_front(params, flat))
    mirrored = flat > (a + 1) / (a + b + 2)
    low = mirrored & (flat < 0.5)
    cdf = np.zeros_like(flat)
    # the fraction's variable, from x; 1 - x is exact from 1/2 up
    for side, p, q, y in ((~mirrored, a, b, lambda x: x),
                          (mirrored & ~low, b, a, lambda x: 1 - x),
                          (low, b, 1 - a - b, lambda x: (x - 1) / x)):
        # where the prefactor x^a (1-x)^b / B(a, b) is 0, so is the fraction's term
        side = side & (front > 0)
        cdf[side] = front[side] * _beta_cf(p, q, y(flat[side])) / p
    cdf[low] /= flat[low]
    cdf[mirrored] = 1 - cdf[mirrored]
    cdf[flat == 1] = 1  # also where (a + 1) / (a + b + 2) rounds to 1
    if not ((cdf >= -_BETA_CDF_SLACK) & (cdf <= 1 + _BETA_CDF_SLACK)).all():
        raise DomainError(f"the Beta CDF at ({a}, {b}) is not resolved in floats")
    np.clip(cdf, 0, 1, out=cdf)
    return float(cdf[0]) if xs.ndim == 0 else cdf.reshape(xs.shape)


# from this size of alpha or beta up, the prefactor of beta_cdf is taken
# from Stirling's series: lgamma's large terms would cancel
_STIRLING_MIN = 10.0


def _log_beta_front(params: BetaParams, x: np.ndarray) -> np.ndarray:
    """log(x^a (1-x)^b / B(a, b)) at each ``x``, -inf at x = 0 or 1.

    Where a and b are both at least ``_STIRLING_MIN`` it is summed as
    a log(x/p) + b log((1-x)/q) + log(ab / (2 pi (a+b))) / 2 plus the
    tails of Stirling's series, with p = a / (a+b), q = 1 - p: the two
    logs, as log1p of (x - p) / p and (p - x) / q, are small near the
    mode, where lgamma(a+b) - lgamma(a) - lgamma(b) would lose about
    log2(a log a) bits.  Where only the larger one, c, is, lgamma(a+b) -
    lgamma(c), which would lose about log2(c log c) bits, is summed from
    the series as d log c + (a + b - 1/2) log1p(d / c) - d plus its tails,
    with d the smaller one."""
    a, b = params.alpha, params.beta
    small, big = sorted((a, b))
    with np.errstate(divide="ignore"):  # log(0) is -inf, whose exp is 0
        if big < _STIRLING_MIN:
            return _log_beta_norm(params) + a * np.log(x) + b * np.log1p(-x)
        if a + b == math.inf:
            raise DomainError(f"alpha + beta at ({a}, {b}) leaves the float range")
        if small < _STIRLING_MIN:
            log_norm = (small * math.log(big) + (a + b - 0.5) * math.log1p(small / big)
                        - small + _stirling_tail(a + b) - _stirling_tail(big)
                        - math.lgamma(small))
            return log_norm + a * np.log(x) + b * np.log1p(-x)
        p = a / (a + b)
        q = 1 - p
        return (a * np.log1p((x - p) / p) + b * np.log1p((p - x) / q)
                + 0.5 * math.log(p * b / (2 * math.pi))
                + _stirling_tail(a + b) - _stirling_tail(a) - _stirling_tail(b))


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) for z >= 10, by
    seven terms of Stirling's series (the next is below 1e-16 / z)."""
    w = 1 / (z * z)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w * (
        1 / 1188 + w * (-691 / 360360 + w / 156)))))) / z


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) at each ``x``, by the modified
    Lentz method; a value leaves the iteration once its step's factor is
    within ``_BETA_CF_TOL`` of 1."""
    def nonzero(v):
        return np.where(np.abs(v) < _BETA_CF_TINY, _BETA_CF_TINY, v)

    out = np.empty_like(x)
    left = np.arange(x.size)  # the values still iterating, as indices into out
    c = np.ones_like(x)
    d = 1 / nonzero(1 - (a + b) * x / (a + 1))
    h = d.copy()
    m = 0
    while left.size:
        m += 1
        if m > BETA_CF_MAX_STEPS:
            raise DomainError(f"the Beta CDF's continued fraction at ({a}, {b}) did not "
                              f"converge within {BETA_CF_MAX_STEPS} steps")
        # the even step, then the odd one, each numerator as bounded ratios
        for aa in (m / (a + 2 * m) * ((b - m) / (a + 2 * m - 1)) * x,
                   -(a + m) / (a + 2 * m) * ((a + b + m) / (a + 2 * m + 1)) * x):
            d = 1 / nonzero(1 + aa * d)
            c = nonzero(1 + aa / c)
            factor = d * c
            h *= factor
        done = np.abs(factor - 1) <= _BETA_CF_TOL
        out[left[done]] = h[done]
        keep = ~done
        left, x, c, d, h = left[keep], x[keep], c[keep], d[keep], h[keep]
    return out


# ----------------------------------------------------------------------
# Complete-network node marginal beyond the enumeration cap
# ----------------------------------------------------------------------

# the most nodes a count DP takes: binomial_pmf builds every C(N - 1, j)
# exactly, in time quadratic in N (see check_count_dp_cap)
COUNT_DP_MAX_NODES = 1 << 15


def check_count_dp_cap(node_count: int, horizon: int) -> None:
    """Raise ``CapExceeded`` when 2^horizon x (node_count * horizon + 1)
    float64 cells, the size of the one-node count table that
    ``complete_node_marginal`` would build if it expanded every step, exceed
    2^ENUMERATION_CAP cells, the budget of a float enumeration table.  The
    DP meets in the middle and never builds that table (see its docstring),
    but the cap keeps refusing the same inputs.

    Networks of more than ``COUNT_DP_MAX_NODES`` = 2^15 nodes are refused
    too, whatever the horizon: :func:`binomial_pmf` builds each C(N - 1, j)
    as an exact integer, in time quadratic in N.  At 2^15 nodes one DP at
    horizon 1 takes 0.40-0.45 s, nearly all of it those integers, and at
    2^16 nodes 1.6-1.7 s (2-core x86 host, Python 3.11, numpy 2.4).
    Every complete network that ``graph.generate`` writes (at most 1448
    nodes) stays inside the bound.

    The last step's :func:`binomial_pmf` table, N x (N(h - 1) + 1) float64
    cells, must fit in 2^ENUMERATION_CAP cells as well: 2^15 nodes at
    horizon 2 would build a 2^30-cell (8.6 GB) table, while 1448 nodes at
    horizon 9 take 16,775,080 cells, just under 2^24."""
    node_count = check_int(node_count, "node_count", minimum=0)
    horizon = check_int(horizon, "horizon", minimum=0)
    if node_count > COUNT_DP_MAX_NODES:
        raise CapExceeded(
            f"the count DP takes at most {COUNT_DP_MAX_NODES} nodes, got {node_count}")
    what = f"the count DP for {node_count} nodes x {horizon} steps"
    # 2^horizon alone passes the cap for horizon > cap; that test first
    # keeps a huge horizon from building a huge shifted integer
    if horizon > ENUMERATION_CAP:
        raise CapExceeded(f"{what} needs a table of 2^{horizon} x {node_count * horizon + 1} "
                          f"cells, more than the cap of 2^{ENUMERATION_CAP}")
    check_cells((node_count * horizon + 1) << horizon, f"{what} needs a table")
    check_cells(node_count * (node_count * (horizon - 1) + 1),
                f"{what}: its last step builds a binomial table")


def complete_node_marginal(rho: float, delta: float, node_count: int,
                           horizon: int) -> dict:
    """Exact-in-float marginal of one node's draw sequence, complete network,
    keyed by draw tuples in code order; the values are those of
    :func:`complete_node_marginal_probs`."""
    return _draw_dict(complete_node_marginal_probs(rho, delta, node_count, horizon))


def complete_node_marginal_probs(rho: float, delta: float, node_count: int,
                                 horizon: int) -> np.ndarray:
    """One node's draw distribution on a complete network, as a (2^horizon,)
    float array in code order (bit t-1 of the code is the draw at time t).

    On a complete network every node shares one super urn whose red
    proportion depends on the history only through the total red-draw count,
    so the marginal is computable by a count-state dynamic program instead
    of full enumeration: per step, the other N-1 nodes contribute a
    binomial count transition.  The count is a Markov chain and the node's
    draws are what it emits, so the DP meets in the middle at m = h // 2
    like a forward-backward pass: a forward pass over times 1..m gives, per
    own-draw prefix, the probability of each count at time m; a backward
    pass over times h..m+1, started from ones, gives per own-draw suffix the
    probability of those draws given each count at time m.  Their product
    over the count is the one-node joint table, which is the marginal.

    A count c moves to c + j (own draw black) or c + j + 1 (red) for
    j < N, so each kernel row is a band of N entries.  Each step is filled
    in column blocks of width ``max(N, 64)``, one product per block with the
    matching slice of the band (see :func:`_count_step`).  Cost grows like
    2^(h/2) * N^2 * h for the passes plus 2^h * (N * h/2 + 1) for the
    meeting product, rather than 2^(N * h); peak memory is a pass's last
    two levels, about 2^(h/2) * (N * h/2 + 1) doubles each, plus the step's
    kernel and the 2^h joint table.  Each step's binomial probabilities come
    from :func:`binomial_pmf`, once per step.
    """
    PolyaParams(rho, delta)  # the rho and delta checks
    # exact inputs are welcome, but the DP runs in floats
    rho, delta = float(rho), to_float(delta, "delta")
    check_real(rho, "rho in floats", 0, 1, "()", error=DomainError)
    n_nodes = check_int(node_count, "node_count", minimum=1)
    n = check_int(horizon, "horizon", minimum=1)
    check_count_dp_cap(n_nodes, n)
    m = n // 2
    # rows: per own-draw prefix (bit t-1 = draw at time t) and per own-draw
    # suffix (bit 0 = draw at time m+1), vectors over the count; both passes
    # end at the counts of time m
    prefixes = np.ones((1, 1))
    suffixes = np.ones((1, n_nodes * n + 1))
    for t in (*range(1, m + 1), *range(n, m, -1)):
        c = np.arange(n_nodes * (t - 1) + 1, dtype=np.float64)
        denom = 1 + (t - 1) * delta
        with np.errstate(over="ignore", invalid="ignore"):
            s = (rho + (delta / n_nodes) * c) / denom
        if not (denom < math.inf and np.isfinite(s).all()):
            raise DomainError(f"the super-urn proportion at step {t} is not finite in "
                              f"floats: delta {delta} is too large")
        # at most 1 exactly, but the top count's can round an ulp above it
        np.minimum(s, 1.0, out=s)
        red = binomial_pmf(n_nodes - 1, s)
        black = red * (1 - s)[:, None]
        red *= s[:, None]
        weights = (black, red)
        if t <= m:
            prefixes = _count_step(prefixes, weights, forward=True)
        else:
            suffixes = _count_step(suffixes, weights, forward=False)
    return (suffixes @ prefixes.T).reshape(-1)


def _count_step(rows, weights, forward):
    """One step t of the count DP, for both own draws d.

    ``weights[d][c, j]`` is the probability that count c at time t-1 moves
    to c + j + d at time t with own draw d.  Forward, ``rows`` are vectors
    over the counts at t-1 and the result over those at t, with row
    d * len(rows) + r extending row r by draw d; backward, the roles of the
    two times swap and row 2 * r + d prepends draw d.  The result is filled
    in column blocks of width ``max(N, 64)``: a block depends only on the
    input columns within the band's reach, so it is one product of those
    columns with the matching slice of the band (transposed backward)."""
    n_prev, n_nodes = weights[0].shape
    n_next = n_prev + n_nodes
    width = n_next if forward else n_prev
    new = np.empty((2, len(rows), width) if forward else (len(rows), 2, width))
    halves = new if forward else new.swapaxes(0, 1)
    block = max(n_nodes, 64)
    for shift, w in enumerate(weights):
        for a0 in range(0, width, block):
            a1 = min(a0 + block, width)
            if forward:  # counts a0..a1-1 at t, reached from lo..hi-1 at t-1
                lo, hi = max(0, a0 - shift - n_nodes + 1), min(n_prev, a1 - shift)
                band = _band(w, lo, hi, a0, a1, shift)
            else:  # counts a0..a1-1 at t-1, reaching lo..hi-1 at t
                lo, hi = a0 + shift, min(a1 + shift + n_nodes - 1, n_next)
                band = _band(w, a0, a1, lo, hi, shift).T
            np.matmul(rows[:, lo:hi], band, out=halves[shift, :, a0:a1])
    return new.reshape(-1, width)


def _band(weights, lo, hi, o0, o1, shift):
    """Rows lo..hi-1, columns o0..o1-1 of the count kernel whose row c holds
    ``weights[c, j]`` at column c + j + shift, for every j < N.

    The rows are written into a buffer N columns wider on each side, through
    a view whose rows are one element longer, so that row r's weights start
    r columns further right; the band is the middle of that buffer."""
    n = weights.shape[1]
    rows, cols = hi - lo, o1 - o0
    wide = cols + 2 * n
    skew = lo + shift - o0 + n  # column of weights[lo, 0] in the buffer, >= 1
    flat = np.zeros(skew + rows * (wide + 1))
    flat[skew:].reshape(rows, wide + 1)[:, :n] = weights[lo:hi]
    return flat[:rows * wide].reshape(rows, wide)[:, n:n + cols]


_SQRT_HALF = math.sqrt(0.5)
# a mantissa m in [1/sqrt 2, sqrt 2) has |log2 m| <= 1/2, so m^k for k up to
# this piece stays within 2^-512..2^512
_POW_PIECE = 1024
# binomial_pmf's sums of exponents fit in int32 for every n below this:
# s and 1 - s are at least 2^-1074, renormalising shifts a power by at most
# n / 2 + 2 and C(n, j) < 2^n, so every partial sum stays within
# 1076 * n + 3 of zero, under 2^31
_INT32_EXPONENTS_BELOW = 1 << 20


def binomial_pmf(n: int, s) -> np.ndarray:
    """``pmf[r, j] = C(n, j) * s[r]^j * (1 - s[r])^(n - j)`` for j = 0..n:
    the binomial(n, s[r]) probabilities of each float in ``s`` (all in
    [0, 1]), each within a few ulps of the exact value for that float.

    No factor is formed as a float on its own: C(n, j) overflows above
    n = 1029, and s^j underflows long before the product is negligible.
    Each factor is carried as a mantissa and a power of two, and only the
    product of the mantissas, ``((C * s^j) * (1-s)^(n-j)) * correction``,
    is scaled back.  C(n, j) is an exact integer, rounded once; 1 - s is
    the rounded difference plus its exact rounding error, applied to the
    power to first order (the next term is below an ulp while n < 2^26).
    That correction is exactly 1 on every row whose error is 0, among them
    every s >= 1/2, so only the rows from the first to the last whose error
    is not 0 are multiplied by it, in place.

    The powers of two are summed in int32 for n < ``_INT32_EXPONENTS_BELOW``
    = 2^20, where no partial sum can reach 2^31 in magnitude, and in int64
    from there on; ``np.ldexp`` has a vectorised loop only for int32
    exponents, and the scaled values are the same either way."""
    n = check_int(n, "the binomial n", minimum=0)
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise InvalidParameter(f"s must be a 1-D array of probabilities, got {s.ndim}-D")
    check_cells(max(s.size, 1) * (n + 1),
                f"the binomial({n}, s) probabilities of {s.size} values of s need a table")
    inside = (s >= 0) & (s <= 1)
    if not inside.all():
        raise DomainError(f"binomial probabilities must lie in [0, 1], got {s[~inside][0]}")
    s = s[:, None]
    j = np.arange(n + 1, dtype=np.int32 if n < _INT32_EXPONENTS_BELOW else np.int64)[None, :]
    combs, c = [], 1
    for i in range(n + 1):
        combs.append(c)
        c = c * (n - i) // (i + 1)
    bits = [c.bit_length() for c in combs]
    comb_mant = np.array([c / (1 << b) for c, b in zip(combs, bits)])
    one_minus = 1 - s
    # 1 - s == one_minus + error exactly (Fast2Sum); error is 0 for s >= 1/2,
    # and one_minus > 1/2 wherever it is not
    error = (1 - one_minus) - s
    pmf, s_exp, s_shift = _power(s, j)
    r_mant, r_exp, r_shift = _power(one_minus, n - j)
    pmf *= comb_mant
    pmf *= r_mant
    rows = np.flatnonzero(error)
    if rows.size:  # r_mant's rows hold the correction: 1 where the error is 0
        lo, hi = rows[0], rows[-1] + 1
        ratio = np.divide(error[lo:hi], one_minus[lo:hi], out=np.zeros((hi - lo, 1)),
                          where=error[lo:hi] != 0)
        correction = np.multiply(n - j, ratio, out=r_mant[lo:hi])
        correction += 1
        pmf[lo:hi] *= correction
    # s_exp * j + r_exp * (n - j), summed without a second exponent array
    exp = np.multiply(s_exp - r_exp, j)
    exp += r_exp * n
    exp += np.array(bits, dtype=j.dtype)
    exp += s_shift
    exp += r_shift
    return np.ldexp(pmf, exp, out=pmf)


def _power(x, k):
    """``x^k`` elementwise as ``(mant, e, shift)``, x^k = mant * 2^(e * k +
    shift): e is each x's own power of two, in k's integer dtype, and shift
    what renormalising took out of the mantissa, 0 for one piece.

    x is split as m * 2^e with m in [1/sqrt 2, sqrt 2); m^k is a product of
    ``np.power`` pieces of at most ``_POW_PIECE`` steps each, renormalised
    after each piece, so no partial product leaves the float range.  When
    every k is at most one piece, m^k (within 2^-512..2^512) is returned
    as it is: the renormalising scalings are exact powers of two, so
    skipping them leaves the bits of every product of such mantissas
    that stays in the normal range, as binomial_pmf's do for n <= 1024."""
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    m, e = np.where(low, 2 * m, m), (e - low).astype(k.dtype)
    if k.max() <= _POW_PIECE:
        return np.power(m, k), e, 0
    mant = np.ones(np.broadcast_shapes(m.shape, k.shape))
    shift = np.zeros(mant.shape, dtype=np.int32)
    for piece in range(0, int(k.max()), _POW_PIECE):
        mant, step = np.frexp(mant * np.power(m, np.clip(k - piece, 0, _POW_PIECE)))
        shift += step
    return mant, e, shift
