"""Reproducible trial runner and trajectory statistics.

RNG scheme: trial k of a run with master seed s consumes uniforms from a
``Philox4x64-10`` counter-based generator keyed with the 128-bit key
(s mod 2^64, k), counter starting at zero, doubles taken in step-major,
node-minor order.  Streams therefore depend only on (master seed, trial
index): results are independent of chunking or of how chunks are
scheduled, and a single trial can be replayed in isolation.  Aggregation is
associative (integer draw counts, per-chunk float partials merged in chunk
order), so identical configurations produce bit-identical statistics.

``RunConfig.threads`` is the number of worker processes.  With more than one
chunk and more than one worker, chunks run in processes forked from the
caller (:func:`_map_chunks`), each returning only its chunk's small
partials; the parent merges them in chunk order, so the worker count never
changes an output bit.  Where ``fork`` is unavailable chunks run serially.

A chunk of k trials works through the horizon in time blocks
(:func:`_time_block`).  The block's uniforms live in a step-major draw
record ``buf[block, k, N]``, so each step reads and writes one contiguous
(k, N) slab.  They are drawn trial by trial, each trial's ``Philox`` set
by its counter to the block's first double (:func:`_streams`), a fill
group of trials at a time (:func:`_fill_group`) into a ``(group, block,
N)`` scratch, and copied transposed into the record; each step then
overwrites its uniforms with its 0/1 draws, and the block's counts are
reduced from the record.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import contagion, exact
from .contagion import DeltaSchedule, UrnBatch, UrnInit
from .errors import (CapExceeded, DomainError, HypothesisViolation, InvalidParameter,
                     PolyaNetError, SizeMismatch)
from .graph import Network, classify

# sets the automatic chunk size: chunk * horizon * N doubles fit in this
# many bytes.  A chunk holds only one time block of uniforms (_time_block),
# so this sizes the work per chunk, not its memory
UNIFORM_BUFFER_BYTES = 64 << 20
# bounds the scratch that a fill group of trials' uniforms is drawn into:
# 16 trials of fig2's block, and small enough to stay in cache
_FILL_SCRATCH_BYTES = 640 << 10


def trial_generator(master_seed: int, trial: int) -> np.random.Generator:
    """The documented per-trial stream; see the module docstring."""
    key = np.array([master_seed % (1 << 64), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a batch of trials bit-for-bit."""

    net: Network
    init: UrnInit
    sched: DeltaSchedule
    horizon: int
    trials: int
    seed: int
    memory: int | None = None
    collect_sample_averages: bool = False
    collect_pair_freq: bool = False
    collect_assignments: bool = False
    chunk_size: int | None = None
    threads: int = 1  # worker processes; the count never changes a result

    def __post_init__(self):
        if self.trials < 1 or self.horizon < 1:
            raise InvalidParameter("trials and horizon must be >= 1")
        if (self.chunk_size is not None and self.chunk_size < 1) or self.threads < 1:
            raise InvalidParameter("chunk_size (None for auto) and threads must be >= 1")
        contagion.initial_state(self.net, self.init, memory=self.memory)
        self.sched.check_size(self.net.node_count, self.horizon)
        cells = (self.horizon + 1) * self.net.node_count
        if cells > 1 << exact.ENUMERATION_CAP:
            raise CapExceeded(
                f"per-step statistics of {self.net.node_count} nodes x {self.horizon} steps "
                f"need {cells} cells, more than the cap of 2^{exact.ENUMERATION_CAP}")
        if (self.collect_assignments
                and self.net.node_count * self.horizon > exact.ENUMERATION_CAP):
            raise InvalidParameter(
                f"assignment collection needs node_count * horizon <= {exact.ENUMERATION_CAP}"
            )

    def describe(self) -> dict:
        # chunking fixes the float accumulation order, so the resolved value
        # is part of what identifies an exactly reproducible run
        return {
            "nodes": self.net.node_count,
            "edges": [list(e) for e in self.net.edges],
            "red": [str(v) for v in self.init.red],
            "black": [str(v) for v in self.init.black],
            "schedule": self.sched.describe(),
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "memory": self.memory,
            "chunk": self.chunk_size or _auto_chunk(self),
        }


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.describe(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class TrialStatistics:
    """Aggregates over independent trials; time indices go 1..horizon
    (index 0 of per-step arrays is unused except for susceptibility, where
    it holds the deterministic initial value)."""

    trials: int
    horizon: int
    node_count: int
    red_draw_counts: np.ndarray          # (horizon+1, N) int64
    susceptibility_sum: np.ndarray       # (horizon+1,) sums over trials of mean urn fraction
    increment_sum: np.ndarray            # (horizon+1,) per-trial susceptibility increments
    increment_sumsq: np.ndarray
    pair_counts: np.ndarray | None = None      # (horizon+1, N) int64, t >= 2
    sample_averages: np.ndarray | None = None  # (trials, N)
    assignment_counts: np.ndarray | None = None

    @classmethod
    def zeros(cls, cfg: RunConfig, trials: int) -> TrialStatistics:
        """Empty statistics of ``trials`` of ``cfg``'s trials, with the
        optional arrays that ``cfg`` collects (assignment counts excepted:
        they are bincounted once a whole run's codes are in)."""
        n, h = cfg.net.node_count, cfg.horizon
        return cls(
            trials=trials,
            horizon=h,
            node_count=n,
            red_draw_counts=np.zeros((h + 1, n), dtype=np.int64),
            susceptibility_sum=np.zeros(h + 1),
            increment_sum=np.zeros(h + 1),
            increment_sumsq=np.zeros(h + 1),
            pair_counts=np.zeros((h + 1, n), dtype=np.int64) if cfg.collect_pair_freq else None,
            sample_averages=np.zeros((trials, n)) if cfg.collect_sample_averages else None,
        )

    @property
    def infection_rate(self) -> np.ndarray:
        """Empirical fraction of red draws averaged over nodes, per step."""
        out = self.red_draw_counts.sum(axis=1) / (self.trials * self.node_count)
        out[0] = np.nan
        return out

    @property
    def susceptibility(self) -> np.ndarray:
        return self.susceptibility_sum / self.trials

    @property
    def increment_mean(self) -> np.ndarray:
        out = self.increment_sum / self.trials
        out[0] = np.nan
        return out

    @property
    def increment_sem(self) -> np.ndarray:
        n = self.trials
        mean = self.increment_sum / n
        var = (self.increment_sumsq - n * mean ** 2) / max(n - 1, 1)
        out = np.sqrt(np.maximum(var, 0.0) / n)
        out[0] = np.nan
        return out

    @property
    def pair_freq(self) -> np.ndarray:
        if self.pair_counts is None:
            raise InvalidParameter("pair frequencies were not collected")
        out = self.pair_counts / self.trials
        out[:2] = np.nan
        return out


def _auto_chunk(cfg: RunConfig) -> int:
    per_trial = 8 * cfg.horizon * cfg.net.node_count
    return max(16, min(cfg.trials, UNIFORM_BUFFER_BYTES // max(per_trial, 1)))


def _row_mean(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``u.mean(axis=1)`` into ``out``.  Below 8 columns numpy's pairwise
    sum is a plain left-to-right loop, so column adds and one divide give
    the same bits without an inner loop per row (a rule that is part of the
    output bits, see README "Reproducibility")."""
    n = u.shape[1]
    if n >= 8:
        return u.mean(axis=1, out=out)
    np.copyto(out, u[:, 0])
    for c in range(1, n):
        out += u[:, c]
    out /= n
    return out


def _time_block(h: int, n: int) -> int:
    """Steps of uniforms drawn per generator call: at most 8 calls per
    horizon and at least 8192 doubles a call, to keep the per-call overhead
    small, but never more steps than the horizon."""
    return min(h, max(-(-h // 8), -(-8192 // n)))


def _fill_group(k: int, block: int, n: int) -> int:
    """Trials drawn into the scratch before each transposing copy."""
    return max(1, min(k, _FILL_SCRATCH_BYTES // (8 * block * n)))


def _streams(seed: int, lo: int, k: int, offset: int):
    """Trials ``lo .. lo + k - 1``'s documented streams, one after another,
    each positioned at its double ``offset``: a single reused ``Philox``
    whose state is set per trial (key (seed mod 2^64, trial), counter word 0
    at ``offset // 4``, empty buffer) and which then skips ``offset % 4``
    doubles, since a counter value yields four.  The cap keeps ``offset``
    below 2^24, so word 0 never carries.  Setting the state skips the
    ``SeedSequence`` that ``Philox(key=...)`` builds and discards.  Each
    yielded generator is valid until the next."""
    key = np.array([seed % (1 << 64), lo], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer
    state["state"]["key"] = key
    state["state"]["counter"][0] = offset // 4
    skip = offset % 4
    for trial in range(lo, lo + k):
        key[1] = trial
        bitgen.state = state
        if skip:
            bitgen.random_raw(skip)
        yield gen


def _run_chunk(cfg: RunConfig, lo: int, hi: int) -> tuple[TrialStatistics, np.ndarray | None]:
    """Trials ``lo .. hi - 1``: their ``TrialStatistics`` and, when
    ``cfg`` collects assignments, one assignment code per trial."""
    net, n = cfg.net, cfg.net.node_count
    k = hi - lo
    h = cfg.horizon
    block = _time_block(h, n)
    # step-major draw record: buf[i] holds step i of the block for every
    # trial as one contiguous (k, N) slab; each step overwrites its uniforms
    # with its 0/1 draws, so after the block buf is the block's draw record
    buf = np.empty((block, k, n))
    # each trial's uniforms are drawn into scratch[j, :b], then a fill group
    # at a time is copied transposed into buf, a step's N doubles as one item
    group = _fill_group(k, block, n)
    scratch = np.empty((group, block, n))
    step_item = np.dtype((np.void, 8 * n))
    buf_steps, scratch_steps = buf.view(step_item)[..., 0], scratch.view(step_item)[..., 0]
    # a memory of at least the horizon never expires an addition
    memory = cfg.memory if cfg.memory is not None and cfg.memory < h else None
    batch = UrnBatch(net, cfg.init, k, memory=memory)

    stats = TrialStatistics.zeros(cfg, k)
    red_counts, susc_sum = stats.red_draw_counts, stats.susceptibility_sum
    inc_sum, inc_sumsq = stats.increment_sum, stats.increment_sumsq
    pair, z_count = stats.pair_counts, stats.sample_averages
    codes = np.zeros(k, dtype=np.int64) if cfg.collect_assignments else None

    u_mean, u_mean_next = np.empty(k), np.empty(k)
    ones = np.ones(k)
    _row_mean(batch.proportions(), out=u_mean)
    susc_sum[0] = u_mean.sum()
    z_last = None
    faults: list[str] = []
    for t0 in range(0, h, block):
        b = min(block, h - t0)
        streams = _streams(cfg.seed, lo, k, t0 * n)
        for g0 in range(0, k, group):
            g = min(group, k - g0)
            for j in range(g):
                next(streams).random(out=scratch[j, :b])
            np.copyto(buf_steps[:b, g0:g0 + g], scratch_steps[:g, :b].T)
        # numpy reports a float range fault to `faults`; a pooled sum that
        # overflowed in scipy's CSR product raises no flag and is caught below
        with contagion.record_float_faults(faults):
            for i in range(b):
                t = t0 + i + 1
                s = batch.super_urn()
                z = np.less(buf[i], s, out=buf[i])
                batch.step(t, z, s, cfg.sched)
                _row_mean(batch.proportions(), out=u_mean_next)
                susc_sum[t] = u_mean_next.sum()
                inc = u_mean_next - u_mean
                inc_sum[t] = inc.sum()
                inc_sumsq[t] = (inc ** 2).sum()
                u_mean, u_mean_next = u_mean_next, u_mean
            if faults or not batch.pooled_totals_finite():
                raise DomainError(
                    f"urn masses left the float range during steps {t0 + 1}-{t0 + b}; "
                    "use smaller urn masses or reinforcements")

        # every reduction below adds 0/1 values (the codes: distinct powers
        # of two below 2^24), so it is exact in any order
        draws = buf[:b]
        red_counts[t0 + 1:t0 + b + 1] = ones @ draws
        if pair is not None:
            # einsum reduces without a block-sized temporary
            if z_last is not None:
                pair[t0 + 1] = np.einsum("kn,kn->n", draws[0], z_last)
            pair[t0 + 2:t0 + b + 1] = np.einsum("bkn,bkn->bn", draws[1:], draws[:-1])
            z_last = draws[-1].copy()
        if z_count is not None:
            z_count += draws.sum(axis=0)
        if codes is not None:
            weights = 2.0 ** (np.arange(b * n) + n * t0).reshape(b, n)
            codes += np.einsum("bkn,bn->k", draws, weights).astype(np.int64)

    if z_count is not None:
        z_count /= h  # the draw counts become the sample averages
    return stats, codes


def _map_chunks(cfg: RunConfig, bounds: list) -> list:
    """``_run_chunk`` of every chunk, in chunk order: serially, or on up to
    ``cfg.threads`` forked worker processes when there are several chunks.
    A worker's exception is re-raised here, and a worker that died (killed,
    out of memory) is a ``PolyaNetError``; pending chunks are cancelled, and
    every worker has exited when this returns or raises."""
    workers = min(cfg.threads, len(bounds))
    if workers > 1:
        # imported here: a serial run loads no process machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            contagion.import_pooling(cfg.net)  # once here, not once per worker
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(partial(_run_chunk, cfg), *zip(*bounds)))
            except BrokenProcessPool as e:
                raise PolyaNetError(
                    f"a Monte Carlo worker process ended abruptly: {e}") from e
            finally:
                pool.shutdown(cancel_futures=True)
    return [_run_chunk(cfg, lo, hi) for lo, hi in bounds]


def run_trials(cfg: RunConfig) -> TrialStatistics:
    """Run ``cfg.trials`` independent trajectories and aggregate statistics."""
    n, h = cfg.net.node_count, cfg.horizon
    chunk = cfg.chunk_size or _auto_chunk(cfg)
    bounds = [(lo, min(lo + chunk, cfg.trials)) for lo in range(0, cfg.trials, chunk)]

    stats = TrialStatistics.zeros(cfg, cfg.trials)
    results = _map_chunks(cfg, bounds)
    for (lo, hi), (part, _) in zip(bounds, results):
        # merged in chunk order: scheduling cannot change output
        stats.red_draw_counts += part.red_draw_counts
        stats.susceptibility_sum += part.susceptibility_sum
        stats.increment_sum += part.increment_sum
        stats.increment_sumsq += part.increment_sumsq
        if stats.pair_counts is not None:
            stats.pair_counts += part.pair_counts
        if stats.sample_averages is not None:
            stats.sample_averages[lo:hi] = part.sample_averages
    if cfg.collect_assignments:
        codes = np.concatenate([c for _, c in results])
        stats.assignment_counts = np.bincount(codes, minlength=1 << (n * h))
    return stats


# ----------------------------------------------------------------------
# Derived statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HistogramResult:
    edges: np.ndarray
    density: np.ndarray


def histogram(samples: Sequence[float], bins: int) -> HistogramResult:
    """Density-normalized histogram on [0, 1] (total area 1)."""
    data = np.asarray(samples, dtype=np.float64)
    if bins < 1:
        raise InvalidParameter("bins must be >= 1")
    if len(data) < bins:
        raise InvalidParameter("need at least as many samples as bins")
    if not np.all((data >= 0.0) & (data <= 1.0)):
        raise DomainError("histogram samples must lie in [0, 1]")
    density, edges = np.histogram(data, bins=bins, range=(0.0, 1.0), density=True)
    return HistogramResult(edges=edges, density=density)


def ks_fit(samples: Sequence[float], beta: exact.BetaParams) -> float:
    """One-sample Kolmogorov-Smirnov distance to a Beta CDF."""
    data = np.sort(np.asarray(samples, dtype=np.float64))
    if data.size == 0:
        raise DomainError("need at least one sample")
    cdf = exact.beta_cdf(beta, data)
    n = data.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


@dataclass(frozen=True)
class StationarityReport:
    node: int
    window: int
    max_successive_deviation: float
    settled_value: float


def stationarity_diagnostic(stats: TrialStatistics, node: int = 0,
                            window: int | None = None) -> StationarityReport:
    """Trailing-window report on consecutive-draw pair frequencies.

    ``window`` defaults to the last 20% of the horizon.  Reports the largest
    step-to-step change of P(Z_t=1, Z_{t-1}=1) over the window and the
    trailing mean as the settled value.
    """
    freq = stats.pair_freq[:, node]
    if window is None:
        window = max(2, stats.horizon // 5)
    if window < 2 or window > stats.horizon - 1:
        raise InvalidParameter(f"window {window} not usable for horizon {stats.horizon}")
    tail = freq[stats.horizon - window + 1:]
    deviations = np.abs(np.diff(tail))
    return StationarityReport(
        node=node,
        window=window,
        max_successive_deviation=float(np.max(deviations)),
        settled_value=float(np.mean(tail)),
    )


@dataclass(frozen=True)
class MartingaleResiduals:
    mean: np.ndarray  # per-step trial mean of susceptibility increments
    sem: np.ndarray


def martingale_residual(cfg: RunConfig) -> MartingaleResiduals:
    """Per-step empirical drift of the network susceptibility.

    Only meaningful under the conditions where the susceptibility is
    drift-free: regular network, equal urn totals, constant equal red/black
    reinforcement.  Violations raise ``HypothesisViolation``.
    """
    if classify(cfg.net) == "irregular":
        raise HypothesisViolation("the susceptibility drift vanishes only on regular networks")
    totals = cfg.init.totals
    if any(v != totals[0] for v in totals):
        raise HypothesisViolation("equal urn totals are required")
    masses = cfg.sched.equal_masses
    if masses is None or np.unique(masses).size != 1:
        raise HypothesisViolation("red and black masses must be one constant")
    stats = run_trials(cfg)
    return MartingaleResiduals(mean=stats.increment_mean, sem=stats.increment_sem)


def least_squares_trend(y: Sequence[float], t: Sequence[float] | None = None):
    """OLS slope and its standard error for a time series."""
    y = np.asarray(y, dtype=np.float64)
    x = np.arange(len(y), dtype=np.float64) if t is None else np.asarray(t, float)
    if x.shape != y.shape:
        raise SizeMismatch(f"{len(x)} times for {len(y)} values")
    if len(y) < 2 or np.all(x == x[0]):
        raise InvalidParameter("a trend needs at least two distinct times")
    x_c = x - x.mean()
    denom = float(np.dot(x_c, x_c))
    slope = float(np.dot(x_c, y)) / denom
    resid = y - y.mean() - slope * x_c
    dof = max(len(y) - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / denom)
    return slope, stderr


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: dict, columns: Sequence[str], rows) -> None:
    """Write one ``# key=value ...`` line, the column names, then one line
    per row.  Floats (numpy's included) are written as ``repr(float(v))``,
    so they read back bit for bit; ``None`` is an empty cell."""
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={_cell(v)}" for k, v in header.items()) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _header(cfg: RunConfig) -> dict:
    from . import __version__

    return {"config_sha256": config_hash(cfg), "master_seed": cfg.seed,
            "version": __version__}


def write_trajectory_csv(stats: TrialStatistics, cfg: RunConfig, path,
                         pair_node: int | None = None) -> None:
    """Rows t, I_tilde, U_tilde and optionally the pair frequency of a node."""
    infection = stats.infection_rate
    susc = stats.susceptibility
    columns = ["t", "I_tilde", "U_tilde"]
    rows = [(t, infection[t], susc[t]) for t in range(1, stats.horizon + 1)]
    if pair_node is not None:
        pair = stats.pair_freq[:, pair_node]
        columns.append("pair_freq")
        rows = [(*row, pair[t] if t >= 2 else None) for t, row in enumerate(rows, 1)]
    write_csv(path, _header(cfg), columns, rows)


def write_histogram_csv(hist: HistogramResult, cfg: RunConfig, path) -> None:
    write_csv(path, _header(cfg), ["bin_left", "bin_right", "density"],
              zip(hist.edges[:-1], hist.edges[1:], hist.density))
