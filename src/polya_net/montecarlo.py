"""Reproducible trial runner and trajectory statistics.

RNG scheme: trial k of a run with master seed s consumes uniforms from a
``Philox4x64-10`` counter-based generator keyed with the 128-bit key
(s mod 2^64, k), counter starting at zero, doubles taken in step-major,
node-minor order.  Streams therefore depend only on (master seed, trial
index), not on chunking or on how chunks are scheduled, and a single trial
can be replayed in isolation.  Aggregation is associative (integer draw
counts, per-chunk float partials merged in chunk order), so identical
configurations produce bit-identical statistics, whatever the worker count.
The chunk size is part of the result: the float sums (susceptibility and
increments) are reduced chunk by chunk, and on networks of at most 100
nodes dense BLAS products can round a trial's super-urn sums by its row in
the product's shape, so a draw within the last bit of its proportion can
move an integer count.  Runs on integer urns with integer masses pool
exactly, so their integer statistics do not depend on the chunk size.

``RunConfig.threads`` is the number of worker processes.  With more than one
chunk and more than one worker, chunks run in processes forked from the
caller (:func:`_map_chunks`), each returning only its chunk's small
partials; the parent merges them in chunk order, so the worker count never
changes an output bit.  Each worker runs BLAS on one thread
(:func:`_one_blas_thread`).  Where ``fork`` is unavailable chunks run
serially.

Runs share a stream when their configs have the same seed, trials,
horizon, node count, resolved chunk size and worker count: they draw the
same uniforms in the same chunks.  :func:`run_many` runs such a group and
draws each block of uniforms once into one record, which no step
overwrites; each config then steps its own urn batch over the block in
turn.  Each config's statistics are bit-identical to its run alone,
:func:`run_trials` being a group of one.  fig5's six runs, three ratios
at infinite and finite memory, are one group, which draws fig5's uniforms
once; its three finite-memory runs each keep a ring of their last M steps'
draws, a byte a draw (:class:`contagion.UrnBatch`).

A chunk of k trials works through the horizon in blocks of steps
(:func:`_record_block`).  The block's uniforms live in a step-major record
``buf[block, k, N]``, so each step reads one contiguous (k, N) slab; the
block is capped so that the record stays within ``RECORD_BYTES``.  They are
drawn trial by trial, each trial's ``Philox`` set by its counter to the
block's first double (:func:`_streams`), a fill group of trials at a time
(:func:`_fill_group`) into a ``(group, block, N)`` scratch, and copied
transposed into the record.  Each step compares its uniforms with the super
urns, pooled into one reused C-contiguous (k, N) buffer, into one of its
config's two (k, N) draw slabs, in its urn batch's float dtype, and tallies
the slab's counts at once, so no block of draws is kept.  A step computes
only what its config collects (:meth:`_ChunkRun.steps`).  The float
statistics are reduced a tile of steps at a time (:func:`_stats_tile`):
each step writes its per-trial mean urn proportions as one contiguous row,
and one ``sum(axis=1)`` per statistic reduces the tile's rows, each by the
same pairwise sum as the row alone, so the bits are those of per-step sums.
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
from .errors import (DomainError, HypothesisViolation, InvalidParameter,
                     PolyaNetError, SizeMismatch, check_int, check_real)
from .graph import Network, classify

# sets the automatic chunk size (_auto_chunk): a chunk takes as many trials
# as one time block of uniforms each (_time_block) fits in this many bytes;
# the chunk size is part of the config hash, so this rule stays apart from
# the record cap below
UNIFORM_BUFFER_BYTES = 64 << 20
# caps the uniform record a chunk allocates (_record_block): its blocks are cut
# to as many steps as fit in this many bytes ...
RECORD_BYTES = 4 << 20
# ... but never below this many doubles per trial and block, so that each
# trial's generator call and repositioning stay a small share of its fill
MIN_CALL_DOUBLES = 2048
# bounds the scratch that a fill group of trials' uniforms is drawn into,
# small enough to stay in cache (_fill_group)
_FILL_SCRATCH_BYTES = 640 << 10
# bounds the row means of a tile of steps whose statistics are reduced at
# once, one row of 8 bytes a trial per step and one more (_stats_tile), so
# small enough to stay in cache beside a step's own arrays (64 steps of
# fig2's 1677-trial chunks took 0.9 MB and slowed its steps)
_STATS_TILE_BYTES = 128 << 10


def trial_generator(master_seed: int, trial: int) -> np.random.Generator:
    """The documented per-trial stream; see the module docstring."""
    master_seed = check_int(master_seed, "master_seed")
    trial = check_int(trial, "trial", minimum=0)
    if trial >= 1 << 64:
        raise InvalidParameter(f"trial must be below 2^64, the range of the trial "
                               f"word of a Philox key, got {trial}")
    key = np.array([master_seed % (1 << 64), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a batch of trials bit-for-bit.  The
    ``collect_*`` flags choose the statistics, at least one; the trajectory
    is the per-step red-draw counts, susceptibility sums and increments.  No
    flag changes a draw or a value, so none is in :meth:`describe`'s hash."""

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
    collect_trajectory: bool = True
    chunk_size: int | None = None
    threads: int = 1  # worker processes; the count never changes a result

    def __post_init__(self):
        optional = ("memory", "chunk_size")  # None: infinite memory, automatic chunks
        for name in ("horizon", "trials", "threads", "seed", *optional):
            value = getattr(self, name)
            if value is not None or name not in optional:
                # kept as an int, which describe() can serialise
                object.__setattr__(self, name, check_int(
                    value, name, minimum=None if name == "seed" else 1))
        if not (self.collect_trajectory or self.collect_sample_averages
                or self.collect_pair_freq or self.collect_assignments):
            raise InvalidParameter("a run must collect at least one statistic")
        if self.trials >= 1 << 64:
            raise InvalidParameter(f"trials must be below 2^64, the range of the trial "
                                   f"word of a Philox key, got {self.trials}")
        contagion.initial_state(self.net, self.init, memory=self.memory)
        self.sched.check_size(self.net.node_count, self.horizon)
        exact.check_cell_budget(self.net.node_count, self.horizon, "per-step statistics")
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
    it holds the deterministic initial value).  An array that the run did
    not collect is ``None``, and a property that reads it raises
    ``InvalidParameter``."""

    trials: int
    horizon: int
    node_count: int
    red_draw_counts: np.ndarray | None = None  # (horizon+1, N) int64
    # (horizon+1,) sums over trials of the mean urn fraction, of its
    # per-trial increments and of their squares
    susceptibility_sum: np.ndarray | None = None
    increment_sum: np.ndarray | None = None
    increment_sumsq: np.ndarray | None = None
    pair_counts: np.ndarray | None = None      # (horizon+1, N) int64, t >= 2
    sample_averages: np.ndarray | None = None  # (trials, N)
    assignment_counts: np.ndarray | None = None

    @classmethod
    def zeros(cls, cfg: RunConfig, trials: int) -> TrialStatistics:
        """Empty statistics of ``trials`` of ``cfg``'s trials, with the
        optional arrays that ``cfg`` collects (assignment counts excepted:
        they are bincounted once a whole run's codes are in)."""
        n, h = cfg.net.node_count, cfg.horizon
        traj = cfg.collect_trajectory
        return cls(
            trials=trials,
            horizon=h,
            node_count=n,
            red_draw_counts=np.zeros((h + 1, n), dtype=np.int64) if traj else None,
            susceptibility_sum=np.zeros(h + 1) if traj else None,
            increment_sum=np.zeros(h + 1) if traj else None,
            increment_sumsq=np.zeros(h + 1) if traj else None,
            pair_counts=np.zeros((h + 1, n), dtype=np.int64) if cfg.collect_pair_freq else None,
            sample_averages=np.zeros((trials, n)) if cfg.collect_sample_averages else None,
        )

    @staticmethod
    def _collected(array: np.ndarray | None, what: str) -> np.ndarray:
        if array is None:
            raise InvalidParameter(f"{what} were not collected")
        return array

    @property
    def infection_rate(self) -> np.ndarray:
        """Empirical fraction of red draws averaged over nodes, per step."""
        counts = self._collected(self.red_draw_counts, "red-draw counts")
        out = counts.sum(axis=1) / (self.trials * self.node_count)
        out[0] = np.nan
        return out

    @property
    def susceptibility(self) -> np.ndarray:
        return self._collected(self.susceptibility_sum, "susceptibility sums") / self.trials

    @property
    def increment_mean(self) -> np.ndarray:
        out = self._collected(self.increment_sum, "susceptibility increments") / self.trials
        out[0] = np.nan
        return out

    @property
    def increment_sem(self) -> np.ndarray:
        n = self.trials
        mean = self._collected(self.increment_sum, "susceptibility increments") / n
        var = (self.increment_sumsq - n * mean ** 2) / max(n - 1, 1)
        out = np.sqrt(np.maximum(var, 0.0) / n)
        out[0] = np.nan
        return out

    @property
    def pair_freq(self) -> np.ndarray:
        out = self._collected(self.pair_counts, "pair frequencies") / self.trials
        out[:2] = np.nan
        return out


def _auto_chunk(cfg: RunConfig) -> int:
    """Trials per chunk when ``chunk_size`` is None: as many as fit one time
    block of uniforms each, ``8 * _time_block(h, N) * N`` bytes a trial,
    into ``UNIFORM_BUFFER_BYTES``, but at least 16 and at most the run's
    trials.  The value is part of the config hash (see
    :meth:`RunConfig.describe`); the uniform record a chunk allocates is
    capped apart from it (:func:`_record_block`)."""
    n = cfg.net.node_count
    per_trial = 8 * _time_block(cfg.horizon, n) * n
    return max(16, min(cfg.trials, UNIFORM_BUFFER_BYTES // per_trial))


def _row_mean(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``u.mean(axis=1)`` into ``out``, with its bits: the row sums, then
    one divide.  From 8 columns the sums are ``np.add.reduce``, the ufunc
    that ``mean`` runs, called without ``mean``'s Python wrapper.  Below 8
    columns numpy's pairwise sum is a plain left-to-right loop, so column
    adds give the same sums without an inner loop per row (a rule that is
    part of the output bits, see README "Reproducibility")."""
    n = u.shape[1]
    if n >= 8:
        np.add.reduce(u, axis=1, out=out)
    else:
        np.copyto(out, u[:, 0])
        for c in range(1, n):
            out += u[:, c]
    out /= n
    return out


def _time_block(h: int, n: int) -> int:
    """The time block that sizes automatic chunks (:func:`_auto_chunk`) and
    bounds a record block (:func:`_record_block`): at least an eighth of the
    horizon and 8192 doubles, but never more steps than the horizon."""
    return min(h, max(-(-h // 8), -(-8192 // n)))


def _record_block(h: int, n: int, k: int) -> int:
    """Steps of uniforms drawn per trial and generator call in a chunk of
    ``k`` trials: as many as keep the uniform record, ``8 * k * N`` bytes a
    step, within ``RECORD_BYTES``, but at least ``MIN_CALL_DOUBLES`` / N
    steps and at most the time block.  The streams restart at any step, so
    the block changes no output bit."""
    return min(_time_block(h, n), max(-(-MIN_CALL_DOUBLES // n), RECORD_BYTES // (8 * k * n)))


def _fill_group(k: int, block: int, n: int) -> int:
    """Trials drawn into the scratch before each transposing copy."""
    return max(1, min(k, _FILL_SCRATCH_BYTES // (8 * block * n)))


def _stats_tile(h: int, k: int) -> int:
    """Steps whose statistics are reduced at once: as many as the tile's
    row means, one (k,) row per step and one before, fit in
    ``_STATS_TILE_BYTES``, but at least one and at most the horizon."""
    return max(1, min(h, _STATS_TILE_BYTES // (8 * k) - 1))


def _streams(seed: int, lo: int, k: int, offset: int):
    """Trials ``lo .. lo + k - 1``'s documented streams, one after another,
    each positioned at its double ``offset``: a single reused ``Philox``
    whose state is set per trial (key (seed mod 2^64, trial), counter word 0
    at ``offset // 4``, empty buffer) and which then skips ``offset % 4``
    doubles, since a counter value yields four.  The cap keeps ``offset``
    below 2^24, so word 0 never carries.  Setting the state skips the
    ``SeedSequence`` that ``Philox(key=...)`` builds and discards; the
    state's words are Python ints in lists, which the setter reads in less
    than half the time of uint64 arrays.  Each yielded generator is valid
    until the next."""
    key = [seed % (1 << 64), lo]
    bitgen = np.random.Philox(0)  # its state is set per trial below
    gen = np.random.Generator(bitgen)
    # an empty buffer: the next draw steps the counter to offset's block
    state = {"bit_generator": "Philox",
             "state": {"counter": [offset // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    skip = offset % 4
    for trial in range(lo, lo + k):
        key[1] = trial
        bitgen.state = state
        if skip:
            bitgen.random_raw(skip)
        yield gen


class _ChunkRun:
    """One config's share of a chunk: its urn batch, its statistics, and
    what its reductions carry from one step to the next."""

    def __init__(self, cfg: RunConfig, k: int, tile: int):
        n, h = cfg.net.node_count, cfg.horizon
        self.cfg = cfg
        self.batch = UrnBatch(cfg.net, cfg.init, k, memory=cfg.memory, sched=cfg.sched,
                              horizon=h)
        self.stats = TrialStatistics.zeros(cfg, k)
        # step t's (k, N) draws go to slab t % 2, so the slab of step t - 1
        # is still there for the pair counts; the draws, and the sample
        # averages' draw counts, are in the batch's float dtype, so that a
        # float32 batch adds them without a cast (float32 holds 0/1 and the
        # counts up to its horizon, below 2^24, exactly)
        dtype = self.batch.red.dtype
        self.draws = np.empty((2, k, n), dtype)
        # a slab's column sums, exact in float32 too below 2^24 trials
        self.ones = np.ones(k, dtype if k < 1 << 24 else float)
        self.counts = np.zeros((k, n), dtype) if cfg.collect_sample_averages else None
        self.codes = np.zeros(k) if cfg.collect_assignments else None
        # row j of means holds the row mean after a tile's j-th step, row 0
        # the one before it; a tile's statistics are reduced over these
        # contiguous rows at once, and a row's sum is the same pairwise sum
        # as a (k,) array's
        self.means = None
        if cfg.collect_trajectory:
            self.means = np.empty((tile + 1, k))
            _row_mean(self.batch.proportions(), out=self.means[0])
            self.stats.susceptibility_sum[0] = self.means[0].sum()

    def steps(self, uniforms: np.ndarray, t0: int, b: int, s: np.ndarray) -> None:
        """Steps ``t0 + 1 .. t0 + b``: each compares its uniforms with the
        super urns, pooled into ``s``, into its draw slab, steps the batch
        and tallies the slab at once (the slab of the step before, read for
        the last time, then holds the pair products) into what the config
        collects.  Only the trajectory reads the urn proportions: with it,
        each step divides them out for its row mean, and the float
        statistics are reduced a tile of steps at a time.  Every tally adds
        0/1 values (the codes: distinct powers of two), so it is exact in
        any order."""
        batch, sched, means, draws, ones = (self.batch, self.cfg.sched, self.means,
                                            self.draws, self.ones)
        stats, codes, n = self.stats, self.codes, self.stats.node_count
        red, pair, counts = stats.red_draw_counts, stats.pair_counts, self.counts
        susc_sum, inc_sum, inc_sumsq = (stats.susceptibility_sum, stats.increment_sum,
                                        stats.increment_sumsq)
        tile = b if means is None else means.shape[0] - 1
        fault = (f"urn masses left the float range during steps {t0 + 1}-{t0 + b}; "
                 "use smaller urn masses or reinforcements")
        # numpy flags a float range fault to the guard; a pooled sum that
        # overflowed in scipy's CSR product raises no flag and is caught below
        with contagion.float_range(fault):
            for i0 in range(0, b, tile):
                m = min(tile, b - i0)
                for i in range(i0, i0 + m):
                    t = t0 + i + 1
                    batch.super_urn(out=s)
                    z = np.less(uniforms[i], s, out=draws[t % 2])
                    batch.step(t, z, s, sched)
                    if means is not None:
                        _row_mean(batch.proportions(), out=means[i - i0 + 1])
                        red[t] = ones @ z
                    if pair is not None and t > 1:
                        before = draws[(t - 1) % 2]
                        pair[t] = ones @ np.multiply(z, before, out=before)
                    if counts is not None:
                        counts += z
                    if codes is not None:  # bit (t-1) * N + i: node i's draw at t
                        codes += z @ 2.0 ** np.arange(n * (t - 1), n * t)
                if means is not None:
                    t = t0 + i0 + 1
                    susc_sum[t:t + m] = means[1:m + 1].sum(axis=1)
                    # each increment overwrites the row before it, in place
                    # with no temporary; row m starts the next tile
                    inc = np.subtract(means[1:m + 1], means[:m], out=means[:m])
                    inc_sum[t:t + m] = inc.sum(axis=1)
                    inc_sumsq[t:t + m] = np.square(inc, out=inc).sum(axis=1)
                    means[0] = means[m]
            if not batch.pooled_totals_finite():
                raise DomainError(fault)

    def result(self) -> tuple[TrialStatistics, np.ndarray | None]:
        if self.counts is not None:  # draw counts become averages, in float64
            np.divide(self.counts, self.cfg.horizon, out=self.stats.sample_averages, dtype=float)
        return self.stats, None if self.codes is None else self.codes.astype(np.int64)


def _run_chunk(cfgs: Sequence[RunConfig], lo: int,
               hi: int) -> list[tuple[TrialStatistics, np.ndarray | None]]:
    """Trials ``lo .. hi - 1`` of each config of a group that shares a
    stream (:func:`run_many`): per config, its ``TrialStatistics`` and,
    when it collects assignments, one assignment code per trial.  Each
    block's uniforms are drawn once, then each config steps its own batch
    over them in turn (:meth:`_ChunkRun.steps`)."""
    first = cfgs[0]
    n, h, k = first.net.node_count, first.horizon, hi - lo
    block = _record_block(h, n, k)
    # step-major uniform record: buf[i] holds step i of the block for every
    # trial as one contiguous (k, N) slab
    buf = np.empty((block, k, n))
    # each trial's uniforms are drawn into scratch[j, :b], then a fill group
    # at a time is copied transposed into buf, a step's N doubles as one item
    group = _fill_group(k, block, n)
    scratch = np.empty((group, block, n))
    step_item = np.dtype((np.void, 8 * n))
    buf_steps, scratch_steps = buf.view(step_item)[..., 0], scratch.view(step_item)[..., 0]
    runs = [_ChunkRun(cfg, k, _stats_tile(h, k)) for cfg in cfgs]
    s = np.empty((k, n))  # the super urns, C-contiguous like each draw slab
    for t0 in range(0, h, block):
        b = min(block, h - t0)
        streams = _streams(first.seed, lo, k, t0 * n)
        for g0 in range(0, k, group):
            g = min(group, k - g0)
            for j in range(g):
                next(streams).random(out=scratch[j, :b])
            np.copyto(buf_steps[:b, g0:g0 + g], scratch_steps[:g, :b].T)
        for run in runs:
            run.steps(buf, t0, b, s)
    return [run.result() for run in runs]


# the thread-count setters of the OpenBLAS builds that numpy wheels bundle:
# numpy 2's, then numpy 1's
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Run this process's BLAS on one thread, where it is the OpenBLAS
    bundled with numpy's wheel (found by its path there, so no other
    library is loaded); with any other BLAS it does nothing.
    A forked worker calls this first: its dense pooling products would
    otherwise be threaded across the cores that the other workers use,
    which made fig4's 100-node case four times as slow on two cores."""
    import ctypes
    import glob
    import os

    numpy_dir = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(numpy_dir + ".libs", "*openblas*"))
                 + glob.glob(os.path.join(numpy_dir, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)  # the loaded library: dlopen returns its handle
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                return


def _map_chunks(cfgs: tuple[RunConfig, ...], chunk: int):
    """``_run_chunk`` of the group ``cfgs`` on every chunk of ``chunk``
    trials, yielded in chunk order: serially, or on up to ``threads``
    forked worker processes when there are several chunks.  The chunk
    bounds are made as they are needed, never as a list.  A worker's
    exception is re-raised here, and a worker that died (killed, out of
    memory) is a ``PolyaNetError``; pending chunks are cancelled, and every
    worker has exited when the iteration ends or raises."""
    first = cfgs[0]
    starts = range(0, first.trials, chunk)
    workers = min(first.threads, -(-first.trials // chunk))
    if workers > 1:
        # imported here: a serial run loads no process machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            contagion.import_pooling(first.net)  # once here, not once per worker
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=multiprocessing.get_context("fork"),
                                       initializer=_one_blas_thread)
            try:
                yield from pool.map(partial(_run_chunk, cfgs), starts,
                                    (min(lo + chunk, first.trials) for lo in starts))
            except BrokenProcessPool as e:
                raise PolyaNetError(
                    f"a Monte Carlo worker process ended abruptly: {e}") from e
            finally:
                pool.shutdown(cancel_futures=True)
            return
    for lo in starts:
        yield _run_chunk(cfgs, lo, min(lo + chunk, first.trials))


def _stream_key(cfg: RunConfig) -> tuple:
    """What configs of one :func:`run_many` group share: the same key means
    the same uniforms in the same chunks on the same workers."""
    return (cfg.seed, cfg.trials, cfg.horizon, cfg.net.node_count,
            cfg.chunk_size or _auto_chunk(cfg), cfg.threads)


def run_many(cfgs: Sequence[RunConfig]) -> list[TrialStatistics]:
    """``[run_trials(cfg) for cfg in cfgs]``, bit for bit, for configs that
    share a stream: the same seed, trials, horizon, node count, resolved
    chunk size and threads.  Each block of the shared uniforms is drawn
    once for the whole group; any other set of configs, or none, is an
    ``InvalidParameter``."""
    cfgs = tuple(cfgs)
    if not cfgs:
        raise InvalidParameter("run_many needs at least one config")
    key = _stream_key(cfgs[0])
    for cfg in cfgs[1:]:
        if _stream_key(cfg) != key:
            raise InvalidParameter(
                "configs run together must share seed, trials, horizon, node count, "
                f"chunk size and threads; got {_stream_key(cfg)} after {key}")
    chunk = key[4]
    merged = [TrialStatistics.zeros(cfg, cfg.trials) for cfg in cfgs]
    codes = [[] for _ in cfgs]
    for i, parts in enumerate(_map_chunks(cfgs, chunk)):
        # merged in chunk order: scheduling cannot change output
        for stats, (part, part_codes), cfg_codes in zip(merged, parts, codes):
            for name in ("red_draw_counts", "susceptibility_sum", "increment_sum",
                         "increment_sumsq", "pair_counts"):
                total = getattr(stats, name)
                if total is not None:  # collected
                    total += getattr(part, name)
            if stats.sample_averages is not None:
                stats.sample_averages[i * chunk:i * chunk + part.trials] = part.sample_averages
            if part_codes is not None:
                cfg_codes.append(part_codes)
    for stats, cfg_codes in zip(merged, codes):
        if cfg_codes:
            n, h = stats.node_count, stats.horizon
            stats.assignment_counts = np.bincount(np.concatenate(cfg_codes),
                                                  minlength=1 << (n * h))
    return merged


def run_trials(cfg: RunConfig) -> TrialStatistics:
    """Run ``cfg.trials`` independent trajectories and aggregate statistics."""
    return run_many([cfg])[0]


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
    bins = check_int(bins, "bins", minimum=1)
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
    node = contagion.check_node(node, stats.node_count)
    freq = stats.pair_freq[:, node]
    if window is None:
        window = max(2, stats.horizon // 5)
    window = check_real(check_int(window, "window"), "window", 2, stats.horizon - 1)
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
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("a trend needs finite times and values")
    # finite inputs can still leave the float range in a sum of squares
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        x_c = x - x.mean()
        denom = float(np.dot(x_c, x_c))
        if not 0.0 < denom < math.inf:
            raise DomainError("the times' sum of squares leaves the float range")
        slope = float(np.dot(x_c, y)) / denom
        resid = y - y.mean() - slope * x_c
        dof = max(len(y) - 2, 1)
        stderr = math.sqrt(float(np.dot(resid, resid)) / dof / denom)
    if not (math.isfinite(slope) and math.isfinite(stderr)):
        raise DomainError("the trend's sums of squares leave the float range")
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


def _cells(column) -> list[str]:
    """A column's cells: a numpy column through one ``tolist()``, which
    makes its values Python ints and floats, then ``str`` of each value; a
    Python float's ``str`` is its ``repr``.  A ``None`` is an empty cell."""
    if isinstance(column, np.ndarray):
        return list(map(str, column.tolist()))
    return ["" if v is None else str(v) for v in column]


def write_csv(path, header: dict, names: Sequence[str], columns: Sequence) -> None:
    """Write one ``# key=value ...`` line, the column names, then one line
    per row of ``columns``, each a numpy array or a sequence of Python
    values (not numpy scalars).  Floats, a numpy column's included, are
    written as ``repr(float(v))``, so they read back bit for bit; ``None``
    is an empty cell."""
    cells = [_cells(column) for column in columns]
    if len(cells) != len(names) or len({len(c) for c in cells}) > 1:
        raise SizeMismatch(f"{len(names)} column names for columns of lengths "
                           f"{[len(c) for c in cells]}")
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={_cell(v)}" for k, v in header.items()) + "\n")
        fh.write(",".join(names) + "\n")
        fh.write("\n".join([*map(",".join, zip(*cells)), ""]))


def _header(cfg: RunConfig) -> dict:
    from . import __version__

    return {"config_sha256": config_hash(cfg), "master_seed": cfg.seed,
            "version": __version__}


def write_trajectory_csv(stats: TrialStatistics, cfg: RunConfig, path,
                         pair_node: int | None = None) -> None:
    """Rows t, I_tilde, U_tilde and optionally the pair frequency of a node."""
    columns = {"t": range(1, stats.horizon + 1), "I_tilde": stats.infection_rate[1:],
               "U_tilde": stats.susceptibility[1:]}
    if pair_node is not None:
        pair = stats.pair_freq[:, contagion.check_node(pair_node, stats.node_count, "pair_node")]
        columns["pair_freq"] = [None, *pair[2:].tolist()]
    write_csv(path, _header(cfg), list(columns), list(columns.values()))


def write_histogram_csv(hist: HistogramResult, cfg: RunConfig, path) -> None:
    write_csv(path, _header(cfg), ["bin_left", "bin_right", "density"],
              [hist.edges[:-1], hist.edges[1:], hist.density])
