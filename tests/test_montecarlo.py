import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_net import contagion as cg, exact, experiments as ex, graph, montecarlo as mc
from polya_net.errors import (DomainError, HypothesisViolation, InvalidParameter,
                              PolyaNetError, SizeMismatch)

K2 = graph.generate_complete(2)
CYCLE4 = graph.generate_cycle(4)
STAR4 = graph.generate_star(4)


def float_init(n, red=1.0, black=1.0):
    return cg.uniform_init(n, red, black)


def small_cfg(**kw):
    base = dict(net=K2, init=float_init(2), sched=cg.ConstantDelta(1.0),
                horizon=8, trials=50, seed=11)
    base.update(kw)
    return mc.RunConfig(**base)


def test_trial_streams_depend_only_on_seed_and_index():
    a = mc.trial_generator(123, 4).random(6)
    b = mc.trial_generator(123, 4).random(6)
    c = mc.trial_generator(123, 5).random(6)
    d = mc.trial_generator(124, 4).random(6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)



def test_blocked_uniform_draws_continue_the_trial_stream():
    whole = mc.trial_generator(123, 4).random((23, 5))
    gen = mc.trial_generator(123, 4)
    pieces = np.empty((23, 5))
    for lo, hi in ((0, 9), (9, 18), (18, 23)):
        gen.random(out=pieces[lo:hi])
    assert np.array_equal(pieces, whole)

def test_run_trials_matches_scalar_reference():
    cfg = small_cfg(trials=9, collect_pair_freq=True, collect_sample_averages=True)
    stats = mc.run_trials(cfg)
    counts = np.zeros((cfg.horizon + 1, 2), dtype=np.int64)
    averages = np.zeros((cfg.trials, 2))
    for k in range(cfg.trials):
        rec, _ = cg.simulate_path(cfg.net, cfg.init, cfg.sched, cfg.horizon,
                                  mc.trial_generator(cfg.seed, k))
        for t, step in enumerate(rec.steps, start=1):
            counts[t] += step
        averages[k] = np.array(rec.steps).mean(axis=0)
    assert np.array_equal(stats.red_draw_counts, counts)
    assert np.allclose(stats.sample_averages, averages)


def test_run_trials_finite_memory_matches_scalar_reference():
    cfg = small_cfg(trials=6, memory=3, horizon=10)
    stats = mc.run_trials(cfg)
    counts = np.zeros((cfg.horizon + 1, 2), dtype=np.int64)
    for k in range(cfg.trials):
        rec, _ = cg.simulate_path(cfg.net, cfg.init, cfg.sched, cfg.horizon,
                                  mc.trial_generator(cfg.seed, k), memory=3)
        for t, step in enumerate(rec.steps, start=1):
            counts[t] += step
    assert np.array_equal(stats.red_draw_counts, counts)


def test_run_trials_curing_schedule_matches_scalar_reference():
    sched = cg.CuringDelta(2.0, multiplier=1.5)
    cfg = small_cfg(trials=5, sched=sched, horizon=6)
    stats = mc.run_trials(cfg)
    counts = np.zeros((cfg.horizon + 1, 2), dtype=np.int64)
    for k in range(cfg.trials):
        rec, _ = cg.simulate_path(cfg.net, cfg.init, sched, cfg.horizon,
                                  mc.trial_generator(cfg.seed, k))
        for t, step in enumerate(rec.steps, start=1):
            counts[t] += step
    assert np.array_equal(stats.red_draw_counts, counts)



BA60 = graph.generate("ba", 60, m=2, seed=5)
# one node above the dense-pooling cap: CSR neighbourhood sums
CSR_N = cg.DENSE_POOLING_MAX_NODES + 1
BA_CSR = graph.generate("ba", CSR_N, m=2, seed=5)


def scalar_tallies(cfg):
    """Red draw counts, pair counts and sample averages of the scalar paths."""
    h, n = cfg.horizon, cfg.net.node_count
    counts = np.zeros((h + 1, n), dtype=np.int64)
    pairs = np.zeros((h + 1, n), dtype=np.int64)
    averages = np.zeros((cfg.trials, n))
    for k in range(cfg.trials):
        rec, _ = cg.simulate_path(cfg.net, cfg.init, cfg.sched, h,
                                  mc.trial_generator(cfg.seed, k), memory=cfg.memory)
        z = np.array(rec.steps)
        counts[1:] += z
        pairs[2:] += z[1:] & z[:-1]
        averages[k] = z.sum(axis=0) / h
    return counts, pairs, averages


@pytest.mark.parametrize("memory", [None, 4])
@pytest.mark.parametrize("kind", ["constant", "tabulated", "curing"])
def test_sparse_multi_block_run_matches_scalar_reference(kind, memory):
    net, h = BA_CSR, 300
    n = net.node_count
    block = mc._time_block(h, n)
    # CSR neighbourhood sums, at least three uniform blocks, a partial last one
    assert n > cg.DENSE_POOLING_MAX_NODES and h > 2 * block and h % block
    rng = np.random.default_rng(21)
    init = cg.UrnInit(red=tuple(rng.integers(1, 4, n) * 1.0),
                      black=tuple(rng.integers(1, 4, n) * 1.0))
    if kind == "constant":
        sched = cg.ConstantDelta(tuple(rng.random(n) * 2), tuple(rng.random(n) * 2))
    elif kind == "tabulated":
        sched = cg.TabulatedDelta((rng.random((h, n)) * 2).tolist(),
                                  (rng.random((h, n)) * 2).tolist())
    else:
        sched = cg.CuringDelta(2.0, multiplier=1.5)
    cfg = mc.RunConfig(net=net, init=init, sched=sched, horizon=h, trials=3, seed=17,
                       memory=memory, collect_pair_freq=True, collect_sample_averages=True)
    stats = mc.run_trials(cfg)
    counts, pairs, averages = scalar_tallies(cfg)
    assert np.array_equal(stats.red_draw_counts, counts)
    assert np.array_equal(stats.pair_counts, pairs)
    assert np.array_equal(stats.sample_averages, averages)


BA5 = graph.generate("ba", 5, m=1, seed=1)
BA20 = graph.generate("ba", 20, m=2, seed=3)


@pytest.mark.parametrize("memory", [None, 3])
@pytest.mark.parametrize("kind", ["constant", "tabulated", "curing"])
def test_dense_multi_block_run_matches_scalar_reference(kind, memory):
    net, h = BA5, 1700
    n = net.node_count
    # dense neighbourhood sums, column-sum means, per-trial generators kept
    # across a full block and a short last one
    assert mc._time_block(h, n) == 1639
    rng = np.random.default_rng(5)
    init = cg.UrnInit(red=tuple(rng.integers(1, 4, n) * 1.0),
                      black=tuple(rng.integers(1, 4, n) * 1.0))
    if kind == "constant":
        sched = cg.ConstantDelta(tuple(rng.random(n) * 2), tuple(rng.random(n) * 2))
    elif kind == "tabulated":
        sched = cg.TabulatedDelta((rng.random((h, n)) * 2).tolist(),
                                  (rng.random((h, n)) * 2).tolist())
    else:
        sched = cg.CuringDelta(2.0, multiplier=1.5)
    cfg = mc.RunConfig(net=net, init=init, sched=sched, horizon=h, trials=3, seed=23,
                       memory=memory, collect_pair_freq=True, collect_sample_averages=True)
    stats = mc.run_trials(cfg)
    counts, pairs, averages = scalar_tallies(cfg)
    assert np.array_equal(stats.red_draw_counts, counts)
    assert np.array_equal(stats.pair_counts, pairs)
    assert np.array_equal(stats.sample_averages, averages)


def test_chunks_that_end_in_a_partial_fill_group_match_scalar_reference():
    cfg = mc.RunConfig(net=BA5, init=float_init(5), sched=cg.ConstantDelta(1.0, 2.0),
                       horizon=1000, trials=25, seed=4, chunk_size=20, threads=2,
                       collect_pair_freq=True, collect_sample_averages=True)
    # a chunk of 20 trials in fill groups of 16 and 4, then one of 5
    group = mc._fill_group(20, mc._time_block(cfg.horizon, 5), 5)
    assert 5 < group < 20 and 20 % group
    stats = mc.run_trials(cfg)
    counts, pairs, averages = scalar_tallies(cfg)
    assert np.array_equal(stats.red_draw_counts, counts)
    assert np.array_equal(stats.pair_counts, pairs)
    assert np.array_equal(stats.sample_averages, averages)


def per_step_float_sums(cfg):
    """The susceptibility, increment and squared-increment sums of ``cfg``,
    reduced step by step: each chunk steps one ``UrnBatch`` on its trials'
    documented streams, sums each step's row means as 1-D arrays, and the
    chunks' sums are merged in chunk order."""
    h, n = cfg.horizon, cfg.net.node_count
    chunk = cfg.chunk_size or mc._auto_chunk(cfg)
    memory = cfg.memory if cfg.memory is not None and cfg.memory < h else None
    total = np.zeros((3, h + 1))
    for lo in range(0, cfg.trials, chunk):
        k = min(chunk, cfg.trials - lo)
        gens = [mc.trial_generator(cfg.seed, lo + j) for j in range(k)]
        batch = cg.UrnBatch(cfg.net, cfg.init, k, memory=memory, sched=cfg.sched)
        part = np.zeros((3, h + 1))
        u = mc._row_mean(batch.proportions(), np.empty(k))
        part[0, 0] = u.sum()
        for t in range(1, h + 1):
            s = batch.super_urn()
            z = (np.array([g.random(n) for g in gens]) < s).astype(float)
            batch.step(t, z, s, cfg.sched)
            u_next = mc._row_mean(batch.proportions(), np.empty(k))
            inc = u_next - u
            part[:, t] = u_next.sum(), inc.sum(), (inc ** 2).sum()
            u = u_next
        total += part
    return total


@pytest.mark.parametrize("net, sched, memory, horizon", [
    (BA_CSR, cg.ConstantDelta(1.0), None, 151),
    (BA_CSR, cg.ConstantDelta(1.0), 7, 151),
    (BA_CSR, cg.ConstantDelta(1.0, 2.0), 7, 151),
    (BA_CSR, cg.CuringDelta(2.0, multiplier=1.5), None, 151),
    (BA20, cg.ConstantDelta(1.0), None, 449),
    (BA20, cg.ConstantDelta(1.0, 2.0), 3, 449),
    (BA60, cg.ConstantDelta(1.0), 7, 151),
], ids=["csr_shared_row", "csr_shared_row_memory", "csr_memory", "csr_curing",
        "dense", "dense_memory", "dense_shared_row_memory"])
def test_float_statistics_equal_per_step_sums(net, sched, memory, horizon):
    n = net.node_count
    # a prime horizon, so no time block and no statistics tile shorter than
    # it divides it; chunks of 140, 140 and 1 trials, so that numpy's
    # pairwise sums of the long chunks' rows split them into blocks
    assert horizon % mc._time_block(horizon, n) and all(horizon % d for d in range(2, horizon))
    init = cg.UrnInit(red=tuple(1.0 + 0.1 * (i % 7) for i in range(n)),
                      black=tuple(2.0 - 0.2 * (i % 5) for i in range(n)))
    cfg = mc.RunConfig(net=net, init=init, sched=sched, horizon=horizon, trials=281,
                       seed=31, memory=memory, chunk_size=140)
    stats = mc.run_trials(cfg)
    expected = per_step_float_sums(cfg)
    for name, row in zip(("susceptibility_sum", "increment_sum", "increment_sumsq"), expected):
        assert np.array_equal(getattr(stats, name), row), name


@pytest.mark.parametrize("n", [1, 7, 8])
def test_row_mean_equals_numpy_mean(n):
    rng = np.random.default_rng(n)
    # proportions of urns spread over many magnitudes, so rounding is exercised
    u = rng.random((20_000, n)) * 10.0 ** rng.integers(-8, 1, (20_000, n))
    out = np.empty(u.shape[0])
    assert mc._row_mean(u, out=out) is out
    assert np.array_equal(out, u.mean(axis=1))


def test_reused_philox_streams_equal_trial_generators():
    seed, lo = (1 << 64) + 987, 40
    # 3 steps x 5 nodes: each trial leaves a part-used Philox output block
    for j, gen in enumerate(mc._streams(seed, lo, 1000, 0)):
        assert np.array_equal(gen.random((3, 5)), mc.trial_generator(seed, lo + j).random((3, 5)))
    assert j == 999


# 8195 is BA5 h1700's second block (offset % 4 == 3), 12500 ba100's
@pytest.mark.parametrize("offset", [*range(8), 8195, 12500])
def test_streams_resume_each_trial_at_an_offset(offset):
    seed, lo, m = (1 << 64) + 987, 40, 11
    for j, gen in enumerate(mc._streams(seed, lo, 6, offset)):
        whole = mc.trial_generator(seed, lo + j).random(offset + m)
        assert np.array_equal(gen.random(m), whole[offset:])
    assert j == 5


def test_chunks_position_streams_without_trial_generators(monkeypatch):
    cfg = mc.RunConfig(net=BA_CSR, init=float_init(CSR_N), sched=cg.ConstantDelta(1.0, 2.0),
                       horizon=300, trials=5, seed=9, chunk_size=2, threads=2,
                       collect_pair_freq=True, collect_sample_averages=True)
    # three time blocks, CSR neighbourhood sums
    assert cfg.horizon > 2 * mc._time_block(cfg.horizon, CSR_N)
    expected = mc.run_trials(cfg)

    def refuse(*args):
        raise AssertionError("a chunk built a trial generator")

    monkeypatch.setattr(mc, "trial_generator", refuse)
    stats = mc.run_trials(cfg)
    for name in ("red_draw_counts", "susceptibility_sum", "increment_sum",
                 "increment_sumsq", "pair_counts", "sample_averages"):
        assert np.array_equal(getattr(stats, name), getattr(expected, name)), name


def test_a_chunk_returns_the_statistics_of_its_trials():
    cfg = small_cfg(trials=7, collect_pair_freq=True, collect_sample_averages=True,
                    collect_assignments=True)
    [(part, codes)] = mc._run_chunk([cfg], 3, 7)
    assert isinstance(part, mc.TrialStatistics) and part.trials == 4
    assert codes.shape == (4,) and part.assignment_counts is None
    # trials 3..6 are the first seven trials less the first three
    counts, pairs, averages = scalar_tallies(cfg)
    head_counts, head_pairs, _ = scalar_tallies(small_cfg(trials=3))
    assert np.array_equal(part.red_draw_counts, counts - head_counts)
    assert np.array_equal(part.pair_counts, pairs - head_pairs)
    assert np.array_equal(part.sample_averages, averages[3:])


def test_assignment_counts_match_scalar_codes():
    cfg = mc.RunConfig(net=CYCLE4, init=float_init(4), sched=cg.ConstantDelta(1.0),
                       horizon=4, trials=60, seed=8, chunk_size=25,
                       collect_assignments=True)
    n = cfg.net.node_count
    expected = np.zeros(1 << (n * cfg.horizon), dtype=np.int64)
    for k in range(cfg.trials):
        rec, _ = cg.simulate_path(cfg.net, cfg.init, cfg.sched, cfg.horizon,
                                  mc.trial_generator(cfg.seed, k))
        # bit (t-1) * N + i is node i's draw at time t, as in exact.JointTable
        expected[sum(d << (n * t + i) for t, step in enumerate(rec.steps)
                     for i, d in enumerate(step))] += 1
    assert np.array_equal(mc.run_trials(cfg).assignment_counts, expected)


def test_chunk_memory_is_bounded_by_a_time_block():
    net = graph.generate("ba", 100, m=2, seed=3)
    cfg = mc.RunConfig(net=net, init=float_init(100), sched=cg.ConstantDelta(1.0),
                       horizon=1000, trials=83, seed=1, collect_pair_freq=True,
                       collect_sample_averages=True)
    k, n = cfg.trials, net.node_count
    # one chunk of all 83 trials, whose time block of uniforms (8.3 MB) is
    # more than the record may take
    assert 8 * mc._time_block(cfg.horizon, n) * k * n > mc.RECORD_BYTES
    cg.import_pooling(net)  # scipy.sparse's import is not the run's memory
    tracemalloc.start()
    try:
        stats = mc.run_trials(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # besides the record and the fill scratch, the run and its chunk each
    # hold the statistics, and a step holds a few (k, N) arrays
    held = sum(a.nbytes for a in (stats.red_draw_counts, stats.pair_counts,
                                  stats.sample_averages, stats.susceptibility_sum,
                                  stats.increment_sum, stats.increment_sumsq))
    assert peak <= mc.RECORD_BYTES + mc._FILL_SCRATCH_BYTES + 2 * held + 16 * 8 * k * n


def cap_record(monkeypatch, cfg, steps):
    """Cap ``cfg``'s record at ``steps`` steps a block for its chunks of
    ``cfg.chunk_size`` trials, the generator-call floor lifted."""
    monkeypatch.setattr(mc, "MIN_CALL_DOUBLES", 1)
    monkeypatch.setattr(mc, "RECORD_BYTES", 8 * steps * cfg.chunk_size * cfg.net.node_count)
    assert mc._record_block(cfg.horizon, cfg.net.node_count, cfg.chunk_size) == steps


@pytest.mark.parametrize("net, memory", [(BA_CSR, None), (BA_CSR, 4), (BA5, None), (BA5, 3)],
                         ids=["csr", "csr_memory", "dense", "dense_memory"])
def test_a_capped_record_changes_no_statistic(monkeypatch, net, memory):
    n = net.node_count
    cfg = mc.RunConfig(net=net, init=float_init(n), sched=cg.ConstantDelta(1.0, 2.0),
                       horizon=151, trials=7, seed=13, memory=memory, chunk_size=4,
                       collect_pair_freq=True, collect_sample_averages=True)
    uncapped = mc.run_trials(cfg)
    assert mc._record_block(cfg.horizon, n, 4) == mc._time_block(cfg.horizon, n)
    # blocks of 7 steps and a partial last one of 4; with 5 nodes the
    # blocks start at every double offset mod 4
    cap_record(monkeypatch, cfg, 7)
    stats = mc.run_trials(cfg)
    for name in ("red_draw_counts", "susceptibility_sum", "increment_sum",
                 "increment_sumsq", "pair_counts", "sample_averages"):
        assert np.array_equal(getattr(stats, name), getattr(uncapped, name)), name
    counts, pairs, averages = scalar_tallies(cfg)
    assert np.array_equal(stats.red_draw_counts, counts)
    assert np.array_equal(stats.pair_counts, pairs)
    assert np.array_equal(stats.sample_averages, averages)


def test_a_capped_record_changes_no_assignment_count(monkeypatch):
    cfg = mc.RunConfig(net=CYCLE4, init=float_init(4), sched=cg.ConstantDelta(1.0),
                       horizon=6, trials=40, seed=8, chunk_size=20, collect_assignments=True)
    uncapped = mc.run_trials(cfg).assignment_counts
    cap_record(monkeypatch, cfg, 4)  # a block of 4 steps and one of 2
    assert np.array_equal(mc.run_trials(cfg).assignment_counts, uncapped)


STAT_FIELDS = ("red_draw_counts", "susceptibility_sum", "increment_sum", "increment_sumsq",
               "pair_counts", "sample_averages", "assignment_counts")


def assert_same_statistics(got, expected):
    for name in STAT_FIELDS:
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None) == (b is None), name
        assert b is None or np.array_equal(a, b), name


def assert_runs_one_by_one(cfgs):
    """``run_many(cfgs)`` equals each config run alone, field by field."""
    group = mc.run_many(cfgs)
    assert len(group) == len(cfgs)
    for cfg, stats in zip(cfgs, group):
        alone = mc.run_trials(cfg)
        assert stats.trials == alone.trials
        assert_same_statistics(stats, alone)


def stream_group(net, horizon, **common):
    """Configs of one stream on ``net``: infinite and finite memory under
    constant, tabulated and curing masses, each collecting something else."""
    n = net.node_count
    rng = np.random.default_rng(9)
    init = cg.UrnInit(red=tuple(rng.integers(1, 4, n) * 1.0),
                      black=tuple(rng.integers(1, 4, n) * 1.0))
    tabulated = cg.TabulatedDelta((rng.random((horizon, n)) * 2).tolist(),
                                  (rng.random((horizon, n)) * 2).tolist())
    common.update(net=net, init=init, horizon=horizon, seed=19)
    return [
        mc.RunConfig(sched=cg.ConstantDelta(1.0, 2.0), collect_pair_freq=True, **common),
        mc.RunConfig(sched=tabulated, memory=4, collect_sample_averages=True, **common),
        mc.RunConfig(sched=cg.CuringDelta(2.0, multiplier=1.5), memory=9,
                     collect_pair_freq=True, collect_sample_averages=True, **common),
        mc.RunConfig(sched=cg.ConstantDelta(1.0), **common),
    ]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("net, horizon", [(BA20, 449), (BA_CSR, 300)], ids=["dense", "csr"])
def test_a_group_equals_its_runs_one_by_one(net, horizon, threads):
    cfgs = stream_group(net, horizon, trials=7, chunk_size=3, threads=threads)
    # three chunks (3, 3 and 1 trials), each over several blocks of steps
    n = net.node_count
    assert horizon > mc._record_block(horizon, n, 2 * 3) == mc._time_block(horizon, n)
    assert_runs_one_by_one(cfgs)


def test_a_group_with_a_capped_record_equals_its_runs_one_by_one(monkeypatch):
    cfgs = stream_group(BA5, 151, trials=7, chunk_size=4)
    # blocks of 14 steps, for the group as for a config alone, with a
    # partial last block; a budget shared by two records would give 7
    monkeypatch.setattr(mc, "MIN_CALL_DOUBLES", 1)
    monkeypatch.setattr(mc, "RECORD_BYTES", 8 * 14 * 4 * 5)
    assert mc._record_block(151, 5, 2 * 4) == 7 and mc._record_block(151, 5, 4) == 14
    assert_runs_one_by_one(cfgs)


def test_a_group_holds_one_record():
    # 254 trials of 20 nodes: a 103-step block, the generator-call floor,
    # fills the record budget, so a second record could not be cut to fit
    cfgs = stream_group(BA20, 449, trials=254, chunk_size=254)
    k, n = 254, 20
    record = 8 * mc._record_block(449, n, k) * k * n
    assert mc._record_block(449, n, 2 * k) == 103 == -(-mc.MIN_CALL_DOUBLES // n)
    assert mc.RECORD_BYTES - 8 * k * n < record <= mc.RECORD_BYTES
    tracemalloc.start()
    try:
        group = mc.run_many(cfgs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # besides the record and the fill scratch, the run and its chunk each
    # hold every config's statistics; a config holds its ring, a tile of
    # row means and seven (k, N) slabs (masses, gains, proportions and two
    # draw slabs), and a step a few (k, N) temporaries
    held = sum(a.nbytes for stats in group
               for a in (stats.red_draw_counts, stats.pair_counts, stats.sample_averages,
                         stats.susceptibility_sum, stats.increment_sum, stats.increment_sumsq)
               if a is not None)
    rings = sum(16 * cfg.memory * k * n for cfg in cfgs if cfg.memory)
    tiles = 8 * (mc._stats_tile(449, k) + 1) * k * len(cfgs)
    slabs = 8 * k * n * (7 * len(cfgs) + 8)
    assert peak <= record + mc._FILL_SCRATCH_BYTES + 2 * held + rings + tiles + slabs


@pytest.mark.parametrize("chunk", [None, 6], ids=["one_chunk", "two_chunks"])
def test_fig5_ratios_in_one_group_equal_each_ratio_alone(chunk):
    # fig5's six runs, three ratios at infinite and finite memory, are one
    # stream group; each ratio alone is a group of its two memories
    ratios = tuple(ex.sis_ratio_cases(ex.sis_comparison_network()).values())
    runs = [run for pair in ex.run_sis_comparison(ratios, trials=12) for run in pair]
    assert [cfg.memory for cfg, _ in runs] == [None, ex.SIS_MEMORY] * 3
    if chunk is None:
        group = [stats for _, stats in runs]
        alone = [stats for ratio in ratios
                 for _, stats in ex.run_sis_comparison((ratio,), trials=12)[0]]
    else:
        cfgs = [dataclasses.replace(cfg, chunk_size=chunk) for cfg, _ in runs]
        group = mc.run_many(cfgs)
        alone = [stats for i in range(0, 6, 2) for stats in mc.run_many(cfgs[i:i + 2])]
    for got, expected in zip(group, alone, strict=True):
        assert_same_statistics(got, expected)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_group_collecting_assignments_equals_its_runs_one_by_one(threads):
    common = dict(net=CYCLE4, init=float_init(4), horizon=6, trials=40, seed=8,
                  chunk_size=15, threads=threads, collect_assignments=True)
    assert_runs_one_by_one([
        mc.RunConfig(sched=cg.ConstantDelta(1.0), **common),
        mc.RunConfig(sched=cg.ConstantDelta(1.0, 3.0), memory=2, collect_pair_freq=True,
                     **common),
    ])


def test_a_group_resolves_its_chunk_sizes():
    # an automatic chunk of all 50 trials is the same stream as a given one
    assert_runs_one_by_one([small_cfg(), small_cfg(chunk_size=50, memory=3)])


def test_an_empty_group_is_refused():
    with pytest.raises(InvalidParameter, match="at least one config"):
        mc.run_many([])


@pytest.mark.parametrize("change", [
    dict(seed=12), dict(trials=51), dict(horizon=9), dict(net=CYCLE4, init=float_init(4)),
    dict(chunk_size=7), dict(threads=2),
], ids=["seed", "trials", "horizon", "nodes", "chunk_size", "threads"])
def test_configs_that_share_no_stream_are_refused(change):
    with pytest.raises(InvalidParameter, match="must share"):
        mc.run_many([small_cfg(), small_cfg(**change)])


def test_a_float_fault_in_the_first_config_of_a_group_raises():
    # the first config faults while the last, stepping after it over the
    # same uniforms, does not
    common = dict(horizon=10_000, trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="during steps 4097-8192"):
            mc.run_many([small_cfg(sched=cg.ConstantDelta(2e304), **common),
                         small_cfg(**common)])


@pytest.mark.parametrize("n, k, steps, fits", [
    (100, 166, 31, True), (20, 200, 131, True), (100, 671, 21, False), (5, 1677, 410, False),
], ids=["mc_ba100", "mc_sis_memory", "fig4_ba100", "fig2"])
def test_canned_record_blocks(n, k, steps, fits):
    # the canned fig4 ba100 chunks and fig2's are held at the generator-call
    # floor, above the record budget
    assert mc._record_block(1000, n, k) == steps
    assert (8 * steps * k * n <= mc.RECORD_BYTES) == fits
    assert steps * n >= mc.MIN_CALL_DOUBLES


def canned_config(figure, trials):
    """A run config with one canned leg's network, horizon and trials,
    which are what size its chunks, built without running it."""
    if figure == "fig2":
        return ex.stationarity_config(trials=trials)
    if figure == "fig5":
        net = ex.sis_comparison_network()
        return mc.RunConfig(net=net, init=ex.sis_comparison_init(net),
                            sched=cg.ConstantDelta(ex.SIS_DELTA_RED), horizon=ex.SIS_HORIZON,
                            trials=trials, seed=ex.SIS_SEED, memory=ex.SIS_MEMORY)
    kind, n, m, gseed = ex.HIST_CASES[figure]["net"]
    return mc.RunConfig(net=graph.generate(kind, n, m=m, seed=gseed), init=float_init(n),
                        sched=cg.ConstantDelta(1.0), horizon=ex.HIST_HORIZON, trials=trials,
                        seed=ex.HIST_SEED, collect_sample_averages=True)


@pytest.mark.parametrize("figure, chunk", [("fig2", 1677), ("ba100", 671), ("ba5", 1677),
                                           ("fig5", 1023)])
def test_canned_auto_chunks_are_pinned(figure, chunk):
    # the chunk size is part of the config hash that every CSV carries
    assert mc._auto_chunk(canned_config(figure, 50_000)) == chunk


def test_urn_totals_that_overflow_in_a_later_block_raise_with_its_steps():
    # K2's pooled total passes the float range near step 4500, in the second
    # of three blocks of 4096 steps
    cfg = small_cfg(sched=cg.ConstantDelta(2e304), horizon=10_000, trials=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="during steps 4097-8192"):
            mc.run_trials(cfg)


def test_pooled_totals_that_overflow_in_csr_sums_raise():
    # every urn total is finite, but the super urns of nodes of degree >= 3
    # overflow; scipy's CSR sums raise no float flag, and the red sums stay
    # finite, so the super-urn proportions read 0 instead of NaN
    net = graph.generate("ba", CSR_N, m=2, seed=3)
    cfg = mc.RunConfig(net=net, init=cg.uniform_init(CSR_N, 1.0, 5e307),
                       sched=cg.ConstantDelta(1.0), horizon=5, trials=6, seed=0,
                       chunk_size=2, threads=2)
    with pytest.raises(DomainError, match="during steps 1-5"):
        mc.run_trials(cfg)


def test_pooled_totals_that_overflow_in_dense_sums_raise():
    # the same overflow on 40 nodes, pooled by BLAS products: the shared
    # total row by its own product beside the red rows'
    net = graph.generate("ba", 40, m=2, seed=3)
    cfg = mc.RunConfig(net=net, init=cg.uniform_init(40, 1.0, 5e307),
                       sched=cg.ConstantDelta(1.0), horizon=5, trials=6, seed=0,
                       chunk_size=2, threads=2)
    with pytest.raises(DomainError, match="during steps 1-5"):
        mc.run_trials(cfg)


def test_pooled_totals_that_overflow_for_one_step_raise():
    # with memory 1 every urn total stays finite, and the middle node's super
    # urn overflows only on steps where all three nodes drew red: at step 30
    # of this trial it is finite again
    cfg = mc.RunConfig(net=graph.build_network(3, [(0, 1), (1, 2)]), init=float_init(3),
                       sched=cg.ConstantDelta(6e307, 1.0), horizon=30, trials=1, seed=0,
                       memory=1)
    with pytest.raises(DomainError, match="during steps 1-30"):
        mc.run_trials(cfg)


# BA40's masses every 40 nodes: 2.0 - 0.03 * i turns negative past 66
CSR_MASSES = tuple(0.2 + 0.05 * (i % 40) for i in range(CSR_N))


@pytest.mark.parametrize("equal", [cg.ConstantDelta(1.0),
                                   cg.ConstantDelta(CSR_MASSES, CSR_MASSES)],
                         ids=["scalar", "per_node"])
@pytest.mark.parametrize("memory", [None, 7])
def test_equal_mass_runs_equal_the_same_masses_tabulated(memory, equal):
    # equal masses keep the urn total as one row per chunk (CSR pooling);
    # tabulated masses have no equal_masses and keep the total planes
    h = 250
    masses = tuple(np.broadcast_to(equal.equal_masses, CSR_N).tolist())
    tabulated = cg.TabulatedDelta([masses] * h, [masses] * h)
    assert tabulated.equal_masses is None
    init = cg.UrnInit(red=tuple(1.0 + 0.1 * (i % 40) for i in range(CSR_N)),
                      black=tuple(2.0 - 0.03 * (i % 40) for i in range(CSR_N)))
    runs = [mc.run_trials(mc.RunConfig(
                net=BA_CSR, init=init, sched=sched, horizon=h, trials=10, seed=21, memory=memory,
                chunk_size=5, collect_pair_freq=True, collect_sample_averages=True))
            for sched in (equal, tabulated)]
    for name in ("red_draw_counts", "susceptibility_sum", "increment_sum",
                 "increment_sumsq", "pair_counts", "sample_averages"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


BA40 = graph.generate("ba", 40, m=2, seed=3)
_RNG = np.random.default_rng(13)
TRAJECTORY_CASES = {
    # dense pooling, total planes, unequal masses
    "dense": dict(net=BA20, sched=cg.ConstantDelta(1.0, 2.0)),
    # equal masses on at most 32 nodes: a total plane that gains db itself
    "dense_equal_plane": dict(net=BA5, sched=cg.ConstantDelta(1.0), memory=3),
    # equal masses on 40 nodes: the shared total row, pooled by BLAS
    "dense_shared_row": dict(net=BA40, sched=cg.ConstantDelta(1.0)),
    # above the dense-pooling cap: the shared total row, pooled by CSR
    "csr_shared_row": dict(net=BA_CSR, sched=cg.ConstantDelta(0.5), memory=4),
    "csr_unequal": dict(net=BA_CSR, sched=cg.ConstantDelta(1.0, 0.5)),
    # masses that read the urn proportions
    "curing": dict(net=BA20, sched=cg.CuringDelta(2.0, multiplier=1.5), memory=9),
    "csr_curing": dict(net=BA_CSR, sched=cg.CuringDelta(0.3)),
    "tabulated": dict(net=BA20, sched=cg.TabulatedDelta((_RNG.random((60, 20)) * 2).tolist(),
                                                        (_RNG.random((60, 20)) * 2).tolist()),
                      memory=5),
}


TRAJECTORY_FIELDS = ("red_draw_counts", "susceptibility_sum", "increment_sum",
                     "increment_sumsq")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
def test_a_run_without_the_trajectory_equals_the_run_with_it(case, threads):
    kw = dict(TRAJECTORY_CASES[case])
    n = kw["net"].node_count
    init = cg.UrnInit(red=tuple(1.0 + 0.1 * (i % 7) for i in range(n)),
                      black=tuple(2.0 - 0.2 * (i % 5) for i in range(n)))
    # three chunks of 3, 3 and 1 trials
    cfg = mc.RunConfig(init=init, horizon=60, trials=7, seed=29, chunk_size=3, threads=threads,
                       collect_pair_freq=True, collect_sample_averages=True, **kw)
    full = mc.run_trials(cfg)
    bare = mc.run_trials(dataclasses.replace(cfg, collect_trajectory=False))
    for name in ("pair_counts", "sample_averages"):
        assert np.array_equal(getattr(bare, name), getattr(full, name)), name
    for name in TRAJECTORY_FIELDS:
        assert getattr(bare, name) is None and getattr(full, name) is not None, name


def test_a_run_without_the_trajectory_counts_the_same_assignments():
    cfg = small_cfg(net=CYCLE4, init=float_init(4), horizon=5, trials=60, chunk_size=25,
                    collect_assignments=True)
    bare = mc.run_trials(dataclasses.replace(cfg, collect_trajectory=False))
    assert np.array_equal(bare.assignment_counts, mc.run_trials(cfg).assignment_counts)


def test_a_run_that_collects_nothing_is_refused():
    with pytest.raises(InvalidParameter, match="at least one statistic"):
        small_cfg(collect_trajectory=False)


@pytest.mark.parametrize("read", [
    lambda stats: stats.infection_rate, lambda stats: stats.susceptibility,
    lambda stats: stats.increment_mean, lambda stats: stats.increment_sem,
    lambda stats: stats.pair_freq,
], ids=["infection_rate", "susceptibility", "increment_mean", "increment_sem", "pair_freq"])
def test_statistics_that_were_not_collected_raise(read):
    stats = mc.run_trials(small_cfg(collect_trajectory=False, collect_sample_averages=True))
    with pytest.raises(InvalidParameter, match="not collected"):
        read(stats)


def test_a_trajectory_csv_of_a_run_without_the_trajectory_is_refused(tmp_path):
    cfg = small_cfg(collect_trajectory=False, collect_pair_freq=True)
    with pytest.raises(InvalidParameter, match="not collected"):
        mc.write_trajectory_csv(mc.run_trials(cfg), cfg, tmp_path / "t.csv", pair_node=0)


def test_collection_flags_are_not_in_the_config_hash():
    cfg = small_cfg(collect_pair_freq=True)
    other = dataclasses.replace(cfg, collect_trajectory=False, collect_sample_averages=True)
    assert mc.config_hash(other) == mc.config_hash(cfg)


def test_histogram_runs_collect_no_trajectory():
    cfg, stats, node, beta, ks = ex.histogram_case("classical", trials=20)
    assert not cfg.collect_trajectory and stats.red_draw_counts is None
    assert stats.sample_averages.shape == (20, 1)


def test_an_overflowing_run_without_the_trajectory_raises():
    cfg = small_cfg(sched=cg.ConstantDelta(2e304), horizon=10_000, trials=2,
                    collect_trajectory=False, collect_sample_averages=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="during steps 4097-8192"):
            mc.run_trials(cfg)


@pytest.mark.parametrize("n", [40, CSR_N], ids=["dense", "csr"])
def test_pooled_totals_that_overflow_without_the_trajectory_raise(n):
    # every urn total is finite, but the super urns of nodes of degree >= 3
    # overflow: a flag in BLAS products, none in scipy's CSR sums
    cfg = mc.RunConfig(net=graph.generate("ba", n, m=2, seed=3),
                       init=cg.uniform_init(n, 1.0, 5e307), sched=cg.ConstantDelta(1.0),
                       horizon=5, trials=6, seed=0, chunk_size=2,
                       collect_trajectory=False, collect_pair_freq=True)
    with pytest.raises(DomainError, match="during steps 1-5"):
        mc.run_trials(cfg)


def test_identical_configs_reproduce_bitwise():
    cfg = small_cfg(trials=40, collect_pair_freq=True)
    a = mc.run_trials(cfg)
    b = mc.run_trials(cfg)
    assert np.array_equal(a.red_draw_counts, b.red_draw_counts)
    assert np.array_equal(a.susceptibility_sum, b.susceptibility_sum)
    assert np.array_equal(a.pair_counts, b.pair_counts)


def test_threads_and_scheduling_do_not_change_results():
    base = small_cfg(trials=64, chunk_size=7)
    threaded = small_cfg(trials=64, chunk_size=7, threads=4)
    a = mc.run_trials(base)
    b = mc.run_trials(threaded)
    assert np.array_equal(a.red_draw_counts, b.red_draw_counts)
    assert np.array_equal(a.susceptibility_sum, b.susceptibility_sum)
    assert np.array_equal(a.increment_sumsq, b.increment_sumsq)


POOL_CONFIGS = {
    # at most the dense-pooling cap: dense neighbourhood sums, with a
    # finite-memory ring buffer
    "dense": dict(net=graph.generate("ba", 6, m=2, seed=1), horizon=3, trials=90, seed=7,
                  memory=2, chunk_size=11, collect_assignments=True),
    # above the dense-pooling cap: CSR neighbourhood sums, several time blocks
    "csr": dict(net=BA_CSR, horizon=300, trials=30, seed=9,
                chunk_size=4),
}


@pytest.mark.parametrize("name", sorted(POOL_CONFIGS))
def test_worker_processes_do_not_change_results(name):
    kw = POOL_CONFIGS[name]
    n = kw["net"].node_count
    runs = [mc.run_trials(mc.RunConfig(
                init=float_init(n), sched=cg.ConstantDelta(1.0, 2.0), collect_pair_freq=True,
                collect_sample_averages=True, threads=threads, **kw))
            for threads in (1, 2, 4)]
    fields = ["red_draw_counts", "pair_counts", "sample_averages", "assignment_counts",
              "susceptibility_sum", "increment_sum", "increment_sumsq"]
    for stats in runs[1:]:
        for f in fields:
            assert np.array_equal(getattr(stats, f), getattr(runs[0], f)), f
    if runs[0].assignment_counts is not None:
        assert runs[0].assignment_counts.sum() == kw["trials"]


@pytest.mark.parametrize("n", [cg.DENSE_POOLING_MAX_NODES, cg.DENSE_POOLING_MAX_NODES + 1],
                         ids=["dense_at_cap", "csr_above_cap"])
def test_pooling_at_and_above_the_cap_counts_alike_for_any_workers_and_chunks(n):
    # equal masses: one shared total row, pooled by BLAS at the cap and by
    # CSR above it; the integer statistics do not depend on the chunking,
    # and no statistic depends on the worker count
    net = graph.generate("ba", n, m=2, seed=3)
    runs = {(chunk, threads): mc.run_trials(mc.RunConfig(
                net=net, init=float_init(n), sched=cg.ConstantDelta(1.0), horizon=40,
                trials=12, seed=4, chunk_size=chunk, threads=threads,
                collect_pair_freq=True, collect_sample_averages=True))
            for chunk in (3, 5, 12) for threads in (1, 2, 4)}
    base = runs[12, 1]
    for (chunk, threads), stats in runs.items():
        for f in ("red_draw_counts", "pair_counts", "sample_averages"):
            assert np.array_equal(getattr(stats, f), getattr(base, f)), (chunk, threads, f)
        for f in ("susceptibility_sum", "increment_sum", "increment_sumsq"):
            assert np.array_equal(getattr(stats, f), getattr(runs[chunk, 1], f)), (chunk, f)


def pools_in_float32(cfg):
    """Whether ``cfg``'s urn batches hold their masses in float32."""
    batch = cg.UrnBatch(cfg.net, cfg.init, 1, memory=cfg.memory, sched=cfg.sched,
                        horizon=cfg.horizon)
    return batch.red.dtype == np.float32


# a 39-node cycle and a leaf, node 39, on node 0: node 0's closed
# neighbourhood, {0, 1, 38, 39}, holds the largest pooled total, and only the
# leaf and the cycle's nodes away from node 0 gain mass (8 and 1 a step)
LEAF40 = graph.build_network(40, [(i, (i + 1) % 39) for i in range(39)] + [(0, 39)])
LEAF_MASSES = tuple(8.0 if i == 39 else 0.0 if i in (0, 1, 38) else 1.0 for i in range(40))
LEAF_HORIZON = 20


def leaf_case(leaf_total):
    """Config fields of a run on LEAF40 whose leaf starts with urn total
    ``leaf_total`` (about half red), every other urn with 1 red and 1
    black: its largest pooled total after h steps is 6 + leaf_total + 8h,
    the leaf's own total leaf_total + 8h."""
    red, black = [1.0] * 40, [1.0] * 40
    red[39] = float(1 << 23)
    black[39] = leaf_total - red[39]
    return dict(net=LEAF40, init=cg.UrnInit(red=tuple(red), black=tuple(black)),
                sched=cg.ConstantDelta(LEAF_MASSES, LEAF_MASSES), horizon=LEAF_HORIZON)


_INTEGER_INIT = cg.UrnInit(red=tuple(1.0 + i % 3 for i in range(40)),
                           black=tuple(1.0 + i % 5 for i in range(40)))
EXACT_POOLING_CASES = {
    # the canned fig4 ba100 leg's network, urns and masses, fewer steps
    "ba100": dict(net=graph.generate("ba", 100, m=2, seed=3), init=float_init(100),
                  sched=cg.ConstantDelta(1.0), horizon=120),
    # above the dense-pooling cap: float32 CSR sums
    "csr": dict(net=BA_CSR, init=float_init(CSR_N, 2.0, 3.0), sched=cg.ConstantDelta(3.0),
                horizon=60, memory=9),
    "memory": dict(net=BA40, init=_INTEGER_INIT, sched=cg.ConstantDelta(2.0), horizon=90,
                   memory=7),
    "per_node": dict(net=BA40, init=_INTEGER_INIT,
                     sched=cg.ConstantDelta(*[tuple(1.0 + i % 4 for i in range(40))] * 2),
                     horizon=90),
    # the largest pooled total after the last step is 2^24 - 1
    "below_the_bound": leaf_case((1 << 24) - 7 - 8 * LEAF_HORIZON),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(EXACT_POOLING_CASES))
def test_float32_pooling_equals_float64_dense_and_csr_pooling(monkeypatch, case, threads):
    # integer urns below the bound: float32 planes and sums give every
    # statistic's bits, the trajectory's (which reads the urn proportions)
    # included, as float64 ones do, pooled by dense products and by CSR sums
    cfg = mc.RunConfig(**EXACT_POOLING_CASES[case], trials=24, seed=3, chunk_size=16,
                       threads=threads, collect_pair_freq=True, collect_sample_averages=True)
    assert pools_in_float32(cfg)
    ours = mc.run_trials(cfg)
    monkeypatch.setattr(cg, "_pools_exactly", lambda *args: False)  # float64 planes
    assert not pools_in_float32(cfg)
    assert_same_statistics(ours, mc.run_trials(cfg))
    # then the other pooling: CSR sums, or dense products
    n, cap = cfg.net.node_count, cg.DENSE_POOLING_MAX_NODES
    monkeypatch.setattr(cg, "DENSE_POOLING_MAX_NODES", 32 if n <= cap else n)
    assert_same_statistics(ours, mc.run_trials(cfg))


def test_a_run_one_step_past_the_bound_pools_in_float64(monkeypatch):
    # the largest pooled total after the last step is 2^24 + 7, and the
    # leaf's own total 2^24 + 1, which float32 rounds: a bound one step
    # short would let float32 planes change the last step's trajectory
    cfg = mc.RunConfig(**leaf_case((1 << 24) + 1 - 8 * LEAF_HORIZON), trials=24, seed=3,
                       chunk_size=16)
    assert not pools_in_float32(cfg)
    stats = mc.run_trials(cfg)
    monkeypatch.setattr(cg, "_pools_exactly", lambda *args: False)
    assert_same_statistics(stats, mc.run_trials(cfg))
    monkeypatch.setattr(cg, "_pools_exactly", lambda *args: True)  # float32 regardless
    rounded = mc.run_trials(cfg).susceptibility_sum
    assert np.array_equal(rounded[:-1], stats.susceptibility_sum[:-1])
    assert rounded[-1] != stats.susceptibility_sum[-1]


def test_integer_pooled_runs_count_alike_for_any_chunks_and_workers():
    # the canned fig4 ba100 leg, fewer steps: float32 pooling is exact, so
    # every integer statistic is the same for any chunk size (the float sums
    # are reduced per chunk, and are not compared across chunk sizes); no
    # assignment codes, which need N * h <= 24
    cfg = canned_config("ba100", 166)
    runs = {(chunk, threads): mc.run_trials(dataclasses.replace(
                cfg, horizon=60, chunk_size=chunk, threads=threads, collect_pair_freq=True))
            for chunk in (16, 83, 166) for threads in (1, 2)}
    assert pools_in_float32(dataclasses.replace(cfg, horizon=60))
    base = runs[166, 1]
    for key, stats in runs.items():
        for name in ("red_draw_counts", "pair_counts", "sample_averages"):
            assert np.array_equal(getattr(stats, name), getattr(base, name)), (key, name)


def test_worker_processes_have_exited_after_a_run_and_after_a_failure():
    mc.run_trials(small_cfg(trials=40, chunk_size=5, threads=2))
    assert multiprocessing.active_children() == []
    with pytest.raises(DomainError):
        mc.run_trials(small_cfg(sched=cg.ConstantDelta(1e308), trials=40, chunk_size=5,
                                threads=2))
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_a_library_error(monkeypatch):
    def die(*args, **kwargs):
        os._exit(3)

    monkeypatch.setattr(mc, "UrnBatch", die)  # forked workers inherit the patch
    with pytest.raises(PolyaNetError, match="ended abruptly"):
        mc.run_trials(small_cfg(trials=40, chunk_size=5, threads=2))
    assert multiprocessing.active_children() == []


def test_a_single_chunk_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = small_cfg(trials=40, threads=4)
    assert mc._auto_chunk(cfg) >= cfg.trials
    assert mc.run_trials(cfg).red_draw_counts.sum() > 0


_FORK_SEES_SPARSE = """
import json, os, sys
from polya_net import contagion as cg, graph, montecarlo as mc
n = cg.DENSE_POOLING_MAX_NODES + 1
net = graph.generate("ba", n, m=2, seed=3)
cfg = mc.RunConfig(net=net, init=cg.uniform_init(n, 1.0, 1.0), sched=cg.ConstantDelta(1.0),
                   horizon=5, trials=20, seed=1, chunk_size=10, threads=2)
seen, fork = [], os.fork
def recording_fork():
    seen.append("scipy.sparse" in sys.modules)
    return fork()
os.fork = recording_fork
before = "scipy.sparse" in sys.modules
mc.run_trials(cfg)
print(json.dumps([before, seen]))
"""


def test_a_pool_imports_csr_support_before_it_forks():
    # above the dense-pooling cap the urns pool by CSR sums; the parent imports
    # scipy.sparse once, so no worker pays for the import
    src = os.path.dirname(os.path.dirname(mc.__file__))
    done = subprocess.run([sys.executable, "-c", _FORK_SEES_SPARSE],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, seen = json.loads(done.stdout)
    assert not before
    assert seen == [True, True]


_WORKER_BLAS_THREADS = """
import ctypes, glob, json, os
import numpy as np
from polya_net import contagion as cg, graph, montecarlo as mc
[path] = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
lib = ctypes.CDLL(path)
name = next(name for name in mc._OPENBLAS_SET_THREADS if hasattr(lib, name))
blas_threads = getattr(lib, name.replace("_set_", "_get_"))
def report(cfgs, lo, hi):  # each worker reports its own count, not a chunk's statistics
    return blas_threads()
report.__module__, report.__qualname__ = mc.__name__, "_run_chunk"  # pickled by name
mc._run_chunk = report
cfg = mc.RunConfig(net=graph.generate("ba", 10, m=2, seed=3), init=cg.uniform_init(10, 1.0, 1.0),
                   sched=cg.ConstantDelta(1.0), horizon=5, trials=20, seed=1, threads=2)
print(json.dumps([blas_threads(), list(mc._map_chunks((cfg,), 5)), blas_threads()]))
"""


def test_workers_run_blas_on_one_thread():
    # the parent is given two BLAS threads; each forked worker drops to one,
    # so that workers' dense products do not compete for the same cores
    src = os.path.dirname(os.path.dirname(mc.__file__))
    done = subprocess.run([sys.executable, "-c", _WORKER_BLAS_THREADS],
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, workers, after = json.loads(done.stdout)
    assert workers == [1, 1, 1, 1]
    assert before == after  # two, on a machine with two cores or more


def test_a_runtime_error_in_a_worker_exits_two_with_one_line(tmp_path):
    path = tmp_path / "k2.edges"
    graph.write_edge_list(K2, path)
    # 2 nodes x 4096-step blocks leave room for 1024 trials per chunk: 2100
    # trials are 3 chunks
    argv = ["simulate", "--graph", str(path), "--horizon", "10000", "--trials", "2100",
            "--delta-red", "1e308", "--delta-black", "1e308", "--threads", "2"]
    assert mc._auto_chunk(mc.RunConfig(net=K2, init=float_init(2), sched=cg.ConstantDelta(1.0),
                                       horizon=10000, trials=2100, seed=0)) < 1050
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "polya_net.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("error: urn masses left the float range")
    assert len(done.stderr.splitlines()) == 1, done.stderr


def test_zero_schedule_infection_rate_near_half():
    cfg = mc.RunConfig(net=K2, init=float_init(2), sched=cg.ConstantDelta(0.0),
                       horizon=10, trials=20_000, seed=3)
    stats = mc.run_trials(cfg)
    sigma = 0.5 / np.sqrt(cfg.trials * 2)
    for t in range(1, 11):
        assert abs(stats.infection_rate[t] - 0.5) <= 3 * sigma


def test_run_config_validation():
    with pytest.raises(InvalidParameter):
        small_cfg(trials=0)
    with pytest.raises(InvalidParameter):
        small_cfg(horizon=100, collect_assignments=True)


@pytest.mark.parametrize("kw, error", [
    (dict(memory=0), InvalidParameter),
    (dict(memory=-2), InvalidParameter),
    (dict(init=float_init(3)), SizeMismatch),
    (dict(chunk_size=0), InvalidParameter),
    (dict(chunk_size=-1), InvalidParameter),  # ran no chunk and reported zero draws
    (dict(threads=0), InvalidParameter),
    (dict(horizon=13, collect_assignments=True), InvalidParameter),  # 2 * 13 > cap
    # each of these raised a raw TypeError or ValueError, or was accepted
    *((kw, InvalidParameter) for kw in (
        dict(trials=2.5), dict(horizon=2.5), dict(memory=2.5), dict(chunk_size=2.5),
        dict(horizon=True), dict(seed=float("nan")), dict(threads=2.5),
        dict(trials=10 ** 30), dict(trials=1 << 64))),
])
def test_run_config_rejects_bad_input_with_typed_errors(kw, error):
    with pytest.raises(error):
        small_cfg(**kw)


def test_run_config_keeps_numpy_integers_as_ints():
    cfg = small_cfg(trials=np.int64(20), seed=np.uint64(7), chunk_size=np.int32(8))
    assert (type(cfg.trials), type(cfg.seed), type(cfg.chunk_size)) == (int, int, int)
    assert mc.config_hash(cfg) == mc.config_hash(small_cfg(trials=20, seed=7, chunk_size=8))


def test_auto_chunk_is_the_largest_whose_draw_record_fits(monkeypatch):
    net = graph.generate("ba", 100, m=2, seed=3)
    cfg = mc.RunConfig(net=net, init=float_init(100), sched=cg.ConstantDelta(1.0),
                       horizon=1000, trials=5000, seed=0)
    block = mc._time_block(1000, 100)
    assert block < 1000  # a chunk budgets a time block, not the whole horizon

    def block_bytes(k):
        return 8 * block * k * 100

    monkeypatch.setattr(mc, "UNIFORM_BUFFER_BYTES", 4 << 20)
    chunk = mc._auto_chunk(cfg)
    assert 16 < chunk < cfg.trials
    assert block_bytes(chunk) <= 4 << 20 < block_bytes(chunk + 1)
    monkeypatch.setattr(mc, "UNIFORM_BUFFER_BYTES", 1 << 20)
    assert block_bytes(16) > 1 << 20
    assert mc._auto_chunk(cfg) == 16


SMALL_NETS = (graph.generate_complete(1), K2, graph.build_network(3, [(0, 1), (1, 2)]),
              graph.generate_complete(3), STAR4, CYCLE4)


@st.composite
def small_processes(draw, kind):
    """(net, horizon, memory, build) with build(conv) -> (init, schedule) made
    from the same rational parameters, converted by ``conv``."""
    net = draw(st.sampled_from(SMALL_NETS))
    n = net.node_count
    h = draw(st.integers(2, 4))
    memory = draw(st.sampled_from([None, 1, 2, 3]))
    positive = st.sampled_from([F(1), F(2), F(3), F(1, 2)])
    mass = st.sampled_from([F(0), F(1, 2), F(1), F(2)])
    red = [draw(positive) for _ in range(n)]
    black = [draw(positive) for _ in range(n)]
    if kind == "constant":
        params = ([draw(mass) for _ in range(n)], [draw(mass) for _ in range(n)])
    elif kind == "tabulated":
        params = tuple([[draw(mass) for _ in range(n)] for _ in range(h)] for _ in "rb")
    else:
        params = (draw(mass), draw(st.sampled_from([F(0), F(1, 2), F(1), F(3, 2)])))

    def build(conv):
        init = cg.UrnInit(red=tuple(map(conv, red)), black=tuple(map(conv, black)))
        if kind == "constant":
            sched = cg.ConstantDelta(*(tuple(map(conv, v)) for v in params))
        elif kind == "tabulated":
            sched = cg.TabulatedDelta(*([list(map(conv, row)) for row in rows]
                                        for rows in params))
        else:
            sched = cg.CuringDelta(*map(conv, params))
        return init, sched

    return net, h, memory, build


@pytest.mark.parametrize("kind", ["constant", "tabulated", "curing"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_shared_step_matches_scalar_and_exact_references(kind, data):
    net, h, memory, build = data.draw(small_processes(kind))
    init, sched = build(float)
    cfg = mc.RunConfig(net=net, init=init, sched=sched, horizon=h, trials=5, seed=3,
                       memory=memory)
    counts = np.zeros((h + 1, net.node_count), dtype=np.int64)
    for k in range(cfg.trials):
        rec, _ = cg.simulate_path(net, init, sched, h, mc.trial_generator(cfg.seed, k),
                                  memory=memory)
        counts[1:] += np.array(rec.steps)
    assert np.array_equal(mc.run_trials(cfg).red_draw_counts, counts)

    floats = exact.enumerate_joint(net, init, sched, h, exact=False, memory=memory)
    rationals = exact.enumerate_joint(net, *build(F), h, memory=memory)
    assert rationals.total() == 1
    assert max(abs(float(p) - q) for p, q in zip(rationals.probs, floats.probs)) < 1e-12


def test_assignment_counts_total():
    cfg = small_cfg(horizon=3, trials=200, collect_assignments=True)
    stats = mc.run_trials(cfg)
    assert stats.assignment_counts.sum() == 200
    assert stats.assignment_counts.shape == (2 ** 6,)


def test_histogram_area_and_degenerate_bin():
    hist = mc.histogram(np.full(100, 0.52), bins=10)
    width = hist.edges[1] - hist.edges[0]
    assert np.sum(hist.density * width) == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(hist.density) == 1
    assert hist.density.max() == pytest.approx(10.0)
    with pytest.raises(InvalidParameter):
        mc.histogram([0.5], bins=4)


def test_ks_fit_uniform_samples():
    rng = np.random.default_rng(0)
    samples = rng.random(5000)  # inverse-cdf sampling of Beta(1,1)
    ks = mc.ks_fit(samples, exact.BetaParams(1.0, 1.0))
    assert ks <= 0.03


def test_ks_fit_identical_point_mass_granularity():
    samples = np.full(500, 0.5)
    ks = mc.ks_fit(samples, exact.BetaParams(1.0, 1.0))
    assert ks == pytest.approx(0.5, abs=1e-12)  # point mass vs uniform cdf


def test_ks_fit_detects_wrong_distribution():
    rng = np.random.default_rng(1)
    ks = mc.ks_fit(rng.random(2000) ** 2, exact.BetaParams(1.0, 1.0))
    assert ks > 0.2


def test_ks_fit_is_the_per_sample_cdf_loop():
    # fig4's size: 5000 sample averages against a Beta(2, 3) limit
    samples = np.random.default_rng(4).beta(2.0, 3.0, 5000)
    beta = exact.BetaParams(2.0, 3.0)
    data = np.sort(samples)
    cdf = np.array([exact.beta_cdf(beta, x) for x in data])
    n = data.size
    loop = float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n)))
    assert mc.ks_fit(samples, beta) == loop


@pytest.mark.parametrize("bad", [-0.25, 1.5, float("nan")])
def test_ks_fit_refuses_samples_outside_the_unit_interval(bad):
    with pytest.raises(DomainError, match="cdf is defined on"):
        mc.ks_fit([0.2, bad, 0.7], exact.BetaParams(1.0, 1.0))


def test_stationarity_zero_schedule_noise_level():
    cfg = mc.RunConfig(net=K2, init=float_init(2), sched=cg.ConstantDelta(0.0),
                       horizon=100, trials=30_000, seed=17, collect_pair_freq=True)
    stats = mc.run_trials(cfg)
    report = mc.stationarity_diagnostic(stats, node=0)
    assert 0.0 <= report.settled_value <= 1.0
    assert report.settled_value == pytest.approx(0.25, abs=0.01)
    # successive deviations stay at the binomial noise scale
    assert report.max_successive_deviation < 6 * np.sqrt(2 * 0.25 * 0.75 / cfg.trials)
    with pytest.raises(InvalidParameter):
        mc.stationarity_diagnostic(stats, node=0, window=1000)


@pytest.fixture(scope="module")
def k2_pair_stats():
    return mc.run_trials(small_cfg(trials=20, horizon=20, collect_pair_freq=True))


@pytest.mark.parametrize("node", [2.5, 10**30, -1, 2])
def test_stationarity_diagnostic_refuses_a_node_outside_the_network(k2_pair_stats, node):
    with pytest.raises(InvalidParameter, match="node"):
        mc.stationarity_diagnostic(k2_pair_stats, node=node)


def test_stationarity_diagnostic_refuses_a_window_that_is_not_an_integer(k2_pair_stats):
    with pytest.raises(InvalidParameter, match="window must be an integer"):
        mc.stationarity_diagnostic(k2_pair_stats, node=0, window=2.5)


@pytest.mark.parametrize("pair_node", [2.5, -1])
def test_trajectory_csv_refuses_a_pair_node_outside_the_network(k2_pair_stats, tmp_path,
                                                                pair_node):
    with pytest.raises(InvalidParameter, match="pair_node"):
        mc.write_trajectory_csv(k2_pair_stats, small_cfg(trials=20, horizon=20,
                                                         collect_pair_freq=True),
                                tmp_path / "t.csv", pair_node=pair_node)


@pytest.mark.parametrize("seed, trial", [(float("nan"), 0), (1.5, 0), (1, -1), (1, 1 << 64)],
                         ids=["nan_seed", "float_seed", "negative_trial", "trial_2_64"])
def test_trial_generator_refuses_a_key_that_is_not_a_philox_key(seed, trial):
    with pytest.raises(InvalidParameter):
        mc.trial_generator(seed, trial)


def test_martingale_residual_regular_network():
    cfg = mc.RunConfig(net=CYCLE4, init=float_init(4, 1.0, 2.0),
                       sched=cg.ConstantDelta(1.0), horizon=12, trials=30_000, seed=23)
    res = mc.martingale_residual(cfg)
    for t in range(1, 13):
        assert abs(res.mean[t]) <= 4 * res.sem[t] + 1e-12


def test_martingale_residual_hypothesis_checks():
    with pytest.raises(HypothesisViolation):
        mc.martingale_residual(small_cfg(net=STAR4, init=float_init(4)))
    with pytest.raises(HypothesisViolation):
        mc.martingale_residual(small_cfg(init=cg.UrnInit(red=(1.0, 2.0),
                                                         black=(1.0, 1.0))))
    with pytest.raises(HypothesisViolation):
        mc.martingale_residual(small_cfg(sched=cg.ConstantDelta(1.0, 2.0)))


def test_star_network_has_nonzero_exact_drift():
    # irregular topology: the susceptibility is not drift-free; witness by
    # exact two-outcome expectations from an asymmetric state
    init = cg.UrnInit(red=(F(3), F(1), F(1), F(1)), black=(F(1), F(3), F(3), F(3)))
    state = cg.initial_state(STAR4, init)
    s = cg.conditional_draw_probabilities(state, STAR4)
    drift = F(0)
    for i in range(4):
        red, total = state.red_mass[i], state.total_mass[i]
        e_u = s[i] * (red + 1) / (total + 1) + (1 - s[i]) * red / (total + 1)
        drift += e_u - state.urn_proportion(i)
    assert drift != 0


def test_curing_multiplier_trends():
    init = float_init(3, 3.0, 3.0)
    path3 = graph.build_network(3, [(0, 1), (1, 2)])
    up = mc.run_trials(mc.RunConfig(net=path3, init=init,
                                    sched=cg.ConstantDelta(1.0, 0.0),
                                    horizon=30, trials=20_000, seed=5))
    down = mc.run_trials(mc.RunConfig(net=path3, init=init,
                                      sched=cg.CuringDelta(1.0, multiplier=2.0),
                                      horizon=30, trials=20_000, seed=5))
    u_up = up.susceptibility
    u_down = down.susceptibility
    assert u_up[30] > u_up[0] + 0.05          # no curing: proportions rise
    assert u_down[30] < u_down[0] - 0.01      # twice the threshold: they fall
    assert np.all(np.diff(u_up) > -1e-3)
    assert np.all(np.diff(u_down) < 1e-3)


def test_trajectory_csv_headers_and_reproducibility(tmp_path):
    cfg = small_cfg(trials=25, collect_pair_freq=True)
    stats = mc.run_trials(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mc.write_trajectory_csv(stats, cfg, p1, pair_node=1)
    mc.write_trajectory_csv(mc.run_trials(cfg), cfg, p2, pair_node=1)
    body1, body2 = p1.read_bytes(), p2.read_bytes()
    assert body1 == body2
    text = body1.decode()
    assert text.startswith(f"# config_sha256={mc.config_hash(cfg)} master_seed=11 ")
    assert "version=" in text.splitlines()[0]
    assert text.splitlines()[1] == "t,I_tilde,U_tilde,pair_freq"


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    mc.write_csv(path, {"x": np.float64(0.1), "n": 3, "tag": "a b"}, ["t", "v", "w", "s", "f"],
                 [range(1, 3), np.array([1 / 3, 0.25]), [None, 1e-300], ["0.500", "x"],
                  np.array([0.1, 2.0], dtype=np.float32)])
    assert path.read_text() == ("# x=0.1 n=3 tag=a b\n"
                                "t,v,w,s,f\n"
                                "1,0.3333333333333333,,0.500,0.10000000149011612\n"
                                "2,0.25,1e-300,x,2.0\n")
    with pytest.raises(SizeMismatch):
        mc.write_csv(path, {}, ["t", "v"], [range(3), np.zeros(2)])
    with pytest.raises(SizeMismatch):
        mc.write_csv(path, {}, ["t"], [range(3), range(3)])


def test_write_csv_keeps_the_bits_of_every_float(tmp_path):
    # a float column of every magnitude, subnormals and signed zeros
    # included, reads back bit for bit and as a cell-by-cell repr wrote it
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.random(200), rng.standard_normal(200) * 10.0 ** rng.integers(
        -310, 308, 200), [0.0, -0.0, 5e-324, 1e16, 1e-5, 1e-4, 123456789012345680.0]])
    path = tmp_path / "f.csv"
    mc.write_csv(path, {}, ["t", "v"], [range(len(values)), values])
    lines = path.read_text().splitlines()[2:]
    assert lines == [f"{t},{float(v)!r}" for t, v in enumerate(values)]
    assert np.array_equal(np.array([float(line.split(",")[1]) for line in lines]), values)


def test_least_squares_trend_recovers_slope():
    rng = np.random.default_rng(0)
    y = 0.002 * np.arange(400) + 0.3 + rng.normal(0, 0.01, 400)
    slope, se = mc.least_squares_trend(y)
    assert slope == pytest.approx(0.002, abs=3 * se)
    assert slope / se > 10


def test_least_squares_trend_needs_two_distinct_times():
    for y, t in (([0.5], None), ([], None), ([0.1, 0.2, 0.3], [2.0, 2.0, 2.0])):
        with pytest.raises(InvalidParameter):
            mc.least_squares_trend(y, t)
    with pytest.raises(SizeMismatch):
        mc.least_squares_trend([0.1, 0.2, 0.3], [0.0, 1.0])


@pytest.mark.parametrize("y, t", [([1.0, np.nan, 3.0], None), ([1.0, np.inf, 3.0], None),
                                  ([1.0, 2.0, 3.0], [0.0, np.nan, 2.0])],
                         ids=["nan_value", "inf_value", "nan_time"])
def test_least_squares_trend_rejects_values_that_are_not_finite(y, t):
    with pytest.raises(DomainError, match="finite"):
        mc.least_squares_trend(y, t)


@pytest.mark.parametrize("y, t", [([1.0, 2.0, 1e308], None), ([1.0, 2.0], [0.0, 1e308]),
                                  ([1.0, 2.0], [0.0, 1e-200])],
                         ids=["residuals_overflow", "times_overflow", "times_underflow"])
def test_least_squares_trend_refuses_sums_that_leave_the_float_range(y, t):
    # every time and value is finite, but a sum of squares is not
    with pytest.raises(DomainError, match="float range"):
        mc.least_squares_trend(y, t)


BAD_SCHEDULES = {
    "three_node_constant": cg.ConstantDelta((F(1), F(1), F(1))),
    "one_node_constant": cg.ConstantDelta((F(1),)),
    "three_node_black": cg.ConstantDelta(F(1), (F(1), F(2), F(1))),
    "short_table": cg.TabulatedDelta([(F(1), F(1))], [(F(1), F(1))]),
    "narrow_table": cg.TabulatedDelta([(F(1),)] * 3, [(F(1),)] * 3),
}
K2_INIT = cg.uniform_init(2, F(1), F(1))
SCHEDULE_PATHS = {
    "run_config": lambda sched: mc.RunConfig(net=K2, init=K2_INIT, sched=sched,
                                             horizon=3, trials=4, seed=0),
    "exact_enumeration": lambda sched: exact.enumerate_joint(K2, K2_INIT, sched, 3),
    "float_enumeration": lambda sched: exact.enumerate_joint(K2, K2_INIT, sched, 3,
                                                             exact=False),
    "iter_histories": lambda sched: list(exact.iter_histories(K2, K2_INIT, sched, 3)),
    "simulate_path": lambda sched: cg.simulate_path(K2, K2_INIT, sched, 3,
                                                    np.random.default_rng(0)),
}


@pytest.mark.parametrize("path", SCHEDULE_PATHS)
@pytest.mark.parametrize("bad", BAD_SCHEDULES)
def test_schedule_of_the_wrong_size_is_rejected_on_every_path(bad, path):
    with pytest.raises(SizeMismatch):
        SCHEDULE_PATHS[path](BAD_SCHEDULES[bad])


def test_complete_network_infection_rate_time_invariant():
    # asymmetric urns on a complete triangle: the empirical red fraction
    # stays within binomial noise of the initial pooled fraction at every step
    k3 = graph.generate_complete(3)
    init = cg.UrnInit(red=(2.0, 1.0, 1.0), black=(1.0, 2.0, 2.0))
    rho = 4.0 / 9.0
    cfg = mc.RunConfig(net=k3, init=init, sched=cg.ConstantDelta(1.0),
                       horizon=12, trials=20_000, seed=8)
    stats = mc.run_trials(cfg)
    sigma = np.sqrt(rho * (1 - rho) / cfg.trials)  # conservative: full correlation
    for t in range(1, 13):
        assert abs(stats.infection_rate[t] - rho) <= 3.5 * sigma


def test_sample_average_ks_decreases_with_horizon():
    # the sample average approaches its limit law as the horizon grows, so
    # the KS distance to the limiting Beta must shrink
    beta = exact.BetaParams(1.0, 1.0)
    distances = []
    for horizon in (60, 1000):
        cfg = mc.RunConfig(net=graph.generate_complete(1),
                           init=cg.uniform_init(1, 1.0, 1.0),
                           sched=cg.ConstantDelta(1.0), horizon=horizon,
                           trials=2000, seed=21, collect_sample_averages=True)
        stats = mc.run_trials(cfg)
        distances.append(mc.ks_fit(stats.sample_averages[:, 0], beta))
    assert distances[1] < distances[0]


def test_histogram_rejects_samples_outside_the_unit_interval():
    for bad in (np.nan, 2.0, -0.1):
        with pytest.raises(DomainError):
            mc.histogram([0.1, bad, 0.3], 2)


@pytest.mark.parametrize("bins", [2.5, 2.0, "2", None])
def test_histogram_rejects_a_bin_count_that_is_not_an_integer(bins):
    with pytest.raises(InvalidParameter, match="bins must be an integer"):
        mc.histogram([0.1, 0.5, 0.9], bins)


def test_martingale_residual_rejects_schedules_without_one_equal_constant_mass():
    for sched in (cg.TabulatedDelta([[1.0, 1.0]] * 8, [[1.0, 1.0]] * 8), cg.CuringDelta(1.0),
                  cg.ConstantDelta((1.0, 2.0))):
        with pytest.raises(HypothesisViolation):
            mc.martingale_residual(small_cfg(sched=sched))


def test_martingale_residual_accepts_equal_per_node_masses():
    res = mc.martingale_residual(small_cfg(sched=cg.ConstantDelta((1.0, 1.0), (1.0, 1.0))))
    want = mc.martingale_residual(small_cfg())
    assert np.array_equal(res.mean, want.mean, equal_nan=True)
    assert np.array_equal(res.sem, want.sem, equal_nan=True)
