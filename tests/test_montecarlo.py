import concurrent.futures
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

from polya_net import contagion as cg, exact, graph, montecarlo as mc
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
    net, h = BA60, 300
    n = net.node_count
    block = mc._time_block(h, n)
    # CSR neighbourhood sums, at least three uniform blocks, a partial last one
    assert n > 32 and h > 2 * block and h % block
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
    cfg = mc.RunConfig(net=BA60, init=float_init(60), sched=cg.ConstantDelta(1.0, 2.0),
                       horizon=300, trials=5, seed=9, chunk_size=2, threads=2,
                       collect_pair_freq=True, collect_sample_averages=True)
    # three time blocks, CSR neighbourhood sums
    assert cfg.horizon > 2 * mc._time_block(cfg.horizon, 60)
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
    part, codes = mc._run_chunk(cfg, 3, 7)
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
    tracemalloc.start()
    try:
        mc.run_trials(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of all 83 trials, whose uniforms alone would take k * h * N * 8 bytes
    assert peak <= cfg.trials * cfg.horizon * net.node_count * 8 / 4

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
    # <= 32 nodes: dense neighbourhood sums, with a finite-memory ring buffer
    "dense": dict(net=graph.generate("ba", 6, m=2, seed=1), horizon=3, trials=90, seed=7,
                  memory=2, chunk_size=11, collect_assignments=True),
    # > 32 nodes: CSR neighbourhood sums, several time blocks
    "csr": dict(net=graph.generate("ba", 40, m=2, seed=3), horizon=300, trials=30, seed=9,
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
net = graph.generate("ba", 40, m=2, seed=3)
cfg = mc.RunConfig(net=net, init=cg.uniform_init(40, 1.0, 1.0), sched=cg.ConstantDelta(1.0),
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
    # above 32 nodes the urns pool by CSR sums; the parent imports
    # scipy.sparse once, so no worker pays for the import
    src = os.path.dirname(os.path.dirname(mc.__file__))
    done = subprocess.run([sys.executable, "-c", _FORK_SEES_SPARSE],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, seen = json.loads(done.stdout)
    assert not before
    assert seen == [True, True]


def test_a_runtime_error_in_a_worker_exits_two_with_one_line(tmp_path):
    path = tmp_path / "k2.edges"
    graph.write_edge_list(K2, path)
    # 2 x 10000 steps leave room for 419 trials per chunk: 900 trials are 3 chunks
    argv = ["simulate", "--graph", str(path), "--horizon", "10000", "--trials", "900",
            "--delta-red", "1e308", "--delta-black", "1e308", "--threads", "2"]
    assert mc._auto_chunk(mc.RunConfig(net=K2, init=float_init(2), sched=cg.ConstantDelta(1.0),
                                       horizon=10000, trials=900, seed=0)) < 450
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
])
def test_run_config_rejects_bad_input_with_typed_errors(kw, error):
    with pytest.raises(error):
        small_cfg(**kw)


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
    mc.write_csv(path, {"x": np.float64(0.1), "n": 3, "tag": "a b"}, ["t", "v", "w", "s"],
                 [(1, np.float64(1 / 3), None, "0.500"), (2, 0.25, np.float64(1e-300), "x")])
    assert path.read_text() == ("# x=0.1 n=3 tag=a b\n"
                                "t,v,w,s\n"
                                "1,0.3333333333333333,,0.500\n"
                                "2,0.25,1e-300,x\n")


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
