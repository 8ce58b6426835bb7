"""The input contract of the library, swept in one table.

Each row names a public callable, one of its numeric arguments, and a call
that puts a bad value there (as one element of an argument that is a
sequence of numbers), the other arguments valid.  Every call with every
value of ``BAD`` must raise a ``PolyaNetError`` or return a finite result,
within a second, under the suite's ``error::RuntimeWarning`` filter.  A
companion test holds every public callable of the swept modules to a row,
to an explicit set of names that take no numeric argument, to the set of
result records, or to the exempt exception types and ``to_float``.
``RunConfig`` rows only construct a config, and the few Monte Carlo runs
here are serial, so no worker process starts.
``cli`` and ``experiments`` are outside the sweep: the CLI tests pin its
exit codes, and the experiments run canned figures.
"""

import cmath
import dataclasses
import math
import numbers
import os
import time
from collections import deque
from fractions import Fraction as F
from typing import Mapping

import numpy as np
import pytest

from polya_net import (approx, contagion as cg, errors, exact, graph, montecarlo as mc, output,
                        sis)
from polya_net.errors import (DomainError, InvalidParameter, ParameterOutOfRange, PolyaNetError,
                              check_real)

BAD = [-1, 0, 1.5, -1e-300, math.nan, math.inf, -math.inf, 1e308, 10 ** 30, 2 ** 64, True,
       F(1, 3), np.float64("nan")]

K2 = graph.generate_complete(2)
STAR3 = graph.generate_star(3)
CYCLE4 = graph.generate_cycle(4)
INIT2 = cg.uniform_init(2, F(1), F(1))
INIT3 = cg.uniform_init(3, F(1), F(1))
INIT4 = cg.uniform_init(4, F(1), F(1))
FLOAT2 = cg.uniform_init(2, 1.0, 1.0)
SCHED = cg.ConstantDelta(F(1))
STATE = cg.initial_state(K2, INIT2)
WINDOWED = cg.initial_state(K2, INIT2, memory=2)
PARAMS = exact.PolyaParams(F(1, 2), F(1))
BETA = exact.BetaParams(2.0, 3.0)
MARGINAL = exact.complete_node_marginal(0.5, 0.5, 2, 2)
SEARCH = approx.SearchConfig(delta_max=2.0, coarse_points=8)
SIS = sis.SisParams(beta=0.2, delta_sis=0.5)
CFG = mc.RunConfig(net=K2, init=FLOAT2, sched=cg.ConstantDelta(1.0), horizon=6, trials=4,
                   seed=1, collect_pair_freq=True)
STATS = mc.run_trials(CFG)


def _run_config(**fields):
    return mc.RunConfig(**{"net": K2, "init": FLOAT2, "sched": cg.ConstantDelta(1.0),
                           "horizon": 3, "trials": 4, "seed": 1, **fields})


ROWS = [
    # errors
    (errors.check_int, "value", lambda x: errors.check_int(x, "n")),
    (errors.check_int, "minimum", lambda x: errors.check_int(2, "n", minimum=x)),
    (errors.check_real, "value", lambda x: errors.check_real(x, "x")),
    (errors.check_real, "lower", lambda x: errors.check_real(0.5, "x", x, 1)),
    (errors.check_real, "upper", lambda x: errors.check_real(0.5, "x", 0, x)),
    (errors.check_cells, "cells", lambda x: errors.check_cells(x, "a table")),
    # contagion
    (cg.UrnInit, "red", lambda x: cg.UrnInit((x, 1), (1, 1))),
    (cg.UrnInit, "black", lambda x: cg.UrnInit((1, 1), (1, x))),
    (cg.uniform_init, "n", lambda x: cg.uniform_init(x)),
    (cg.uniform_init, "red", lambda x: cg.uniform_init(2, x, 1)),
    (cg.uniform_init, "black", lambda x: cg.uniform_init(2, 1, x)),
    (cg.ConstantDelta, "red", lambda x: cg.ConstantDelta(x)),
    (cg.ConstantDelta, "black", lambda x: cg.ConstantDelta(1, x)),
    (cg.ConstantDelta, "red per node", lambda x: cg.ConstantDelta((1, x))),
    (cg.TabulatedDelta, "red_rows", lambda x: cg.TabulatedDelta([(1, x)], [(1, 1)])),
    (cg.TabulatedDelta, "black_rows", lambda x: cg.TabulatedDelta([(1, 1)], [(x, 1)])),
    (cg.CuringDelta, "delta_red", lambda x: cg.CuringDelta(x)),
    (cg.CuringDelta, "multiplier", lambda x: cg.CuringDelta(1, x)),
    (cg.initial_state, "memory", lambda x: cg.initial_state(K2, INIT2, x)),
    (cg.check_node, "i", lambda x: cg.check_node(x, 2)),
    (cg.check_node, "node_count", lambda x: cg.check_node(0, x)),
    (cg.super_urn_proportion, "i", lambda x: cg.super_urn_proportion(STATE, K2, x)),
    (cg.step_masses, "s", lambda x: cg.step_masses(STATE, K2, cg.CuringDelta(F(1)), (x, 0.5))),
    (cg.apply_draws, "draws", lambda x: cg.apply_draws(STATE, K2, (x, 0), SCHED)),
    (cg.simulate_path, "horizon",
     lambda x: cg.simulate_path(K2, INIT2, SCHED, x, np.random.default_rng(0))),
    (cg.simulate_path, "memory",
     lambda x: cg.simulate_path(K2, INIT2, SCHED, 2, np.random.default_rng(0), x)),
    (cg.UrnBatch, "rows", lambda x: cg.UrnBatch(K2, FLOAT2, x)),
    (cg.UrnBatch, "memory", lambda x: cg.UrnBatch(K2, FLOAT2, 2, memory=x)),
    (cg.UrnBatch, "horizon", lambda x: cg.UrnBatch(K2, FLOAT2, 2, memory=2, horizon=x)),
    (cg.finite_memory_conditional, "i", lambda x: cg.finite_memory_conditional(WINDOWED, K2, x)),
    (cg.expected_urn_increment, "i", lambda x: cg.expected_urn_increment(STATE, K2, x, 1)),
    (cg.expected_urn_increment, "delta", lambda x: cg.expected_urn_increment(STATE, K2, 0, x)),
    (cg.curing_delta_bound, "i", lambda x: cg.curing_delta_bound(STATE, K2, x, 1)),
    (cg.curing_delta_bound, "delta_red", lambda x: cg.curing_delta_bound(STATE, K2, 0, x)),
    # exact
    (exact.PolyaParams, "rho", lambda x: exact.PolyaParams(x, 1)),
    (exact.PolyaParams, "delta", lambda x: exact.PolyaParams(0.5, x)),
    (exact.BetaParams, "alpha", lambda x: exact.BetaParams(x, 1.0)),
    (exact.BetaParams, "beta", lambda x: exact.BetaParams(1.0, x)),
    (exact.joint_probability, "assignment",
     lambda x: exact.joint_probability(K2, INIT2, SCHED, ((x,), (0,)))),
    (exact.joint_probability, "memory",
     lambda x: exact.joint_probability(K2, INIT2, SCHED, ((1,), (0,)), memory=x)),
    (exact.enumerate_joint, "horizon", lambda x: exact.enumerate_joint(K2, INIT2, SCHED, x)),
    (exact.enumerate_joint, "cap", lambda x: exact.enumerate_joint(K2, INIT2, SCHED, 2, cap=x)),
    (exact.enumerate_joint, "memory",
     lambda x: exact.enumerate_joint(K2, INIT2, SCHED, 2, memory=x)),
    (exact.float_node_marginal_probs, "horizon",
     lambda x: exact.float_node_marginal_probs(CYCLE4, INIT4, SCHED, x, 0)),
    (exact.float_node_marginal_probs, "node",
     lambda x: exact.float_node_marginal_probs(CYCLE4, INIT4, SCHED, 2, x)),
    (exact.iter_histories, "steps", lambda x: next(exact.iter_histories(K2, INIT2, SCHED, x))),
    (exact.iter_histories, "memory",
     lambda x: next(exact.iter_histories(K2, INIT2, SCHED, 1, memory=x))),
    (exact.average_infection_rate, "n",
     lambda x: exact.average_infection_rate(K2, INIT2, SCHED, x)),
    # past the cap, so that a Monte Carlo estimate is made (or refused)
    (exact.average_infection_rate, "trials",
     lambda x: exact.average_infection_rate(CYCLE4, INIT4, SCHED, 9, mode="auto", trials=x)),
    (exact.average_infection_rate, "seed",
     lambda x: exact.average_infection_rate(CYCLE4, INIT4, SCHED, 9, mode="auto", trials=8,
                                            seed=x)),
    (exact.average_infection_rate, "memory",
     lambda x: exact.average_infection_rate(K2, INIT2, SCHED, 2, memory=x)),
    (exact.complete_marginal, "rho", lambda x: exact.complete_marginal(x)),
    (exact.complete_n1_joint, "rho", lambda x: exact.complete_n1_joint(x, 1, 2)),
    (exact.complete_n1_joint, "delta", lambda x: exact.complete_n1_joint(0.5, x, 2)),
    (exact.complete_n1_joint, "node_count", lambda x: exact.complete_n1_joint(0.5, 1, x)),
    (exact.nonstationarity_witness, "rho", lambda x: exact.nonstationarity_witness(x, 1)),
    (exact.nonstationarity_witness, "delta", lambda x: exact.nonstationarity_witness(0.5, x)),
    (exact.classical_polya_joint, "draws", lambda x: exact.classical_polya_joint(PARAMS, (1, x))),
    (exact.classical_polya_joint_gamma, "draws",
     lambda x: exact.classical_polya_joint_gamma(PARAMS, (1, x))),
    (exact.classical_polya_table, "n", lambda x: exact.classical_polya_table(PARAMS, x)),
    (exact.classical_count_log_probs, "n", lambda x: exact.classical_count_log_probs(PARAMS, x)),
    (exact.kl_rate, "n", lambda x: exact.kl_rate(MARGINAL, MARGINAL, x)),
    (exact.beta_pdf, "x", lambda x: exact.beta_pdf(BETA, x)),
    (exact.beta_cdf, "x", lambda x: exact.beta_cdf(BETA, x)),
    (exact.check_count_dp_cap, "node_count", lambda x: exact.check_count_dp_cap(x, 2)),
    (exact.check_count_dp_cap, "horizon", lambda x: exact.check_count_dp_cap(2, x)),
    (exact.complete_node_marginal, "rho", lambda x: exact.complete_node_marginal(x, 1, 2, 2)),
    (exact.complete_node_marginal, "delta",
     lambda x: exact.complete_node_marginal(0.5, x, 2, 2)),
    (exact.complete_node_marginal_probs, "rho",
     lambda x: exact.complete_node_marginal_probs(x, 1, 2, 2)),
    (exact.complete_node_marginal_probs, "delta",
     lambda x: exact.complete_node_marginal_probs(0.5, x, 2, 2)),
    (exact.complete_node_marginal_probs, "node_count",
     lambda x: exact.complete_node_marginal_probs(0.5, 1, x, 2)),
    (exact.complete_node_marginal_probs, "horizon",
     lambda x: exact.complete_node_marginal_probs(0.5, 1, 2, x)),
    (exact.binomial_pmf, "n", lambda x: exact.binomial_pmf(x, [0.5])),
    (exact.binomial_pmf, "s", lambda x: exact.binomial_pmf(3, [x])),
    # approx
    (approx.SearchConfig, "delta_max", lambda x: approx.SearchConfig(delta_max=x)),
    (approx.SearchConfig, "coarse_points",
     lambda x: approx.SearchConfig(delta_max=1.0, coarse_points=x)),
    (approx.SearchConfig, "refine_tol", lambda x: approx.SearchConfig(delta_max=1.0, refine_tol=x)),
    (approx.rho_for_node, "i", lambda x: approx.rho_for_node(STAR3, INIT3, x)),
    (approx.node_delta, "i", lambda x: approx.node_delta(STAR3, INIT3, x, 1)),
    (approx.node_delta, "delta", lambda x: approx.node_delta(STAR3, INIT3, 0, x)),
    (approx.model2a_delta, "delta", lambda x: approx.model2a_delta(STAR3, INIT3, 0, x)),
    (approx.model2b_delta, "delta", lambda x: approx.model2b_delta(STAR3, INIT3, 0, x)),
    (approx.divergence_at, "rho", lambda x: approx.divergence_at(MARGINAL, x, 2, 0.5)),
    (approx.divergence_at, "n", lambda x: approx.divergence_at(MARGINAL, 0.5, x, 0.5)),
    (approx.divergence_at, "delta", lambda x: approx.divergence_at(MARGINAL, 0.5, 2, x)),
    (approx.model1_fit, "rho", lambda x: approx.model1_fit(MARGINAL, x, 2, SEARCH)),
    (approx.model1_fit, "n", lambda x: approx.model1_fit(MARGINAL, 0.5, x, SEARCH)),
    (approx.default_search, "delta", lambda x: approx.default_search(STAR3, INIT3, 0, x)),
    (approx.default_search, "coarse_points",
     lambda x: approx.default_search(STAR3, INIT3, 0, 1, coarse_points=x)),
    (approx.default_search, "refine_tol",
     lambda x: approx.default_search(STAR3, INIT3, 0, 1, refine_tol=x)),
    (approx.fit_node, "delta", lambda x: approx.fit_node(STAR3, INIT3, x, 0, 2)),
    (approx.fit_node, "i", lambda x: approx.fit_node(STAR3, INIT3, 1, x, 2)),
    (approx.fit_node, "n", lambda x: approx.fit_node(STAR3, INIT3, 1, 0, x)),
    (approx.node_marginal_for_fit, "delta",
     lambda x: approx.node_marginal_for_fit(STAR3, INIT3, x, 0, 2)),
    (approx.node_marginal_for_fit, "i",
     lambda x: approx.node_marginal_for_fit(STAR3, INIT3, 1, x, 2)),
    (approx.node_marginal_for_fit, "n",
     lambda x: approx.node_marginal_for_fit(STAR3, INIT3, 1, 0, x)),
    (approx.exact_representation_gap, "delta",
     lambda x: approx.exact_representation_gap(K2, INIT2, x, 2)),
    (approx.exact_representation_gap, "n",
     lambda x: approx.exact_representation_gap(K2, INIT2, 1, x)),
    (approx.exact_representation_gap, "node",
     lambda x: approx.exact_representation_gap(K2, INIT2, 1, 2, x)),
    (approx.recommend_model, "node_count", lambda x: approx.recommend_model(x)),
    (approx.recommend_model, "small_threshold", lambda x: approx.recommend_model(5, x)),
    # graph
    (graph.build_network, "n", lambda x: graph.build_network(x, [(0, 1)])),
    (graph.build_network, "edge_list", lambda x: graph.build_network(2, [(0, x)])),
    (graph.largest_eigenvalue, "tol", lambda x: graph.largest_eigenvalue(STAR3, tol=x)),
    (graph.largest_eigenvalue, "max_steps",
     lambda x: graph.largest_eigenvalue(STAR3, max_steps=x)),
    (graph.generate_complete, "n", lambda x: graph.generate_complete(x)),
    (graph.generate_cycle, "n", lambda x: graph.generate_cycle(x)),
    (graph.generate_star, "n", lambda x: graph.generate_star(x)),
    (graph.generate_barabasi_albert, "n", lambda x: graph.generate_barabasi_albert(x, 1, 0)),
    (graph.generate_barabasi_albert, "m", lambda x: graph.generate_barabasi_albert(5, x, 0)),
    (graph.generate_barabasi_albert, "seed",
     lambda x: graph.generate_barabasi_albert(5, 1, x)),
    (graph.generate, "n", lambda x: graph.generate("cycle", x)),
    (graph.generate, "m", lambda x: graph.generate("ba", 5, m=x)),
    (graph.generate, "seed", lambda x: graph.generate("ba", 5, m=1, seed=x)),
    (graph.degree_sequence, "edges", lambda x: graph.degree_sequence([(0, x)], 2)),
    (graph.degree_sequence, "n", lambda x: graph.degree_sequence([(0, 1)], x)),
    # sis
    (sis.SisParams, "beta", lambda x: sis.SisParams(beta=x, delta_sis=0.5)),
    (sis.SisParams, "delta_sis", lambda x: sis.SisParams(beta=0.5, delta_sis=x)),
    (sis.sis_run, "init_probs", lambda x: sis.sis_run(K2, [x, 0.5], SIS, 3)),
    (sis.sis_run, "horizon", lambda x: sis.sis_run(K2, [0.5, 0.5], SIS, x)),
    (sis.sis_run_many, "init_probs", lambda x: sis.sis_run_many(K2, [x, 0.5], [SIS, SIS], 3)),
    (sis.sis_run_many, "horizon", lambda x: sis.sis_run_many(K2, [0.5, 0.5], [SIS, SIS], x)),
    (sis.threshold_classify, "tol", lambda x: sis.threshold_classify(K2, SIS, tol=x)),
    # montecarlo
    (mc.trial_generator, "master_seed", lambda x: mc.trial_generator(x, 0)),
    (mc.trial_generator, "trial", lambda x: mc.trial_generator(1, x)),
    (mc.RunConfig, "horizon", lambda x: _run_config(horizon=x)),
    (mc.RunConfig, "trials", lambda x: _run_config(trials=x)),
    (mc.RunConfig, "seed", lambda x: _run_config(seed=x)),
    (mc.RunConfig, "memory", lambda x: _run_config(memory=x)),
    (mc.RunConfig, "chunk_size", lambda x: _run_config(chunk_size=x)),
    (mc.RunConfig, "threads", lambda x: _run_config(threads=x)),
    (mc.histogram, "samples", lambda x: mc.histogram([x, 0.5], 2)),
    (mc.histogram, "bins", lambda x: mc.histogram([0.25, 0.5, 0.75], x)),
    (mc.ks_fit, "samples", lambda x: mc.ks_fit([x, 0.5], BETA)),
    (mc.stationarity_diagnostic, "node", lambda x: mc.stationarity_diagnostic(STATS, node=x)),
    (mc.stationarity_diagnostic, "window",
     lambda x: mc.stationarity_diagnostic(STATS, window=x)),
    (mc.least_squares_trend, "y", lambda x: mc.least_squares_trend([x, 0.5, 0.25])),
    (mc.least_squares_trend, "t", lambda x: mc.least_squares_trend([0.5, 0.25, 0.0], [x, 1, 2])),
    (mc.write_trajectory_csv, "pair_node",
     lambda x: mc.write_trajectory_csv(STATS, CFG, os.devnull, pair_node=x)),
]

# public callables whose arguments are networks, urn setups, schedules,
# states, configs, tables, paths or text, never a number of their own
NO_NUMERIC_ARGUMENT = {
    cg.DeltaSchedule, cg.conditional_draw_probabilities, cg.sample_step, cg.float_range,
    cg.import_pooling, cg.network_susceptibility,
    graph.classify, graph.write_edge_list, graph.read_edge_list,
    sis.default_initial_probs, sis.sis_step,
    mc.config_hash, mc.run_many, mc.run_trials, mc.martingale_residual,
    mc.write_histogram_csv, output.opened, output.write_rows, output.write_csv,
}

# the exception types, which take a message; and to_float, which like
# float() passes a NaN or an infinity through for its caller to check
EXEMPT = {obj for obj in vars(errors).values()
          if isinstance(obj, type) and issubclass(obj, PolyaNetError)} | {errors.to_float}

# records that the library fills and returns: each holds the values it is
# given and checks none, and none is an entry point for a caller's numbers
RESULT_RECORDS = {
    cg.NetworkState, cg.DrawRecord, exact.JointTable, exact.InfectionRate,
    approx.Model1Fit, approx.ExactRepresentationReport, graph.Network, sis.SisState,
    sis.SisTrajectory, mc.TrialStatistics, mc.HistogramResult, mc.StationarityReport,
    mc.MartingaleResiduals,
}


def _finite(value, seen=None) -> bool:
    """Whether every number that ``value`` holds is finite: in arrays,
    containers, dataclass fields and instance attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return True
    seen.add(id(value))
    if isinstance(value, (str, bytes, bool, type(None), np.random.Generator)):
        return True
    if isinstance(value, numbers.Number):
        return isinstance(value, numbers.Rational) or cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return all(_finite(v, seen) for v in value.flat)
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, Mapping):
        return all(_finite(k, seen) and _finite(v, seen) for k, v in value.items())
    if isinstance(value, (tuple, list, deque)):
        return all(_finite(v, seen) for v in value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name), seen) for f in dataclasses.fields(value))
    return all(_finite(v, seen) for v in getattr(value, "__dict__", {}).values())


@pytest.mark.parametrize("func, argument, call", ROWS,
                         ids=[f"{f.__module__.split('.')[-1]}.{f.__name__}:{a}"
                              for f, a, _ in ROWS])
def test_a_bad_number_raises_a_typed_error_or_gives_a_finite_result(func, argument, call):
    leaks = []
    for x in BAD:
        start = time.perf_counter()
        try:
            result = call(x)
        except PolyaNetError:
            result = None
        except Exception as e:  # a raw exception (a RuntimeWarning among them) is a leak
            leaks.append(f"{x!r}: {type(e).__name__}: {e}")
            continue
        if not _finite(result):
            leaks.append(f"{x!r}: non-finite result {result!r}")
        if time.perf_counter() - start > 1:
            leaks.append(f"{x!r}: took {time.perf_counter() - start:.1f} s")
    assert not leaks, f"{argument} of {func.__name__}:\n" + "\n".join(leaks)


@pytest.mark.parametrize("call", [
    lambda: exact.BetaParams(math.inf, 1.0),
    lambda: exact.BetaParams(math.nan, 1.0),
    lambda: cg.expected_urn_increment(STATE, K2, 0, math.nan),
    lambda: cg.expected_urn_increment(STATE, K2, 0, math.inf),
    lambda: cg.curing_delta_bound(STATE, K2, 0, math.nan),
    lambda: sis.threshold_classify(K2, SIS, tol=math.nan),
    lambda: exact.kl_rate(MARGINAL, MARGINAL, 1.5),
    lambda: graph.largest_eigenvalue(STAR3, tol=math.nan),
    lambda: graph.largest_eigenvalue(STAR3, max_steps=1.5),
    lambda: exact.PolyaParams("a", 1),
    lambda: cg.UrnInit(("a",), (1,)),
    lambda: cg.ConstantDelta("a"),
    lambda: cg.curing_delta_bound(cg.initial_state(K2, cg.uniform_init(2, 1e300, 1.0)), K2, 0, 1),
    lambda: cg.step_masses(STATE, K2, cg.CuringDelta(F(1)), (1, 1)),
    lambda: exact.enumerate_joint(K2, INIT2, SCHED, 20, cap=math.nan),
    lambda: approx.SearchConfig(delta_max=1.0, coarse_points=10 ** 30),
    lambda: exact.classical_polya_joint_gamma(exact.PolyaParams(0.5, 1e-308), (1, 0)),
    lambda: exact.BetaParams.from_polya(exact.PolyaParams(F(1, 2), F(1, 10 ** 400))),
], ids=["beta_inf", "beta_nan", "drift_nan", "drift_inf", "curing_nan", "classify_tol_nan",
        "kl_rate_n", "eigenvalue_tol_nan", "eigenvalue_max_steps", "polya_str", "urn_str",
        "delta_str", "curing_s_rounds_to_one", "curing_s_one", "enumerate_cap_nan",
        "coarse_points_huge", "gamma_form_lgamma_overflow", "beta_from_polya_overflow"])
def test_values_that_used_to_pass_or_raise_raw_errors_are_refused(call):
    # each returned NaN, a number for a meaningless input, or raised a raw
    # TypeError, ZeroDivisionError or OverflowError; largest_eigenvalue ran
    # 10,000 steps, a NaN cap passed the cap check (K2 at horizon 20 is
    # 2^40 cells), and a grid of 10^30 points failed in numpy's linspace
    start = time.perf_counter()
    with pytest.raises(PolyaNetError):
        call()
    assert time.perf_counter() - start < 0.1


def test_check_real_keeps_exact_values_and_its_messages():
    huge = F(10) ** 400
    assert check_real(huge, "red", 0, brackets="()") is huge
    assert cg.UrnInit(red=(huge,), black=(1,)).red == (huge,)
    assert check_real(0, "x", 0) == 0 and check_real(1, "x", 0, 1) == 1
    assert check_real(np.float32(0.5), "x", 0, 1) == 0.5
    for value, bounds in ((0, (0, None, "()")), (1, (0, 1, "[)")), (True, ()), ("1", ()),
                          (None, ()), ([1], ()), (math.nan, ()), (-math.inf, ())):
        with pytest.raises(InvalidParameter):
            check_real(value, "x", *bounds)
    with pytest.raises(InvalidParameter) as two:
        check_real(1.0, "rho", 0, 1, "()")
    with pytest.raises(ParameterOutOfRange) as one:
        check_real(math.nan, "delta", 0, error=ParameterOutOfRange)
    assert str(two.value) == "rho must lie in (0, 1), got 1.0"
    assert str(one.value) == "delta must be finite and >= 0, got nan"
    # exact SIS rates are kept as given; the recursion runs in floats
    rates = sis.SisParams(beta=F(1, 5), delta_sis=F(1, 2))
    assert rates.beta == F(1, 5)
    assert np.array_equal(sis.sis_run(K2, [0.5, 0.25], rates, 3).probs,
                          sis.sis_run(K2, [0.5, 0.25], sis.SisParams(0.2, 0.5), 3).probs)


def test_the_float_range_guard_raises_its_message_after_a_fault():
    with cg.float_range("nothing left the range"):
        np.array([1.0]) / 3
    for fault in (lambda a: a * 1e308, lambda a: a * np.inf - a * np.inf, lambda a: a / 0):
        with pytest.raises(DomainError, match="^masses overflowed$"):
            with cg.float_range("masses overflowed"):
                fault(np.array([10.0]))


def test_every_public_callable_is_swept_or_takes_no_number():
    swept = {func for func, _, _ in ROWS}
    assert not swept & (NO_NUMERIC_ARGUMENT | RESULT_RECORDS | EXEMPT)
    known = swept | NO_NUMERIC_ARGUMENT | RESULT_RECORDS | EXEMPT
    missing = []
    for module in (errors, output, cg, exact, approx, graph, sis, mc):
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                    and obj not in known):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"public callables with no row in the sweep: {missing}"
