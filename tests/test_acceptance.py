"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the recorded values.  Two checks assert orderings/identities
that the underlying model provably does not satisfy (see the notes printed
by the tests themselves); they are kept as stated rather than weakened, and
fail with the measured values on record.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from polya_net import approx, contagion as cg, exact, experiments as xp, graph, montecarlo as mc, sis
from polya_net.contagion import ConstantDelta, CuringDelta, uniform_init

K2 = graph.generate_complete(2)
K3 = graph.generate_complete(3)
PATH3 = graph.build_network(3, [(0, 1), (1, 2)])
CYCLE4 = graph.generate_cycle(4)
SINGLE = graph.generate_complete(1)


class _Clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(label: str, clock: _Clock, detail: str = ""):
    extra = f" — {detail}" if detail else ""
    print(f"\n[acceptance] {label}: PASS ({clock.seconds:.2f}s){extra}")


# ----------------------------------------------------------------------
# Exactness suite (rational arithmetic)
# ----------------------------------------------------------------------

def test_exact_tables_have_unit_mass():
    with _Clock() as clock:
        for net in (K2, K3, PATH3, CYCLE4):
            init = uniform_init(net.node_count, F(1), F(1))
            for n in range(1, 5):
                table = exact.enumerate_joint(net, init, ConstantDelta(F(1)), n)
                assert table.total() == 1
    _report("joint tables sum to one exactly (2/3-node, path, cycle; n<=4)", clock)


def test_complete_one_dimensional_marginals_are_time_invariant():
    with _Clock() as clock:
        cases = [
            (K2, cg.UrnInit(red=(F(3), F(1)), black=(F(1), F(2))), F(1), F(4, 7)),
            (K3, cg.UrnInit(red=(F(2), F(1), F(1)), black=(F(1), F(2), F(2))), F(2), F(4, 9)),
        ]
        for net, init, delta, rho in cases:
            table = exact.enumerate_joint(net, init, ConstantDelta(delta), 4)
            for i in range(net.node_count):
                for t in range(1, 5):
                    assert table.event_probability({(i, t): 1}) == rho
            assert exact.complete_marginal(rho) == rho
    _report("complete-network one-dim marginals equal the initial fraction", clock)


def test_complete_pair_with_first_step_matches_closed_form():
    with _Clock() as clock:
        checked = 0
        cases = [
            (K2, uniform_init(2, F(1), F(1)), F(2)),       # rho=1/2, delta=1
            (K2, cg.UrnInit(red=(F(3), F(1)), black=(F(1), F(2))), F(1)),
            (K3, cg.UrnInit(red=(F(2), F(1), F(1)), black=(F(1), F(2), F(2))), F(2)),
        ]
        for net, init, delta in cases:
            nn = net.node_count
            t_bar = sum(init.totals)
            rho = F(sum(init.red), t_bar)
            d = F(nn * delta, t_bar)
            expected = {n: exact.complete_n1_joint(rho, d, nn) for n in (2, 3, 4)}
            table = exact.enumerate_joint(net, init, ConstantDelta(delta), 4)
            for n in (2, 3, 4):
                for i in range(nn):
                    assert table.event_probability({(i, n): 1, (i, 1): 1}) == expected[n]
                    k = (i + 1) % nn
                    assert table.event_probability({(k, n): 1, (i, 1): 1}) == expected[n]
                    checked += 2
        assert exact.complete_n1_joint(F(1, 2), F(1), 2) == F(5, 16)
    _report("pair-with-first-step probabilities equal the closed form",
            clock, f"{checked} enumerated events, spot value 5/16")


def test_consecutive_pair_probabilities_witness_nonstationarity():
    with _Clock() as clock:
        p21, p32 = exact.nonstationarity_witness(F(1, 2), F(1))
        assert (p21, p32) == (F(5, 16), F(61, 192))
        table = exact.enumerate_joint(K2, uniform_init(2, F(1), F(1)), ConstantDelta(F(2)), 3)
        assert table.event_probability({(0, 2): 1, (0, 1): 1}) == p21
        assert table.event_probability({(0, 3): 1, (0, 2): 1}) == p32
        assert p21 != p32
    _report("consecutive pairs (5/16, 61/192) from closed form and oracle", clock)


def test_urn_drift_formula_and_susceptibility_balance():
    with _Clock() as clock:
        init = cg.UrnInit(red=(F(1), F(2), F(3), F(1)), black=(F(3), F(2), F(1), F(3)))
        sched = ConstantDelta(F(1))
        histories = 0
        for steps in (0, 1, 2):
            for _, _, state in exact.iter_histories(CYCLE4, init, sched, steps):
                s = cg.conditional_draw_probabilities(state, CYCLE4)
                mean_expected = F(0)
                for i in range(4):
                    red, total = state.red_mass[i], state.total_mass[i]
                    e_u = s[i] * (red + 1) / (total + 1) + (1 - s[i]) * red / (total + 1)
                    assert e_u - state.urn_proportion(i) == \
                        cg.expected_urn_increment(state, CYCLE4, i, F(1))
                    mean_expected += e_u
                assert mean_expected / 4 == cg.network_susceptibility(state)
                histories += 1
    _report("one-step urn drift matches the formula; susceptibility drift-free",
            clock, f"{histories} histories on the 4-cycle, exact")


def test_curing_bound_gives_exact_proportion_standstill():
    # As stated, this requires E[U'|history] == U with the black mass set to
    # the curing bound.  The bound actually balances E[red]/E[total] (the
    # denominator of U' is itself random); the expectation of the ratio
    # exceeds U whenever U < S and falls short when U > S, so this check
    # fails by a small but real margin recorded below.  Kept as stated.
    with _Clock() as clock:
        worst = F(0)
        histories = 0
        for net, init in [
            (K2, cg.UrnInit(red=(F(1), F(2)), black=(F(2), F(1)))),
            (PATH3, cg.UrnInit(red=(F(1), F(2), F(1)), black=(F(3), F(1), F(2)))),
        ]:
            sched = CuringDelta(F(2), multiplier=F(1))
            for steps in (0, 1, 2):
                for _, _, state in exact.iter_histories(net, init, sched, steps):
                    s = cg.conditional_draw_probabilities(state, net)
                    for i in range(net.node_count):
                        bound = cg.curing_delta_bound(state, net, i, F(2))
                        red, total = state.red_mass[i], state.total_mass[i]
                        e_u = s[i] * (red + 2) / (total + 2) \
                            + (1 - s[i]) * red / (total + bound)
                        dev = abs(e_u - state.urn_proportion(i))
                        worst = max(worst, dev)
                    histories += 1
    print(f"\n[acceptance] curing bound standstill: recorded max deviation "
          f"{float(worst):.6f} over {histories} histories ({clock.seconds:.2f}s)")
    assert worst == 0, (
        f"max |E[U'|history] - U| = {float(worst):.6f}: the bound equates "
        f"E[red]/E[total] with U exactly, not E[red/total]"
    )


def test_single_node_process_is_classical():
    with _Clock() as clock:
        init = cg.UrnInit(red=(F(2),), black=(F(3),))
        params = exact.PolyaParams(F(2, 5), F(1, 5))
        for n in range(1, 11):
            table = exact.enumerate_joint(SINGLE, init, ConstantDelta(F(1)), n)
            for code in range(1 << n):
                draws = tuple((code >> t) & 1 for t in range(n))
                assert table.probs[code] == exact.classical_polya_joint(params, draws)
    _report("single-node joint equals the classical urn joint (n<=10, exact)", clock)


def test_finite_memory_two_step_markov_property():
    with _Clock() as clock:
        sched = ConstantDelta(F(1), F(2))
        init = cg.UrnInit(red=(F(1), F(2)), black=(F(2), F(1)))
        groups: dict = {}
        for hist, _, state in exact.iter_histories(K2, init, sched, 3, memory=2):
            conds = tuple(cg.finite_memory_conditional(state, K2, i) for i in range(2))
            # also the incrementally maintained masses must give the same law
            assert conds == tuple(cg.conditional_draw_probabilities(state, K2))
            groups.setdefault(hist[-2:], set()).add(conds)
        assert len(groups) == 16
        assert all(len(v) == 1 for v in groups.values())
    _report("finite-memory conditionals depend only on the last M=2 steps",
            clock, "64 histories, 16 window classes")


# ----------------------------------------------------------------------
# Model-fit suite
# ----------------------------------------------------------------------

def test_single_node_fit_recovers_classical_parameter():
    with _Clock() as clock:
        init = cg.UrnInit(red=(F(1),), black=(F(1),))
        marg = approx.node_marginal_for_fit(SINGLE, init, F(1), 0, 8)
        fit = approx.model1_fit(marg, 0.5, 8, approx.default_search(SINGLE, init, 0, F(1)))
        assert fit.delta_hat == pytest.approx(0.5, abs=1e-6)
        assert abs(fit.kl) <= 1e-9
    _report("divergence fit recovers the classical parameter",
            clock, f"delta_hat={fit.delta_hat:.8f}, kl={fit.kl:.2e}")


def test_pair_matching_identity_sweep():
    with _Clock() as clock:
        checked = 0
        for rho in (0.1, 0.25, 0.4, 0.55, 0.7):
            for delta in (0.0, 0.3, 0.8, 1.6):
                for n in (1, 2, 3, 5, 20):
                    dp = delta / (n + (n - 1) * delta)
                    lhs = rho * (rho + dp) / (1 + dp)
                    rhs = exact.complete_n1_joint(rho, delta, n)
                    assert abs(lhs - rhs) <= 1e-12
                    checked += 1
        assert checked == 100
    _report("pair-matching identity holds over 100 parameter triples", clock,
            "max tolerance 1e-12")


def test_fit_ordering_ten_node_complete():
    with _Clock() as clock:
        net = graph.generate_complete(10)
        init = uniform_init(10, 1.0, 1.0)
        marg = approx.node_marginal_for_fit(net, init, 1.0, 0, 8)
        rho = float(approx.rho_for_node(net, init, 0))
        fit = approx.model1_fit(marg, rho, 8, approx.default_search(net, init, 0, 1.0))
        kl_prime = approx.divergence_at(marg, rho, 8, float(approx.model2a_delta(net, init, 0, 1.0)))
        worst_grid = float(np.max(fit.grid_kl))
        assert fit.kl <= kl_prime <= worst_grid
    _report("ten-node fit ordering kl(best) <= kl(matched) <= worst grid", clock,
            f"kl={fit.kl:.3e}, kl_prime={kl_prime:.3e}, worst={worst_grid:.3e}")


def test_large_network_analytic_ordering():
    with _Clock() as clock:
        net = graph.generate_complete(100)
        init = uniform_init(100, 1.0, 1.0)
        marg = approx.node_marginal_for_fit(net, init, 1.0, 0, 8)
        rho = float(approx.rho_for_node(net, init, 0))
        kl_prime = approx.divergence_at(marg, rho, 8, float(approx.model2a_delta(net, init, 0, 1.0)))
        kl_star = approx.divergence_at(marg, rho, 8, float(approx.model2b_delta(net, init, 0, 1.0)))
        assert kl_prime < kl_star
    _report("hundred-node ordering kl(large-net model) < kl(small-net model)",
            clock, f"kl_prime={kl_prime:.3e}, kl_star={kl_star:.3e}")


def test_small_network_analytic_ordering():
    # Stated ordering: at five nodes the small-network model should fit
    # better (lower divergence) than the large-network one.  The matched
    # parameter already understates the process's effective correlation
    # (later-time pair correlations exceed the matched pair statistic), and
    # the small-network parameter is smaller still, so the divergence
    # ordering provably cannot reverse; recorded values below.  Kept as
    # stated.
    with _Clock() as clock:
        net = graph.generate_complete(5)
        init = uniform_init(5, 1.0, 1.0)
        marg = approx.node_marginal_for_fit(net, init, 1.0, 0, 8)
        rho = float(approx.rho_for_node(net, init, 0))
        kl_prime = approx.divergence_at(marg, rho, 8, float(approx.model2a_delta(net, init, 0, 1.0)))
        kl_star = approx.divergence_at(marg, rho, 8, float(approx.model2b_delta(net, init, 0, 1.0)))
    print(f"\n[acceptance] five-node ordering: recorded kl_prime={kl_prime:.3e}, "
          f"kl_star={kl_star:.3e} ({clock.seconds:.2f}s)")
    assert kl_star < kl_prime, (
        f"kl_star={kl_star:.3e} >= kl_prime={kl_prime:.3e}: the small-network "
        f"parameter never fits the draw-sequence law better at any tested size"
    )


# ----------------------------------------------------------------------
# Monte Carlo against the exact oracle
# ----------------------------------------------------------------------

def test_total_variation_against_enumeration():
    with _Clock() as clock:
        cfg = mc.RunConfig(net=K2, init=uniform_init(2, 1.0, 1.0),
                           sched=ConstantDelta(2.0), horizon=3,
                           trials=100_000, seed=31, collect_assignments=True)
        stats = mc.run_trials(cfg)
        empirical = stats.assignment_counts / cfg.trials
        table = exact.enumerate_joint(K2, uniform_init(2, F(1), F(1)), ConstantDelta(F(2)), 3)
        exact_probs = np.array([float(p) for p in table.probs])
        tv = 0.5 * float(np.abs(empirical - exact_probs).sum())
        assert tv <= 0.02
    _report("empirical assignment law vs exact oracle", clock,
            f"total variation {tv:.4f} <= 0.02 at 1e5 trials")


# ----------------------------------------------------------------------
# Limit-distribution fits
# ----------------------------------------------------------------------

def test_classical_sample_average_beta_limit():
    with _Clock() as clock:
        cfg, stats, node, beta, ks = xp.histogram_case("classical")
        assert (beta.alpha, beta.beta) == (1.0, 1.0)
        assert ks <= 0.05
    _report("classical sample averages match the flat Beta limit", clock,
            f"KS {ks:.4f} <= 0.05")


def test_small_network_beta_fit():
    with _Clock() as clock:
        cfg, stats, node, beta, ks = xp.histogram_case("ba5")
        assert ks <= 0.1
    _report("five-node small-network model Beta fit", clock, f"KS {ks:.4f} <= 0.1")


def test_large_network_beta_fit():
    with _Clock() as clock:
        # no checked value depends on the worker count
        cfg, stats, node, beta, ks = xp.histogram_case("ba100", threads=xp.default_threads())
        assert ks <= 0.1
    _report("hundred-node large-network model Beta fit", clock, f"KS {ks:.4f} <= 0.1")


# ----------------------------------------------------------------------
# SIS threshold behavior
# ----------------------------------------------------------------------

def test_sis_threshold_extinction_and_endemic():
    with _Clock() as clock:
        k5 = graph.generate_complete(5)
        p0 = [0.5] * 5
        dies = sis.sis_run(k5, p0, sis.SisParams(beta=0.2, delta_sis=0.9), 200)
        assert dies.mean[200] <= 1e-6
        assert sis.threshold_classify(k5, sis.SisParams(beta=0.2, delta_sis=0.9)) == "dies_out"
        endemic = sis.sis_run(k5, p0, sis.SisParams(beta=0.2, delta_sis=0.5), 1000)
        assert abs(endemic.mean[1000] - endemic.mean[500]) < 1e-6
        assert endemic.mean[1000] > 0.01
        assert sis.threshold_classify(k5, sis.SisParams(beta=0.2, delta_sis=0.5)) == "endemic"
    _report("SIS extinction above threshold, endemic level below", clock,
            f"final means {dies.mean[200]:.2e} and {endemic.mean[1000]:.4f}")


# ----------------------------------------------------------------------
# Reinforcement-ratio trends against the SIS comparator setup
# ----------------------------------------------------------------------

def test_reinforcement_ratio_trends():
    with _Clock() as clock:
        net = xp.sis_comparison_network()
        ratios = xp.sis_ratio_cases(net)

        [(_, low), _], [(_, met), _], [(_, inf_mode), (_, fin_mode)] = xp.run_sis_comparison(
            (ratios["low"], ratios["met"], ratios["same"]), (None, xp.SIS_MEMORY))
        slope, se = mc.least_squares_trend(low.infection_rate[100:1001])
        assert slope > 3 * se

        met_rate = met.infection_rate
        assert met_rate[1000] < met_rate[10]
        slope_met, se_met = mc.least_squares_trend(met_rate[100:1001])
        assert slope_met < -3 * se_met

        gap = np.abs(inf_mode.infection_rate[200:1001] - fin_mode.infection_rate[200:1001])
        assert float(gap.max()) <= 0.02
    _report("reinforcement-ratio trends", clock,
            f"up t={slope / se:.0f}, down t={slope_met / se_met:.0f}, "
            f"memory gap {float(gap.max()):.4f} <= 0.02")


# ----------------------------------------------------------------------
# Pair-frequency settling
# ----------------------------------------------------------------------

def test_pair_frequency_settles():
    with _Clock() as clock:
        cfg, stats, report = xp.run_stationarity(threads=xp.default_threads())
        assert report.window == 200
        assert report.max_successive_deviation < 0.005
        assert 0.0 <= report.settled_value <= 1.0
    _report("consecutive-pair frequency settles", clock,
            f"max trailing deviation {report.max_successive_deviation:.4f} < 0.005, "
            f"settled {report.settled_value:.4f}")


# ----------------------------------------------------------------------
# Bit-identical reruns
# ----------------------------------------------------------------------

def test_reruns_are_bit_identical(tmp_path):
    with _Clock() as clock:
        cfg = mc.RunConfig(net=K2, init=uniform_init(2, 1.0, 1.0),
                           sched=ConstantDelta(2.0), horizon=3,
                           trials=100_000, seed=31, collect_assignments=True,
                           collect_pair_freq=True)
        paths = []
        counts = []
        for run in range(2):
            stats = mc.run_trials(cfg)
            path = tmp_path / f"run{run}.csv"
            mc.write_trajectory_csv(stats, cfg, path, pair_node=0)
            paths.append(path)
            counts.append(stats.assignment_counts.copy())
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert np.array_equal(counts[0], counts[1])
    _report("rerun with the same master seed is bit-identical", clock)
