import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_net import approx, contagion as cg, exact, graph
from polya_net.errors import DegenerateMarginal, DomainError, InvalidParameter

K2 = graph.generate_complete(2)
SINGLE = graph.generate_complete(1)
STAR3 = graph.generate_star(3)


def test_rho_for_node_values():
    init = cg.UrnInit(red=(F(3), F(1)), black=(F(1), F(3)))
    assert approx.rho_for_node(K2, init, 0) == F(1, 2)
    single_init = cg.UrnInit(red=(F(2),), black=(F(3),))
    assert approx.rho_for_node(SINGLE, single_init, 0) == F(2, 5)


def test_rho_for_node_star_differs_between_hub_and_leaf():
    init = cg.UrnInit(red=(F(1), F(3), F(1)), black=(F(1), F(1), F(3)))
    hub = approx.rho_for_node(STAR3, init, 0)   # sums all three urns
    leaf = approx.rho_for_node(STAR3, init, 1)  # hub + itself
    assert hub == F(5, 10)
    assert leaf == F(4, 6)
    assert hub != leaf


def test_model2a_delta_values():
    single_init = cg.UrnInit(red=(F(1),), black=(F(1),))
    # one node: the transform is the identity
    assert approx.model2a_delta(SINGLE, single_init, 0, F(1)) == F(1, 2)
    init = cg.UrnInit(red=(F(1), F(1)), black=(F(1), F(1)))
    assert approx.model2a_delta(K2, init, 0, F(1)) == F(1, 5)  # 0.5/(2+0.5)


def test_model2b_delta_values():
    single_init = cg.UrnInit(red=(F(1),), black=(F(1),))
    assert approx.model2b_delta(SINGLE, single_init, 0, F(1)) == F(1, 2)
    init = cg.UrnInit(red=(F(1), F(1)), black=(F(1), F(1)))
    assert approx.model2b_delta(K2, init, 0, F(1)) == F(1, 9)  # 0.5/(4+0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 8), st.integers(1, 12))
def test_model2b_never_exceeds_model2a(r, b, d, n):
    net = graph.generate_complete(n)
    init = cg.UrnInit(red=(F(r),) * n, black=(F(b),) * n)
    da = approx.model2a_delta(net, init, 0, F(d))
    db = approx.model2b_delta(net, init, 0, F(d))
    assert db <= da
    assert (db == da) == (n == 1 or d == 0)


def test_pair_matching_identity_exact_rationals():
    # the large-network transform reproduces the (n,1)-step pair probability
    # of the network process through the classical family, exactly
    for n in (1, 2, 3, 7):
        net = graph.generate_complete(n)
        init = cg.UrnInit(red=(F(2),) * n, black=(F(3),) * n)
        delta = F(3, 2)
        rho = approx.rho_for_node(net, init, 0)
        d = approx.node_delta(net, init, 0, delta)
        dp = approx.model2a_delta(net, init, 0, delta)
        assert rho * (rho + dp) / (1 + dp) == exact.complete_n1_joint(rho, d, n)


def test_divergence_at_matches_kl_rate():
    init = cg.UrnInit(red=(F(1),), black=(F(1),))
    table = exact.enumerate_joint(SINGLE, init, cg.ConstantDelta(F(1)), 4)
    marg = table.node_marginal(0)
    q = exact.classical_polya_table(exact.PolyaParams(0.5, 0.37), 4)
    direct = exact.kl_rate(marg, q, 4)
    assert approx.divergence_at(marg, 0.5, 4, 0.37) == pytest.approx(direct, abs=1e-12)


def test_model1_fit_recovers_exact_classical_parameter():
    init = cg.UrnInit(red=(F(1),), black=(F(1),))
    marg = approx.node_marginal_for_fit(SINGLE, init, F(1), 0, 8)
    search = approx.default_search(SINGLE, init, 0, F(1))
    fit = approx.model1_fit(marg, 0.5, 8, search)
    assert fit.delta_hat == pytest.approx(0.5, abs=1e-6)
    assert abs(fit.kl) <= 1e-9


def test_model1_fit_zero_schedule_yields_zero():
    init = cg.UrnInit(red=(F(1),), black=(F(2),))
    table = exact.enumerate_joint(SINGLE, init, cg.ConstantDelta(F(0)), 6)
    marg = table.node_marginal(0)
    fit = approx.model1_fit(marg, float(F(1, 3)), 6,
                            approx.SearchConfig(delta_max=2.0))
    assert fit.delta_hat == pytest.approx(0.0, abs=1e-6)
    assert abs(fit.kl) <= 1e-9


def test_model1_fit_is_optimal_against_analytic_choices():
    net = graph.generate_complete(4)
    init = cg.UrnInit(red=(F(1),) * 4, black=(F(1),) * 4)
    marg = approx.node_marginal_for_fit(net, init, F(1), 0, 6)
    rho = float(approx.rho_for_node(net, init, 0))
    fit = approx.model1_fit(marg, rho, 6, approx.default_search(net, init, 0, F(1)))
    for other in (
        float(approx.model2a_delta(net, init, 0, F(1))),
        float(approx.model2b_delta(net, init, 0, F(1))),
        *fit.grid_deltas[:: 20],
    ):
        assert fit.kl <= approx.divergence_at(marg, rho, 6, other) + 1e-15


def test_count_masses_rejects_bad_marginal():
    with pytest.raises(DegenerateMarginal):
        approx.model1_fit({(0, 1): 0.4, (1, 1): 0.4}, 0.5, 2,
                          approx.SearchConfig(delta_max=1.0))


@pytest.mark.parametrize("key", [(2, 0), (2, 2), (1, "1"), (1,), (0, 1, 0), "01"])
def test_count_masses_rejects_keys_that_are_not_draws(key):
    # (2, 0) was counted as two reds, and (2, 2) indexed past the n + 1 counts
    marginal = {key: 0.5, (0, 0): 0.5}
    with pytest.raises(DegenerateMarginal):
        approx.model1_fit(marginal, 0.5, 2, approx.SearchConfig(delta_max=1.0))
    with pytest.raises(DegenerateMarginal):
        approx.divergence_at(marginal, 0.5, 2, 0.5)


@pytest.mark.parametrize("fields", [
    dict(coarse_points=0), dict(coarse_points=-3), dict(coarse_points=2.0),
    dict(coarse_points=True), dict(refine_tol=0.0), dict(refine_tol=-1e-6),
    dict(refine_tol=math.inf), dict(refine_tol=math.nan), dict(delta_max=-1.0),
    dict(delta_max=math.inf), dict(delta_max=math.nan), dict(delta_max="1"),
])
def test_search_config_refuses_bad_fields(fields):
    # refine_tol = 0 looped forever, coarse_points = 0 ended in numpy's argmin
    with pytest.raises(InvalidParameter):
        approx.SearchConfig(**{"delta_max": 1.0, **fields})


def test_divergence_refuses_nan_delta():
    marginal = {(0,): 0.5, (1,): 0.5}
    with pytest.raises(InvalidParameter):
        exact.PolyaParams(0.5, math.nan)
    with pytest.raises(InvalidParameter):
        approx.divergence_at(marginal, 0.5, 1, math.nan)
    with pytest.raises(InvalidParameter):
        approx.divergence_at({(): 1.0}, 0.5, 0, 0.5)


def test_log_probabilities_that_overflow_are_a_domain_error():
    # delta * (n - 1) overflows: the grid's argmin landed on a NaN and the
    # fit recorded "kl": NaN
    marginal = exact.complete_node_marginal(0.5, 1.0, 3, 4)
    with pytest.raises(DomainError, match="not finite in floats"):
        approx.divergence_at(marginal, 0.5, 4, 1e308)
    with pytest.raises(DomainError, match="not finite in floats"):
        approx.model1_fit(marginal, 0.5, 4, approx.SearchConfig(delta_max=1.6e308))


@pytest.mark.parametrize("tol", [1e-17, 5e-324])
def test_refinement_below_the_float_spacing_ends(tol):
    init = cg.UrnInit(red=(F(1),), black=(F(1),))
    marg = approx.node_marginal_for_fit(SINGLE, init, F(1), 0, 6)
    fit = approx.model1_fit(marg, 0.5, 6, approx.SearchConfig(delta_max=5.0, refine_tol=tol))
    assert fit.delta_hat == pytest.approx(0.5, abs=1e-6)


def _fit_case(kind, nodes, horizon):
    net = graph.generate(kind, nodes)
    init = cg.uniform_init(nodes, F(1), F(1))
    return net, init, approx.node_marginal_for_fit(net, init, F(1), 0, horizon)


FIT_CASES = [("complete", 100, 12), ("cycle", 4, 5)]


@pytest.mark.parametrize("kind,nodes,horizon", FIT_CASES)
def test_grid_rows_keep_the_bits_of_each_point(kind, nodes, horizon):
    net, init, marg = _fit_case(kind, nodes, horizon)
    rho = float(approx.rho_for_node(net, init, 0))
    fit = approx.model1_fit(marg, rho, horizon, approx.default_search(net, init, 0, F(1)))
    counts, entropy = approx._mapping_counts(marg, horizon)
    per_point = [approx._kl_from_counts(counts, entropy, rho, horizon, d)
                 for d in fit.grid_deltas]
    assert fit.grid_kl.tolist() == per_point


@pytest.mark.parametrize("kind,nodes,horizon", FIT_CASES)
def test_array_and_dict_collapse_agree(kind, nodes, horizon):
    net, init, marg = _fit_case(kind, nodes, horizon)
    probs = np.fromiter(marg.values(), np.float64)
    counts, entropy = approx._count_masses(probs, approx._red_counts(horizon), horizon)
    dict_counts, dict_entropy = approx._mapping_counts(marg, horizon)
    assert counts.tolist() == dict_counts.tolist()
    assert entropy == dict_entropy
    # both add in code order, one term at a time
    loop_counts, loop_entropy = [0.0] * (horizon + 1), 0.0
    for draws, p in marg.items():
        if p > 0:
            loop_counts[sum(draws)] += float(p)
            loop_entropy += float(p) * math.log(p)
    assert counts.tolist() == loop_counts
    assert entropy == loop_entropy


@pytest.mark.parametrize("kind,nodes,horizon", FIT_CASES)
def test_fit_node_of_its_own_marginal_is_the_same_record(kind, nodes, horizon):
    net, init, marg = _fit_case(kind, nodes, horizon)
    assert (approx.fit_node(net, init, F(1), 0, horizon)
            == approx.fit_node(net, init, F(1), 0, horizon, marginal=marg))


def test_node_marginal_for_fit_complete_uses_count_dp():
    net = graph.generate_complete(3)
    init = cg.UrnInit(red=(F(1),) * 3, black=(F(1),) * 3)
    fast = approx.node_marginal_for_fit(net, init, F(2), 0, 3)
    table = exact.enumerate_joint(net, init, cg.ConstantDelta(F(2)), 3)
    slow = table.node_marginal(0)
    for key, value in slow.items():
        assert fast[key] == pytest.approx(float(value), abs=1e-14)


def test_exact_representation_gap_single_node_is_zero():
    init = cg.UrnInit(red=(F(1),), black=(F(1),))
    report = approx.exact_representation_gap(SINGLE, init, F(1), 4)
    assert report.max_deviation == 0


def test_exact_representation_gap_zero_schedule_is_zero():
    init = cg.UrnInit(red=(F(1), F(1)), black=(F(1), F(1)))
    report = approx.exact_representation_gap(K2, init, F(0), 3)
    assert report.max_deviation == 0


def test_exact_representation_gap_positive_on_two_nodes():
    # rho = 1/2, delta = 1: the assumptions behind the matched classical
    # process fail at small sizes, so the gap is strictly positive
    init = cg.UrnInit(red=(F(1), F(1)), black=(F(1), F(1)))
    report = approx.exact_representation_gap(K2, init, F(2), 3)
    assert report.max_deviation > 0
    assert float(report.max_deviation) < 0.05


def test_exact_representation_gap_requires_complete():
    init = cg.UrnInit(red=(F(1),) * 3, black=(F(1),) * 3)
    with pytest.raises(InvalidParameter):
        approx.exact_representation_gap(STAR3, init, F(1), 2)


def test_recommend_model_threshold():
    assert approx.recommend_model(5) == "IIb"
    assert approx.recommend_model(20) == "IIb"
    assert approx.recommend_model(21) == "IIa"
    assert approx.recommend_model(100) == "IIa"


def test_fit_node_record_fields():
    init = cg.UrnInit(red=(F(1),), black=(F(1),))
    record = approx.fit_node(SINGLE, init, F(1), 0, 6)
    assert set(record) >= {"node", "rho", "delta_hat", "kl", "delta_prime", "delta_star"}
    assert record["rho"] == 0.5
    assert record["delta_prime"] == 0.5
    assert record["delta_star"] == 0.5
    assert record["delta_hat"] == pytest.approx(0.5, abs=1e-6)


def test_exact_representation_gap_of_integer_masses_is_a_fraction():
    gap = approx.exact_representation_gap(K2, cg.uniform_init(2), 1, 3).max_deviation
    assert type(gap) is F and gap == F(1, 1152)
