from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_net import contagion as cg, experiments, graph, sis
from polya_net.errors import ParameterOutOfRange, SizeMismatch

K2 = graph.generate_complete(2)
K5 = graph.generate_complete(5)


def test_params_validation():
    with pytest.raises(ParameterOutOfRange):
        sis.SisParams(beta=-0.1, delta_sis=0.5)
    with pytest.raises(ParameterOutOfRange):
        sis.SisParams(beta=0.1, delta_sis=1.5)


def test_step_no_infection_is_geometric_decay():
    params = sis.SisParams(beta=0.0, delta_sis=0.25)
    state = sis.SisState(time=0, probs=np.array([0.8, 0.4]))
    nxt = sis.sis_step(state, K2, params)
    assert np.allclose(nxt.probs, [0.8 * 0.75, 0.4 * 0.75])
    assert nxt.time == 1


def test_step_two_node_hand_value():
    params = sis.SisParams(beta=0.5, delta_sis=0.0)
    state = sis.SisState(time=0, probs=np.array([0.5, 0.5]))
    nxt = sis.sis_step(state, K2, params)
    assert np.allclose(nxt.probs, [0.625, 0.625])


def test_disease_free_fixed_point():
    params = sis.SisParams(beta=0.7, delta_sis=0.2)
    state = sis.SisState(time=0, probs=np.zeros(5))
    nxt = sis.sis_step(state, K5, params)
    assert np.all(nxt.probs == 0.0)


def test_step_size_mismatch():
    params = sis.SisParams(beta=0.1, delta_sis=0.1)
    with pytest.raises(SizeMismatch):
        sis.sis_step(sis.SisState(time=0, probs=np.zeros(3)), K2, params)


def test_run_zero_horizon_returns_initial_only():
    traj = sis.sis_run(K2, [0.3, 0.7], sis.SisParams(beta=0.2, delta_sis=0.2), 0)
    assert traj.probs.shape == (1, 2)
    assert traj.mean[0] == pytest.approx(0.5)


def test_run_full_cure_no_spread_dies_in_one_step():
    traj = sis.sis_run(K5, [0.9] * 5, sis.SisParams(beta=0.0, delta_sis=1.0), 3)
    assert np.all(traj.probs[1:] == 0.0)


def test_run_rejects_bad_initial():
    with pytest.raises(ParameterOutOfRange):
        sis.sis_run(K2, [1.2, 0.0], sis.SisParams(beta=0.1, delta_sis=0.1), 1)


def test_default_initial_probs_from_urns():
    init = cg.UrnInit(red=(1.0, 3.0), black=(3.0, 1.0))
    assert np.allclose(sis.default_initial_probs(init), [0.25, 0.75])


def test_default_initial_probs_of_masses_past_the_float_range():
    # each mass overflows a float, but the red fractions do not
    init = cg.UrnInit(red=(F(10) ** 400, 1), black=(1, F(10) ** 400))
    assert sis.default_initial_probs(init).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("delta_sis,expected", [
    (0.9, "dies_out"),
    (0.5, "endemic"),
    (0.8, "critical"),  # beta * lambda_max = 0.2 * 4 exactly
])
def test_threshold_classification_k5(delta_sis, expected):
    params = sis.SisParams(beta=0.2, delta_sis=delta_sis)
    assert sis.threshold_classify(K5, params, tol=1e-7) == expected


def test_threshold_zero_contact_always_dies():
    params = sis.SisParams(beta=0.0, delta_sis=0.3)
    assert sis.threshold_classify(K5, params) == "dies_out"


def test_extinction_above_threshold():
    traj = sis.sis_run(K5, [0.5] * 5, sis.SisParams(beta=0.2, delta_sis=0.9), 200)
    assert traj.mean[200] <= 1e-6
    assert np.all(np.diff(traj.mean[1:]) <= 1e-12)


def test_endemic_below_threshold():
    traj = sis.sis_run(K5, [0.5] * 5, sis.SisParams(beta=0.2, delta_sis=0.5), 1000)
    assert abs(traj.mean[1000] - traj.mean[500]) < 1e-6
    assert traj.mean[1000] > 0.01


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([K2, K5, graph.generate_star(6), graph.generate_cycle(5)]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 30),
    st.integers(0, 2 ** 31 - 1),
)
def test_unit_interval_preserved(net, beta, delta_sis, horizon, seed):
    rng = np.random.default_rng(seed)
    p0 = rng.random(net.node_count)
    traj = sis.sis_run(net, p0, sis.SisParams(beta=beta, delta_sis=delta_sis), horizon)
    assert np.all(traj.probs >= 0.0)
    assert np.all(traj.probs <= 1.0)


BIT_NETS = {
    "K1": graph.generate_complete(1),  # no neighbours: the escape product is 1
    "K2": K2,
    "star101": graph.generate_star(101),  # hub of degree 100
    "cycle9": graph.generate_cycle(9),
    "BA100": graph.generate_barabasi_albert(100, 2, seed=5),
}


def per_node_trajectory(net, p0, params, horizon):
    """The recursion with one ``np.prod`` per node and step."""
    rows = [np.asarray(p0, dtype=np.float64)]
    for _ in range(horizon):
        p = rows[-1]
        escape = np.array([
            np.prod(1.0 - params.beta * p[list(net.neighbors[i])])
            for i in range(net.node_count)
        ])
        rows.append(p * (1.0 - params.delta_sis) + (1.0 - p) * (1.0 - escape))
    return np.vstack(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BIT_NETS)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 25),
    st.integers(0, 2 ** 31 - 1),
)
def test_run_is_bit_identical_to_the_per_node_formula(name, beta, delta_sis, horizon, seed):
    net = BIT_NETS[name]
    params = sis.SisParams(beta=beta, delta_sis=delta_sis)
    p0 = np.random.default_rng(seed).random(net.node_count)
    traj = sis.sis_run(net, p0, params, horizon)
    expected = per_node_trajectory(net, p0, params, horizon)
    assert np.array_equal(traj.probs, expected)
    assert np.array_equal(traj.mean, expected.mean(axis=1))
    for t in range(horizon):
        nxt = sis.sis_step(sis.SisState(time=t, probs=traj.probs[t]), net, params)
        assert nxt.time == t + 1
        assert np.array_equal(nxt.probs, traj.probs[t + 1])


def test_run_rejects_initial_vectors_that_do_not_fit():
    params = sis.SisParams(beta=0.1, delta_sis=0.1)
    with pytest.raises(SizeMismatch):
        sis.sis_run(K2, [0.1, 0.2, 0.3], params, 0)
    with pytest.raises(ParameterOutOfRange):
        sis.sis_run(K2, [0.1, float("nan")], params, 1)
    with pytest.raises(ParameterOutOfRange):
        sis.sis_run(K2, [0.1, 0.2], params, -1)


def _fig5_rates():
    net = experiments.sis_comparison_network()
    rates = [sis.SisParams(experiments.SIS_BETA, min(1.0, experiments.SIS_BETA * ratio))
             for ratio in experiments.sis_ratio_cases(net).values()]
    p0 = sis.default_initial_probs(experiments.sis_comparison_init(net))
    return net, p0, rates, 200


@pytest.mark.parametrize("case", [
    _fig5_rates,
    lambda: (BIT_NETS["K1"], [0.4], [sis.SisParams(0.3, 0.0), sis.SisParams(0.3, 1.0)], 6),
    lambda: (K2, [0.3, 0.8], [sis.SisParams(0.6, 0.0), sis.SisParams(F(1, 3), 1),
                              sis.SisParams(0.0, 0.5)], 30),
], ids=["fig5", "K1", "K2"])
def test_rates_run_as_rows_keep_the_bits_of_their_own_runs(case):
    net, p0, rates, horizon = case()
    runs = sis.sis_run_many(net, p0, rates, horizon)
    assert len(runs) == len(rates)
    for rates_r, run in zip(rates, runs):
        alone = sis.sis_run(net, p0, rates_r, horizon)
        assert run.probs.shape == (horizon + 1, net.node_count)
        assert np.array_equal(run.probs, alone.probs)
        assert np.array_equal(run.mean, alone.mean)
        assert np.array_equal(run.probs, per_node_trajectory(net, p0, rates_r, horizon))
    # each trajectory is a view of the one batched array, not a copy
    assert runs[0].probs.base.shape == (len(rates), horizon + 1, net.node_count)
    assert all(run.probs.base is runs[0].probs.base for run in runs)


def test_no_rates_run_no_trajectory():
    assert sis.sis_run_many(K2, [0.5, 0.5], [], 3) == []
