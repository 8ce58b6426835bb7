import copy
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_net import contagion as cg, exact, graph
from polya_net.errors import DomainError, HypothesisViolation, InvalidParameter, SizeMismatch

K2 = graph.generate_complete(2)
PATH3 = graph.build_network(3, [(0, 1), (1, 2)])
SINGLE = graph.generate_complete(1)


def exact_init(red, black):
    return cg.UrnInit(red=tuple(F(v) for v in red), black=tuple(F(v) for v in black))


def test_urn_init_requires_both_colors():
    with pytest.raises(InvalidParameter):
        cg.UrnInit(red=(0, 1), black=(1, 1))
    with pytest.raises(SizeMismatch):
        cg.UrnInit(red=(1, 1), black=(1,))


def test_urn_init_holds_integer_masses_as_fractions():
    init = cg.UrnInit(red=(1, 2.5, F(1, 3)), black=[3, 1, 2])
    assert [type(v) for v in init.red] == [F, float, F]
    assert init.black == (F(3), F(1), F(2)) and all(type(v) is F for v in init.black)
    # config hashes are built from str() of each mass
    assert [str(v) for v in init.red] == ["1", "2.5", "1/3"]


def test_urn_init_rejects_totals_that_are_not_finite():
    for red, black in ((1e308, 1e308), (float("nan"), 1.0), (float("inf"), 1.0)):
        with pytest.raises(InvalidParameter, match="finite"):
            cg.UrnInit(red=(1.0, red), black=(1.0, black))
    # exact masses have no float range
    assert cg.UrnInit(red=(F(10) ** 400,), black=(F(10) ** 400,)).totals == (2 * F(10) ** 400,)


@pytest.mark.parametrize("build", [
    lambda x: cg.ConstantDelta(x),
    lambda x: cg.ConstantDelta((1.0, x), 1.0),
    lambda x: cg.TabulatedDelta([(1.0, 1.0), (1.0, x)], [(1.0, 1.0)] * 2),
    lambda x: cg.CuringDelta(x),
    lambda x: cg.CuringDelta(1.0, multiplier=x),
], ids=["constant", "per_node", "tabulated", "curing_red", "curing_multiplier"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), F(10) ** 400])
def test_schedules_reject_masses_without_a_finite_float(build, value):
    with pytest.raises(InvalidParameter, match="finite"):
        build(value)


@pytest.mark.parametrize("call", [
    lambda: cg.UrnBatch(K2, cg.uniform_init(2), 2.5),
    lambda: cg.UrnBatch(K2, cg.uniform_init(2), 0),
    lambda: cg.UrnBatch(K2, cg.uniform_init(2), -1),
    lambda: cg.UrnBatch(K2, cg.uniform_init(2), 10 ** 30),
    lambda: cg.uniform_init(2.5),
    lambda: cg.uniform_init(0),
    lambda: cg.uniform_init(10 ** 30),
    lambda: cg.super_urn_proportion(cg.initial_state(PATH3, cg.uniform_init(3)), PATH3, 7),
    lambda: cg.super_urn_proportion(cg.initial_state(PATH3, cg.uniform_init(3)), PATH3, -1),
    lambda: cg.super_urn_proportion(cg.initial_state(PATH3, cg.uniform_init(3)), PATH3, 1.5),
    lambda: cg.simulate_path(K2, cg.uniform_init(2), cg.ConstantDelta(1), 2.5,
                             np.random.default_rng(0)),
    lambda: cg.simulate_path(K2, cg.uniform_init(2), cg.ConstantDelta(1), -1,
                             np.random.default_rng(0)),
], ids=["rows_2.5", "rows_0", "rows_-1", "rows_10^30", "init_2.5", "init_0", "init_10^30",
        "node_7", "node_-1", "node_1.5", "path_horizon_2.5", "path_horizon_-1"])
def test_sizes_and_nodes_are_checked_with_typed_errors(call):
    # 2.5 rows were accepted, node -1 read the last node's super urn and a
    # path of horizon -1 was an empty record; the others raised a raw
    # ValueError, OverflowError, TypeError or IndexError
    with pytest.raises(InvalidParameter):
        call()


def _memory_state():
    state = cg.initial_state(K2, cg.uniform_init(2), memory=2)
    return cg.apply_draws(state, K2, (1, 0), cg.ConstantDelta(1))


@pytest.mark.parametrize("call", [
    lambda i: cg.finite_memory_conditional(_memory_state(), K2, i),
    lambda i: cg.expected_urn_increment(cg.initial_state(K2, cg.uniform_init(2)), K2, i, 1),
    lambda i: cg.curing_delta_bound(cg.initial_state(K2, cg.uniform_init(2)), K2, i, 1),
    lambda i: cg.initial_state(K2, cg.uniform_init(2)).urn_proportion(i),
    lambda i: exact.enumerate_joint(K2, cg.uniform_init(2), cg.ConstantDelta(1), 3)
    .event_probability({(i, 1): 1}),
    lambda i: exact.enumerate_joint(K2, cg.uniform_init(2), cg.ConstantDelta(1), 3)
    .event_probability({(0, i / 2): 1}),
], ids=["finite_memory_conditional", "expected_urn_increment", "curing_delta_bound",
        "urn_proportion", "event_node", "event_time"])
@pytest.mark.parametrize("i", [5, -1, 1.5])
def test_node_indices_are_checked_with_typed_errors(call, i):
    # each raised a raw IndexError or TypeError, or read node -1 as the last
    # node (event time i / 2: 2.5, -0.5 and 0.75)
    with pytest.raises(InvalidParameter):
        call(i)


def test_initial_state_symmetric():
    state = cg.initial_state(K2, exact_init((1, 1), (1, 1)))
    assert cg.conditional_draw_probabilities(state, K2) == [F(1, 2), F(1, 2)]


def test_initial_state_hand_sums():
    state = cg.initial_state(K2, exact_init((3, 1), (1, 3)))
    assert state.urn_proportions() == [F(3, 4), F(1, 4)]
    assert cg.super_urn_proportion(state, K2, 0) == F(1, 2)
    assert cg.super_urn_proportion(state, K2, 1) == F(1, 2)


def test_initial_state_path_neighborhood_sums():
    state = cg.initial_state(PATH3, exact_init((1, 1, 1), (1, 1, 3)))
    probs = cg.conditional_draw_probabilities(state, PATH3)
    assert probs == [F(1, 2), F(3, 8), F(1, 3)]


def test_initial_state_size_mismatch():
    with pytest.raises(SizeMismatch):
        cg.initial_state(K2, exact_init((1,), (1,)))


def test_single_node_super_urn_is_own_urn():
    state = cg.initial_state(SINGLE, exact_init((2,), (3,)))
    assert cg.super_urn_proportion(state, SINGLE, 0) == F(2, 5)
    assert cg.conditional_draw_probabilities(state, SINGLE) == [F(2, 5)]


def test_super_urn_after_one_step_hand_accounting():
    sched = cg.ConstantDelta(F(1))
    state = cg.initial_state(K2, exact_init((1, 1), (1, 1)))
    state = cg.apply_draws(state, K2, (1, 0), sched)
    assert state.time == 1
    assert cg.super_urn_proportion(state, K2, 0) == F(1, 2)  # (1+1+1)/(3+3)
    assert state.urn_proportions() == [F(2, 3), F(1, 3)]


def test_apply_draws_zero_black_mass_keeps_masses():
    sched = cg.ConstantDelta(F(1), F(0))
    state = cg.initial_state(K2, exact_init((1, 2), (1, 1)))
    nxt = cg.apply_draws(state, K2, (0, 0), sched)
    assert nxt.time == 1
    assert nxt.red_mass == state.red_mass
    assert nxt.total_mass == state.total_mass


def test_apply_draws_classical_single_node():
    sched = cg.ConstantDelta(F(1))
    state = cg.initial_state(SINGLE, exact_init((1,), (1,)))
    state = cg.apply_draws(state, SINGLE, (1,), sched)
    assert state.urn_proportion(0) == F(2, 3)


def test_finite_memory_expiry_bookkeeping():
    # memory 1: after (red, black) the step-1 red addition is gone
    sched = cg.ConstantDelta(F(1))
    state = cg.initial_state(SINGLE, exact_init((1,), (1,)), memory=1)
    state = cg.apply_draws(state, SINGLE, (1,), sched)
    assert state.urn_proportion(0) == F(2, 3)
    state = cg.apply_draws(state, SINGLE, (0,), sched)
    assert state.urn_proportion(0) == F(1, 3)


def test_finite_memory_matches_infinite_until_window_fills():
    sched = cg.ConstantDelta(F(2))
    init = exact_init((1, 2), (2, 1))
    a = cg.initial_state(K2, init, memory=5)
    b = cg.initial_state(K2, init)
    for draws in [(1, 0), (0, 0), (1, 1)]:
        a = cg.apply_draws(a, K2, draws, sched)
        b = cg.apply_draws(b, K2, draws, sched)
        assert cg.finite_memory_conditional(a, K2, 0) == cg.super_urn_proportion(b, K2, 0)
        assert a.red_mass == b.red_mass


def test_finite_memory_conditional_single_node_window():
    sched = cg.ConstantDelta(F(1))
    for earlier in [(0,), (1,)]:
        state = cg.initial_state(SINGLE, exact_init((1,), (1,)), memory=1)
        state = cg.apply_draws(state, SINGLE, earlier, sched)
        state = cg.apply_draws(state, SINGLE, (1,), sched)
        # last draw red: conditional is 2/3 no matter what happened before
        assert cg.finite_memory_conditional(state, SINGLE, 0) == F(2, 3)
        assert cg.super_urn_proportion(state, SINGLE, 0) == F(2, 3)


def test_finite_memory_window_permutation_invariance():
    sched = cg.ConstantDelta(F(1))
    init = exact_init((1, 1), (1, 1))
    orders = [[(1, 0), (0, 1), (1, 1)], [(1, 1), (1, 0), (0, 1)]]
    values = []
    for order in orders:
        state = cg.initial_state(K2, init, memory=3)
        for draws in order:
            state = cg.apply_draws(state, K2, draws, sched)
        values.append([cg.finite_memory_conditional(state, K2, i) for i in range(2)])
    assert values[0] == values[1]


def test_finite_memory_conditional_requires_finite_mode():
    state = cg.initial_state(K2, exact_init((1, 1), (1, 1)))
    with pytest.raises(InvalidParameter):
        cg.finite_memory_conditional(state, K2, 0)


def test_sample_step_deterministic_from_stream():
    sched = cg.ConstantDelta(1.0)
    init = cg.UrnInit(red=(1.0, 1.0), black=(1.0, 1.0))
    rec1, _ = cg.simulate_path(K2, init, sched, 20, np.random.default_rng(42))
    rec2, _ = cg.simulate_path(K2, init, sched, 20, np.random.default_rng(42))
    assert rec1 == rec2
    assert len(rec1) == 20
    assert rec1.node_sequence(0) == tuple(s[0] for s in rec1.steps)


def test_expected_urn_increment_balanced_neighborhood_is_zero():
    state = cg.initial_state(K2, exact_init((2, 2), (2, 2)))
    assert cg.expected_urn_increment(state, K2, 0, F(1)) == 0


def test_expected_urn_increment_single_node_zero():
    state = cg.initial_state(SINGLE, exact_init((3,), (2,)))
    assert cg.expected_urn_increment(state, SINGLE, 0, F(1)) == 0


def test_expected_urn_increment_hand_value():
    state = cg.initial_state(K2, exact_init((3, 1), (1, 3)))
    assert cg.expected_urn_increment(state, K2, 0, F(1)) == F(-1, 20)


def test_expected_urn_increment_matches_two_outcome_average():
    state = cg.initial_state(K2, exact_init((3, 1), (1, 3)))
    s = cg.super_urn_proportion(state, K2, 0)
    up = (state.red_mass[0] + 1) / (state.total_mass[0] + 1)
    down = state.red_mass[0] / (state.total_mass[0] + 1)
    expected = s * up + (1 - s) * down - state.urn_proportion(0)
    assert cg.expected_urn_increment(state, K2, 0, F(1)) == expected


def test_expected_urn_increment_rejects_unequal_totals():
    state = cg.initial_state(K2, exact_init((1, 2), (1, 2)))
    with pytest.raises(HypothesisViolation):
        cg.expected_urn_increment(state, K2, 0, F(1))


def test_curing_bound_values():
    state = cg.initial_state(K2, exact_init((1, 1), (1, 1)))
    # U == S: the bound collapses to the red mass itself
    assert cg.curing_delta_bound(state, K2, 0, F(2)) == F(2)
    assert cg.curing_delta_bound(state, K2, 0, F(0)) == 0


def test_curing_bound_hand_value():
    # U = 1/4, S = 1/2: bound = 2 * (3/4) * (1/2) / ((1/4) * (1/2)) = 6
    state = cg.NetworkState(time=0, red_mass=[F(1), F(3)], total_mass=[F(4), F(4)],
                            base_red=(F(1), F(3)), base_total=(F(4), F(4)))
    assert cg.curing_delta_bound(state, K2, 0, F(2)) == 6


def test_curing_bound_balances_expected_masses():
    # the bound equates E[red mass] / E[total mass] with the current
    # proportion, exactly, for every state
    state = cg.initial_state(PATH3, exact_init((1, 2, 1), (3, 1, 2)))
    for i in range(3):
        bound = cg.curing_delta_bound(state, PATH3, i, F(2))
        s = cg.super_urn_proportion(state, PATH3, i)
        red, total = state.red_mass[i], state.total_mass[i]
        e_red = s * (red + 2) + (1 - s) * red
        e_total = s * (total + 2) + (1 - s) * (total + bound)
        assert e_red / e_total == state.urn_proportion(i)


def test_curing_bound_exact_drift_zero_when_proportions_agree():
    # when a node's own proportion equals its super-urn proportion the
    # bound equals the red mass and the proportion drift vanishes exactly
    state = cg.initial_state(K2, exact_init((2, 2), (3, 3)))
    for i in range(2):
        bound = cg.curing_delta_bound(state, K2, i, F(2))
        assert bound == 2
        s = cg.super_urn_proportion(state, K2, i)
        red, total = state.red_mass[i], state.total_mass[i]
        expectation = s * (red + 2) / (total + 2) + (1 - s) * red / (total + bound)
        assert expectation == state.urn_proportion(i)


def test_proportion_drift_decreasing_in_black_mass_and_zero_mass_submartingale():
    state = cg.initial_state(PATH3, exact_init((1, 2, 1), (3, 1, 2)))
    for i in range(3):
        s = cg.super_urn_proportion(state, PATH3, i)
        red, total = state.red_mass[i], state.total_mass[i]
        u = state.urn_proportion(i)
        def drift(db):
            return s * (red + 2) / (total + 2) + (1 - s) * red / (total + db) - u
        assert drift(F(0)) >= 0
        assert drift(F(1)) > drift(F(2)) > drift(F(100))


def test_curing_schedule_drives_black_mass():
    sched = cg.CuringDelta(F(2), multiplier=F(3, 2))
    state = cg.initial_state(K2, exact_init((1, 3), (3, 1)))
    u = np.array(state.urn_proportions())
    red, black = sched.masses(1, u, np.array(cg.conditional_draw_probabilities(state, K2)))
    assert red == F(2)
    assert list(black) == [F(3, 2) * cg.curing_delta_bound(state, K2, i, F(2)) for i in range(2)]


def test_float_curing_mass_out_of_range_is_a_domain_error():
    # s rounds to 1 on urns of 1e20 red against 1 black, so the curing mass
    # leaves the float range; the scalar engine raised ZeroDivisionError here
    init = cg.UrnInit(red=(1e20, 1e20), black=(1.0, 1.0))
    with pytest.raises(DomainError):
        cg.simulate_path(K2, init, cg.CuringDelta(1.0), 2, np.random.default_rng(0))


def test_network_susceptibility():
    state = cg.initial_state(K2, exact_init((3, 1), (1, 3)))
    assert cg.network_susceptibility(state) == F(1, 2)
    u = state.urn_proportions()
    assert min(u) <= cg.network_susceptibility(state) <= max(u)


def test_zero_schedule_keeps_conditionals_constant():
    sched = cg.ConstantDelta(F(0))
    state = cg.initial_state(PATH3, exact_init((1, 2, 1), (2, 1, 1)))
    first = cg.conditional_draw_probabilities(state, PATH3)
    for draws in [(1, 1, 0), (0, 1, 1), (0, 0, 0)]:
        state = cg.apply_draws(state, PATH3, draws, sched)
        assert cg.conditional_draw_probabilities(state, PATH3) == first


def test_tabulated_schedule_lookup():
    sched = cg.TabulatedDelta(red_rows=[(1, 2), (0, 0)], black_rows=[(0, 1), (2, 2)])
    exact_u, float_u = np.array([F(1, 2)] * 2), np.full(2, 0.5)
    assert sched.masses(1, exact_u, exact_u)[0][1] == 2
    assert sched.masses(2, exact_u, exact_u)[1][0] == 2
    assert sched.masses(2, float_u, float_u)[1].tolist() == [2.0, 2.0]
    with pytest.raises(SizeMismatch):
        cg.TabulatedDelta(red_rows=[(1,)], black_rows=[])
    with pytest.raises(InvalidParameter):
        cg.TabulatedDelta(red_rows=[(-1,)], black_rows=[(0,)])


small_networks = st.sampled_from([
    K2, PATH3, SINGLE,
    graph.generate_cycle(4),
    graph.generate_star(4),
    graph.generate_complete(3),
])


@st.composite
def walk_cases(draw):
    net = draw(small_networks)
    n = net.node_count
    red = tuple(F(draw(st.integers(1, 4))) for _ in range(n))
    black = tuple(F(draw(st.integers(1, 4))) for _ in range(n))
    d_red = F(draw(st.integers(0, 3)))
    d_black = F(draw(st.integers(0, 3)))
    steps = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=5))
    memory = draw(st.sampled_from([None, 1, 2, 3]))
    return net, cg.UrnInit(red=red, black=black), cg.ConstantDelta(d_red, d_black), steps, memory


@settings(max_examples=60, deadline=None)
@given(walk_cases())
def test_mass_conservation_and_open_interval(case):
    net, init, sched, steps, memory = case
    n = net.node_count
    state = cg.initial_state(net, init, memory=memory)
    for combo in steps:
        draws = tuple((combo >> i) & 1 for i in range(n))
        before = sum(state.total_mass)
        nxt = cg.apply_draws(state, net, draws, sched)
        u = np.array(state.urn_proportions())
        red, black = sched.masses(nxt.time, u, u)
        added = sum(red if draws[i] else black for i in range(n))
        if memory is None:
            assert sum(nxt.total_mass) - before == added
        for i in range(n):
            assert 0 < nxt.urn_proportion(i) < 1
            assert 0 < cg.super_urn_proportion(nxt, net, i) < 1
        state = nxt


@settings(max_examples=40, deadline=None)
@given(walk_cases())
def test_complete_networks_share_one_super_urn(case):
    net, init, sched, steps, memory = case
    if graph.classify(net) != "complete" or net.node_count == 1:
        return
    n = net.node_count
    state = cg.initial_state(net, init, memory=memory)
    for combo in steps:
        draws = tuple((combo >> i) & 1 for i in range(n))
        state = cg.apply_draws(state, net, draws, sched)
        probs = cg.conditional_draw_probabilities(state, net)
        assert len(set(probs)) == 1


@settings(max_examples=40, deadline=None)
@given(walk_cases())
def test_finite_memory_depends_only_on_window(case):
    net, init, sched, steps, memory = case
    if memory is None:
        return
    n = net.node_count
    # run two histories that agree on the last `memory` steps
    suffix = steps[-memory:]
    prefixes = [steps[:-memory], [2 ** n - 1] * 3]
    if len(suffix) < memory:
        return
    conds = []
    for prefix in prefixes:
        state = cg.initial_state(net, init, memory=memory)
        for combo in prefix + suffix:
            draws = tuple((combo >> i) & 1 for i in range(n))
            state = cg.apply_draws(state, net, draws, sched)
        conds.append([cg.finite_memory_conditional(state, net, i) for i in range(n)])
    assert conds[0] == conds[1]


def test_state_snapshot_round_trips_via_json():
    import json

    state = cg.initial_state(K2, exact_init((1, 2), (2, 1)), memory=3)
    state = cg.apply_draws(state, K2, (1, 0), cg.ConstantDelta(F(1, 2)))
    blob = json.loads(json.dumps(state.snapshot()))
    assert blob["time"] == 1
    assert blob["memory"] == 3
    assert [F(v) for v in blob["red_mass"]] == state.red_mass
    assert [F(v) for v in blob["total_mass"]] == state.total_mass


BA7 = graph.generate("ba", 7, m=2, seed=4)
BA7_INIT = cg.UrnInit(red=tuple(1.0 + 0.25 * i for i in range(7)), black=(1.5,) * 7)
BA7_SCHED = cg.ConstantDelta(tuple(0.1 + 0.3 * i for i in range(7)),
                             tuple(0.9 - 0.1 * i for i in range(7)))
BA40 = graph.generate("ba", 40, m=2, seed=3)
BA40_INIT = cg.UrnInit(red=tuple(1.0 + 0.1 * i for i in range(40)),
                       black=tuple(2.0 - 0.03 * i for i in range(40)))
BA40_MASSES = tuple(0.2 + 0.05 * i for i in range(40))
# one node above the dense-pooling cap: CSR neighbourhood sums
CSR_N = cg.DENSE_POOLING_MAX_NODES + 1
BA_CSR = graph.generate("ba", CSR_N, m=2, seed=3)
BA_CSR_INIT = cg.UrnInit(red=tuple(1.0 + 0.1 * (i % 40) for i in range(CSR_N)),
                         black=tuple(2.0 - 0.03 * (i % 40) for i in range(CSR_N)))
BA_CSR_MASSES = tuple(0.2 + 0.05 * (i % 40) for i in range(CSR_N))


@pytest.mark.parametrize("net, init, sched, memory", [
    (BA7, BA7_INIT, BA7_SCHED, 3),
    (BA7, BA7_INIT, BA7_SCHED, None),
    # masses computed from the state: the scalar engine's Python sums give
    # the same s as CSR sums (above the dense-pooling cap), so the masses
    # agree to the bit; a dense-pooled network takes s from BLAS products
    (BA_CSR, BA_CSR_INIT, cg.CuringDelta(0.3, multiplier=1.5), None),
], ids=["3", "None", "ba40_curing"])
def test_batch_driven_by_scalar_draws_ends_with_the_same_float_masses(net, init, sched, memory):
    # one update rule in two arithmetics: the same draws and masses give the
    # same bits, under finite memory too (expire, then add)
    record, state = cg.simulate_path(net, init, sched, 80, np.random.default_rng(5),
                                     memory=memory)
    batch = cg.UrnBatch(net, init, 1, memory=memory)
    for t, draws in enumerate(record.steps, 1):
        batch.step(t, np.array([draws], dtype=float), batch.super_urn(), sched)
    assert np.array_equal(batch.red[0], state.red_mass)
    assert np.array_equal(batch.total[0], state.total_mass)


def test_copy_and_apply_draws_leave_the_parent_state_unchanged():
    sched = cg.ConstantDelta(F(1), F(2))
    state = cg.initial_state(K2, exact_init((1, 2), (2, 1)), memory=2)
    for draws in [(1, 0), (0, 1)]:
        state = cg.apply_draws(state, K2, draws, sched)
    before = copy.deepcopy((state.red_mass, state.total_mass, list(state.window)))
    child = state.copy()
    assert all(a is b for a, b in zip(child.window, state.window))
    nxt = cg.apply_draws(child, K2, (1, 1), sched)  # a full window: expires step 1
    for s in (state, child):
        assert (s.red_mass, s.total_mass, list(s.window)) == before
    assert list(nxt.window) == [((0, F(1)), (F(2), F(1))), ((F(1), F(1)), (F(1), F(1)))]
    assert nxt.red_mass == [F(2), F(4)] and nxt.total_mass == [F(6), F(5)]


def test_equal_masses_only_for_constant_equal_schedules():
    assert cg.ConstantDelta(F(1, 2)).equal_masses == 0.5
    assert np.array_equal(cg.ConstantDelta((1, 2), (1, 2)).equal_masses, [1.0, 2.0])
    assert np.array_equal(cg.ConstantDelta(1, (1, 1)).equal_masses, [1.0, 1.0])
    for sched in (cg.ConstantDelta(1, 2), cg.ConstantDelta((1, 2), (1, 3)),
                  cg.TabulatedDelta([[1, 1]], [[1, 1]]), cg.CuringDelta(1)):
        assert sched.equal_masses is None


def test_urn_batch_pools_large_networks_without_dense_arrays():
    from scipy.sparse import csr_matrix

    big = graph.generate("ba", 3000, m=2, seed=1)
    cg.UrnBatch(big, cg.uniform_init(3000, 1.0, 1.0), 2)
    assert "adjacency" not in vars(big) and "closed_adjacency" not in vars(big)
    net = BA_CSR
    batch = cg.UrnBatch(net, cg.uniform_init(CSR_N, 1.0, 2.0), 3)
    dense_built = csr_matrix(net.closed_adjacency)
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(batch._csr, name), getattr(dense_built, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    rng = np.random.default_rng(2)
    sched = cg.ConstantDelta(0.3, 0.7)
    for t in range(1, 6):
        s = batch.super_urn()
        batch.step(t, (rng.random(s.shape) < s).astype(float), s, sched)
    ours = batch.super_urn()
    batch._csr = dense_built
    assert np.array_equal(ours, batch.super_urn())


@pytest.mark.parametrize("equal", [cg.ConstantDelta(0.75),
                                   cg.ConstantDelta(BA_CSR_MASSES, BA_CSR_MASSES)])
@pytest.mark.parametrize("memory", [None, 5])
def test_shared_total_row_matches_total_planes_after_every_step(memory, equal):
    # equal masses on a CSR-pooled network keep one total row; the same
    # masses tabulated take the per-plane path, with the same bits
    h = 16
    masses = tuple(np.broadcast_to(equal.equal_masses, CSR_N).tolist())
    tabulated = cg.TabulatedDelta([masses] * h, [masses] * h)
    shared = cg.UrnBatch(BA_CSR, BA_CSR_INIT, 4, memory=memory, sched=equal)
    planes = cg.UrnBatch(BA_CSR, BA_CSR_INIT, 4, memory=memory, sched=tabulated)
    assert not shared.total.flags.writeable and planes.total.flags.writeable
    rng = np.random.default_rng(6)
    for t in range(1, h + 1):
        if t == 8:  # reorder and repeat rows mid-run, into C-order copies
            rows = np.array([3, 0, 0, 2, 1, 3, 1, 3, 0, 3, 2, 1])
            shared.take(rows)
            planes.take(rows)
            assert shared.red.flags.c_contiguous and planes.red.flags.c_contiguous
        s = shared.super_urn()
        z = (rng.random(s.shape) < s).astype(float)
        shared.step(t, z, s, equal)
        planes.step(t, z, s, tabulated)
        assert np.array_equal(shared.red, planes.red)
        assert np.array_equal(shared.total, planes.total)
        assert np.array_equal(shared.proportions(), planes.proportions())
        assert np.array_equal(shared.super_urn(), planes.super_urn())
    assert shared.red.shape == (12, CSR_N) and shared.pooled_totals_finite()


def test_shared_total_row_driven_by_scalar_draws_ends_with_the_same_float_masses():
    sched = cg.ConstantDelta(BA40_MASSES, BA40_MASSES)
    record, state = cg.simulate_path(BA40, BA40_INIT, sched, 60, np.random.default_rng(5),
                                     memory=3)
    batch = cg.UrnBatch(BA40, BA40_INIT, 1, memory=3, sched=sched)
    assert not batch.total.flags.writeable
    for t, draws in enumerate(record.steps, 1):
        batch.step(t, np.array([draws], dtype=float), batch.super_urn(), sched)
    assert np.array_equal(batch.red[0], state.red_mass)
    assert np.array_equal(batch.total[0], state.total_mass)


def test_only_curing_masses_read_the_urn_proportions():
    assert cg.CuringDelta(1).reads_proportions
    for sched in (cg.ConstantDelta(1), cg.ConstantDelta(1, 2),
                  cg.TabulatedDelta([[1, 1]], [[1, 2]])):
        assert not sched.reads_proportions


def test_exact_masses_that_round_to_equal_floats_are_not_equal():
    assert cg.ConstantDelta(F(1, 3), F(1, 3) + F(1, 10 ** 30)).equal_masses is None
    assert cg.ConstantDelta((F(1, 3), 1), (F(1, 3), 1)).equal_masses is not None


def _plane_dtype(n=40, init=None, sched=cg.ConstantDelta(1.0), horizon=100, **kw):
    net = BA40 if n == 40 else graph.generate("ba", n, m=2, seed=3)
    init = init or cg.uniform_init(n, 1.0, 2.0)
    return cg.UrnBatch(net, init, 2, sched=sched, horizon=horizon, **kw).red.dtype


def test_float32_planes_only_for_integer_equal_mass_runs_of_more_than_32_nodes():
    # dense products up to the cap, CSR sums above it
    assert _plane_dtype(33) == _plane_dtype(100) == _plane_dtype(CSR_N) == np.float32
    assert _plane_dtype(40, memory=5) == np.float32
    assert _plane_dtype(sched=cg.ConstantDelta((2.0,) * 40, (2.0,) * 40)) == np.float32
    for kw in (dict(n=32),  # a total plane
               dict(horizon=None), dict(exact=True),  # enumeration
               dict(init=BA40_INIT), dict(sched=cg.ConstantDelta(0.5)),  # not integers
               dict(sched=cg.ConstantDelta(1.0, 2.0)), dict(sched=cg.CuringDelta(1.0)),
               dict(sched=cg.TabulatedDelta([(1.0,) * 40] * 100, [(1.0,) * 40] * 100))):
        assert _plane_dtype(**kw) in (np.float64, object), kw


def test_the_float32_bound_is_a_strict_bound_on_pooled_totals_after_the_horizon():
    # BA40's largest closed neighbourhood holds 18 urns, each of total 3 + h
    degree = max(BA40.degrees) + 1
    horizon = -(-(1 << 24) // degree) - 3  # the fewest steps that reach 2^24
    assert degree * (3 + horizon - 1) < 1 << 24 <= degree * (3 + horizon)
    assert _plane_dtype(horizon=horizon - 1) == np.float32
    assert _plane_dtype(horizon=horizon) == np.float64


def test_integer_masses_past_float32_are_refused_before_any_product():
    # 5e307 is an integer-valued float: h * 5e307 and its pooled sums would
    # overflow, which the test configuration turns into an error
    assert _plane_dtype(init=cg.uniform_init(40, 1.0, 5e307)) == np.float64
    assert _plane_dtype(sched=cg.ConstantDelta(5e307)) == np.float64
    assert _plane_dtype(horizon=1 << 60, sched=cg.ConstantDelta(0.0)) == np.float64


@pytest.mark.parametrize("memory", [None, 3])
def test_float32_batches_divide_out_the_float64_batches_bits(monkeypatch, memory):
    init = cg.UrnInit(red=tuple(1.0 + i % 3 for i in range(40)), black=(2.0,) * 40)
    sched = cg.ConstantDelta(tuple(1.0 + i % 4 for i in range(40)),
                             tuple(1.0 + i % 4 for i in range(40)))
    ours = cg.UrnBatch(BA40, init, 4, memory=memory, sched=sched, horizon=30)
    monkeypatch.setattr(cg, "_pools_exactly", lambda *args: False)
    theirs = cg.UrnBatch(BA40, init, 4, memory=memory, sched=sched, horizon=30)
    assert ours.red.dtype == np.float32 and theirs.red.dtype == np.float64
    rng = np.random.default_rng(8)
    for t in range(1, 31):
        if t == 12:
            rows = np.array([3, 0, 0, 2, 1, 3, 1])
            ours.take(rows)
            theirs.take(rows)
        s = ours.super_urn()
        assert s.dtype == np.float64 and np.array_equal(s, theirs.super_urn())
        z = (rng.random(s.shape) < s).astype(float)
        ours.step(t, z, s, sched)
        theirs.step(t, z, s, sched)
        assert np.array_equal(ours.red, theirs.red) and np.array_equal(ours.total, theirs.total)
        u = ours.proportions()
        assert u.dtype == np.float64 and np.array_equal(u, theirs.proportions())
    assert ours.pooled_totals_finite()


def test_a_finite_memory_ring_holds_a_byte_a_draw():
    # 50 steps of 500 x 20 draws are 500 kB of bytes; two float64 gain
    # planes a step would be 8 MB
    net = graph.generate("ba", 20, m=2, seed=7)
    tracemalloc.start()
    try:
        cg.UrnBatch(net, cg.uniform_init(20, 1.0, 2.0), 500, memory=50,
                    sched=cg.ConstantDelta(2.0, 1.0), horizon=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_size_guard_counts_a_curing_rings_black_masses():
    # one row of K1: the planes take 16 bytes, a ring slot a byte for the
    # draw, and under curing 8 more for the slot's (rows, N) black mass
    memory = sys.maxsize // 4
    k1, init = graph.generate_complete(1), cg.uniform_init(1, 1.0, 1.0)
    with pytest.raises(InvalidParameter, match="more than an array holds"):
        cg.UrnBatch(k1, init, 1, memory=memory, sched=cg.CuringDelta(1.0))
    # past the guard the ring is only more than memory can hold
    with pytest.raises(MemoryError):
        cg.UrnBatch(k1, init, 1, memory=memory, sched=cg.ConstantDelta(1.0))


CYCLE4 = graph.generate_cycle(4)


def _in(exact, *values):
    """``values`` (Fractions, or tuples of them) as given, or as floats."""
    if exact:
        return values
    return tuple(tuple(map(float, v)) if isinstance(v, tuple) else float(v) for v in values)


def _stepped_batches(sched, exact):
    """A 3-row batch on the 4-cycle after each of 8 steps of ``sched``
    (rows reordered and repeated before step 5)."""
    init = cg.UrnInit(*_in(exact, (F(1), F(2), F(3), F(1)), (F(2), F(1), F(1), F(3))))
    batch = cg.UrnBatch(CYCLE4, init, 3, memory=3, sched=sched, exact=exact)
    rng = np.random.default_rng(3)
    for t in range(1, 9):
        if t == 5:
            batch.take(np.array([1, 0, 0, 2, 1]))
        s = batch.super_urn()
        z = (rng.random(s.shape) < s.astype(float)).astype(int)
        batch.step(t, z.astype(object) if exact else z.astype(float), s, sched)
        yield batch


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())


@pytest.mark.parametrize("build, masses", [
    (cg.ConstantDelta, (F(1), F(2))), (cg.ConstantDelta, (F(3, 2),)),
    (cg.CuringDelta, (F(1), F(3, 2))),
], ids=["unequal", "equal", "curing"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_proportions_read_after_a_step_or_take_are_red_over_total(build, masses, exact):
    sched = build(*_in(exact, *masses))
    held = None
    for batch in _stepped_batches(sched, exact):
        if held is not None:  # the step (or take) left the array read before as it was
            assert _same(held, stale)
        held = batch.proportions()
        stale = held.copy()
        assert _same(held, batch.red / batch.total)


@pytest.mark.parametrize("masses", [F(3, 2), (F(1), F(2), F(1, 2), F(3))],
                         ids=["scalar", "per_node"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_equal_mass_total_planes_equal_the_product_form(masses, exact):
    # under equal masses a total plane gains db itself; the same masses
    # tabulated gain (1 - z) * db + z * dr, with the same bits and Fractions
    equal = cg.ConstantDelta(*_in(exact, masses, masses))
    row = _in(exact, tuple(np.broadcast_to(np.array(masses, dtype=object), 4)))[0]
    tabulated = cg.TabulatedDelta([row] * 8, [row] * 8)
    assert equal.equal_masses is not None and tabulated.equal_masses is None
    for ours, theirs in zip(_stepped_batches(equal, exact), _stepped_batches(tabulated, exact)):
        assert ours.total.flags.writeable  # 4 nodes: a total plane, no shared row
        assert _same(ours.red, theirs.red) and _same(ours.total, theirs.total)
