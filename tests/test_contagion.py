import copy
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_net import contagion as cg, graph
from polya_net.errors import HypothesisViolation, InvalidParameter, SizeMismatch

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
    sched = cg.CuringDelta(F(2), multiplier=F(1))
    state = cg.initial_state(K2, exact_init((1, 3), (3, 1)))
    bound = cg.curing_delta_bound(state, K2, 0, F(2))
    assert sched.black_mass(0, 1, state, K2) == bound
    with pytest.raises(InvalidParameter):
        sched.black_mass(0, 1)


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
    assert sched.red_mass(1, 1) == 2
    assert sched.black_mass(0, 2) == 2
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
        added = sum(
            sched.red_mass(i, nxt.time) if draws[i] else sched.black_mass(i, nxt.time)
            for i in range(n)
        )
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


@pytest.mark.parametrize("memory", [3, None])
def test_batch_driven_by_scalar_draws_ends_with_the_same_float_masses(memory):
    # one update rule in two arithmetics: the same draws and masses give the
    # same bits, under finite memory too (expire, then add)
    init = cg.UrnInit(red=tuple(1.0 + 0.25 * i for i in range(7)), black=(1.5,) * 7)
    sched = cg.ConstantDelta(tuple(0.1 + 0.3 * i for i in range(7)),
                             tuple(0.9 - 0.1 * i for i in range(7)))
    record, state = cg.simulate_path(BA7, init, sched, 80, np.random.default_rng(5),
                                     memory=memory)
    batch = cg.UrnBatch(BA7, init, 1, memory=memory)
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
    net = graph.generate("ba", 40, m=2, seed=3)
    batch = cg.UrnBatch(net, cg.uniform_init(40, 1.0, 2.0), 3)
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
