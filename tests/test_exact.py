import io
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polya_net import approx, contagion as cg, exact, graph
from polya_net.errors import CapExceeded, DomainError, InvalidParameter, SupportMismatch

K2 = graph.generate_complete(2)
K3 = graph.generate_complete(3)
PATH3 = graph.build_network(3, [(0, 1), (1, 2)])
CYCLE4 = graph.generate_cycle(4)
SINGLE = graph.generate_complete(1)


def unit_init(n):
    return cg.UrnInit(red=(F(1),) * n, black=(F(1),) * n)


def test_joint_probability_single_step_symmetric():
    p = exact.joint_probability(K2, unit_init(2), cg.ConstantDelta(F(1)), ((1,), (1,)))
    assert p == F(1, 4)


def test_joint_probability_two_red_steps():
    p = exact.joint_probability(K2, unit_init(2), cg.ConstantDelta(F(1)),
                                ((1, 1), (1, 1)))
    assert p == F(1, 9)


@pytest.mark.parametrize("assignment", [
    [[1]], [], [[1], [1], [1]], [[1, 0], [1]], [[2], [1]], [[1], [-1]],
], ids=["one_row", "no_rows", "extra_row", "unequal_rows", "draw_2", "draw_-1"])
def test_joint_probability_rejects_a_malformed_assignment(assignment):
    # short or empty assignments raised IndexError; an extra row was ignored
    # and a draw of 2 or -1 counted as red
    with pytest.raises(SupportMismatch):
        exact.joint_probability(K2, unit_init(2), cg.ConstantDelta(F(1)), assignment)


@pytest.mark.parametrize("assignment", [[[2], [1]], [[1], [-1]]], ids=["draw_2", "draw_-1"])
def test_table_lookup_rejects_a_draw_outside_zero_one(assignment):
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 1)
    for lookup in (table.code_of, table.probability):
        with pytest.raises(SupportMismatch):
            lookup(assignment)


def test_joint_probability_zero_schedule_is_iid():
    init = cg.UrnInit(red=(F(1), F(2), F(1)), black=(F(2), F(1), F(1)))
    sched = cg.ConstantDelta(F(0))
    state = cg.initial_state(PATH3, init)
    s = cg.conditional_draw_probabilities(state, PATH3)
    a = ((1, 0), (0, 0), (1, 1))
    expected = s[0] * (1 - s[0]) * (1 - s[1]) ** 2 * s[2] ** 2
    assert exact.joint_probability(PATH3, init, sched, a) == expected


def test_chain_rule_consistency_against_step_probabilities():
    init = cg.UrnInit(red=(F(2), F(1)), black=(F(1), F(3)))
    sched = cg.ConstantDelta(F(2), F(1))
    a = ((1, 0, 1), (0, 0, 1))
    state = cg.initial_state(K2, init)
    prod = F(1)
    for t in range(3):
        probs = cg.conditional_draw_probabilities(state, K2)
        draws = (a[0][t], a[1][t])
        for i, d in enumerate(draws):
            prod *= probs[i] if d else 1 - probs[i]
        state = cg.apply_draws(state, K2, draws, sched)
    assert exact.joint_probability(K2, init, sched, a) == prod


@pytest.mark.parametrize("net,n", [(K2, 3), (K3, 2), (PATH3, 2), (CYCLE4, 2)])
def test_enumerate_joint_unit_mass(net, n):
    table = exact.enumerate_joint(net, unit_init(net.node_count), cg.ConstantDelta(F(1)), n)
    assert table.total() == 1
    assert all(p > 0 for p in table.probs)


@pytest.mark.parametrize("net, sched, horizon, memory", [
    (K2, cg.ConstantDelta(F(1), F(2)), 2, None),
    (K2, cg.ConstantDelta((F(1), F(1, 2)), (F(3), F(2))), 3, None),
    (PATH3, cg.ConstantDelta((F(1), F(2), F(1, 3)), (F(2), F(1), F(1))), 2, None),
    (CYCLE4, cg.ConstantDelta((F(1), F(2), F(1), F(1, 2)), (F(1), F(1), F(3), F(1))), 2, None),
    (K2, cg.TabulatedDelta([(F(1), F(2)), (F(1, 2), F(3)), (F(1), F(1))],
                           [(F(2), F(1)), (F(1), F(1, 3)), (F(1), F(1))]), 3, None),
    (PATH3, cg.TabulatedDelta([(F(1), F(2), F(1)), (F(1),) * 3],
                              [(F(2), F(1), F(1, 2)), (F(1),) * 3]), 2, None),
    (K2, cg.CuringDelta(F(1), F(3, 2)), 4, None),
    (PATH3, cg.CuringDelta(F(2), F(1, 2)), 3, None),
    (CYCLE4, cg.CuringDelta(F(1), F(2)), 2, None),
    (K2, cg.ConstantDelta(F(1), F(2)), 4, 1),
    (PATH3, cg.ConstantDelta((F(2), F(1), F(1)), F(1)), 3, 1),
    (CYCLE4, cg.ConstantDelta(F(1), F(2)), 3, 1),
], ids=["K2_constant", "K2_per_node", "PATH3_per_node", "CYCLE4_per_node", "K2_tabulated",
        "PATH3_tabulated", "K2_curing", "PATH3_curing", "CYCLE4_curing", "K2_memory",
        "PATH3_memory", "CYCLE4_memory"])
def test_enumerate_matches_chain_rule_everywhere(net, sched, horizon, memory):
    # the table's level-by-level expansion against the one-state chain rule
    n = net.node_count
    init = cg.UrnInit(red=tuple(F(1 + i % 2) for i in range(n)),
                      black=tuple(F(2 - i % 2) for i in range(n)))
    table = exact.enumerate_joint(net, init, sched, horizon, memory=memory)
    assert table.probs.shape == (1 << (n * horizon),)
    for code, p in enumerate(table.probs):
        a = tuple(tuple((code >> (t * n + i)) & 1 for t in range(horizon)) for i in range(n))
        assert type(p) is F
        assert p == exact.joint_probability(net, init, sched, a, memory=memory)


def test_enumerate_first_step_uniform():
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 1)
    assert all(p == F(1, 4) for p in table.probs)


def test_enumerate_single_node_is_classical():
    init = cg.UrnInit(red=(F(1),), black=(F(1),))
    table = exact.enumerate_joint(SINGLE, init, cg.ConstantDelta(F(1)), 2)
    params = exact.PolyaParams(F(1, 2), F(1, 2))
    for code in range(4):
        draws = tuple((code >> t) & 1 for t in range(2))
        assert table.probs[code] == exact.classical_polya_joint(params, draws)


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        exact.enumerate_joint(CYCLE4, unit_init(4), cg.ConstantDelta(F(1)), 7)
    with pytest.raises(InvalidParameter):
        exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 0)


def test_float_enumeration_matches_exact():
    init_e = cg.UrnInit(red=(F(1), F(3)), black=(F(2), F(1)))
    init_f = cg.UrnInit(red=(1.0, 3.0), black=(2.0, 1.0))
    te = exact.enumerate_joint(K2, init_e, cg.ConstantDelta(F(2)), 3)
    tf = exact.enumerate_joint(K2, init_f, cg.ConstantDelta(2.0), 3, exact=False)
    assert not tf.exact
    diffs = [abs(float(a) - b) for a, b in zip(te.probs, tf.probs)]
    assert max(diffs) < 1e-14
    assert tf.total() == pytest.approx(1.0, abs=1e-12)


def test_float_enumeration_finite_memory_matches_exact():
    init_e = cg.UrnInit(red=(F(1), F(2)), black=(F(2), F(1)))
    init_f = cg.UrnInit(red=(1.0, 2.0), black=(2.0, 1.0))
    te = exact.enumerate_joint(K2, init_e, cg.ConstantDelta(F(1)), 4, memory=2)
    tf = exact.enumerate_joint(K2, init_f, cg.ConstantDelta(1.0), 4, exact=False, memory=2)
    diffs = [abs(float(a) - b) for a, b in zip(te.probs, tf.probs)]
    assert max(diffs) < 1e-14


def test_float_enumeration_at_the_cap_has_unit_mass():
    star = graph.generate_star(exact.ENUMERATION_CAP)
    table = exact.enumerate_joint(star, cg.uniform_init(star.node_count, 1.0, 1.0),
                                  cg.ConstantDelta(1.0), 1, exact=False)
    assert table.probs.shape == (1 << exact.ENUMERATION_CAP,)
    assert table.total() == pytest.approx(1.0, abs=1e-9)


def test_node_marginal_sums_to_one_and_windows():
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(2)), 3)
    marg = table.node_marginal(0)
    assert sum(marg.values()) == 1
    assert set(len(k) for k in marg) == {3}
    last = table.node_marginal(0, window=(3, 3))
    assert last[(1,)] + last[(0,)] == 1
    with pytest.raises(InvalidParameter):
        table.node_marginal(0, window=(0, 2))


@pytest.mark.parametrize("exact_mode", [True, False])
def test_node_marginal_rejects_nodes_outside_the_table(exact_mode):
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 2, exact=exact_mode)
    for i in (5, -1, -3):
        with pytest.raises(InvalidParameter):
            table.node_marginal(i)


def test_float_marginals_of_a_16_bit_table_match_the_exact_ones():
    # summed over the strided 16-axis view in one np.sum, the marginals were
    # up to 6.4e-16 off; pairwise, one axis at a time, they are ~1.4e-17 off
    exact_t = exact.enumerate_joint(CYCLE4, unit_init(4), cg.ConstantDelta(F(1)), 4)
    float_t = exact.enumerate_joint(CYCLE4, cg.uniform_init(4, 1.0, 1.0), cg.ConstantDelta(1.0),
                                    4, exact=False)
    for i in range(4):
        want, got = exact_t.node_marginal(i), float_t.node_marginal(i)
        assert max(abs(float(want[k]) - got[k]) for k in want) <= 1e-16


STAR5 = graph.generate_star(5)
PATH5 = graph.build_network(5, [(i, i + 1) for i in range(4)])
BA10 = graph.generate_barabasi_albert(10, 2, seed=1)
UNEQUAL5 = cg.UrnInit(red=(F(1), F(3), F(1, 2), F(2), F(5)), black=(F(2), F(1), F(3), F(1), F(4)))
MERGE_CASES = {
    # name: (network, urns, reinforcement, horizon); N * horizon <= 24
    "cycle4_h1": (CYCLE4, cg.uniform_init(4, 1.0, 1.0), cg.ConstantDelta(1.0), 1),
    "cycle4_h3_fractions": (CYCLE4, unit_init(4), cg.ConstantDelta(F(1, 3)), 3),
    "cycle4_h6_cap": (CYCLE4, unit_init(4), cg.ConstantDelta(F(1)), 6),
    "star5_h4_unequal": (STAR5, UNEQUAL5, cg.ConstantDelta(0.37), 4),
    "star5_h3_per_node": (STAR5, UNEQUAL5, cg.ConstantDelta((0.5, 2.0, F(1, 7), 1.0, 3.25)), 3),
    "path5_h4_unequal": (PATH5, UNEQUAL5, cg.ConstantDelta(F(5, 2)), 4),
    "ba10_h2": (BA10, cg.uniform_init(10, F(1), F(1)), cg.ConstantDelta(F(1)), 2),
    "ba10_h2_unequal": (BA10, cg.UrnInit(red=tuple(F(k + 1) for k in range(10)),
                                         black=(F(3),) * 10), cg.ConstantDelta(0.75), 2),
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_merged_node_marginals_match_the_float_table(case):
    net, init, sched, horizon = MERGE_CASES[case]
    table = exact.enumerate_joint(net, init, sched, horizon, exact=False)
    for i in range(net.node_count):
        merged = exact.float_node_marginal_probs(net, init, sched, horizon, i)
        assert merged.shape == (1 << horizon,)
        np.testing.assert_allclose(merged, table.node_marginal_probs(i), rtol=1e-13, atol=0)


@pytest.mark.parametrize("case", ["star5_h4_unequal", "star5_h3_per_node", "path5_h4_unequal"])
def test_histories_with_equal_red_counts_hold_bit_identical_planes(case):
    # the merge keeps one row per key, so every row it drops must hold the
    # planes of the row it keeps; checked on the unmerged expansion, where
    # equal red counts alone (a coarser grouping than the keys) must do
    net, init, sched, horizon = MERGE_CASES[case]
    n = net.node_count
    batch = cg.UrnBatch(net, init, 1)
    probs, reds = np.ones(1), np.zeros((1, n), dtype=np.int64)
    merges = 0
    for t in range(1, horizon):
        probs = exact._expand(batch, probs, t, sched, np.arange(probs.size << n))
        reds = (exact._combo_bits(n)[:, None, :] + reds).reshape(-1, n)
        groups = {}
        for row, counts in enumerate(map(tuple, reds)):
            groups.setdefault(counts, []).append(row)
        merges += len(reds) - len(groups)
        for rows in groups.values():
            for plane in (batch.red, batch.total):
                assert (plane[rows] == plane[rows[0]]).all()
    assert merges > 0


def test_merged_marginal_at_the_cap_stays_small():
    import tracemalloc

    # the float table of this case held 2^24 doubles (128 MiB), 318 MB RSS
    tracemalloc.start()
    try:
        exact.float_node_marginal_probs(CYCLE4, unit_init(4), cg.ConstantDelta(F(1)), 6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_merged_marginal_refuses_what_it_cannot_merge():
    sched = cg.ConstantDelta(F(1))
    with pytest.raises(CapExceeded):
        exact.float_node_marginal_probs(CYCLE4, unit_init(4), sched, 7, 0)
    with pytest.raises(CapExceeded):
        exact.float_node_marginal_probs(STAR5, unit_init(5), sched, 5, 0)  # 25 bits
    for node in (4, -1, 1.0):
        with pytest.raises(InvalidParameter, match="node"):
            exact.float_node_marginal_probs(CYCLE4, unit_init(4), sched, 3, node)
    # unequal or state-dependent masses make the urns depend on more than counts
    for unequal in (cg.ConstantDelta(F(1), F(2)), cg.CuringDelta(F(1))):
        with pytest.raises(InvalidParameter, match="equal"):
            exact.float_node_marginal_probs(CYCLE4, unit_init(4), unequal, 3, 0)


def test_complete_network_one_dim_marginal_is_initial_fraction():
    init = cg.UrnInit(red=(F(3), F(1)), black=(F(1), F(2)))  # rho = 4/7
    table = exact.enumerate_joint(K2, init, cg.ConstantDelta(F(1)), 3)
    for t in range(1, 4):
        for i in range(2):
            assert table.event_probability({(i, t): 1}) == F(4, 7)
    assert exact.complete_marginal(F(4, 7)) == F(4, 7)


def test_path_network_marginal_drifts():
    # non-complete networks have no time-invariant one-dim marginal
    init = cg.UrnInit(red=(F(1), F(1), F(1)), black=(F(1), F(1), F(3)))
    table = exact.enumerate_joint(PATH3, init, cg.ConstantDelta(F(1)), 2)
    p1 = table.event_probability({(2, 1): 1})
    p2 = table.event_probability({(2, 2): 1})
    assert p1 == F(1, 3)
    assert p1 != p2


def test_two_step_window_pair_value():
    # rho = 1/2, delta = 1 on two nodes: P(Z_2=1, Z_1=1) = 5/16
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(2)), 2)
    marg = table.node_marginal(0, window=(1, 2))
    assert marg[(1, 1)] == F(5, 16)


@st.composite
def small_tables(draw):
    """A rational joint table and the float table of the same process, on a
    random connected network of <= 4 nodes with h <= 4."""
    n = draw(st.integers(1, 4))
    h = draw(st.integers(1, 4))
    edges = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]  # spanning tree
    edges += [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    net = graph.build_network(n, edges)
    positive = st.sampled_from([F(1), F(2), F(3), F(1, 2)])
    red, black = ([draw(positive) for _ in range(n)] for _ in "rb")
    masses = [draw(st.sampled_from([F(0), F(1, 2), F(1), F(2)])) for _ in range(n)]
    memory = draw(st.sampled_from([None, 1, 2]))
    tables = []
    for conv, is_exact in ((F, True), (float, False)):
        init = cg.UrnInit(red=tuple(map(conv, red)), black=tuple(map(conv, black)))
        sched = cg.ConstantDelta(tuple(map(conv, masses)))
        tables.append(exact.enumerate_joint(net, init, sched, h, exact=is_exact,
                                            memory=memory))
    return tables


def code_bit(table, i, t):
    """Node i's draw at time t in every code of the table, by code."""
    return (np.arange(len(table.probs)) >> ((t - 1) * table.node_count + i)) & 1


def sum_cells(table, selected):
    """The cells where ``selected`` holds, added in code order: as
    ``Fraction``s in an exact table, left to right as floats otherwise."""
    return sum(table.probs[selected].tolist())


def reference_marginal(table, i, lo, hi):
    # key value v holds node i's draw at time lo + k in its bit k
    keys = sum(code_bit(table, i, t) << (t - lo) for t in range(lo, hi + 1))
    return {tuple((v >> k) & 1 for k in range(hi - lo + 1)): sum_cells(table, keys == v)
            for v in range(1 << (hi - lo + 1))}


def reference_event(table, fixed):
    selected = np.ones(len(table.probs), dtype=bool)
    for (i, t), bit in fixed.items():
        selected &= code_bit(table, i, t) == bit
    return sum_cells(table, selected)


@settings(max_examples=20, deadline=None)
@given(small_tables(), st.data())
def test_marginals_and_events_match_a_per_code_sum(tables, data):
    n, h = tables[0].node_count, tables[0].horizon
    i = data.draw(st.integers(0, n - 1))
    lo = data.draw(st.integers(1, h))
    hi = data.draw(st.integers(lo, h))
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, h)),
                               unique=True, max_size=n * h))
    fixed = {cell: data.draw(st.integers(0, 1)) for cell in cells}
    width = hi - lo + 1
    code_order = [tuple((v >> k) & 1 for k in range(width)) for v in range(1 << width)]
    for table in tables:
        marg = table.node_marginal(i, window=(lo, hi))
        ref = reference_marginal(table, i, lo, hi)
        assert list(marg) == code_order
        event = table.event_probability(fixed)
        if table.exact:
            assert marg == ref
            assert event == reference_event(table, fixed)
        else:
            assert all(abs(marg[k] - ref[k]) <= 1e-12 for k in ref)
            assert abs(event - reference_event(table, fixed)) <= 1e-12


def test_rational_curing_table_reductions_are_exact():
    # 65,536 leaves whose denominators run to ~80 digits; added in code order
    # the total took minutes
    init = cg.UrnInit(red=(F(1), F(2), F(1, 2), F(3)), black=(F(2), F(1), F(3), F(1, 2)))
    table = exact.enumerate_joint(graph.generate_complete(4), init,
                                  cg.CuringDelta(F(2), F(3, 2)), 4)
    assert table.total() == 1
    marg = table.node_marginal(3, window=(3, 4))
    assert sum(marg.values()) == 1
    assert table.event_probability({(3, 3): 1}) == marg[(1, 0)] + marg[(1, 1)]


def test_curing_enumeration_equals_masses_asked_per_child():
    # enumeration computes each history state's masses once for its 2^N
    # children; here the schedule is asked again for every drawn node
    init = cg.UrnInit(red=(F(1), F(2), F(1, 2)), black=(F(2), F(1), F(3)))
    sched, h, n = cg.CuringDelta(F(2), F(3, 2)), 3, 3
    table = exact.enumerate_joint(PATH3, init, sched, h)
    for code in range(1 << (n * h)):
        state, p = cg.initial_state(PATH3, init), F(1)
        for t in range(1, h + 1):
            s = cg.conditional_draw_probabilities(state, PATH3)
            red, total = list(state.red_mass), list(state.total_mass)
            for i in range(n):
                u_i, s_i = np.array([state.urn_proportion(i)]), np.array([s[i]])
                dr, db = sched.masses(t, u_i, s_i)
                if (code >> ((t - 1) * n + i)) & 1:
                    p *= s[i]
                    red[i] += dr
                    total[i] += dr
                else:
                    p *= 1 - s[i]
                    total[i] += db[0]
            state = cg.NetworkState(time=t, red_mass=red, total_mass=total,
                                    base_red=state.base_red, base_total=state.base_total)
        assert table.probs[code] == p


def test_event_probability_rejects_a_bit_outside_zero_one():
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 2)
    for bit in (2, -1):
        with pytest.raises(InvalidParameter):
            table.event_probability({(0, 1): bit})


def test_average_infection_rate_complete_is_constant():
    init = cg.UrnInit(red=(F(3), F(1)), black=(F(1), F(2)))
    for n in (1, 2, 3):
        rate = exact.average_infection_rate(K2, init, cg.ConstantDelta(F(1)), n)
        assert rate.exact and rate.value == F(4, 7)


def test_average_infection_rate_zero_schedule():
    init = cg.UrnInit(red=(F(1), F(1), F(1)), black=(F(1), F(1), F(3)))
    state = cg.initial_state(PATH3, init)
    s0 = cg.conditional_draw_probabilities(state, PATH3)
    for n in (1, 3):
        rate = exact.average_infection_rate(PATH3, init, cg.ConstantDelta(F(0)), n)
        assert rate.value == sum(s0) / 3


def test_average_infection_rate_path_first_step():
    init = cg.UrnInit(red=(F(1), F(1), F(1)), black=(F(1), F(1), F(3)))
    rate = exact.average_infection_rate(PATH3, init, cg.ConstantDelta(F(1)), 1)
    assert rate.value == (F(1, 2) + F(3, 8) + F(1, 3)) / 3


def test_average_infection_rate_cap_and_fallback():
    init = cg.UrnInit(red=(1.0,) * 4, black=(1.0,) * 4)
    with pytest.raises(CapExceeded):
        exact.average_infection_rate(CYCLE4, init, cg.ConstantDelta(1.0), 9)
    est = exact.average_infection_rate(CYCLE4, init, cg.ConstantDelta(1.0), 9,
                                       mode="auto", trials=4000, seed=1)
    assert not est.exact
    assert est.trials == 4000
    assert 0.3 < est.value < 0.7



def test_average_infection_rate_rejects_an_unknown_mode():
    # past the cap a misspelt mode fell back to a Monte Carlo estimate
    init = cg.UrnInit(red=(1.0,) * 4, black=(1.0,) * 4)
    for n in (2, 9):
        with pytest.raises(InvalidParameter, match="mode"):
            exact.average_infection_rate(CYCLE4, init, cg.ConstantDelta(1.0), n,
                                         mode="exakt")


@pytest.mark.parametrize("call", [
    lambda sched: exact.iter_histories(K2, unit_init(2), sched, -1),
    lambda sched: exact.average_infection_rate(K2, unit_init(2), sched, 0),
    lambda sched: exact.average_infection_rate(K2, unit_init(2), sched, -1, mode="auto"),
], ids=["iter_histories_steps_-1", "average_infection_rate_n_0", "average_infection_rate_n_-1"])
def test_negative_step_counts_are_rejected_at_entry(call):
    # these recursed until RecursionError, never reaching the zero-steps base case
    with pytest.raises(InvalidParameter):
        call(cg.ConstantDelta(F(1)))

def test_complete_n1_joint_values():
    assert exact.complete_n1_joint(F(1, 2), F(1), 2) == F(5, 16)
    assert exact.complete_n1_joint(F(2, 5), F(0), 3) == F(4, 25)  # rho^2 at delta=0


def test_complete_n1_joint_matches_enumeration_own_and_cross():
    # K2 with rho=1/2, delta=1: both (n,1) pairs equal 5/16 for n in 2..4
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(2)), 3)
    expected = exact.complete_n1_joint(F(1, 2), F(1), 2)
    for n in (2, 3):
        assert table.event_probability({(0, n): 1, (0, 1): 1}) == expected
        assert table.event_probability({(1, n): 1, (0, 1): 1}) == expected


def test_complete_n1_joint_three_nodes_asymmetric():
    init = cg.UrnInit(red=(F(2), F(1), F(1)), black=(F(1), F(2), F(2)))
    rho, delta = F(4, 9), F(3 * 2, 9)
    table = exact.enumerate_joint(K3, init, cg.ConstantDelta(F(2)), 3)
    expected = exact.complete_n1_joint(rho, delta, 3)
    for n in (2, 3):
        assert table.event_probability({(0, n): 1, (0, 1): 1}) == expected
        assert table.event_probability({(2, n): 1, (0, 1): 1}) == expected


def test_nonstationarity_witness_values_and_oracle():
    p21, p32 = exact.nonstationarity_witness(F(1, 2), F(1))
    assert (p21, p32) == (F(5, 16), F(61, 192))
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(2)), 3)
    assert table.event_probability({(0, 2): 1, (0, 1): 1}) == p21
    assert table.event_probability({(0, 3): 1, (0, 2): 1}) == p32
    assert p21 != p32


def test_nonstationarity_vanishes_without_reinforcement():
    p21, p32 = exact.nonstationarity_witness(F(2, 5), F(0))
    assert p21 == p32 == F(4, 25)


def test_nonstationarity_strict_over_delta_grid():
    for k in range(1, 21):
        delta = F(k, 10)
        p21, p32 = exact.nonstationarity_witness(F(1, 2), delta)
        assert p32 > p21


def test_classical_polya_joint_basics():
    params = exact.PolyaParams(F(1, 2), F(1, 2))
    assert exact.classical_polya_joint(params, (1,)) == F(1, 2)
    assert exact.classical_polya_joint(params, (1, 1)) == F(1, 3)
    # exchangeability: depends on the count only
    assert exact.classical_polya_joint(params, (1, 0, 1)) == \
        exact.classical_polya_joint(params, (1, 1, 0))


def test_classical_polya_one_dim():
    params = exact.PolyaParams(F(3, 10), F(2))
    assert exact.classical_polya_joint(params, (1,)) == F(3, 10)
    assert exact.classical_polya_joint(params, (0,)) == F(7, 10)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 5), st.integers(1, 8))
def test_classical_polya_table_unit_mass(r, b, d, n):
    params = exact.PolyaParams(F(r, r + b), F(d, r + b))
    table = exact.classical_polya_table(params, n)
    assert sum(table.values()) == 1


def test_gamma_form_agrees_with_sequential_product():
    params = exact.PolyaParams(0.37, 0.85)
    for n in (1, 4, 9):
        for k in range(n + 1):
            draws = tuple(1 if t < k else 0 for t in range(n))
            seq = exact.classical_polya_joint(params, draws)
            gam = exact.classical_polya_joint_gamma(params, draws)
            assert gam == pytest.approx(seq, rel=1e-9)
    with pytest.raises(DomainError):
        exact.classical_polya_joint_gamma(exact.PolyaParams(0.5, 0.0), (1,))


def test_count_log_probs_match_joint():
    params = exact.PolyaParams(0.25, 0.4)
    logq = exact.classical_count_log_probs(params, 5)
    for k in range(6):
        draws = tuple(1 if t < k else 0 for t in range(5))
        assert math.exp(logq[k]) == pytest.approx(
            float(exact.classical_polya_joint(params, draws)), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_count_log_probs_are_the_per_count_loop(n):
    # the vectorised form adds the same two cumsum entries in the same order
    rho, delta = 0.3, 0.45
    reds = np.cumsum(np.log(rho + delta * np.arange(n)))
    blacks = np.cumsum(np.log(1 - rho + delta * np.arange(n)))
    denom = np.sum(np.log(1 + delta * np.arange(n)))
    loop = []
    for k in range(n + 1):
        r = reds[k - 1] if k else 0.0
        b = blacks[n - k - 1] if n - k else 0.0
        loop.append(r + b - denom)
    logq = exact.classical_count_log_probs(exact.PolyaParams(rho, delta), n)
    assert logq.tolist() == loop


def test_kl_rate_zero_for_identical():
    params = exact.PolyaParams(F(1, 3), F(1, 3))
    q = exact.classical_polya_table(params, 3)
    assert exact.kl_rate(q, q, 3) == pytest.approx(0.0, abs=1e-14)


def test_kl_rate_nonnegative():
    p = exact.classical_polya_table(exact.PolyaParams(F(1, 3), F(1, 2)), 3)
    q = exact.classical_polya_table(exact.PolyaParams(F(1, 2), F(1, 5)), 3)
    assert exact.kl_rate(p, q, 3) > 0


def test_kl_rate_single_node_matches_classical_family():
    init = cg.UrnInit(red=(F(2),), black=(F(3),))
    table = exact.enumerate_joint(SINGLE, init, cg.ConstantDelta(F(1)), 4)
    marg = table.node_marginal(0)
    q = exact.classical_polya_table(exact.PolyaParams(F(2, 5), F(1, 5)), 4)
    assert exact.kl_rate(marg, q, 4) == pytest.approx(0.0, abs=1e-14)


def test_kl_rate_support_mismatch():
    p = {(0,): F(1, 2), (1,): F(1, 2)}
    q = {(0,): F(1)}
    with pytest.raises(SupportMismatch):
        exact.kl_rate(p, q, 1)


def test_beta_uniform_case():
    b = exact.BetaParams(1.0, 1.0)
    assert exact.beta_pdf(b, 0.3) == pytest.approx(1.0)
    assert exact.beta_cdf(b, 0.3) == pytest.approx(0.3)
    assert exact.beta_cdf(b, 0.0) == 0.0
    assert exact.beta_cdf(b, 1.0) == 1.0


def test_beta_params_from_polya():
    b = exact.BetaParams.from_polya(exact.PolyaParams(F(1, 2), F(1, 2)))
    assert (b.alpha, b.beta) == (1.0, 1.0)
    with pytest.raises(InvalidParameter):
        exact.BetaParams.from_polya(exact.PolyaParams(F(1, 2), F(0)))


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.5, 0.7), (0.5, 0.5)])
def test_beta_pdf_integrates_to_one(alpha, beta):
    from scipy.integrate import quad

    b = exact.BetaParams(alpha, beta)
    integral, _ = quad(lambda x: exact.beta_pdf(b, x), 0.0, 1.0)
    assert integral == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.5, 0.7), (3.0, 4.5)])
def test_beta_cdf_is_antiderivative_of_pdf(alpha, beta):
    from scipy.integrate import quad

    b = exact.BetaParams(alpha, beta)
    for lo, hi in [(0.1, 0.4), (0.25, 0.9)]:
        mass, _ = quad(lambda x: exact.beta_pdf(b, x), lo, hi)
        assert mass == pytest.approx(exact.beta_cdf(b, hi) - exact.beta_cdf(b, lo),
                                     abs=1e-10)


def test_beta_domain_errors():
    b = exact.BetaParams(2.0, 3.0)
    with pytest.raises(DomainError):
        exact.beta_pdf(b, 0.0)
    with pytest.raises(DomainError):
        exact.beta_cdf(b, 1.5)


# fig4's three limit laws, then lopsided and tiny or large parameters
BETA_GRID = [(1.0, 1.0), (2.25, 2.25), (56.5, 56.5), (0.01, 1000.0), (1000.0, 0.01),
             (0.1, 50.0), (7.3, 0.2), (2.0, 1e4), (12.0, 500.0), (9.99, 12.0), (1e5, 1e5)]
BETA_EDGES = [0.0, 1.0, 2.0 ** -1074, 1 - 2.0 ** -53]


@pytest.mark.parametrize("alpha, beta", BETA_GRID)
def test_beta_cdf_matches_scipy(alpha, beta):
    from scipy.special import betainc

    xs = np.concatenate([np.linspace(0, 1, 1001), BETA_EDGES])
    params = exact.BetaParams(alpha, beta)
    ours, theirs = exact.beta_cdf(params, xs), betainc(alpha, beta, xs)
    # scipy is itself off by up to 1.1e-8 at these lopsided edges, where
    # the closed forms below hold the values
    tol = 1e-12 if min(alpha, beta) >= 0.1 else 2e-8
    assert np.abs(ours - theirs).max() <= tol
    if (alpha, beta) in BETA_GRID[:3]:  # fig4's KS distances
        assert np.abs(ours - theirs).max() <= 1.1e-14
    assert ours[-4:-2].tolist() == [0.0, 1.0]
    assert [exact.beta_cdf(params, x) for x in xs[::100]] == ours[::100].tolist()


@pytest.mark.parametrize("alpha, beta, closed_form", [
    (1.0, 1.0, lambda x: x),
    (0.5, 0.5, lambda x: 2 / np.pi * np.arctan2(np.sqrt(x), np.sqrt(1 - x))),
    (0.01, 1.0, lambda x: x ** 0.01),
    (1.0, 1000.0, lambda x: -np.expm1(1000 * np.log1p(-x))),
    # one parameter below 10 and one far above: lgamma(1e9) alone has an ulp
    # of 4e-6, so the prefactor takes the large one from Stirling's series
    (1.0, 1e9, lambda x: -np.expm1(1e9 * np.log1p(-x))),
    (1e9, 1.0, lambda x: np.exp(1e9 * np.log(x))),
    # almost all mass at 0: 1 - I_x is below 1e-295, and values that round
    # up to 2.4e-14 past 1 are clipped
    (1e-300, 5.0, lambda x: np.ones_like(x)),
    (1e-300, 1e300, lambda x: np.ones_like(x)),
])
def test_beta_cdf_matches_closed_forms_at_the_edges(alpha, beta, closed_form):
    # scipy's betainc(0.5, 0.5, 1 - 2^-53) is 2.8e-9 off; the prefactor's
    # exp of a log near -700 costs a few hundred ulps
    xs = np.array([2.0 ** -1074, 1e-300, 1e-10, 0.3, 1 - 1e-10, 1 - 2.0 ** -53])
    ours = exact.beta_cdf(exact.BetaParams(alpha, beta), xs)
    assert np.allclose(ours, closed_form(xs), rtol=2e-13, atol=0)


@pytest.mark.parametrize("beta, xs", [
    (1e9, np.linspace(1e-9, 2e-8, 401)),
    (1e5, np.linspace(1.8e-5, 2.2e-5, 401)),
], ids=["1e9", "1e5"])
def test_beta_cdf_keeps_its_precision_past_the_mean_of_a_lopsided_law(beta, xs):
    # past (a + 1) / (a + b + 2) and below 1/2 the CDF is taken from the
    # mirrored side, where a fraction in 1 - x, rounded, lost up to 4.4e-9
    ours = exact.beta_cdf(exact.BetaParams(1.0, beta), xs)
    closed = -np.expm1(beta * np.log1p(-xs))
    assert np.max(np.abs(ours - closed) / closed) <= 1e-14


def test_beta_cdf_that_does_not_converge_raises():
    # the mode of Beta(1e9, 1e9) takes 4889 steps; this one more than the cap
    with pytest.raises(DomainError, match=f"within {exact.BETA_CF_MAX_STEPS} steps"):
        exact.beta_cdf(exact.BetaParams(1e12, 1e12), 0.5)
    # far from the mode the term underflows to 0 and needs no step
    assert exact.beta_cdf(exact.BetaParams(1e12, 1e12), np.array([0.4, 0.6])).tolist() == [0, 1]
    with pytest.raises(DomainError):
        exact.beta_cdf(exact.BetaParams(1e308, 1e308), 0.5)


@pytest.mark.parametrize("net,delta,n", [(K2, F(1), 3), (K3, F(2), 3)])
def test_complete_node_marginal_matches_enumeration(net, delta, n):
    nn = net.node_count
    init = unit_init(nn)
    table = exact.enumerate_joint(net, init, cg.ConstantDelta(delta), n)
    marg = table.node_marginal(0)
    rho = F(nn, 2 * nn)
    d = F(nn * delta, 2 * nn)
    dp = exact.complete_node_marginal(float(rho), float(d), nn, n)
    for key, value in marg.items():
        assert dp[key] == pytest.approx(float(value), abs=1e-14)


def test_complete_node_marginal_rejects_empty_sizes():
    for nodes, horizon in ((0, 2), (2, 0)):
        with pytest.raises(InvalidParameter):
            exact.complete_node_marginal(0.5, 1.0, nodes, horizon)


def _dense_count_dp(rho, delta, n_nodes, horizon):
    """The count DP with full (N(t-1)+1) x (Nt+1) kernels, as it was written
    before the banded product; returns the final level's row sums.  It takes
    its pmf rows from the same function as the banded DP, so the comparison
    checks the band layout; the pmf itself is pinned by the binomial_pmf
    tests."""
    level = np.ones((1, 1))
    for t in range(1, horizon + 1):
        c_max = n_nodes * (t - 1)
        c = np.arange(c_max + 1, dtype=np.float64)
        s = (rho + (delta / n_nodes) * c) / (1 + (t - 1) * delta)
        pmf = exact.binomial_pmf(n_nodes - 1, s)
        width = n_nodes * t + 1
        k0 = np.zeros((c_max + 1, width))
        k1 = np.zeros((c_max + 1, width))
        rows = np.arange(c_max + 1)[:, None]
        cols = rows + np.arange(n_nodes)[None, :]
        k0[rows, cols] = (1 - s)[:, None] * pmf
        k1[rows, cols + 1] = s[:, None] * pmf
        level = np.concatenate([level @ k0, level @ k1], axis=0)
    return level.sum(axis=1)


@pytest.mark.parametrize("nodes,horizon", [(70, 5), (130, 4), (1, 1), (1, 2), (1, 7), (3, 1),
                                           (3, 2), (4, 5), (6, 8), (70, 3), (65, 6)])
def test_banded_count_dp_matches_dense_kernels(nodes, horizon):
    # widths 351 and 521 cut into blocks of 70 and 130 columns: several
    # blocks per step and a one-column last block.  The DP meets at
    # m = horizon // 2: odd and even horizons, and h = 1 (m = 0) has an
    # empty forward pass
    banded = exact.complete_node_marginal(0.3, 0.02, nodes, horizon)
    dense = _dense_count_dp(0.3, 0.02, nodes, horizon)
    assert list(banded) == [tuple((code >> t) & 1 for t in range(horizon))
                            for code in range(1 << horizon)]
    np.testing.assert_allclose(list(banded.values()), dense, rtol=1e-14, atol=0)


@pytest.mark.parametrize("nodes", [4, 5])
def test_banded_count_dp_matches_float_enumeration(nodes):
    net = graph.generate_complete(nodes)
    init = cg.uniform_init(nodes, 1.0, 1.0)
    probs = exact.enumerate_joint(net, init, cg.ConstantDelta(1.0), 4, exact=False).probs
    # node 0's draws, packed as in a one-node table; fsum keeps the reference
    # exact-in-float (node_marginal's sums over 2^16 cells are off by ~1e-14 on K5)
    codes = np.arange(probs.size)
    own = sum(((codes >> (t * nodes)) & 1) << t for t in range(4))
    dp = exact.complete_node_marginal(0.5, 0.5, nodes, 4)
    for code, key in enumerate(dp):
        assert dp[key] == pytest.approx(math.fsum(probs[own == code]), abs=1e-14)


def test_banded_count_dp_single_node_is_classical():
    dp = exact.complete_node_marginal(0.25, 0.75, 1, 6)
    for key, value in exact.classical_polya_table(exact.PolyaParams(0.25, 0.75), 6).items():
        assert dp[key] == pytest.approx(value, abs=1e-15)


# a few roundings of products and of np.power pieces; the measured worst is
# about 2 eps
PMF_ULPS = 4
PMF_S = (1e-3, 0.013, 0.3, 1 / 3, 0.49999, 0.5, 0.7, 0.999)


# N = 1025 is the largest network whose powers fit in one np.power piece
PMF_NODES = [2, 100, 1024, 1025, 1026, 1030, 1448]


@pytest.mark.parametrize("nodes", PMF_NODES)
def test_binomial_pmf_matches_exact_rationals(nodes):
    # every value >= 1e-300 against C(n, j) * s^j * (1 - s)^(n - j) for the
    # float s, in integers: s = a / d with d a power of two, so the value is
    # C(n, j) a^j b^(n-j) / d^n with b = d - a
    n = nodes - 1
    pmf = exact.binomial_pmf(n, PMF_S)
    tiny_num, tiny_den = (1e-300).as_integer_ratio()
    checked = 0
    for row, s in zip(pmf, PMF_S):
        a, d = s.as_integer_ratio()
        b, scale = d - a, d ** n
        num = b ** n  # j = 0
        for j in range(n + 1):
            if num * tiny_den >= tiny_num * scale:
                p, q = float(row[j]).as_integer_ratio()
                assert abs(p * scale - q * num) << 52 <= PMF_ULPS * q * num, (s, j)
                checked += 1
            if j < n:
                num = num * (n - j) * a // ((j + 1) * b)
    assert checked >= len(PMF_S) * min(nodes, 40)


@pytest.mark.parametrize("nodes", PMF_NODES)
def test_binomial_pmf_matches_scipy(nodes):
    from scipy.stats import binom

    n = nodes - 1
    pmf = exact.binomial_pmf(n, PMF_S)
    ref = binom.pmf(np.arange(n + 1)[None, :], n, np.array(PMF_S)[:, None])
    # scipy's far tails are off by up to 3.7e-13 at n = 1447 (against exact
    # rationals); the rational test above pins those
    bulk = ref >= 1e-10
    np.testing.assert_allclose(pmf[bulk], ref[bulk], rtol=1e-13, atol=0)
    np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def _renormalised_power(x, k):
    """``exact._power`` renormalising after every piece, also for one piece."""
    m, e = np.frexp(x)
    low = m < math.sqrt(0.5)
    m, e = np.where(low, 2 * m, m), (e - low).astype(k.dtype)
    mant, shift = np.ones(np.broadcast_shapes(m.shape, k.shape)), 0
    for piece in range(0, int(k.max()), exact._POW_PIECE):
        mant, step = np.frexp(mant * np.power(m, np.clip(k - piece, 0, exact._POW_PIECE)))
        shift = shift + step
    return mant, e, shift


@pytest.mark.parametrize("nodes", [2, 100, 1024, 1025])
def test_single_piece_power_keeps_the_pmf_bits(nodes, monkeypatch):
    s = (*PMF_S, 0.0, 1.0, 1e-300)
    single = exact.binomial_pmf(nodes - 1, s)
    monkeypatch.setattr(exact, "_power", _renormalised_power)
    assert np.array_equal(exact.binomial_pmf(nodes - 1, s), single)


def test_binomial_pmf_at_certain_outcomes():
    assert exact.binomial_pmf(3, [0.0, 1.0]).tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert exact.binomial_pmf(0, [0.25]).tolist() == [[1.0]]


def _int64_power(x, k):
    """``exact._power``'s mantissa and its whole exponent, e * k + shift,
    as one int64 array: one piece as it is, more renormalised after each."""
    k = k.astype(np.int64)
    if k.max() > exact._POW_PIECE:
        mant, e, shift = _renormalised_power(x, k)
        return mant, e * k + shift
    m, e = np.frexp(x)
    low = m < math.sqrt(0.5)
    m, e = np.where(low, 2 * m, m), e - low
    return np.power(m, k), e * k


def _reference_pmf(n, s):
    """``exact.binomial_pmf`` with int64 exponent arrays, one per factor,
    and the first-order correction broadcast to every cell."""
    s = np.asarray(s, dtype=np.float64)[:, None]
    j = np.arange(n + 1)[None, :]
    combs = [math.comb(n, i) for i in range(n + 1)]
    bits = [c.bit_length() for c in combs]
    comb_mant = np.array([c / (1 << b) for c, b in zip(combs, bits)])
    one_minus = 1 - s
    error = (1 - one_minus) - s
    correction = 1 + (n - j) * np.divide(error, one_minus, out=np.zeros_like(s),
                                         where=error != 0)
    s_mant, s_exp = _int64_power(s, j)
    r_mant, r_exp = _int64_power(one_minus, n - j)
    return np.ldexp(comb_mant * s_mant * r_mant * correction,
                    np.array(bits) + s_exp + r_exp)


PMF_EDGE_S = (*PMF_S, 0.0, 1.0, 1e-300, 5e-324)


@pytest.mark.parametrize("nodes", PMF_NODES)
def test_binomial_pmf_keeps_the_int64_all_cells_bits(nodes):
    # int32 exponents, and the correction only on rows where it is not 1
    assert np.array_equal(exact.binomial_pmf(nodes - 1, PMF_EDGE_S),
                          _reference_pmf(nodes - 1, PMF_EDGE_S))


@pytest.mark.parametrize("nodes", [100, 1448])
def test_binomial_pmf_int64_exponents_keep_the_bits(nodes, monkeypatch):
    # from n = 2^20 on the exponents are int64; C(n, j) for every j of such
    # an n is hours of integer arithmetic, so the int64 path runs at small n
    monkeypatch.setattr(exact, "_INT32_EXPONENTS_BELOW", 50)
    assert np.array_equal(exact.binomial_pmf(nodes - 1, PMF_EDGE_S),
                          _reference_pmf(nodes - 1, PMF_EDGE_S))


def test_int32_exponents_hold_the_largest_sums_below_the_bound():
    # the extremes of the last int32 n: s^j and (1 - s)^(n - j) at the
    # smallest subnormal, summed as binomial_pmf sums them, in int32
    # against Python integers
    n = exact._INT32_EXPONENTS_BELOW - 1
    x = np.array([[5e-324], [1e-300], [0.5], [1.0]])
    j = np.array([[0, 1, n - 1, n]], dtype=np.int32)
    mant, s_exp, s_shift = exact._power(x, j)
    r_mant, r_exp, r_shift = exact._power(x[::-1], n - j)
    assert s_exp.dtype == r_exp.dtype == np.int32
    exp = np.multiply(s_exp - r_exp, j)
    exp += r_exp * n
    exp += s_shift
    exp += r_shift
    whole = [[int(a) * int(b) + int(c) * (n - int(b)) + int(d) + int(f)
              for b, d, f in zip(j[0], s_shift[r], r_shift[r])]
             for r, (a, c) in enumerate(zip(s_exp[:, 0], r_exp[:, 0]))]
    assert exp.tolist() == whole
    assert min(min(row) for row in whole) < -1073 * n  # the int32 bound is reached


@pytest.mark.parametrize("args", [(0.3, 0.7, 40, 9), (0.01, 3.0, 200, 6),
                                  (0.99, 0.05, 7, 12)])
def test_count_dp_keeps_the_reference_kernel_bits(args, monkeypatch):
    marginal = exact.complete_node_marginal_probs(*args)
    monkeypatch.setattr(exact, "binomial_pmf", _reference_pmf)
    assert np.array_equal(marginal, exact.complete_node_marginal_probs(*args))


@pytest.mark.parametrize("n, s", [(3, [1.5]), (3, [0.5, math.nan]), (3, [-1e-300]),
                                  (2, [math.inf])])
def test_binomial_pmf_refuses_probabilities_outside_the_unit_interval(n, s):
    # 1.5 gave negative "probabilities" and NaN passed through
    with pytest.raises(DomainError, match="must lie in"):
        exact.binomial_pmf(n, s)


@pytest.mark.parametrize("n", [-1, 2.5, 3.0, True, "3"])
def test_binomial_pmf_refuses_a_count_that_is_not_a_natural_number(n):
    # -1 raised numpy's ValueError and 2.5 a TypeError
    with pytest.raises(InvalidParameter, match="must be an integer >= 0"):
        exact.binomial_pmf(n, [0.5])


def test_integer_arguments_are_checked_with_a_typed_error():
    # each of these raised a raw TypeError
    with pytest.raises(InvalidParameter, match="horizon must be an integer"):
        exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 2.0)
    with pytest.raises(InvalidParameter, match="horizon must be an integer"):
        exact.check_count_dp_cap(3, 2.5)
    with pytest.raises(InvalidParameter, match="node_count must be an integer"):
        exact.complete_node_marginal_probs(0.5, 1.0, 2.5, 3)
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 3)
    with pytest.raises(InvalidParameter, match="window start must be an integer"):
        table.node_marginal_probs(0, (2.5, 3))
    with pytest.raises(InvalidParameter, match="node must be an integer"):
        table.node_marginal_probs(0.0)
    assert table.node_marginal_probs(np.int64(1), (np.int32(2), 3)).sum() == 1


# exact urns whose float masses are past the float range
HUGE_URNS = cg.UrnInit((F(10) ** 400,) * 3, (1,) * 3)


@pytest.mark.parametrize("call, error", [
    (lambda: exact.classical_polya_table(exact.PolyaParams(0.5, 1.0), 2.5), InvalidParameter),
    (lambda: exact.classical_polya_table(exact.PolyaParams(0.5, 1.0), -1), InvalidParameter),
    (lambda: exact.classical_polya_table(exact.PolyaParams(0.5, 1.0), 10 ** 30), CapExceeded),
    (lambda: exact.binomial_pmf(10 ** 30, [0.5]), CapExceeded),
    (lambda: exact.binomial_pmf(3, 0.5), InvalidParameter),
    (lambda: exact.classical_count_log_probs(exact.PolyaParams(0.5, 1.0), 10 ** 30),
     CapExceeded),
    (lambda: exact.nonstationarity_witness(0.5, 1e308), DomainError),
    (lambda: exact.nonstationarity_witness(0.5, 3e102), DomainError),
    (lambda: exact.complete_node_marginal_probs(0.5, F(10) ** 400, 3, 3), DomainError),
    (lambda: exact.complete_node_marginal_probs(F(1, 10 ** 400), 1.0, 3, 3), DomainError),
    (lambda: exact.classical_polya_table(exact.PolyaParams(0.5, 1e308), 3), DomainError),
    (lambda: exact.classical_count_log_probs(exact.PolyaParams(F(1, 2), F(10 ** 400)), 5),
     DomainError),
    (lambda: approx.fit_node(K3, HUGE_URNS, 1.0, 0, 3), DomainError),
    (lambda: exact.enumerate_joint(K3, HUGE_URNS, cg.ConstantDelta(1.0), 3, exact=False),
     DomainError),
], ids=["table_2.5", "table_-1", "table_10^30", "pmf_10^30", "pmf_scalar", "counts_10^30",
        "witness_1e308", "witness_3e102", "count_dp_10^400", "count_dp_rho_10^-400",
        "table_1e308", "counts_delta_10^400", "fit_urns_10^400", "float_table_urns_10^400"])
def test_sizes_and_float_ranges_are_checked_with_typed_errors(call, error):
    # each raised a raw TypeError, ValueError, IndexError or OverflowError,
    # except the witness at 3e102, whose denominator overflowed to inf
    # without a raise and gave a pair probability of 0, and the table at
    # delta 1e308, whose urn totals overflowed into NaN cells
    with pytest.raises(error):
        call()


def test_count_dp_takes_exact_rho_and_delta():
    # a Fraction rho or delta raised a raw TypeError from np.isfinite
    expected = exact.complete_node_marginal_probs(0.5, 1 / 3, 3, 3)
    for rho, delta in ((0.5, F(1, 3)), (F(1, 2), 1 / 3), (F(1, 2), F(1, 3))):
        got = exact.complete_node_marginal_probs(rho, delta, 3, 3)
        assert got.dtype == np.float64 and np.array_equal(got, expected)


@pytest.mark.parametrize("call", [
    lambda m: exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 3, memory=m),
    lambda m: exact.enumerate_joint(K2, cg.uniform_init(2, 1.0, 1.0), cg.ConstantDelta(1.0), 3,
                                    exact=False, memory=m),
    lambda m: exact.joint_probability(K2, unit_init(2), cg.ConstantDelta(F(1)),
                                      ((1, 0), (0, 1)), memory=m),
    lambda m: exact.iter_histories(K2, unit_init(2), cg.ConstantDelta(F(1)), 2, memory=m),
    lambda m: exact.average_infection_rate(K2, unit_init(2), cg.ConstantDelta(F(1)), 3,
                                           memory=m),
], ids=["exact_table", "float_table", "joint_probability", "iter_histories", "infection_rate"])
@pytest.mark.parametrize("memory", [2.5, True, 0, "2"])
def test_memory_is_checked_with_a_typed_error(call, memory):
    # 2.5 and True gave an infinite-memory exact table, a float table
    # raised a raw TypeError, the one-state paths took 2.5 silently, and
    # "2" raised a raw TypeError everywhere
    with pytest.raises(InvalidParameter, match="memory"):
        call(memory)


@pytest.mark.parametrize("exact_mode", [True, False])
def test_a_memory_of_at_least_the_horizon_is_infinite(exact_mode):
    # a memory of 10^30 raised numpy's "Maximum allowed dimension exceeded"
    init = unit_init(2) if exact_mode else cg.uniform_init(2, 1.0, 1.0)
    sched = cg.ConstantDelta(F(1) if exact_mode else 1.0, F(2) if exact_mode else 2.0)
    infinite = exact.enumerate_joint(K2, init, sched, 3, exact=exact_mode)
    for memory in (3, 10 ** 30):
        table = exact.enumerate_joint(K2, init, sched, 3, exact=exact_mode, memory=memory)
        assert np.array_equal(table.probs, infinite.probs)
    # a memory of 1 forgets step 1's draws before step 3's
    forgetful = exact.enumerate_joint(K2, init, sched, 3, exact=exact_mode, memory=1)
    assert not np.array_equal(forgetful.probs, infinite.probs)


@pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0])
def test_count_dp_refuses_a_delta_that_is_not_finite(delta):
    # inf gave all-NaN marginals with numpy RuntimeWarnings
    with pytest.raises(InvalidParameter, match="delta must be finite and >= 0"):
        exact.complete_node_marginal_probs(0.5, delta, 3, 3)


def test_count_dp_refuses_a_horizon_past_its_cap():
    # numpy raised "Maximum allowed dimension exceeded" building the levels
    with pytest.raises(CapExceeded):
        exact.complete_node_marginal_probs(0.5, 1.0, 10, 10 ** 30)
    with pytest.raises(CapExceeded):
        exact.complete_node_marginal_probs(0.5, 1.0, 100, 14)


def test_classical_log_probabilities_that_overflow_are_a_domain_error():
    # delta * (n - 1) overflows: the row was NaN and -inf, with numpy warnings
    with pytest.raises(DomainError, match="not finite in floats"):
        exact.classical_count_log_probs(exact.PolyaParams(0.5, 1e308), 4)
    assert np.isfinite(exact.classical_count_log_probs(exact.PolyaParams(0.5, 1e300), 4)).all()


@pytest.mark.parametrize("args", [(0.5, 1, math.nan), (0.5, 1, 2.5), (0.5, 1, 0),
                                  (0.5, math.nan, 2), (0.5, math.inf, 2), (math.nan, 1, 2)])
def test_complete_closed_forms_refuse_bad_values(args):
    # a NaN node count or delta gave a NaN probability
    with pytest.raises(InvalidParameter):
        exact.complete_n1_joint(*args)
    if args[2] == 2:
        with pytest.raises(InvalidParameter):
            exact.nonstationarity_witness(*args[:2])


def test_count_dp_refuses_a_proportion_that_overflows():
    # 1 + 2 * 1e308 overflows at step 3: the marginal was NaN
    with pytest.raises(DomainError, match="step 3 is not finite"):
        exact.complete_node_marginal_probs(0.5, 1e308, 3, 3)


def test_count_dp_proportion_that_rounds_above_one_is_clamped():
    # the top count's proportion rounds to 1 + 2^-52 here, which gave a
    # marginal entry of -3.2e-17
    marginal = exact.complete_node_marginal_probs(1 - 2 ** -52, 7.0, 100, 3)
    assert marginal.min() >= 0
    assert math.isclose(math.fsum(marginal), 1, abs_tol=1e-14)


def test_count_dp_on_the_largest_generated_complete_network():
    # C(1447, j) overflows a float, and s^j underflows, inside the band
    marginal = exact.complete_node_marginal(0.5, 1.0, 1448, 2)
    assert abs(math.fsum(marginal.values()) - 1) <= 1e-12


def test_banded_count_dp_peak_memory_is_two_levels():
    import tracemalloc

    final_level_bytes = (1 << 12) * (100 * 12 + 1) * 8
    tracemalloc.start()
    try:
        exact.complete_node_marginal(0.5, 0.01, 100, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * final_level_bytes + 10 * 2 ** 20


def test_count_dp_peak_memory_is_two_half_horizon_passes():
    import tracemalloc

    # expanding all 12 steps kept 2^12 x 1201 doubles (39 MB), 58 MB at peak
    tracemalloc.start()
    try:
        exact.complete_node_marginal(0.5, 0.01, 100, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_count_dp_refuses_more_nodes_than_its_bound_at_once():
    # binomial_pmf's exact C(n, j) take time quadratic in n: 2^17 nodes ran
    # for seconds at horizon 1, and 2^23 - 1 nodes passed the cell cap
    exact.check_count_dp_cap(exact.COUNT_DP_MAX_NODES, 1)
    exact.check_count_dp_cap(1448, 9)  # the largest generated complete network
    for nodes in (exact.COUNT_DP_MAX_NODES + 1, 1 << 17, (1 << 23) - 1):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="at most 32768 nodes"):
            exact.complete_node_marginal_probs(0.5, 1.0, nodes, 1)
        assert time.perf_counter() - start < 0.1


def test_count_dp_refuses_a_last_step_binomial_table_past_the_cap():
    # the last step's binomial_pmf table has N(N(h - 1) + 1) cells: 2^15
    # nodes at horizon 2 would build 2^30 of them (8.6 GB)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="binomial table of 1073774592 cells"):
        exact.complete_node_marginal_probs(0.5, 1.0, 1 << 15, 2)
    assert time.perf_counter() - start < 0.1
    exact.check_count_dp_cap(1448, 9)  # 16,775,080 cells
    with pytest.raises(CapExceeded, match="binomial table"):
        exact.check_count_dp_cap(1448, 10)
    with pytest.raises(CapExceeded, match="binomial table"):
        exact.check_count_dp_cap(1449, 9)  # 1449 x 11593 cells


def test_count_dp_cap_bounds_the_final_level():
    exact.check_count_dp_cap(100, 13)  # 2^13 x 1301 cells fit in 2^24
    with pytest.raises(CapExceeded):
        exact.check_count_dp_cap(100, 14)  # 2^14 x 1401 do not


def test_a_cap_above_the_enumeration_cap_is_refused():
    # the cap bounds allocations: K2 at horizon 20 under a cap of 40 would
    # otherwise build a list of 2^40 entries
    above = exact.ENUMERATION_CAP + 1
    with pytest.raises(InvalidParameter, match="above the largest allowed"):
        exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 20, cap=above)


def test_iter_histories_probabilities_sum_to_one():
    total = sum(
        prob for _, prob, _ in
        exact.iter_histories(PATH3, unit_init(3), cg.ConstantDelta(F(1)), 2)
    )
    assert total == 1


def test_joint_table_csv_round_trip(tmp_path):
    table = exact.enumerate_joint(K2, unit_init(2), cg.ConstantDelta(F(1)), 2)
    path = tmp_path / "table.csv"
    table.write_csv(path, header_lines=["case=unit"])
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = rows[0].split(",")
    assert header == ["a_1_1", "a_1_2", "a_2_1", "a_2_2", "p_num", "p_den"]
    total = F(0)
    for row in rows[1:]:
        cells = row.split(",")
        total += F(int(cells[-2]), int(cells[-1]))
    assert total == 1


def test_integer_masses_give_exact_fractions():
    # ints are rational inputs: each result must be a Fraction, not int / int
    table = exact.enumerate_joint(K2, cg.uniform_init(2), cg.ConstantDelta(1), 2)
    assert table.exact and all(type(p) is F for p in table.probs)
    assert table.probs[0] == F(1, 9)
    rows = io.StringIO()
    table.write_csv(rows)
    assert rows.getvalue().splitlines()[1] == "0,0,0,0,1,9"
    p = exact.joint_probability(K2, cg.uniform_init(2), cg.ConstantDelta(1), [[1], [1]])
    assert type(p) is F and p == F(1, 4)
    rate = exact.average_infection_rate(K2, cg.uniform_init(2), cg.ConstantDelta(1), 2)
    assert rate.exact and type(rate.value) is F and rate.value == F(1, 2)


@pytest.mark.parametrize("init, sched", [
    (cg.uniform_init(2, 1.0, 1.0), cg.ConstantDelta(F(1))),
    (cg.uniform_init(2), cg.ConstantDelta(1.0)),
])
def test_exact_enumeration_refuses_float_inputs(init, sched):
    with pytest.raises(InvalidParameter, match="exact=False"):
        exact.enumerate_joint(K2, init, sched, 2)
