import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polya_net import graph, sis
from polya_net.errors import (
    CapExceeded,
    Disconnected,
    IndexOutOfRange,
    InvalidParameter,
    NonConvergence,
    ParseError,
    SelfLoop,
)


def test_build_two_node_complete():
    net = graph.build_network(2, [(0, 1)])
    assert net.node_count == 2
    assert net.edges == ((0, 1),)
    assert net.closed_neighbors[0] == (0, 1)


def test_build_triangle_closed_neighborhoods_cover_everything():
    net = graph.build_network(3, [(0, 1), (1, 2), (0, 2)])
    for i in range(3):
        assert net.closed_neighbors[i] == (0, 1, 2)


def test_build_dedupes_reversed_and_repeated_edges():
    net = graph.build_network(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    assert net.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("n,edges,err", [
    (2, [(0, 0)], SelfLoop),
    (2, [(0, 2)], IndexOutOfRange),
    (3, [(0, 1)], Disconnected),
])
def test_build_rejects_bad_input(n, edges, err):
    with pytest.raises(err):
        graph.build_network(n, edges)


@pytest.mark.parametrize("net,kind", [
    (graph.generate_complete(5), "complete"),
    (graph.generate_cycle(4), "regular"),
    (graph.generate_star(4), "irregular"),
    (graph.generate_complete(1), "complete"),
])
def test_classify(net, kind):
    assert graph.classify(net) == kind


@pytest.mark.parametrize("net,expected", [
    (graph.generate_complete(5), 4.0),
    (graph.generate_cycle(6), 2.0),
    (graph.generate_star(10), 3.0),
])
def test_largest_eigenvalue_known_graphs(net, expected):
    assert graph.largest_eigenvalue(net) == pytest.approx(expected, abs=1e-8)


def test_star_eigenvalue_solves_characteristic_equation():
    # a hub with k leaves has lambda^2 = k: check the returned value directly
    for n in (4, 10, 17):
        lam = graph.largest_eigenvalue(graph.generate_star(n))
        assert lam ** 2 == pytest.approx(n - 1, abs=1e-7)


def test_largest_eigenvalue_convergence_guard():
    with pytest.raises(NonConvergence):
        graph.largest_eigenvalue(graph.generate_star(30), tol=1e-13, max_steps=2)
    with pytest.raises(InvalidParameter):
        graph.largest_eigenvalue(graph.generate_complete(3), tol=0.0)


def _three_product_power_iteration(net, tol=graph.POWER_ITERATION_TOL,
                                   max_steps=graph.POWER_ITERATION_MAX_STEPS):
    """largest_eigenvalue as first written: shifted @ v three times per step."""
    shifted = net.adjacency + np.eye(net.node_count)
    v = np.ones(net.node_count) / np.sqrt(net.node_count)
    for _ in range(max_steps):
        w = shifted @ v
        v = w / np.linalg.norm(w)
        lam = float(v @ (shifted @ v))
        residual = np.linalg.norm(shifted @ v - lam * v)
        if residual <= tol:
            return lam - 1.0
    raise NonConvergence("no convergence")


@pytest.mark.parametrize("net", [
    graph.generate_cycle(7),
    graph.generate_star(9),
    graph.generate_complete(5),
    graph.generate_barabasi_albert(20, 2, seed=3),
    graph.generate_barabasi_albert(100, 3, seed=5),
], ids=["cycle7", "star9", "k5", "ba20", "ba100"])
def test_one_product_per_step_is_bit_identical(net):
    assert graph.largest_eigenvalue(net) == _three_product_power_iteration(net)
    assert net.spectral_radius == graph.largest_eigenvalue(net)


def test_generate_complete_edge_count():
    assert len(graph.generate_complete(3).edges) == 3


def test_barabasi_albert_m1_is_tree():
    net = graph.generate_barabasi_albert(5, 1, seed=3)
    assert len(net.edges) == 4  # connected with n-1 edges


@pytest.mark.parametrize("n,m", [(100, 2), (50, 3), (20, 1)])
def test_barabasi_albert_edge_count_matches_generation_rule(n, m):
    # seed clique contributes m*(m-1)/2 edges, every later node adds m
    net = graph.generate_barabasi_albert(n, m, seed=7)
    assert len(net.edges) == m * (m - 1) // 2 + m * (n - m)


def test_barabasi_albert_reproducible():
    a = graph.generate_barabasi_albert(30, 2, seed=5)
    b = graph.generate_barabasi_albert(30, 2, seed=5)
    c = graph.generate_barabasi_albert(30, 2, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def _cumsum_barabasi_albert_edges(n, m, seed):
    """The sampler as first written: a float cumulative sum over all degrees
    for every pick."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    degree = np.zeros(n, dtype=np.int64)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    for new in range(m, n):
        weights = degree[:new].astype(np.float64)
        targets = []
        for _ in range(m):
            if weights.sum() <= 0:
                weights = np.ones(new, dtype=np.float64)
                for t in targets:
                    weights[t] = 0.0
            cum = np.cumsum(weights)
            pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            pick = min(pick, new - 1)
            targets.append(pick)
            weights[pick] = 0.0
        for t in targets:
            edges.append((t, new))
            degree[t] += 1
            degree[new] += 1
    return edges


@pytest.mark.parametrize("n,m,seed", [(2, 1, 0), (5, 1, 3), (64, 1, 0), (65, 1, 2),
                                      (300, 1, 7), (30, 2, 5), (100, 3, 5), (500, 4, 2),
                                      (200, 9, 11), (50, 49, 3), (2000, 2, 4)])
def test_barabasi_albert_tree_sampler_keeps_every_graph(n, m, seed):
    old = graph.build_network(n, _cumsum_barabasi_albert_edges(n, m, seed))
    assert graph.generate_barabasi_albert(n, m, seed).edges == old.edges


def _set_canonical_edges(edge_list):
    """The reference canonicalisation: a set of (min, max) pairs, sorted."""
    return tuple(sorted({(min(i, j), max(i, j)) for i, j in edge_list}))


@pytest.mark.parametrize("n,edge_list", [
    (300, _cumsum_barabasi_albert_edges(300, 3, 8)),
    (40, [(i, (i + 1) % 40) for i in range(40)]),
    (30, [(i, j) for i in range(30) for j in range(i + 1, 30)]),
    (30, [(j, i) for i in range(30) for j in range(30) if i != j]),  # each edge twice, reversed
    (6, [(5, 0), (0, 5), (3, 2), (1, 0), (2, 3), (4, 1), (3, 2), (4, 3), (0, 1), (5, 0)]),
])
def test_build_gives_the_sorted_set_of_canonical_edges(n, edge_list):
    reference = _set_canonical_edges(edge_list)
    shuffled = [edge_list[k] for k in np.random.default_rng(n).permutation(len(edge_list))]
    for edges in (edge_list, shuffled, edge_list[::-1]):
        net = graph.build_network(n, edges)
        assert net.edges == reference
        assert all(type(i) is int and type(j) is int for i, j in net.edges)


@pytest.mark.parametrize("n,edges,err,message", [
    (3, [(0, 1), (2, 2), (1, 7)], SelfLoop, "self loop at node 2"),
    (3, [(0, 1), (1, 7), (2, 2)], IndexOutOfRange, r"edge \(1, 7\) outside \[0, 3\)"),
    (3, [(0, 1), (-1, 2), (2, 2)], IndexOutOfRange, r"edge \(-1, 2\) outside \[0, 3\)"),
    (3, [(0, 1), (1, 2), (2, 10 ** 30)], IndexOutOfRange, rf"edge \(2, {10 ** 30}\)"),
    (3, [(1, 0), (0, 1), (1, 0)], Disconnected, "3 nodes with 1 edges"),
    (4, [(0, 1), (1, 0), (2, 3), (3, 2)], Disconnected, "4 nodes with 2 edges"),
    (4, [(0, 1), (1, 2), (2, 0)], Disconnected, "4 nodes with 3 edges"),
    (10 ** 30, [(0, 1), (1, 0)], Disconnected, "with 1 edges"),
    (3, [(0, 1.7), (1, 2)], InvalidParameter, r"edge \(0, 1\.7\) is not a pair of integer"),
    (3, [("0", "1"), ("1", "2")], InvalidParameter, r"edge \('0', '1'\) is not a pair of integer"),
    (3, [(0, 1), (1, 2, 5)], InvalidParameter, r"edge \(1, 2, 5\) is not a pair of integer"),
    (3, [(0, 1), (2, 2), (1, 2.5)], SelfLoop, "self loop at node 2"),
])
def test_build_reports_the_first_bad_edge(n, edges, err, message):
    with pytest.raises(err, match=message):
        graph.build_network(n, edges)


def test_build_takes_an_int64_edge_array():
    pairs = np.array([[0, 1], [2, 1], [1, 0]], dtype=np.int64)
    assert graph.build_network(3, pairs).edges == ((0, 1), (1, 2))
    with pytest.raises(IndexOutOfRange, match=r"edge \(2, 3\) outside \[0, 3\)"):
        graph.build_network(3, np.array([[0, 1], [2, 3]], dtype=np.int64))


def test_generate_dispatch_and_errors():
    assert graph.generate("cycle", 5).degrees == (2,) * 5
    with pytest.raises(InvalidParameter):
        graph.generate("ba", 5, m=None)
    with pytest.raises(InvalidParameter):
        graph.generate("mesh", 5)
    with pytest.raises(InvalidParameter):
        graph.generate_barabasi_albert(5, 5, seed=0)


@pytest.mark.parametrize("call, name", [
    (lambda: graph.generate("ba", 5.0, m=2, seed=1), "n"),
    (lambda: graph.generate("complete", 2.5), "n"),
    (lambda: graph.generate("cycle", 4.5), "n"),
    (lambda: graph.generate("star", True), "n"),
    (lambda: graph.generate("ba", 5, m=2.0, seed=1), "m"),
    (lambda: graph.generate("ba", 5, m=2, seed=1.5), "seed"),
    (lambda: sis.sis_run(graph.generate_complete(2), [0.5, 0.5],
                         sis.SisParams(beta=0.1, delta_sis=0.1), 2.5), "horizon"),
    (lambda: graph.build_network(math.nan, []), "node count"),
], ids=["ba_n", "complete_n", "cycle_n", "star_bool_n", "ba_m", "ba_seed", "sis_horizon",
        "build_nan_n"])
def test_non_integer_sizes_are_invalid_parameters(call, name):
    # each used to reach range() or numpy's seeding and raise a raw TypeError,
    # or for a NaN node count numpy's ValueError
    with pytest.raises(InvalidParameter, match=f"{name} must be an integer"):
        call()


@pytest.mark.parametrize("kind, n, m", [
    ("complete", 4, None), ("cycle", 6, None), ("star", 7, None), ("ba", 5, 1), ("ba", 4, 2),
])
def test_generators_count_their_edges_against_the_budget(kind, n, m, monkeypatch):
    # each graph here has exactly 4, 5 or 6 edges: it is built under a budget
    # of its own edge count and refused under one edge fewer
    edges = len(graph.generate(kind, n, m=m).edges)
    monkeypatch.setattr(graph, "GENERATED_EDGE_BUDGET", edges)
    assert len(graph.generate(kind, n, m=m).edges) == edges
    monkeypatch.setattr(graph, "GENERATED_EDGE_BUDGET", edges - 1)
    with pytest.raises(CapExceeded, match=f"of {edges} edges"):
        graph.generate(kind, n, m=m)


def test_edge_list_round_trip(tmp_path):
    net = graph.generate_barabasi_albert(12, 2, seed=9)
    path = tmp_path / "g.edges"
    graph.write_edge_list(net, path)
    back = graph.read_edge_list(path)
    assert back.node_count == net.node_count
    assert back.edges == net.edges


@pytest.mark.parametrize("text", ["2\n0 x\n", "abc", "", "2\n0 1 1\n", "1.5\n"],
                         ids=["letter", "no_count", "empty", "odd_count", "fraction"])
def test_malformed_edge_list_is_a_parse_error(tmp_path, text):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ParseError):
        graph.read_edge_list(path)


@st.composite
def generated_networks(draw):
    kind = draw(st.sampled_from(["complete", "cycle", "star", "ba"]))
    if kind == "complete":
        return graph.generate_complete(draw(st.integers(2, 12)))
    if kind == "cycle":
        return graph.generate_cycle(draw(st.integers(3, 12)))
    if kind == "star":
        return graph.generate_star(draw(st.integers(2, 12)))
    n = draw(st.integers(3, 14))
    m = draw(st.integers(1, min(3, n - 1)))
    return graph.generate_barabasi_albert(n, m, seed=draw(st.integers(0, 100)))


@settings(max_examples=40, deadline=None)
@given(generated_networks())
def test_classify_consistent_with_degree_sequence(net):
    degrees = graph.degree_sequence(net.edges, net.node_count)
    assert tuple(degrees) == net.degrees
    kind = graph.classify(net)
    if kind == "complete":
        assert all(d == net.node_count - 1 for d in degrees)
    elif kind == "regular":
        assert len(set(degrees)) == 1
    else:
        assert len(set(degrees)) > 1


@settings(max_examples=40, deadline=None)
@given(generated_networks())
def test_spectral_radius_sandwich_and_stability(net):
    lam = graph.largest_eigenvalue(net)
    d_max = max(net.degrees)
    d_avg = sum(net.degrees) / net.node_count
    assert max(d_avg, np.sqrt(d_max)) - 1e-8 <= lam <= d_max + 1e-8
    # tightening the tolerance must not move the converged value
    assert lam == pytest.approx(graph.largest_eigenvalue(net, tol=1e-12), abs=1e-8)
    # independent dense eigensolver agrees
    assert lam == pytest.approx(np.linalg.eigvalsh(net.adjacency).max(), abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(generated_networks())
@example(graph.generate_barabasi_albert(30, 2, seed=1))
@example(graph.generate_complete(1))
def test_closed_neighbourhoods_are_stored_once_as_csr(net):
    n, indptr, indices = net.node_count, net.indptr, net.indices
    for a in (indptr, indices):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert indptr[0] == 0 and indptr[-1] == len(indices) and len(indptr) == n + 1
    segments = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(n)]
    for i, seg in enumerate(segments):
        assert i in seg and all(a < b for a, b in zip(seg, seg[1:]))
    assert all(i in segments[j] for i, seg in enumerate(segments) for j in seg)
    assert np.array_equal(net.closed_adjacency, net.closed_adjacency.T)
    assert np.array_equal(net.adjacency + np.eye(n), net.closed_adjacency)
    # each view agrees with a derivation by sets and sorts, from the segments
    # or from the edge list
    reference = tuple(sorted({(i, j) for i, seg in enumerate(segments) for j in seg if i < j}))
    assert net.edges == reference
    assert net.degrees == tuple(graph.degree_sequence(net.edges, n))
    closed = [{i} for i in range(n)]
    for i, j in net.edges:
        closed[i].add(j)
        closed[j].add(i)
    assert net.closed_neighbors == tuple(tuple(sorted(c)) for c in closed)
    assert net.neighbors == tuple(tuple(sorted(c - {i})) for i, c in enumerate(closed))

