"""Undirected network topology: construction, standard generators, spectral radius.

Nodes are dense 0-indexed integers.  Networks are immutable after
construction, so forked worker processes can use the parent's copy.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import output
from .errors import (
    CapExceeded,
    Disconnected,
    IndexOutOfRange,
    InvalidParameter,
    NonConvergence,
    ParseError,
    SelfLoop,
    check_cells,
    check_int,
    check_real,
)

POWER_ITERATION_MAX_STEPS = 10_000
POWER_ITERATION_TOL = 1e-10
# bounds what one short node count can ask for: the generators build an edge
# list of Python tuples and the connectivity check lists the neighbourhoods
# as Python ints, a few hundred bytes an edge, so graph-gen of a complete
# graph just under 2^20 edges (1448 nodes) peaks at about 280 MB of RSS
GENERATED_EDGE_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class Network:
    """Connected undirected graph, stored as its closed neighbourhoods.

    Node i's closed neighbourhood, itself included, is
    ``indices[indptr[i]:indptr[i + 1]]`` in ascending order; both arrays
    are read-only int64, and every other view is derived from them.  Use
    :func:`build_network` rather than constructing directly so the
    invariants (no self loops, valid indices, connectivity) are checked.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray

    def _rows(self) -> np.ndarray:
        """The node whose neighbourhood holds each entry of ``indices``."""
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted (i, j) pairs with i < j."""
        rows = self._rows()
        upper = self.indices > rows
        return tuple(zip(rows[upper].tolist(), self.indices[upper].tolist()))

    @cached_property
    def open_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the open neighbourhoods: each closed one
        without its own node."""
        n = self.node_count
        return (self.indptr - np.arange(n + 1),
                self.indices[self.indices != self._rows()])

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _segments(*self.open_csr)

    @cached_property
    def closed_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _segments(self.indptr, self.indices)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple((np.diff(self.indptr) - 1).tolist())

    @cached_property
    def closed_adjacency(self) -> np.ndarray:
        """Adjacency plus identity; column i selects the closed neighborhood of
        i.  ``CapExceeded`` before allocating past 2^ENUMERATION_CAP cells."""
        n = self.node_count
        check_cells(n * n, f"a dense view of {n} nodes needs a table")
        c = np.zeros((n, n), dtype=np.float64)
        c[self._rows(), self.indices] = 1.0
        c.setflags(write=False)
        return c

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = self.closed_adjacency - np.eye(self.node_count)
        a.setflags(write=False)
        return a

    @cached_property
    def spectral_radius(self) -> float:
        """``largest_eigenvalue`` at its default tolerance, computed once."""
        return largest_eigenvalue(self)


def _segments(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    ptr, idx = indptr.tolist(), indices.tolist()
    return tuple(tuple(idx[a:b]) for a, b in zip(ptr, ptr[1:]))


def build_network(n: int, edge_list: Iterable[tuple[int, int]] | np.ndarray) -> Network:
    """Build a connected undirected network on nodes 0..n-1 from pairs of
    integer node indices, or an (E, 2) int64 array of them.

    Duplicate and reversed edges are collapsed.  Raises ``InvalidParameter``
    for an edge that is not a pair of integers, ``SelfLoop``,
    ``IndexOutOfRange`` or ``Disconnected``; the first invalid edge is the
    one reported.
    """
    n = check_int(n, "node count", minimum=1)
    edges = edge_list if isinstance(edge_list, (list, tuple, np.ndarray)) else list(edge_list)
    if len(edges) < n - 1:  # too few to connect: no per-node structure is built
        _check_edges(edges, n)
        raise _disconnected(n, len({(min(i, j), max(i, j)) for i, j in edges}))
    try:
        pairs = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.int64)
    except (TypeError, ValueError):  # pairs and other lengths mixed
        pairs = None
    if pairs is None or pairs.dtype != np.int64 or pairs.shape != (len(edges), 2):
        # not all int64 pairs: raise for the first bad edge, or convert the
        # valid ones (narrower, unsigned, bool or past-int64 object indices)
        _check_edges(edges, n)
        pairs = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        _check_edges(edges[bad.argmax():], n)
    # entry (i, j) of the closed neighbourhoods is code i * n + j: both
    # directions of every edge and each node's own entry, sorted, so in row
    # order.  n - 1 <= len(edges), so the codes fit int64; a sort and a
    # mask, as np.unique is ~50x slower on a million int64 codes
    codes = np.sort(np.concatenate([lo * n + hi, hi * n + lo, np.arange(n) * (n + 1)]))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    edge_count = (len(codes) - n) // 2
    if edge_count < n - 1:
        raise _disconnected(n, edge_count)
    indptr, indices = np.searchsorted(codes, np.arange(n + 1) * n), codes % n
    for a in (indptr, indices):
        a.setflags(write=False)
    net = Network(node_count=n, indptr=indptr, indices=indices)
    if not _connected(net):
        raise _disconnected(n, edge_count)
    return net


def _check_edges(edges: Sequence, n: int) -> None:
    """Raise ``InvalidParameter``, ``SelfLoop`` or ``IndexOutOfRange`` for
    the first invalid edge."""
    for edge in edges:
        try:
            i, j = map(operator.index, edge)
        except (TypeError, ValueError):
            shown = tuple(edge.tolist()) if isinstance(edge, np.ndarray) else edge
            raise InvalidParameter(
                f"edge {shown!r} is not a pair of integer node indices") from None
        if i == j:
            raise SelfLoop(f"self loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")


def _disconnected(n: int, edges: int) -> Disconnected:
    return Disconnected(f"graph on {n} nodes with {edges} edges is not connected")


def _connected(net: Network) -> bool:
    ptr, idx = net.indptr.tolist(), net.indices.tolist()
    seen = [True] + [False] * (net.node_count - 1)
    stack = [0]
    while stack:
        v = stack.pop()
        for w in idx[ptr[v]:ptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def classify(net: Network) -> str:
    """Return 'complete', 'regular' (non-complete), or 'irregular'."""
    if all(d == net.node_count - 1 for d in net.degrees):
        return "complete"
    if len(set(net.degrees)) == 1:
        return "regular"
    return "irregular"


def largest_eigenvalue(
    net: Network,
    tol: float = POWER_ITERATION_TOL,
    max_steps: int = POWER_ITERATION_MAX_STEPS,
) -> float:
    """Spectral radius of the adjacency matrix by power iteration.

    Iterates on A + I so that bipartite graphs (where +/-lambda_max pair up
    and plain power iteration stalls) still converge to the Perron root; the
    shift is subtracted from the converged Rayleigh quotient.
    """
    check_real(tol, "tol", 0, brackets="()")
    max_steps = check_int(max_steps, "max_steps", minimum=0)
    shifted = net.closed_adjacency
    v = np.ones(net.node_count) / np.sqrt(net.node_count)
    w = shifted @ v
    for _ in range(max_steps):
        v = w / np.linalg.norm(w)
        w = shifted @ v  # serves the Rayleigh quotient, the residual and the next step
        lam = float(v @ w)
        residual = np.linalg.norm(w - lam * v)
        if residual <= tol:
            return lam - 1.0
    raise NonConvergence(
        f"power iteration did not reach residual {tol} in {max_steps} steps"
    )


def _check_edge_budget(kind: str, edges: int) -> None:
    if edges > GENERATED_EDGE_BUDGET:
        raise CapExceeded(f"a {kind} graph of {edges} edges is past the budget of "
                          f"{GENERATED_EDGE_BUDGET} generated edges")


def generate_complete(n: int) -> Network:
    n = check_int(n, "n", minimum=1)
    _check_edge_budget("complete", n * (n - 1) // 2)
    return build_network(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def generate_cycle(n: int) -> Network:
    n = check_int(n, "n", minimum=3)
    _check_edge_budget("cycle", n)
    return build_network(n, [(i, (i + 1) % n) for i in range(n)])


def generate_star(n: int) -> Network:
    n = check_int(n, "n", minimum=2)
    _check_edge_budget("star", n - 1)
    return build_network(n, [(0, i) for i in range(1, n)])


def generate_barabasi_albert(n: int, m: int, seed: int) -> Network:
    """Preferential-attachment graph grown from a complete seed on m nodes.

    Each new node attaches to m distinct existing nodes, sampled one at a
    time proportionally to current degree without replacement.  The very
    first attachment in the m=1 case starts from a single isolated seed
    node, where degrees are all zero; candidates are then sampled uniformly.

    A pick draws u and takes the first node whose cumulative degree exceeds
    u times the total, found by descending a Fenwick tree of the integer
    degrees in O(log n).  The sums are integers below 2^53, so the picks,
    and the graphs, are those of a float cumulative sum over all degrees.
    """
    n, m, seed = check_int(n, "n"), check_int(m, "m"), check_int(seed, "seed")
    check_real(m, "m", 1, n, "[)")
    if seed < 0:  # numpy seeds are non-negative integers
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    _check_edge_budget("barabasi_albert", m * (m - 1) // 2 + (n - m) * m)
    uniforms = iter(np.random.default_rng(seed).random((n - m) * m).tolist())
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    # weight[i] is node i's degree, or 0 while it is a target of the new node
    weight = _Fenwick(degree)
    for new in range(m, n):
        targets: list[int] = []
        left = 2 * len(edges)  # the weight of the nodes not yet picked
        for k in range(m):
            # u * left < left, so a node of positive weight is found; left is
            # 0 only at m = 1's first attachment, where no prefix exceeds 0
            # and the clamp takes node 0, the one candidate
            pick = min(weight.search(next(uniforms) * left), new - 1)
            if k < m - 1:  # the node's later picks skip it
                left -= weight.values[pick]
                weight.add(pick, -weight.values[pick])
            targets.append(pick)
        for t in targets:
            edges.append((t, new))
            degree[t] += 1
            weight.add(t, degree[t] - weight.values[t])
        degree[new] += len(targets)
        weight.add(new, len(targets))
    return build_network(n, edges)


class _Fenwick:
    """Binary indexed tree over non-negative integer ``values``: point
    updates and prefix searches in O(log n)."""

    def __init__(self, values: list[int]):
        self.values = list(values)
        self._tree = [0] + self.values
        for i in range(1, len(self._tree)):
            up = i + (i & -i)
            if up < len(self._tree):
                self._tree[up] += self._tree[i]

    def add(self, i: int, amount: int) -> None:
        self.values[i] += amount
        tree, size = self._tree, len(self._tree)
        i += 1
        while i < size:
            tree[i] += amount
            i += i & -i

    def search(self, x: float) -> int:
        """The first index whose prefix sum (itself included) exceeds x, or
        len(values) when none does; int-to-float comparisons are exact."""
        tree, size = self._tree, len(self._tree)
        pos, acc = 0, 0
        step = 1 << ((size - 1).bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt < size and acc + tree[nxt] <= x:
                pos, acc = nxt, acc + tree[nxt]
            step >>= 1
        return pos


def generate(kind: str, n: int, m: int | None = None, seed: int | None = None) -> Network:
    """Dispatch for the standard generators: complete, cycle, star, ba."""
    if kind == "complete":
        return generate_complete(n)
    if kind == "cycle":
        return generate_cycle(n)
    if kind == "star":
        return generate_star(n)
    if kind in ("ba", "barabasi_albert"):
        if m is None:
            raise InvalidParameter("barabasi_albert requires the attachment count m")
        return generate_barabasi_albert(n, m, 0 if seed is None else seed)
    raise InvalidParameter(f"unknown network kind {kind!r}")


def write_edge_list(net: Network, target) -> None:
    """Write the text edge-list format, first line N, then one 'i j' per
    line, to a path or a text stream."""
    with output.opened(target) as fh:
        fh.write(f"{net.node_count}\n")
        fh.writelines(f"{i} {j}\n" for i, j in net.edges)


def read_edge_list(path) -> Network:
    """Read the format of :func:`write_edge_list`; a file that is not in it
    raises ``ParseError``."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParseError(f"empty edge-list file {path}")
    if len(tokens) % 2 == 0:
        raise ParseError(f"odd number of node indices in {path}")
    try:
        values = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
    except ValueError as e:
        raise ParseError(f"edge-list file {path} holds a non-integer token: {e}") from e
    except OverflowError:  # an index past int64: build_network reports it
        values = [int(tok) for tok in tokens]
        return build_network(values[0], list(zip(values[1::2], values[2::2])))
    return build_network(int(values[0]), values[1:].reshape(-1, 2))


def degree_sequence(edges: Sequence[tuple[int, int]], n: int) -> list[int]:
    """Degrees recomputed straight from an edge list (independent of Network)."""
    n = check_real(check_int(n, "n"), "n", 1, sys.maxsize)  # a list's limit
    _check_edges(edges, n)
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg
