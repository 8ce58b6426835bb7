"""Undirected network topology: construction, standard generators, spectral radius.

Nodes are dense 0-indexed integers.  Networks are immutable after
construction, so forked worker processes can use the parent's copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    Disconnected,
    IndexOutOfRange,
    InvalidParameter,
    NonConvergence,
    ParseError,
    SelfLoop,
)

POWER_ITERATION_MAX_STEPS = 10_000
POWER_ITERATION_TOL = 1e-10


@dataclass(frozen=True)
class Neighborhood:
    """Open (strict) and closed (self-inclusive) neighbor sets of one node."""

    node: int
    open: frozenset[int]
    closed: frozenset[int]


@dataclass(frozen=True, eq=False)
class Network:
    """Connected undirected graph with closed-neighborhood access.

    ``edges`` is a sorted tuple of (i, j) pairs with i < j; use
    :func:`build_network` rather than constructing directly so the
    invariants (no self loops, valid indices, connectivity) are checked.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count), dtype=np.float64)
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        a.setflags(write=False)
        return a

    @cached_property
    def closed_adjacency(self) -> np.ndarray:
        """Adjacency plus identity; column i selects the closed neighborhood of i."""
        c = self.adjacency + np.eye(self.node_count)
        c.setflags(write=False)
        return c

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            out[i].append(j)
            out[j].append(i)
        return tuple(tuple(sorted(v)) for v in out)

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """Row i lists ``neighbors[i]`` in order, padded to the largest degree
        with the index ``node_count``; shape (N, max degree), read-only."""
        n = self.node_count
        table = np.full((n, max(self.degrees)), n, dtype=np.intp)
        for i, nbrs in enumerate(self.neighbors):
            table[i, :len(nbrs)] = nbrs
        table.setflags(write=False)
        return table

    @cached_property
    def closed_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(sorted((i, *nbrs))) for i, nbrs in enumerate(self.neighbors)
        )

    @cached_property
    def spectral_radius(self) -> float:
        """``largest_eigenvalue`` at its default tolerance, computed once."""
        return largest_eigenvalue(self)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.neighbors)

    def neighborhood(self, i: int) -> Neighborhood:
        if not 0 <= i < self.node_count:
            raise IndexOutOfRange(f"node {i} not in [0, {self.node_count})")
        return Neighborhood(
            node=i,
            open=frozenset(self.neighbors[i]),
            closed=frozenset(self.closed_neighbors[i]),
        )


def build_network(n: int, edge_list: Iterable[tuple[int, int]]) -> Network:
    """Build a connected undirected network on nodes 0..n-1.

    Duplicate and reversed edges are collapsed.  Raises ``SelfLoop``,
    ``IndexOutOfRange`` or ``Disconnected`` on invalid input.
    """
    if n < 1:
        raise InvalidParameter(f"node count must be >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    for i, j in edge_list:
        if i == j:
            raise SelfLoop(f"self loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside [0, {n})")
        seen.add((min(i, j), max(i, j)))
    if len(seen) < n - 1:  # checked before any per-node structure is built
        raise Disconnected(f"graph on {n} nodes with {len(seen)} edges is not connected")
    net = Network(node_count=n, edges=tuple(sorted(seen)))
    if not _connected(net):
        raise Disconnected(f"graph on {n} nodes with {len(seen)} edges is not connected")
    return net


def _connected(net: Network) -> bool:
    if net.node_count == 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in net.neighbors[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == net.node_count


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
    if tol <= 0:
        raise InvalidParameter("tol must be positive")
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


def generate_complete(n: int) -> Network:
    if n < 1:
        raise InvalidParameter(f"complete graph needs n >= 1, got {n}")
    return build_network(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def generate_cycle(n: int) -> Network:
    if n < 3:
        raise InvalidParameter(f"cycle needs n >= 3, got {n}")
    return build_network(n, [(i, (i + 1) % n) for i in range(n)])


def generate_star(n: int) -> Network:
    if n < 2:
        raise InvalidParameter(f"star needs n >= 2, got {n}")
    return build_network(n, [(0, i) for i in range(1, n)])


def generate_barabasi_albert(n: int, m: int, seed: int) -> Network:
    """Preferential-attachment graph grown from a complete seed on m nodes.

    Each new node attaches to m distinct existing nodes, sampled one at a
    time proportionally to current degree without replacement.  The very
    first attachment in the m=1 case starts from a single isolated seed
    node, where degrees are all zero; candidates are then sampled uniformly.
    """
    if not 1 <= m < n:
        raise InvalidParameter(f"need 1 <= m < n, got m={m}, n={n}")
    if seed < 0:  # numpy seeds are non-negative integers
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    degree = np.zeros(n, dtype=np.int64)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    for new in range(m, n):
        weights = degree[:new].astype(np.float64)
        targets: list[int] = []
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
    return build_network(n, edges)


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


def write_edge_list(net: Network, path) -> None:
    """Write the text edge-list format: first line N, then one 'i j' per line."""
    with open(path, "w") as fh:
        fh.write(f"{net.node_count}\n")
        for i, j in net.edges:
            fh.write(f"{i} {j}\n")


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
        values = [int(tok) for tok in tokens]
    except ValueError as e:
        raise ParseError(f"edge-list file {path} holds a non-integer token: {e}") from e
    n, body = values[0], values[1:]
    return build_network(n, list(zip(body[::2], body[1::2])))


def degree_sequence(edges: Sequence[tuple[int, int]], n: int) -> list[int]:
    """Degrees recomputed straight from an edge list (independent of Network)."""
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return deg
