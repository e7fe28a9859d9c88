"""Society data model and payoff arithmetic.

A society is a set of n individuals partitioned into groups of size >= 3,
a symmetric unit-diagonal coordination matrix weighting cross-group contact,
and an undirected simple graph of formed links.  An individual's payoff is
a sum over groups: the coordination weight between its own group and group
g times the hop-discounted count of g's members it can reach, minus a
per-link maintenance cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

# The one tolerance of every payoff comparison.  The consent rule is exact;
# EPSILON only absorbs float rounding, and every decision it settles is an
# exact tie in rational arithmetic.
EPSILON = 1e-9


class ValidationError(ValueError):
    """Raised when input data breaks a documented invariant."""


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered node pairs in lexicographic (canonical bitmask) order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def normalize_edge(i: int, j: int) -> tuple[int, int]:
    i, j = index(i), index(j)
    if i == j:
        raise ValidationError(f"self-loop ({i}, {j}) not allowed")
    return (i, j) if i < j else (j, i)


def _check_sizes(sizes: tuple[int, ...]) -> None:
    if any(s < 3 for s in sizes):
        raise ValidationError(f"every group needs >= 3 members, got sizes {sizes}")


@dataclass(frozen=True)
class GroupPartition:
    """Partition of nodes 0..n-1 into m groups, each of size >= 3.

    ``membership`` is the one stored fact; the node count ``n``, the group
    sizes and ``m`` are derived from it.
    """

    membership: tuple[int, ...]  # node id -> group id

    def __post_init__(self):
        if self.n < 3:
            raise ValidationError(f"need at least 3 nodes, got {self.n}")
        for node, g in enumerate(self.membership):
            # m groups of >= 3 members need m <= n, so an id >= n is unknown
            if not 0 <= g < self.n:
                raise ValidationError(f"node {node} assigned to unknown group {g}")
        _check_sizes(self.sizes)  # a gap in the group ids is a size-0 group

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "GroupPartition":
        """Contiguous partition: group 0 gets nodes 0..s0-1, and so on."""
        try:
            sizes = tuple(map(index, sizes))
        except TypeError as exc:
            raise ValidationError(f"group sizes must be integers: {exc}") from None
        # checked here too: a trailing size <= 0 would give no node at all
        _check_sizes(sizes)
        return cls(tuple(g for g, s in enumerate(sizes) for _ in range(s)))

    @cached_property
    def n(self) -> int:
        return len(self.membership)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        counts = [0] * (max(self.membership) + 1)
        for g in self.membership:
            counts[g] += 1
        return tuple(counts)

    @property
    def m(self) -> int:
        return len(self.sizes)

    def members(self, group: int) -> list[int]:
        return [v for v in range(self.n) if self.membership[v] == group]

    @cached_property
    def group_bits(self) -> tuple[int, ...]:
        """Per-group bitmask over node ids."""
        bits = [0] * self.m
        for node, g in enumerate(self.membership):
            bits[g] |= 1 << node
        return tuple(bits)

    def intra_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in all_pairs(self.n)
                if self.membership[i] == self.membership[j]]

    def cross_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in all_pairs(self.n)
                if self.membership[i] != self.membership[j]]


@dataclass(frozen=True)
class CoordinationMatrix:
    """Symmetric m x m matrix of cross-group coordination weights.

    Diagonal entries are exactly 1; off-diagonal entries lie in [0, 1].
    """

    entries: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        if any(len(row) != self.m for row in self.entries):
            raise ValidationError(f"coordination matrix must be {self.m}x{self.m}")
        for row in self.entries:
            for value in row:
                if not math.isfinite(value):
                    raise ValidationError(f"coordination weights must be finite, got {value}")
        for a in range(self.m):
            if self.entries[a][a] != 1.0:
                raise ValidationError("coordination matrix diagonal must be exactly 1")
            for b in range(self.m):
                if self.entries[a][b] != self.entries[b][a]:
                    raise ValidationError("coordination matrix must be symmetric")
                if a != b and not 0.0 <= self.entries[a][b] <= 1.0:
                    raise ValidationError("off-diagonal coordination weights must be in [0, 1]")

    @classmethod
    def from_array(cls, array) -> "CoordinationMatrix":
        arr = np.asarray(array, dtype=float)
        return cls(tuple(tuple(float(x) for x in row) for row in arr))

    @classmethod
    def uniform(cls, m: int, cross_weight: float) -> "CoordinationMatrix":
        cross_weight = float(cross_weight)
        return cls(tuple(tuple(1.0 if a == b else cross_weight for b in range(m))
                         for a in range(m)))

    @classmethod
    def from_upper_triangle(cls, m: int, values: Iterable[float]) -> "CoordinationMatrix":
        """Build from the m*(m-1)/2 cross entries listed row-major."""
        values = list(values)
        expected = m * (m - 1) // 2
        if len(values) != expected:
            raise ValidationError(
                f"{m} groups need {expected} cross-group entries, got {len(values)}")
        rows = [[1.0] * m for _ in range(m)]
        it = iter(values)
        for a in range(m):
            for b in range(a + 1, m):
                v = float(next(it))
                rows[a][b] = rows[b][a] = v
        return cls.from_array(rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.entries[key[0]][key[1]]


@dataclass(frozen=True)
class ModelParams:
    """One-hop benefit and per-link cost."""

    delta: float
    cost: float

    def __post_init__(self):
        for name in ("delta", "cost"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0, 1), got {self.delta}")
        if not self.cost > 0.0:
            raise ValidationError(f"cost must be positive, got {self.cost}")


class Network:
    """Labeled undirected simple graph on nodes 0..n-1.

    The state is one neighbor bitmask per node: bit j of
    ``neighbor_masks[i]`` is set when i and j are linked.  Adding or
    removing a link flips two bits in a copied tuple, and ``edges`` is
    derived from the masks on each read.  Instances are treated as
    immutable: equality and hashing read ``n`` and the masks.
    """

    __slots__ = ("n", "neighbor_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        masks = [0] * n
        for a, b in edges:
            i, j = index(a), index(b)
            if not (0 <= i < j < n):
                raise ValidationError(f"edge ({i}, {j}) invalid for n={n}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.n = n
        self.neighbor_masks = tuple(masks)

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> "Network":
        """Unchecked constructor from symmetric masks with no self bits."""
        network = cls.__new__(cls)
        network.n = len(masks)
        network.neighbor_masks = masks
        return network

    @classmethod
    def empty(cls, n: int) -> "Network":
        return cls._from_masks((0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Network":
        return cls(n, (normalize_edge(i, j) for i, j in edges))

    @classmethod
    def complete(cls, n: int) -> "Network":
        return cls(n, all_pairs(n))

    @classmethod
    def disjoint_cliques(cls, partition: GroupPartition) -> "Network":
        return cls(partition.n, partition.intra_pairs())

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """Every edge (i, j), i < j, in lexicographic order."""
        for i, mask in enumerate(self.neighbor_masks):
            mask >>= i + 1
            while mask:
                bit = mask & -mask
                yield i, i + bit.bit_length()
                mask ^= bit

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._pairs())

    def has_edge(self, i: int, j: int) -> bool:
        i, j = normalize_edge(i, j)
        return 0 <= i and j < self.n and self.neighbor_masks[i] >> j & 1 == 1

    def _toggled(self, i: int, j: int) -> "Network":
        masks = list(self.neighbor_masks)
        masks[i] ^= 1 << j
        masks[j] ^= 1 << i
        return self._from_masks(tuple(masks))

    def with_edge(self, i: int, j: int) -> "Network":
        i, j = normalize_edge(i, j)
        if not (0 <= i < j < self.n):
            raise ValidationError(f"edge ({i}, {j}) invalid for n={self.n}")
        return self if self.neighbor_masks[i] >> j & 1 else self._toggled(i, j)

    def without_edge(self, i: int, j: int) -> "Network":
        return self._toggled(*normalize_edge(i, j)) if self.has_edge(i, j) else self

    def degree(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValidationError(f"node {i} out of range")
        return int.bit_count(self.neighbor_masks[i])

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.neighbor_masks)) // 2

    def intra_count(self, partition: GroupPartition) -> int:
        return self.edge_count - self.inter_count(partition)

    def inter_count(self, partition: GroupPartition) -> int:
        group_bits, membership = partition.group_bits, partition.membership
        return sum(int.bit_count(mask & ~group_bits[membership[v]])
                   for v, mask in enumerate(self.neighbor_masks)) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(self._pairs())

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.neighbor_masks == other.neighbor_masks

    def __hash__(self) -> int:
        return hash((self.n, self.neighbor_masks))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(n={self.n}, edges={self.edges!r})"


def _balls(masks, source: int) -> tuple[int, ...]:
    """Cumulative BFS balls: entry k is the bitmask of nodes within k hops of
    source, up to its eccentricity; later balls equal the last one.  The
    scalar engine's one BFS."""
    ball = frontier = 1 << source
    balls = [ball]
    while True:
        reached = 0
        while frontier:
            bit = frontier & -frontier
            reached |= masks[bit.bit_length() - 1]
            frontier ^= bit
        frontier = reached & ~ball
        if not frontier:
            return tuple(balls)
        ball |= frontier
        balls.append(ball)


def _added_balls(balls_i: tuple[int, ...], balls_j: tuple[int, ...]) -> list[int]:
    """Node i's BFS balls once the link (i, j) is added, from both
    endpoints' balls before the add.

    Adding a link only shortens paths, through d'_i = min(d_i, 1 + d_j), so
    i's new ball k is ``balls_i[k] | balls_j[k - 1]``: exactly the balls
    `_balls` would yield on the network with the link.
    """
    last_i, last_j = len(balls_i) - 1, len(balls_j) - 1
    ball = balls_i[0]
    balls = [ball]
    hop = 1
    while True:
        merged = balls_i[min(hop, last_i)] | balls_j[min(hop - 1, last_j)]
        if merged == ball:
            return balls
        balls.append(merged)
        ball = merged
        hop += 1


def _level_sum(balls: Sequence[int], i: int, society: Society) -> float:
    """The payoff formula, from node i's BFS balls (`_balls`).

    Level k, the nodes first reached at hop k, is ball k minus ball k - 1,
    and level 1 is i's neighbour set, whose size is i's degree.  Per group,
    delta**k times the members on each level, then weighted by i's
    coordination row, minus degree * cost.  delta**k takes one multiply per
    level, and `stability._tables_chunk` and `_utilities` add the same
    terms in the same order, so both engines agree bitwise.
    """
    partition, params = society.partition, society.params
    delta = params.delta
    group_bits = partition.group_bits
    acc = [0.0] * len(group_bits)
    discount = 1.0
    previous = balls[0]
    for ball in balls[1:]:
        discount *= delta
        newly = ball ^ previous
        for g, bits in enumerate(group_bits):
            acc[g] += discount * int.bit_count(newly & bits)
        previous = ball
    weights = society.coordination.entries[partition.membership[i]]
    benefit = 0.0
    for group_benefit, weight in zip(acc, weights):
        benefit += group_benefit * weight
    degree = int.bit_count(balls[1]) - 1 if len(balls) > 1 else 0
    return benefit - degree * params.cost


def payoff(network: Network, i: int, society: Society) -> float:
    """Group-weighted benefit over reachable nodes minus degree * cost for
    node i, from one BFS (see `_level_sum`)."""
    if not 0 <= i < network.n:
        raise ValidationError(f"node {i} out of range")
    if network.n != society.n:
        raise ValidationError(f"network has {network.n} nodes, the society has {society.n}")
    return _level_sum(_balls(network.neighbor_masks, i), i, society)


def payoffs(network: Network, society: Society) -> np.ndarray:
    """Payoff of every node, as one vector."""
    return np.array([payoff(network, i, society) for i in range(network.n)])


def welfare(network: Network, society: Society) -> float:
    """Total value of the network: the sum of all individual payoffs."""
    return float(payoffs(network, society).sum())


def in_invariant_set(network: Network, partition: GroupPartition) -> bool:
    """True when no edge crosses a group boundary (subgraph of disjoint cliques)."""
    return network.inter_count(partition) == 0


@dataclass(frozen=True)
class Society:
    """Partition + coordination matrix + parameters, bundled for the game ops."""

    partition: GroupPartition
    coordination: CoordinationMatrix
    params: ModelParams

    def __post_init__(self):
        if self.coordination.m != self.partition.m:
            raise ValidationError("coordination matrix and partition disagree on group count")

    @property
    def n(self) -> int:
        return self.partition.n


# Edge-list text form: one edge per line, "i j" with 0-based ids, i < j.

def format_edge_list(network: Network) -> str:
    lines = [f"{i} {j}" for i, j in network.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_pairs(text: str) -> Iterator[tuple[int, int, int]]:
    """Yield (line number, i, j) for every "i j" line; # starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer node id in {raw!r}") from None
        yield lineno, i, j


def parse_edge_list(text: str, n: int) -> Network:
    edges: set[tuple[int, int]] = set()
    for lineno, i, j in _parse_pairs(text):
        if i == j:
            raise ValidationError(f"line {lineno}: self-loop ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"line {lineno}: node id out of range for n={n}")
        edge = normalize_edge(i, j)
        if edge in edges:
            raise ValidationError(f"line {lineno}: duplicate edge ({i}, {j})")
        edges.add(edge)
    return Network(n, edges)
