"""Society data model and payoff arithmetic.

A society is a set of n individuals partitioned into groups of size >= 3,
a symmetric unit-diagonal coordination matrix weighting cross-group contact,
and an undirected simple graph of formed links.  An individual's payoff is
the coordination-weighted sum of hop-discounted benefits over everyone it
can reach, minus a per-link maintenance cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

DEFAULT_EPSILON = 1e-9


class ValidationError(ValueError):
    """Raised when input data breaks a documented invariant."""


def edge_index(i: int, j: int, n: int) -> int:
    """Position of pair (i, j), i < j, in lexicographic order over all pairs."""
    if not (0 <= i < j < n):
        raise ValidationError(f"pair ({i}, {j}) out of range for n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered node pairs in lexicographic (canonical bitmask) order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def normalize_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValidationError(f"self-loop ({i}, {j}) not allowed")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class GroupPartition:
    """Partition of nodes 0..n-1 into m groups, each of size >= 3."""

    n: int
    sizes: tuple[int, ...]
    membership: tuple[int, ...]  # node id -> group id

    def __post_init__(self):
        if self.n < 3:
            raise ValidationError(f"need at least 3 nodes, got {self.n}")
        if sum(self.sizes) != self.n:
            raise ValidationError("group sizes must sum to the node count")
        if any(s < 3 for s in self.sizes):
            raise ValidationError(f"every group needs >= 3 members, got sizes {self.sizes}")
        if len(self.membership) != self.n:
            raise ValidationError("membership must assign every node")
        counts = [0] * len(self.sizes)
        for node, g in enumerate(self.membership):
            if not 0 <= g < len(self.sizes):
                raise ValidationError(f"node {node} assigned to unknown group {g}")
            counts[g] += 1
        if tuple(counts) != self.sizes:
            raise ValidationError("membership does not match the declared sizes")

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "GroupPartition":
        """Contiguous partition: group 0 gets nodes 0..s0-1, and so on."""
        sizes = tuple(int(s) for s in sizes)
        membership = tuple(g for g, s in enumerate(sizes) for _ in range(s))
        return cls(n=sum(sizes), sizes=sizes, membership=membership)

    @property
    def m(self) -> int:
        return len(self.sizes)

    def group_of(self, node: int) -> int:
        return self.membership[node]

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

    m: int
    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.m or any(len(row) != self.m for row in self.entries):
            raise ValidationError(f"coordination matrix must be {self.m}x{self.m}")
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
        return cls(m=arr.shape[0], entries=tuple(tuple(float(x) for x in row) for row in arr))

    @classmethod
    def uniform(cls, m: int, cross_weight: float) -> "CoordinationMatrix":
        rows = [[cross_weight] * m for _ in range(m)]
        for a in range(m):
            rows[a][a] = 1.0
        return cls.from_array(rows)

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
    """One-hop benefit, per-link cost, and the indifference tolerance."""

    delta: float
    cost: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        for name in ("delta", "cost", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0, 1), got {self.delta}")
        if not self.cost > 0.0:
            raise ValidationError(f"cost must be positive, got {self.cost}")
        if self.epsilon < 0.0:
            raise ValidationError(f"epsilon must be non-negative, got {self.epsilon}")


@dataclass(frozen=True)
class Network:
    """Labeled undirected simple graph on nodes 0..n-1.

    Any network maps to a bitmask over the canonical lexicographic pair
    order, which makes whole-space enumeration and hashing cheap.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge ({i}, {j}) invalid for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "Network":
        return cls(n=n, edges=frozenset())

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Network":
        return cls(n=n, edges=frozenset(normalize_edge(i, j) for i, j in edges))

    @classmethod
    def complete(cls, n: int) -> "Network":
        return cls(n=n, edges=frozenset(all_pairs(n)))

    @classmethod
    def disjoint_cliques(cls, partition: GroupPartition) -> "Network":
        return cls(n=partition.n, edges=frozenset(partition.intra_pairs()))

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "Network":
        pairs = all_pairs(n)
        edges = frozenset(pairs[t] for t in range(len(pairs)) if mask >> t & 1)
        return cls(n=n, edges=edges)

    def to_mask(self) -> int:
        mask = 0
        for i, j in self.edges:
            mask |= 1 << edge_index(i, j, self.n)
        return mask

    def has_edge(self, i: int, j: int) -> bool:
        return normalize_edge(i, j) in self.edges

    def with_edge(self, i: int, j: int) -> "Network":
        return Network(self.n, self.edges | {normalize_edge(i, j)})

    def without_edge(self, i: int, j: int) -> "Network":
        return Network(self.n, self.edges - {normalize_edge(i, j)})

    def degree(self, i: int) -> int:
        return int.bit_count(self.neighbor_masks[i])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    def intra_count(self, partition: GroupPartition) -> int:
        return sum(1 for i, j in self.edges
                   if partition.membership[i] == partition.membership[j])

    def inter_count(self, partition: GroupPartition) -> int:
        return len(self.edges) - self.intra_count(partition)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def density(network: Network) -> float:
    """Observed over possible edges, 2|E| / (n (n-1))."""
    n = network.n
    return 2.0 * network.edge_count / (n * (n - 1))


def expand_matrix(coordination: CoordinationMatrix, partition: GroupPartition) -> np.ndarray:
    """Spread the group coordination matrix onto individual node pairs.

    Entry [i, j] is the group weight of (group(i), group(j)) for i != j and
    0 on the diagonal, so intra-group weights are exactly 1.
    """
    if coordination.m != partition.m:
        raise ValidationError(
            f"coordination matrix has {coordination.m} groups, partition has {partition.m}")
    group = np.array(partition.membership)
    entries = coordination.as_array()[np.ix_(group, group)]
    np.fill_diagonal(entries, 0.0)
    return entries


def _bfs_levels(masks, source: int):
    """Yield (level, bitmask of nodes first reached at that level), level >= 1."""
    visited = 1 << source
    frontier = visited
    level = 0
    while frontier:
        level += 1
        reached = 0
        f = frontier
        while f:
            bit = f & -f
            reached |= masks[bit.bit_length() - 1]
            f ^= bit
        newly = reached & ~visited
        if not newly:
            return
        yield level, newly
        visited |= newly
        frontier = newly


def _hop_distances(masks, source: int) -> list[float]:
    """Hop count from source to every node; math.inf where unreachable."""
    dist = [math.inf] * len(masks)
    dist[source] = 0
    for level, newly in _bfs_levels(masks, source):
        while newly:
            bit = newly & -newly
            dist[bit.bit_length() - 1] = level
            newly ^= bit
    return dist


def all_pairs_distances(network: Network) -> np.ndarray:
    """Hop-count distance matrix; unreachable pairs hold math.inf.

    Entries are integer-valued floats so that delta ** d evaluates the
    benefit discount directly (delta ** inf == 0 for 0 < delta < 1).
    """
    masks = network.neighbor_masks
    return np.array([_hop_distances(masks, s) for s in range(network.n)], dtype=float)


def _benefit_from(masks, source: int, weight_row: np.ndarray,
                  delta_powers: list[float]) -> float:
    """Discounted coordination benefit collected by one node via shortest paths."""
    total = 0.0
    for level, newly in _bfs_levels(masks, source):
        dp = delta_powers[level]
        while newly:
            bit = newly & -newly
            total += weight_row[bit.bit_length() - 1] * dp
            newly ^= bit
    return total


def _delta_powers(delta: float, n: int) -> list[float]:
    powers = [1.0] * n
    for k in range(1, n):
        powers[k] = powers[k - 1] * delta
    return powers


def payoff(network: Network, i: int, weights: np.ndarray, params: ModelParams) -> float:
    """Benefit sum over reachable nodes minus degree * cost for node i."""
    if not 0 <= i < network.n:
        raise ValidationError(f"node {i} out of range")
    if weights.shape != (network.n, network.n):
        raise ValidationError("weight matrix does not match the network size")
    benefit = _benefit_from(network.neighbor_masks, i, weights[i],
                            _delta_powers(params.delta, network.n))
    return benefit - network.degree(i) * params.cost


def payoffs(network: Network, weights: np.ndarray, params: ModelParams) -> np.ndarray:
    """Payoff of every node, as one vector."""
    powers = _delta_powers(params.delta, network.n)
    masks = network.neighbor_masks
    out = np.empty(network.n)
    for i in range(network.n):
        out[i] = (_benefit_from(masks, i, weights[i], powers)
                  - int.bit_count(masks[i]) * params.cost)
    return out


def welfare(network: Network, weights: np.ndarray, params: ModelParams) -> float:
    """Total value of the network: the sum of all individual payoffs."""
    return float(payoffs(network, weights, params).sum())


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

    @cached_property
    def weights(self) -> np.ndarray:
        return expand_matrix(self.coordination, self.partition)

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
    edges = []
    for lineno, i, j in _parse_pairs(text):
        if i == j:
            raise ValidationError(f"line {lineno}: self-loop ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"line {lineno}: node id out of range for n={n}")
        edge = normalize_edge(i, j)
        if edge in edges:
            raise ValidationError(f"line {lineno}: duplicate edge ({i}, {j})")
        edges.append(edge)
    return Network.from_edges(n, edges)
