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
from numbers import Integral, Real
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

# The one tolerance of every payoff comparison.  The consent rule is exact;
# EPSILON only absorbs float rounding, and every decision it settles is an
# exact tie in rational arithmetic.
EPSILON = 1e-9
# The most nodes of any network or group-size partition: an all-pairs
# stability check makes about n**2 / 2 BFS-backed decisions, which take
# seconds at 1,024 nodes, and a larger size is refused before it is built.
NODE_CAP = 1024


class ValidationError(ValueError):
    """Raised when input data breaks a documented invariant."""


def checked_count(n) -> int:
    """The node count as an int, refused unless it is an integer in 0..NODE_CAP."""
    if not (isinstance(n, Integral) and n >= 0):
        raise ValidationError(f"node count must be a non-negative integer, got {n!r}")
    if n > NODE_CAP:
        raise ValidationError(f"node count {n} is above the cap of {NODE_CAP} nodes")
    return int(n)


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered node pairs in lexicographic (canonical bitmask) order."""
    n = checked_count(n)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _sequence(value, name: str) -> tuple:
    """``value``'s items as a tuple, refused by ``name`` unless it is iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {value!r}") from None


def _two_items(entry) -> tuple:
    """``entry`` unpacked, refused unless it holds exactly two items."""
    try:
        i, j = entry
    except (TypeError, ValueError):
        raise ValidationError(f"{entry!r} is not a pair") from None
    return i, j


def _node_id(value) -> int:
    """``value`` as a Python int: the one integer conversion of node ids."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"node ids must be integers, got {value!r}") from None


def checked_node(i: int, n: int) -> int:
    """Node ``i`` as an int, refused unless it lies in 0..n-1."""
    i = _node_id(i)
    if not 0 <= i < n:
        raise ValidationError(f"node {i} out of range")
    return i


def normalize_edge(i: int, j: int) -> tuple[int, int]:
    i, j = _node_id(i), _node_id(j)
    if i == j:
        raise ValidationError(f"self-loop ({i}, {j}) not allowed")
    return (i, j) if i < j else (j, i)


def checked_pair(i: int, j: int, n: int) -> tuple[int, int]:
    """The pair as (low, high) ints, refused when it is a self-loop or an
    endpoint lies outside 0..n-1: the one edge check of every network."""
    i, j = normalize_edge(i, j)
    if not (0 <= i and j < n):
        raise ValidationError(f"edge ({i}, {j}) invalid for n={n}")
    return i, j


def _finite(value, name: str) -> float:
    """``value`` as a Python float, refused by ``name`` unless it is a finite
    real number (Python or numpy)."""
    if not isinstance(value, Real):
        raise ValidationError(f"{name} must be real, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return float(value)


def checked_delta(delta: float) -> float:
    """The one-hop benefit as a float, refused unless it lies in (0, 1)."""
    delta = _finite(delta, "delta")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    return delta


def checked_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    """Group sizes as a tuple of ints, refused unless each is whole and >= 3."""
    try:
        sizes = tuple(map(index, sizes))
    except TypeError as exc:
        raise ValidationError(f"group sizes must be integers: {exc}") from None
    if any(s < 3 for s in sizes):
        raise ValidationError(f"every group needs >= 3 members, got sizes {sizes}")
    return sizes


def check_weight(weight: float) -> None:
    """Refuse a cross-group coordination weight that is not a real in [0, 1]."""
    if not (isinstance(weight, Real) and 0.0 <= weight <= 1.0):
        raise ValidationError(f"cross-group weight must be in [0, 1], got {weight!r}")


def check_network_size(network: Network, society: Society) -> None:
    """Refuse a network whose node count is not the society's."""
    if network.n != society.n:
        raise ValidationError(f"network has {network.n} nodes, the society has {society.n}")


@dataclass(frozen=True)
class GroupPartition:
    """Partition of nodes 0..n-1 into m groups, each of size >= 3.

    ``membership`` is the one stored fact; the node count ``n``, the group
    sizes and ``m`` are derived from it.
    """

    membership: tuple[int, ...]  # node id -> group id

    def __post_init__(self):
        try:
            object.__setattr__(self, "membership", tuple(map(index, self.membership)))
        except TypeError:
            raise ValidationError(f"membership must be integers, got {self.membership!r}") from None
        checked_count(self.n)
        if self.n < 3:
            raise ValidationError(f"need at least 3 nodes, got {self.n}")
        for node, g in enumerate(self.membership):
            # m groups of >= 3 members need m <= n, so an id >= n is unknown
            if not 0 <= g < self.n:
                raise ValidationError(f"node {node} assigned to unknown group {g}")
        checked_sizes(self.sizes)  # a gap in the group ids is a size-0 group

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "GroupPartition":
        """Contiguous partition: group 0 gets nodes 0..s0-1, and so on."""
        # checked here too: a trailing size <= 0 would give no node at all
        sizes = checked_sizes(sizes)
        checked_count(sum(sizes))  # before one entry per node is built
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

    Diagonal entries are exactly 1; off-diagonal entries lie in [0, 1].  Any
    2-D sequence of reals (lists, tuples, a numpy array) is stored as tuples
    of Python floats.
    """

    entries: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        # a flat row, as in [1.0, 0.2], becomes () and fails the shape check
        rows = [tuple(row) if np.iterable(row) else ()
                for row in _sequence(self.entries, "coordination matrix")]
        if any(len(row) != self.m for row in rows):
            raise ValidationError(f"coordination matrix must be {self.m}x{self.m}")
        object.__setattr__(self, "entries", tuple(
            tuple(_finite(value, "coordination weights") for value in row) for row in rows))
        for a in range(self.m):
            if self.entries[a][a] != 1.0:
                raise ValidationError("coordination matrix diagonal must be exactly 1")
            for b in range(self.m):
                if self.entries[a][b] != self.entries[b][a]:
                    raise ValidationError("coordination matrix must be symmetric")
                check_weight(self.entries[a][b])  # the diagonal 1 passes

    @classmethod
    def uniform(cls, m: int, cross_weight: float) -> "CoordinationMatrix":
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
                rows[a][b] = rows[b][a] = next(it)
        return cls(rows)

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.entries[key[0]][key[1]]


@dataclass(frozen=True)
class ModelParams:
    """One-hop benefit and per-link cost."""

    delta: float
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "delta", checked_delta(self.delta))
        object.__setattr__(self, "cost", _finite(self.cost, "cost"))
        if not self.cost > 0.0:
            raise ValidationError(f"cost must be positive, got {self.cost}")


class Network:
    """Labeled undirected simple graph on nodes 0..n-1.

    The state is one neighbor bitmask per node: bit j of
    ``neighbor_masks[i]`` is set when i and j are linked.  Adding or
    removing a link flips two bits in a copied tuple, and ``edges`` is
    derived from the masks on each read.  Instances are treated as
    immutable: equality and hashing read ``n`` and the masks.  The edges
    given to the constructor may name each pair in either orientation.
    """

    __slots__ = ("n", "neighbor_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = checked_count(n)
        masks = [0] * n
        for edge in edges:
            i, j = checked_pair(*_two_items(edge), n)
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
        return cls(n, ())

    @classmethod
    def complete(cls, n: int) -> "Network":
        return cls(n, all_pairs(n))

    @classmethod
    def disjoint_cliques(cls, partition: GroupPartition) -> "Network":
        return cls(partition.n, partition.intra_pairs())

    @classmethod
    def star(cls, m: int, center: int = 0) -> "Network":
        return cls(m, [(center, g) for g in range(checked_count(m)) if g != center])

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
        i, j = checked_pair(i, j, self.n)
        return self if self.neighbor_masks[i] >> j & 1 else self._toggled(i, j)

    def without_edge(self, i: int, j: int) -> "Network":
        i, j = checked_pair(i, j, self.n)
        return self._toggled(i, j) if self.neighbor_masks[i] >> j & 1 else self

    def degree(self, i: int) -> int:
        i = checked_node(i, self.n)
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

    def distances_from(self, source: int) -> list[float]:
        """Hop distances from ``source``: the first ball holding each node,
        math.inf where none does."""
        source = checked_node(source, self.n)
        balls = _balls(self.neighbor_masks, source)
        return [next((hops for hops, ball in enumerate(balls) if ball >> v & 1), math.inf)
                for v in range(self.n)]

    def is_connected(self) -> bool:
        return all(d < math.inf for d in self.distances_from(0)) if self.n else True

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


def _added_balls(balls_v: tuple[int, ...], balls_far: tuple[int, ...],
                 near: int = 0) -> tuple[int, ...]:
    """Node v's BFS balls once the link (i, j) is added, from the balls
    before the add of v and of the end farther from v, where ``near`` is
    v's hop count to the nearer end (0 when v is an end).

    Adding a link only shortens paths: d'(v, x) = min(d(v, x),
    d(v, i) + 1 + d(j, x), d(v, j) + 1 + d(i, x)), so v's new ball k is
    ``balls_v[k] | balls_j[k - 1 - d(v, i)] | balls_i[k - 1 - d(v, j)]``.
    The nearer end's term lies inside ``balls_v[k]``, which leaves
    ``balls_v[k] | balls_far[k - 1 - near]``: exactly the balls `_balls`
    would yield on the network with the link.  The far term adds nothing
    when the far end lies at most near + 1 hops from v, so v's balls
    change only when its hop counts to i and j differ by two or more, or
    just one end is reachable from it.
    """
    last_v, last_far = len(balls_v) - 1, len(balls_far) - 1
    balls = list(balls_v[:near + 1])
    ball = balls[-1]
    hop = near + 1
    while True:
        merged = balls_v[min(hop, last_v)] | balls_far[min(hop - 1 - near, last_far)]
        if merged == ball:
            return tuple(balls)
        balls.append(merged)
        ball = merged
        hop += 1


def _level_sum(balls: Sequence[int], i: int, society: Society) -> float:
    """The payoff formula, from node i's BFS balls (`_balls`).

    Level k, the nodes first reached at hop k, is ball k minus ball k - 1,
    and level 1 is i's neighbour set, whose size is i's degree.  Per group,
    delta**k times the members on each level; then each group's benefit
    times i's coordination weight for it, added from 0.0 in group order;
    then minus degree * cost.  delta**k takes one multiply per level.
    `stability._tables_chunk` adds the same per-group terms in the same
    order, and `stability._utilities` weighs and adds the groups in the same
    order, one node-major column per node, so both engines agree bitwise
    for any number of groups.
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
    i = checked_node(i, network.n)
    check_network_size(network, society)
    return _level_sum(_balls(network.neighbor_masks, i), i, society)


def payoffs(network: Network, society: Society) -> np.ndarray:
    """Payoff of every node, as one vector."""
    return np.array([payoff(network, i, society) for i in range(network.n)])


def _left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, the one welfare order, which
    the table engine follows too (from Python 3.12 on, builtin ``sum``
    compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def welfare(network: Network, society: Society) -> float:
    """The sum of all payoffs, in `_left_sum`'s order."""
    return _left_sum(payoff(network, i, society) for i in range(network.n))


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
        try:
            edge = checked_pair(i, j, n)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        if edge in edges:
            raise ValidationError(f"line {lineno}: duplicate edge ({i}, {j})")
        edges.add(edge)
    return Network(n, edges)
