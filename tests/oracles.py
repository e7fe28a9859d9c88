"""Brute-force reference computations, kept independent of the library's
breadth-first-search and table machinery on purpose; the previous table
engine, kept as the exact reference for the current one; and small
test-only helpers that read the library's own structures."""

import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Sequence

import numpy as np

from groupform.model import (
    EPSILON,
    GroupPartition,
    Network,
    Society,
    ValidationError,
)
from groupform.stability import (
    SearchSpace,
    SpaceTables,
    _pair_changes,
    _rows_welfare,
)


def oracle_distance(network: Network, start: int, goal: int) -> float:
    """Shortest hop count by exhaustive simple-path search."""
    if start == goal:
        return 0.0
    best = math.inf

    def explore(node: int, visited: frozenset, length: int) -> None:
        nonlocal best
        if length >= best:
            return
        if node == goal:
            best = float(length)
            return
        for nxt in range(network.n):
            if nxt not in visited and network.has_edge(node, nxt):
                explore(nxt, visited | {nxt}, length + 1)

    explore(start, frozenset([start]), 0)
    return best


def queue_distances(network: Network, source: int) -> list[float]:
    """Hop count from source to every node by a queue BFS over the edge
    list; math.inf where unreachable."""
    neighbors: list[list[int]] = [[] for _ in range(network.n)]
    for i, j in network.sorted_edges():
        neighbors[i].append(j)
        neighbors[j].append(i)
    dist = [math.inf] * network.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if dist[w] == math.inf:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def node_weights(society: Society) -> np.ndarray:
    """The coordination matrix spread onto node pairs: entry [i, k] is the
    weight of (group(i), group(k)) for i != k, and 0 on the diagonal."""
    group = society.partition.membership
    entries = society.coordination.entries
    weights = np.array([[entries[group[i]][group[k]] for k in range(society.n)]
                        for i in range(society.n)])
    np.fill_diagonal(weights, 0.0)
    return weights


def oracle_payoff(network: Network, i: int, society: Society) -> float:
    weights, params = node_weights(society), society.params
    total = 0.0
    for k in range(network.n):
        if k == i:
            continue
        total += weights[i, k] * params.delta ** oracle_distance(network, i, k)
    return total - network.degree(i) * params.cost


def oracle_welfare(network: Network, society: Society) -> float:
    return sum(oracle_payoff(network, i, society) for i in range(network.n))


def exact_payoff(network: Network, i: int, partition: GroupPartition,
                 coordination: Sequence[Sequence[Fraction]], delta: Fraction,
                 cost: Fraction) -> Fraction:
    """Payoff of node i in rational arithmetic, for deciding ties exactly.

    ``coordination`` is the m x m group weight matrix (unit diagonal) over
    the partition's groups; unreachable nodes contribute nothing.
    """
    group = partition.membership
    total = Fraction(0)
    for k, hops in enumerate(queue_distances(network, i)):
        if k == i or hops == math.inf:
            continue
        total += coordination[group[i]][group[k]] * delta ** int(hops)
    return total - network.degree(i) * cost


def exact_pair_changes(present: bool, du_i: Fraction, du_j: Fraction) -> bool:
    """The consent rule on exact payoff changes: a present link is cut when
    one endpoint strictly gains; a missing link forms when one strictly gains
    and neither strictly loses."""
    if present:
        return du_i > 0 or du_j > 0
    return (du_i > 0 or du_j > 0) and du_i >= 0 and du_j >= 0


def exact_pairwise_stable(network: Network, **exact) -> bool:
    """No pair of ``network`` changes under `exact_pair_changes` of its
    `exact_payoff` changes; ``exact`` holds `exact_payoff`'s keywords."""
    before = [exact_payoff(network, v, **exact) for v in range(network.n)]
    for i, j in itertools.combinations(range(network.n), 2):
        present = network.has_edge(i, j)
        toggled = network.without_edge(i, j) if present else network.with_edge(i, j)
        if exact_pair_changes(present, *(exact_payoff(toggled, v, **exact) - before[v]
                                         for v in (i, j))):
            return False
    return True


# -- reference table engine ----------------------------------------------------
# The row-major table build and gather-based scan that the node-major,
# in-place engine in `groupform.stability` replaced, and utilities weighed
# one node and one group at a time.  The build adds each benefit's doubles
# in `_tables_chunk`'s order, and the utilities add the weighted groups from
# 0.0 in group order, then subtract degree * cost, as `model._level_sum`
# does: for any number of groups these are the library's doubles in the
# library's order, so tests compare them for exact equality.

def reference_tables_chunk(space: SearchSpace, partition: GroupPartition, delta: float,
                           start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """benefit (count, n, m) and degree (count, n) for networks start..stop."""
    n, m = space.n, partition.m
    count = stop - start
    idx = np.arange(start, stop, dtype=np.int64)

    nbr = np.broadcast_to(np.array(space._pinned_masks, dtype=np.uint32),
                          (count, n)).copy()
    for t, (i, j) in enumerate(space.free_pairs):
        bit = ((idx >> t) & 1).astype(np.uint32)
        nbr[:, i] |= bit << j
        nbr[:, j] |= bit << i

    degree = np.bitwise_count(nbr).astype(np.uint8)
    group_bits = np.array(partition.group_bits, dtype=np.uint32)
    benefit = np.zeros((count, n, m), dtype=np.float64)

    for source in range(n):
        visited = np.full(count, np.uint32(1 << source))
        frontier = visited.copy()
        discount = 1.0
        for _ in range(n - 1):
            discount *= delta
            reached = np.zeros(count, dtype=np.uint32)
            for v in range(n):
                sel = ((frontier >> np.uint32(v)) & 1).astype(np.uint32)
                reached |= nbr[:, v] * sel
            newly = reached & ~visited
            if not newly.any():
                break
            for g in range(m):
                counts = np.bitwise_count(newly & group_bits[g])
                benefit[:, source, g] += discount * counts
            visited |= newly
            frontier = newly
    return benefit, degree


def reference_utilities(tables: SpaceTables, society: Society) -> np.ndarray:
    """util[k, v]: node v's payoff in network k of the tables, accumulated
    per node and per group from 0.0 over every network at once."""
    group, cost = tables.partition.membership, society.params.cost
    count, n, m = tables.benefit.shape
    util = np.empty((count, n), dtype=np.float64)
    for v in range(n):
        weights = society.coordination.entries[group[v]]
        total = np.zeros(count)
        for g in range(m):
            total = total + tables.benefit[:, v, g] * weights[g]
        util[:, v] = total - tables.degree[:, v].astype(np.float64) * cost
    return util


def reference_welfare(tables: SpaceTables, society: Society) -> np.ndarray:
    """Each network's welfare: its nodes' `reference_utilities`, added one
    node at a time, left to right from 0.0, as `model.welfare` adds them."""
    util = reference_utilities(tables, society)
    welfare = np.zeros(len(util))
    for v in range(util.shape[1]):
        welfare = welfare + util[:, v]
    return welfare


def reference_changing_pairs(tables: SpaceTables, society: Society,
                             bits: Sequence[int] | None = None) -> np.ndarray:
    """How many of the free pairs ``bits`` (all by default) change each
    network in the tables, each pair's partner network reached by an
    explicit index gather."""
    util = reference_utilities(tables, society)
    size = tables.space.size
    idx = np.arange(size, dtype=np.int64)
    changing = np.zeros(size, dtype=np.int64)
    for t in range(len(tables.space.free_pairs)) if bits is None else bits:
        i, j = tables.space.free_pairs[t]
        partner = idx ^ (1 << t)
        du_i = util[partner, i] - util[:, i]
        du_j = util[partner, j] - util[:, j]
        present = (idx >> t & 1).astype(bool)
        changing += _pair_changes(present, du_i, du_j)
    return changing


def reference_stable(tables: SpaceTables, society: Society) -> np.ndarray:
    """Pairwise stability of every network in the tables: no free pair
    changes it (`reference_changing_pairs`)."""
    return reference_changing_pairs(tables, society) == 0


def reduced_answers(welfare: np.ndarray, stable: np.ndarray) -> tuple[float, np.ndarray, float]:
    """``(best, argmax, stable_min)`` reduced from every network's welfare
    and stability flag, written out: the highest welfare, the masks within
    EPSILON of it in bitmask order, and the least welfare of a stable
    network (NaN when none is)."""
    best = float(welfare.max())
    stable_welfare = welfare[stable]
    stable_min = float(stable_welfare.min()) if stable_welfare.size else math.nan
    return best, np.flatnonzero(welfare >= best - EPSILON), stable_min


# -- test-only helpers over library structures ---------------------------------

def kernel_welfare(tables: SpaceTables, society: Society) -> np.ndarray:
    """Every network's welfare from the library's utility kernel
    (`stability._rows_welfare`), 2**16 networks at a time: the node-major
    utilities of a whole n = 7 space would take 117 MB."""
    size, chunk = tables.space.size, 1 << 16
    welfare = np.empty(size)
    for start in range(0, size, chunk):
        welfare[start:start + chunk] = _rows_welfare(tables, society, slice(start, start + chunk))
    return welfare


def density(network: Network) -> float:
    """Observed over possible edges, 2|E| / (n (n-1))."""
    n = network.n
    return 2.0 * network.edge_count / (n * (n - 1))


def all_pairs_distances(network: Network) -> np.ndarray:
    """The hop-count distance matrix from `queue_distances`; unreachable
    pairs hold math.inf, so delta ** d evaluates the benefit discount
    directly."""
    return np.array([queue_distances(network, s) for s in range(network.n)], dtype=float)


def free_mask_of(space: SearchSpace, network: Network) -> int:
    """Inverse of ``space.network_for``: the bitmask over the free pairs."""
    index = {pair: t for t, pair in enumerate(space.free_pairs)}
    extra = network.edges - space.fixed_edges
    for pair in extra:
        if pair not in index:
            raise ValidationError(f"edge {pair} lies outside the search space")
    if not space.fixed_edges <= network.edges:
        raise ValidationError("network is missing fixed edges of the search space")
    return sum(1 << index[pair] for pair in extra)
