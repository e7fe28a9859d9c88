"""Brute-force reference computations, kept independent of the library's
breadth-first-search and table machinery on purpose, followed by small
test-only helpers that read the library's own structures."""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from groupform.model import (
    GroupPartition,
    Network,
    Society,
    ValidationError,
    _hop_distances,
)
from groupform.stability import SearchSpace


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
    for k in range(network.n):
        hops = oracle_distance(network, i, k)
        if k == i or hops == math.inf:
            continue
        total += coordination[group[i]][group[k]] * delta ** int(hops)
    return total - network.degree(i) * cost


# -- test-only helpers over library structures ---------------------------------

def density(network: Network) -> float:
    """Observed over possible edges, 2|E| / (n (n-1))."""
    n = network.n
    return 2.0 * network.edge_count / (n * (n - 1))


def all_pairs_distances(network: Network) -> np.ndarray:
    """The library BFS's hop-count distance matrix; unreachable pairs hold
    math.inf, so delta ** d evaluates the benefit discount directly."""
    masks = network.neighbor_masks
    return np.array([_hop_distances(masks, s) for s in range(network.n)], dtype=float)


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
