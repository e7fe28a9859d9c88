"""Brute-force reference computations, kept independent of the library's
breadth-first-search and table machinery on purpose."""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from groupform.model import GroupPartition, ModelParams, Network


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


def oracle_payoff(network: Network, i: int, weights: np.ndarray,
                  params: ModelParams) -> float:
    total = 0.0
    for k in range(network.n):
        if k == i:
            continue
        total += weights[i, k] * params.delta ** oracle_distance(network, i, k)
    return total - network.degree(i) * params.cost


def oracle_welfare(network: Network, weights: np.ndarray,
                   params: ModelParams) -> float:
    return sum(oracle_payoff(network, i, weights, params) for i in range(network.n))


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
