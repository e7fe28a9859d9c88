"""Welfare-maximal structures and representative consolidation.

Search reuses the stability engine's whole-space welfare vector, so an
efficient structure is exact over its declared space.  Consolidation moves
every cross-group link endpoint onto one representative per group, which
can only shorten cross-group distances and therefore never lowers welfare
when it applies cleanly.
"""

from __future__ import annotations

import numpy as np

from .model import GroupPartition, Network, Society, ValidationError
from .stability import DEFAULT_FREE_BITS_CAP, SearchSpace, SpaceScan, _scan_for


class ConsolidationCollisionError(ValidationError):
    """Two cross-group links between the same group pair would merge."""


def efficient_search(space: SearchSpace, society: Society,
                     free_bits_cap: int = DEFAULT_FREE_BITS_CAP,
                     workers: int = 1) -> tuple[float, list[Network]]:
    """Maximal welfare over the space and every network attaining it.

    Maximizers within epsilon of the best are all returned (bitmask order);
    regime boundaries genuinely produce such ties.
    """
    scan = _scan_for(space, society, free_bits_cap, workers)
    return argmax_from_scan(scan, society.params.epsilon)


def argmax_from_scan(scan: SpaceScan, epsilon: float) -> tuple[float, list[Network]]:
    best = float(scan.welfare.max())
    masks = np.flatnonzero(scan.welfare >= best - epsilon)
    return best, [scan.space.network_for(int(m)) for m in masks]


def _group_cliques_present(network: Network, partition: GroupPartition) -> bool:
    return all(network.has_edge(i, j) for i, j in partition.intra_pairs())


def consolidate_representatives(network: Network, partition: GroupPartition) -> Network:
    """Reroute every cross-group link through one representative per group.

    The representative is the lowest-indexed node already carrying a cross
    link (lowest-indexed group member when there is none).  The set of
    linked group pairs is preserved exactly; two links between the same
    group pair would collapse onto one edge, which is reported instead of
    silently merged.
    """
    if not _group_cliques_present(network, partition):
        raise ValidationError("every group must form a clique before consolidation")
    membership = partition.membership
    cross = [(i, j) for i, j in network.sorted_edges() if membership[i] != membership[j]]

    repr_of = {}
    for g in range(partition.m):
        carriers = [v for e in cross for v in e if membership[v] == g]
        repr_of[g] = min(carriers) if carriers else min(partition.members(g))

    seen_group_pairs = set()
    moved = []
    for i, j in cross:
        ga, gb = membership[i], membership[j]
        pair = (ga, gb) if ga < gb else (gb, ga)
        if pair in seen_group_pairs:
            raise ConsolidationCollisionError(
                f"groups {pair} hold more than one cross link; consolidation would merge them")
        seen_group_pairs.add(pair)
        moved.append((repr_of[ga], repr_of[gb]))

    intra = [e for e in network.sorted_edges() if membership[e[0]] == membership[e[1]]]
    return Network.from_edges(network.n, intra + moved)
