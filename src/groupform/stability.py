"""Pairwise stability, defeat, exhaustive stable-set enumeration, and the
price of anarchy.

A network is pairwise stable when no linked pair contains a member who
strictly gains by cutting the link, and no unlinked pair would form it
under mutual consent (one strict gain with the other at worst indifferent).
All strictness is epsilon-aware so the check is the exact fixed-point
condition of the formation dynamics.

Enumeration walks a declared search space as a bitmask range.  Payoff
tables for the whole space are built once with vectorized batched BFS,
after which each network's stability reduces to table lookups at the
single-bit-toggled neighbor masks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    all_pairs,
    payoff,
    payoffs,
)
from .thresholds import below_clique_bound, shortcut_gain

DEFAULT_FULL_NODE_CAP = 7
DEFAULT_FREE_BITS_CAP = 22
_CHUNK_BITS = 18


class CapExceededError(RuntimeError):
    """Raised instead of silently truncating an oversized search space."""


class PoAUndefinedError(ValueError):
    """No stable network, or a non-positive minimum stable welfare."""


class SpaceKind(Enum):
    FULL = "full"
    INTERCONNECTION = "interconnection"


@dataclass(frozen=True)
class SearchSpace:
    """A family of networks indexed by bitmasks over the free pair list.

    The full space frees every pair; the interconnection space pins every
    intra-group pair present and frees only cross-group pairs.
    """

    kind: SpaceKind
    n: int
    fixed_edges: frozenset[tuple[int, int]]
    free_pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return 1 << len(self.free_pairs)

    def network_for(self, free_mask: int) -> Network:
        chosen = frozenset(self.free_pairs[t] for t in range(len(self.free_pairs))
                           if free_mask >> t & 1)
        return Network(self.n, self.fixed_edges | chosen)

    def free_mask_of(self, network: Network) -> int:
        extra = network.edges - self.fixed_edges
        mask = 0
        index = {pair: t for t, pair in enumerate(self.free_pairs)}
        for pair in extra:
            if pair not in index:
                raise ValidationError(f"edge {pair} lies outside the search space")
        if not self.fixed_edges <= network.edges:
            raise ValidationError("network is missing fixed edges of the search space")
        for pair in extra:
            mask |= 1 << index[pair]
        return mask


def full_graph_space(n: int, node_cap: int = DEFAULT_FULL_NODE_CAP) -> SearchSpace:
    """Every edge set on n nodes; refuses n above the cap (2^C(n,2) networks)."""
    if n > node_cap:
        raise CapExceededError(
            f"full space needs n <= {node_cap} (got n={n}); raise the cap explicitly "
            f"to enumerate 2^{n * (n - 1) // 2} networks")
    return SearchSpace(kind=SpaceKind.FULL, n=n, fixed_edges=frozenset(),
                       free_pairs=tuple(all_pairs(n)))


def interconnection_space(partition: GroupPartition) -> SearchSpace:
    """Intra-group cliques pinned present; only cross-group pairs vary."""
    return SearchSpace(kind=SpaceKind.INTERCONNECTION, n=partition.n,
                       fixed_edges=frozenset(partition.intra_pairs()),
                       free_pairs=tuple(partition.cross_pairs()))


# -- scalar definitions -------------------------------------------------------

def _pair_changes(present, du_i, du_j, eps):
    """Pairwise-stability rule for one pair, given each endpoint's payoff
    change from toggling the pair: a present link is cut when one side
    strictly gains; a missing link forms when one side strictly gains and
    neither strictly loses.  Broadcasts over numpy arrays.
    """
    return ((du_i > eps) | (du_j > eps)) & (present | ((du_i >= -eps) & (du_j >= -eps)))


def _toggle(network: Network, i: int, j: int, base_i: float, base_j: float,
            weights: np.ndarray, params: ModelParams) -> tuple[Network, float, float]:
    """The network with pair (i, j) toggled, and each endpoint's payoff
    change against the given current payoffs."""
    other = network.without_edge(i, j) if network.has_edge(i, j) else network.with_edge(i, j)
    return (other, payoff(other, i, weights, params) - base_i,
            payoff(other, j, weights, params) - base_j)


def is_pairwise_stable(network: Network, weights: np.ndarray,
                       params: ModelParams) -> bool:
    """No profitable unilateral cut and no mutually agreeable missing link."""
    base = payoffs(network, weights, params)
    for i, j in all_pairs(network.n):
        _, du_i, du_j = _toggle(network, i, j, base[i], base[j], weights, params)
        if _pair_changes(network.has_edge(i, j), du_i, du_j, params.epsilon):
            return False
    return True


def defeats(candidate: Network, network: Network,
            weights: np.ndarray, params: ModelParams) -> bool:
    """One-edge-adjacent preference: ``candidate`` defeats ``network`` when
    the pair rule toggles the one pair in which they differ."""
    changed = candidate.edges ^ network.edges
    if len(changed) != 1:
        raise ValidationError("networks must differ in exactly one edge")
    (i, j), = changed
    _, du_i, du_j = _toggle(network, i, j, payoff(network, i, weights, params),
                            payoff(network, j, weights, params), weights, params)
    return bool(_pair_changes(network.has_edge(i, j), du_i, du_j, params.epsilon))


# -- vectorized space tables ---------------------------------------------------

@dataclass(frozen=True)
class SpaceTables:
    """Per-network payoff ingredients for one (space, partition, delta).

    benefit[k, v, g] sums delta**distance from node v to every node of
    group g in the k-th network of the space; degree[k, v] is v's degree.
    Payoffs for any coordination matrix and cost then follow by weighting,
    so a sweep over those reuses one table.
    """

    space: SearchSpace
    partition: GroupPartition
    delta: float
    benefit: np.ndarray  # (K, n, m) float64
    degree: np.ndarray   # (K, n) uint8


def _fixed_neighbor_masks(space: SearchSpace) -> np.ndarray:
    masks = np.zeros(space.n, dtype=np.uint32)
    for i, j in space.fixed_edges:
        masks[i] |= np.uint32(1 << j)
        masks[j] |= np.uint32(1 << i)
    return masks


def _tables_chunk(space: SearchSpace, partition: GroupPartition, delta: float,
                  start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    n, m = space.n, partition.m
    count = stop - start
    idx = np.arange(start, stop, dtype=np.int64)

    nbr = np.broadcast_to(_fixed_neighbor_masks(space), (count, n)).copy()
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


def compute_tables(space: SearchSpace, partition: GroupPartition, delta: float,
                   free_bits_cap: int = DEFAULT_FREE_BITS_CAP,
                   workers: int = 1) -> SpaceTables:
    """Build the whole-space payoff tables, chunked over the bitmask range.

    Chunks are contiguous; with workers > 1 they are computed in parallel
    processes and written back in canonical order, so the result never
    depends on the worker count.
    """
    bits = len(space.free_pairs)
    if bits > free_bits_cap:
        raise CapExceededError(
            f"space has {bits} free pairs (2^{bits} networks); cap is {free_bits_cap} bits")
    if space.n > 32:
        raise CapExceededError("table BFS packs node sets into 32-bit lanes; n <= 32")
    size = space.size
    benefit = np.empty((size, space.n, partition.m), dtype=np.float64)
    degree = np.empty((size, space.n), dtype=np.uint8)
    chunk = 1 << _CHUNK_BITS
    starts = list(range(0, size, chunk))
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(s, pool.submit(_tables_chunk, space, partition, delta,
                                       s, min(s + chunk, size))) for s in starts]
            for s, fut in futures:
                b, d = fut.result()
                benefit[s:s + b.shape[0]] = b
                degree[s:s + d.shape[0]] = d
    else:
        for s in starts:
            b, d = _tables_chunk(space, partition, delta, s, min(s + chunk, size))
            benefit[s:s + b.shape[0]] = b
            degree[s:s + d.shape[0]] = d
    return SpaceTables(space=space, partition=partition, delta=delta,
                       benefit=benefit, degree=degree)


@dataclass(frozen=True)
class SpaceScan:
    """Stability flags and welfare for every network in a space."""

    space: SearchSpace
    stable: np.ndarray   # (K,) bool
    welfare: np.ndarray  # (K,) float64

    def stable_masks(self) -> np.ndarray:
        return np.flatnonzero(self.stable)


def scan_space(tables: SpaceTables, society: Society) -> SpaceScan:
    """Evaluate stability and welfare of every network against one society."""
    space, partition = tables.space, tables.partition
    params = society.params
    if society.partition != partition:
        raise ValidationError("society partition does not match the tables")
    if params.delta != tables.delta:
        raise ValidationError("society delta does not match the tables")
    # Pinned intra links are exempt from per-network cut checks only because
    # cutting a clique link always costs at least shortcut_gain - cost; that
    # argument needs the cost strictly below the clique-formation bound.
    if space.fixed_edges and not below_clique_bound(params):
        raise ValidationError(
            "interconnection spaces require cost below the clique-formation bound "
            f"(cost={params.cost}, bound={shortcut_gain(tables.delta)})")

    coord = society.coordination.as_array()
    group = np.array(partition.membership)
    node_weights = coord[group]                       # (n, m): weight of each target group
    util = np.einsum("kng,ng->kn", tables.benefit, node_weights)
    util -= params.cost * tables.degree.astype(np.float64)

    size = space.size
    eps = params.epsilon
    idx = np.arange(size, dtype=np.int64)
    stable = np.ones(size, dtype=bool)
    for t, (i, j) in enumerate(space.free_pairs):
        partner = idx ^ (1 << t)
        du_i = util[partner, i] - util[:, i]
        du_j = util[partner, j] - util[:, j]
        present = (idx >> t & 1).astype(bool)
        stable &= ~_pair_changes(present, du_i, du_j, eps)
    return SpaceScan(space=space, stable=stable, welfare=util.sum(axis=1))


def _scan_for(space: SearchSpace, society: Society,
              free_bits_cap: int, workers: int) -> SpaceScan:
    tables = compute_tables(space, society.partition, society.params.delta,
                            free_bits_cap=free_bits_cap, workers=workers)
    return scan_space(tables, society)


def enumerate_stable(space: SearchSpace, society: Society,
                     free_bits_cap: int = DEFAULT_FREE_BITS_CAP,
                     workers: int = 1) -> list[Network]:
    """All pairwise stable networks of the space, in ascending bitmask order.

    Stability is judged against every node pair: free pairs by table
    lookups, pinned clique links by the cost bound that makes cutting
    them provably unprofitable.
    """
    scan = _scan_for(space, society, free_bits_cap, workers)
    return [space.network_for(int(mask)) for mask in scan.stable_masks()]


def price_of_anarchy(space: SearchSpace, society: Society,
                     free_bits_cap: int = DEFAULT_FREE_BITS_CAP,
                     workers: int = 1) -> float:
    """Best welfare anywhere in the space over worst stable welfare."""
    return poa_from_scan(_scan_for(space, society, free_bits_cap, workers))


def poa_from_scan(scan: SpaceScan) -> float:
    stable_welfare = scan.welfare[scan.stable]
    if stable_welfare.size == 0:
        raise PoAUndefinedError("no pairwise stable network in the search space")
    worst_stable = float(stable_welfare.min())
    if worst_stable <= 0.0:
        raise PoAUndefinedError(
            f"minimum stable welfare {worst_stable} is not positive; ratio undefined")
    return float(scan.welfare.max()) / worst_stable
