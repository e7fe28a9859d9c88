"""Pairwise stability, defeat, exhaustive stable-set enumeration, and the
price of anarchy.

A network is pairwise stable when no linked pair contains a member who
strictly gains by cutting the link, and no unlinked pair would form it
under mutual consent (one strict gain with the other at worst indifferent).
Strictness is judged against `model.EPSILON`, so the check is the exact
fixed-point condition of the formation dynamics.

The scalar check (`_resolve`) settles most pairs from part of the rule:
a present link below its link bound (`thresholds.below_link_bound`) is
kept with no search, since no endpoint gains from cutting it, and a missing
link is refused as soon as its first endpoint strictly loses, since
formation needs both endpoints' consent.  Both exits change no decision.

Enumeration walks a declared search space as a bitmask range.  Payoff
tables for the whole space are built once with vectorized batched BFS,
after which each network's stability reduces to table lookups at the
single-bit-toggled neighbor masks.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .model import (
    EPSILON,
    GroupPartition,
    Network,
    Society,
    ValidationError,
    _added_balls,
    _balls,
    _level_sum,
    all_pairs,
    payoff,
)
from .thresholds import below_clique_bound, below_link_bound, shortcut_gain

FREE_BITS_CAP = 22
_CHUNK_BITS = 16


class CapExceededError(RuntimeError):
    """Raised instead of silently truncating an oversized search space."""


class PoAUndefinedError(ValueError):
    """No stable network, or a non-positive minimum stable welfare."""


@dataclass(frozen=True)
class SearchSpace:
    """A family of networks indexed by bitmasks over the free pair list.

    The full space frees every pair; the interconnection space pins every
    intra-group pair present and frees only cross-group pairs.
    """

    kind: str  # "full" or "interconnection", as reports print it
    n: int
    fixed_edges: frozenset[tuple[int, int]]
    free_pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return 1 << len(self.free_pairs)

    @cached_property
    def _pinned_masks(self) -> tuple[int, ...]:
        return Network(self.n, self.fixed_edges).neighbor_masks

    def cross_bits(self, partition: GroupPartition) -> int:
        """Bitmask of the free pairs that join two groups of ``partition``."""
        group = partition.membership
        return sum(1 << t for t, (i, j) in enumerate(self.free_pairs) if group[i] != group[j])

    def network_for(self, free_mask: int) -> Network:
        masks = list(self._pinned_masks)
        for t, (i, j) in enumerate(self.free_pairs):
            if free_mask >> t & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        return Network._from_masks(tuple(masks))


def full_graph_space(n: int) -> SearchSpace:
    """Every edge set on n nodes (2^C(n,2) networks); the free-pair cap of
    `compute_tables` admits n <= 7."""
    return SearchSpace(kind="full", n=n, fixed_edges=frozenset(),
                       free_pairs=tuple(all_pairs(n)))


def interconnection_space(partition: GroupPartition) -> SearchSpace:
    """Intra-group cliques pinned present; only cross-group pairs vary."""
    return SearchSpace(kind="interconnection", n=partition.n,
                       fixed_edges=frozenset(partition.intra_pairs()),
                       free_pairs=tuple(partition.cross_pairs()))


# -- scalar definitions -------------------------------------------------------

def _pair_changes(present, du_i, du_j):
    """Pairwise-stability rule for one pair, given each endpoint's payoff
    change from toggling the pair: a present link is cut when one side
    strictly gains; a missing link forms when one side strictly gains and
    neither strictly loses.  Broadcasts over numpy arrays.
    """
    return (((du_i > EPSILON) | (du_j > EPSILON))
            & (present | ((du_i >= -EPSILON) & (du_j >= -EPSILON))))


def _resolve(network: Network, i: int, j: int, society: Society,
             memo: dict[int, tuple[float, tuple[int, ...]]]) -> Network:
    """The network after pair (i, j), i < j, is activated: toggled when the
    pair rule changes it, ``network`` itself otherwise.

    A present link below its link bound (`thresholds.below_link_bound`) is
    kept with no search at all: the cut would cost each endpoint more
    benefit than the link cost it saves.  ``memo`` maps nodes to their payoff and BFS balls
    (`model._balls`) in ``network``; an endpoint missing from it is filled
    by one BFS, its payoff read off the balls by `model._level_sum` as
    `payoff` does.  Any other present link's endpoints are re-evaluated on
    the network without it.  A missing link's are read off the merged balls
    (`model._added_balls`), which equal a BFS's on the network with the
    link; when i strictly loses, the link is refused before j's change is
    computed, since the consent rule then refuses it whatever j gains.
    """
    n = network.n
    if not 0 <= i < j < n:
        raise ValidationError(f"edge ({i}, {j}) invalid for n={n}")
    if n != society.n:
        raise ValidationError(f"network has {n} nodes, the society has {society.n}")
    masks = network.neighbor_masks
    present = masks[i] >> j & 1
    if present:
        group = society.partition.membership
        if below_link_bound(society.params, society.coordination[group[i], group[j]]):
            return network
    for node in (i, j):
        if node not in memo:
            balls = _balls(masks, node)
            memo[node] = _level_sum(balls, node, society), balls
    (u_i, balls_i), (u_j, balls_j) = memo[i], memo[j]
    if present:
        toggled = network._toggled(i, j)
        du_i = payoff(toggled, i, society) - u_i
        du_j = payoff(toggled, j, society) - u_j
        return toggled if _pair_changes(True, du_i, du_j) else network
    du_i = _level_sum(_added_balls(balls_i, balls_j), i, society) - u_i
    if not _pair_changes(False, du_i, math.inf):
        return network
    du_j = _level_sum(_added_balls(balls_j, balls_i), j, society) - u_j
    return network._toggled(i, j) if _pair_changes(False, du_i, du_j) else network


def is_pairwise_stable(network: Network, society: Society) -> bool:
    """No profitable unilateral cut and no mutually agreeable missing link."""
    if network.n != society.n:
        raise ValidationError(f"network has {network.n} nodes, the society has {society.n}")
    memo: dict[int, tuple[float, tuple[int, ...]]] = {}
    return all(_resolve(network, i, j, society, memo) is network
               for i, j in all_pairs(network.n))


def defeats(candidate: Network, network: Network, society: Society) -> bool:
    """One-edge-adjacent preference: ``candidate`` defeats ``network`` when
    the pair rule toggles the one pair in which they differ."""
    if candidate.n != network.n:
        raise ValidationError(f"candidate has {candidate.n} nodes, the network has {network.n}")
    changed = candidate.edges ^ network.edges
    if len(changed) != 1:
        raise ValidationError("networks must differ in exactly one edge")
    (i, j), = changed
    return _resolve(network, i, j, society, {}) is not network


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


def _tables_chunk(space: SearchSpace, partition: GroupPartition, delta: float,
                  start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Benefit and degree rows for networks ``start`` to ``stop`` of the space.

    Lanes are node-major: ``nbr[v]`` holds node v's neighbor mask in every
    network of the chunk, contiguously, and the batched BFS works in place
    on whole lanes.  A lane is the narrowest unsigned type that holds n
    bits (uint8 up to 8 nodes, uint16 up to 16, uint32 up to 32), and every
    width runs the same in-place passes.  Each benefit entry adds
    ``discount * counts`` level by level, the terms and order of the scalar
    `model.payoff`.
    """
    n, m = space.n, partition.m
    count = stop - start
    lane_t = np.min_scalar_type((1 << n) - 1)
    idx = np.arange(start, stop, dtype=np.uint32)
    lane = np.empty(count, dtype=lane_t)  # scratch for one lane-wide term

    nbr = np.empty((n, count), dtype=lane_t)
    nbr[:] = np.array(space._pinned_masks, dtype=lane_t)[:, None]
    bit32 = np.empty(count, dtype=np.uint32)
    bit = np.empty(count, dtype=lane_t)
    for t, (i, j) in enumerate(space.free_pairs):
        np.bitwise_and(np.right_shift(idx, t, out=bit32), 1, out=bit, casting="unsafe")
        nbr[i] |= np.left_shift(bit, j, out=lane)
        nbr[j] |= np.left_shift(bit, i, out=lane)

    degree = np.bitwise_count(nbr)
    benefit = np.zeros((n, m, count), dtype=np.float64)
    group_bits = np.array(partition.group_bits, dtype=lane_t)
    unvisited, frontier, newly, reached = (np.empty(count, dtype=lane_t) for _ in range(4))
    counts = np.empty(count, dtype=np.uint8)
    term = np.empty(count, dtype=np.float64)

    for source in range(n):
        unvisited.fill(np.iinfo(lane_t).max ^ (1 << source))
        frontier.fill(1 << source)
        discount = 1.0
        for _ in range(n - 1):
            discount *= delta
            reached.fill(0)
            on_frontier = int(np.bitwise_or.reduce(frontier))
            for v in range(n):
                if not on_frontier >> v & 1:  # v is on no network's frontier
                    continue
                # all-ones where v is on the frontier, so the AND keeps nbr[v]
                np.negative(np.bitwise_and(np.right_shift(frontier, v, out=lane), 1, out=lane),
                            out=lane)
                reached |= np.bitwise_and(lane, nbr[v], out=lane)
            np.bitwise_and(reached, unvisited, out=newly)
            if not newly.any():
                break
            for g, bits in enumerate(group_bits):
                np.bitwise_count(np.bitwise_and(newly, bits, out=lane), out=counts)
                benefit[source, g] += np.multiply(counts, discount, out=term)
            unvisited ^= newly
            frontier, newly = newly, frontier
    return benefit.transpose(2, 0, 1), degree.T


def compute_tables(space: SearchSpace, partition: GroupPartition, delta: float,
                   workers: int = 1) -> SpaceTables:
    """Build the whole-space payoff tables, chunked over the bitmask range.

    Chunks are contiguous; with workers > 1 they are computed in parallel
    processes and written back in canonical order, so the result never
    depends on the worker count.
    """
    if space.n != partition.n:
        raise ValidationError(f"search space has {space.n} nodes, "
                              f"the partition has {partition.n}")
    bits = len(space.free_pairs)
    if bits > FREE_BITS_CAP:
        raise CapExceededError(f"space has {bits} free pairs (2^{bits} networks); "
                               f"cap is {FREE_BITS_CAP} bits")
    if space.n > 32:
        raise CapExceededError("table BFS packs each node set into one lane "
                               "of at most 32 bits; n <= 32")
    size = space.size
    benefit = np.empty((size, space.n, partition.m), dtype=np.float64)
    degree = np.empty((size, space.n), dtype=np.uint8)
    chunk = 1 << _CHUNK_BITS
    starts = range(0, size, chunk)
    stops = [min(start + chunk, size) for start in starts]
    build = partial(_tables_chunk, space, partition, delta)
    with ExitStack() as stack:
        mapper = map
        if workers > 1 and len(starts) > 1:
            # imported only here: multiprocessing adds ~25 ms to every start
            from concurrent.futures import ProcessPoolExecutor
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for start, stop, (b, d) in zip(starts, stops, mapper(build, starts, stops)):
            benefit[start:stop] = b
            degree[start:stop] = d
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


def _utilities(tables: SpaceTables, society: Society,
               start: int = 0, stop: int | None = None) -> np.ndarray:
    """util[k - start, v]: node v's payoff in the k-th network of the tables,
    for networks ``start`` to ``stop`` (all by default).  The scalar
    `model.payoff` adds the same terms in the same order."""
    coord = society.coordination.as_array()
    node_weights = coord[np.array(tables.partition.membership)]  # (n, m)
    util = np.einsum("kng,ng->kn", tables.benefit[start:stop], node_weights)
    util -= society.params.cost * tables.degree[start:stop].astype(np.float64)
    return util


def _scan_pair(u_i: np.ndarray, u_j: np.ndarray, stable: np.ndarray, t: int) -> None:
    """Clear ``stable`` where the pair rule toggles free pair t, given its
    endpoints' utilities over the same run of networks as ``stable``."""
    # Network k and its partner k ^ (1 << t) sit at [:, 0] and [:, 1] of
    # these views: the pair is absent on side 0 and present on side 1.
    shape = (stable.size >> (t + 1), 2, 1 << t)
    u_i, u_j = u_i.reshape(shape), u_j.reshape(shape)
    side = stable.reshape(shape)
    d_i = u_i[:, 1] - u_i[:, 0]
    d_j = u_j[:, 1] - u_j[:, 0]
    side[:, 0] &= ~_pair_changes(False, d_i, d_j)
    # the cut side's change is exactly -d: fl(a - b) == -fl(b - a)
    side[:, 1] &= ~_pair_changes(True, np.negative(d_i, out=d_i),
                                 np.negative(d_j, out=d_j))


def scan_space(tables: SpaceTables, society: Society) -> SpaceScan:
    """Evaluate stability and welfare of every network against one society.

    Works through the space in chunks of ``1 << _CHUNK_BITS`` networks.
    Besides the tables it holds ``welfare``, ``stable``, one chunk's
    utilities, and whole-space utility columns only for the endpoints of
    free pairs whose bit lies above the chunk.
    """
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

    size = space.size
    chunk = min(1 << _CHUNK_BITS, size)
    low = chunk.bit_length() - 1
    # A pair below bit `low` has both partner networks in every chunk; a
    # higher pair's partners lie in different chunks, so its endpoints keep
    # whole-space columns and it is scanned after the loop.
    high_pairs = list(enumerate(space.free_pairs))[low:]
    high = {v: np.empty(size, dtype=np.float64)
            for v in {v for _, pair in high_pairs for v in pair}}
    welfare = np.empty(size, dtype=np.float64)
    stable = np.ones(size, dtype=bool)
    for start in range(0, size, chunk):
        stop = start + chunk
        util = _utilities(tables, society, start, stop)
        util.sum(axis=1, out=welfare[start:stop])
        # node-major, so each pair reads two contiguous columns
        cols = np.ascontiguousarray(util.T)
        del util
        for t, (i, j) in enumerate(space.free_pairs[:low]):
            _scan_pair(cols[i], cols[j], stable[start:stop], t)
        for v, column in high.items():
            column[start:stop] = cols[v]
    for t, (i, j) in high_pairs:
        _scan_pair(high[i], high[j], stable, t)
    return SpaceScan(space=space, stable=stable, welfare=welfare)


def _scan_for(space: SearchSpace, society: Society) -> SpaceScan:
    return scan_space(compute_tables(space, society.partition, society.params.delta),
                      society)


def enumerate_stable(space: SearchSpace, society: Society) -> list[Network]:
    """All pairwise stable networks of the space, in ascending bitmask order.

    Stability is judged against every node pair: free pairs by table
    lookups, pinned clique links by the cost bound that makes cutting
    them provably unprofitable.
    """
    scan = _scan_for(space, society)
    return [space.network_for(int(mask)) for mask in scan.stable_masks()]


def price_of_anarchy(space: SearchSpace, society: Society) -> float:
    """Best welfare anywhere in the space over worst stable welfare."""
    return poa_from_scan(_scan_for(space, society))


def poa_from_scan(scan: SpaceScan) -> float:
    stable_welfare = scan.welfare[scan.stable]
    if stable_welfare.size == 0:
        raise PoAUndefinedError("no pairwise stable network in the search space")
    worst_stable = float(stable_welfare.min())
    if worst_stable <= 0.0:
        raise PoAUndefinedError(
            f"minimum stable welfare {worst_stable} is not positive; ratio undefined")
    return float(scan.welfare.max()) / worst_stable
