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
single-bit-toggled neighbor masks.  `compute_tables` remembers its last
table and each table its last scan, so stable, efficient and poa on one
society in one process build and scan once.

Two-group sweeps over the cross weight F12 scan one table many times.  For
a fixed table and cost every payoff change is affine in F12, so each
network is stable on one F12 interval, and every welfare is a line in
F12.  A scan whose table remembers a scan at the same cost is the second
at that cost: it builds the intervals (`_stability_intervals`) and the
welfare lines (`_welfare_lines`).  From then on `scan_space` reads every
network's flag off its interval, unless some network has a NaN end or an
end within 1e-6 of the scanned F12: then the whole scan is the per-pair
scan.  On such a line row the lines pick the few networks that can hold
the best welfare, the networks within EPSILON of it and the least stable
welfare, and the utility kernel runs on those alone; the whole welfare
vector is computed only when read.  On the checked-in sweep 4 of its 201
rows are per pair and 197 are line rows.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    EPSILON,
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    _added_balls,
    _balls,
    _level_sum,
    all_pairs,
    check_network_size,
    payoff,
)
from .thresholds import _require_low_cost, below_clique_bound, below_link_bound, shortcut_gain

FREE_BITS_CAP = 22
_CHUNK_BITS = 16
# F12 stability intervals: a scan with any interval end within _MARGIN of
# its F12 is the per-pair scan.  _DOMAIN, which holds every weight in [0, 1]
# with room to spare, seeds every interval and bounds the flat-change test;
# the pair ends that narrow an interval are not clipped to it.
_MARGIN = 1e-6
_DOMAIN = (-0.25, 1.25)
# networks per block of the utility kernel and the interval build
_BLOCK = 1 << 12


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

    The rule is monotone in each change: raising ``du_i`` or ``du_j`` never
    turns a change into no change.  The F12 interval build rests on that.
    """
    return (((du_i > EPSILON) | (du_j > EPSILON))
            & (present | ((du_i >= -EPSILON) & (du_j >= -EPSILON))))


def _resolve(network: Network, i: int, j: int, society: Society,
             memo: dict[int, tuple[float | None, tuple[int, ...]]]) -> Network:
    """The network after pair (i, j), in range with i < j (as
    `model.checked_pair` returns it), is activated: toggled when the pair
    rule changes it, ``network`` itself otherwise.

    A present link below its link bound (`thresholds.below_link_bound`) is
    kept with no search at all: the cut would cost each endpoint more
    benefit than the link cost it saves.  ``memo`` maps nodes to their
    payoff and BFS balls (`model._balls`) in ``network``, the payoff None
    until first read; an endpoint missing from it is filled by one BFS, and
    a payoff is read off the balls by `model._level_sum` as `payoff` does.
    Any other present link's endpoints are re-evaluated on the network
    without it.  A missing link's are read off the merged balls
    (`model._added_balls`), which equal a BFS's on the network with the
    link; when i strictly loses, the link is refused before j's change is
    computed, since the consent rule then refuses it whatever j gains.

    On return ``memo`` describes the returned network.  An add gives every
    remembered node its merged balls, with its payoff unread, and i and j
    the payoffs just computed; a cut keeps only the nodes at equal hop
    counts from i and j (`_carry_memo`).
    """
    check_network_size(network, society)
    masks = network.neighbor_masks
    present = masks[i] >> j & 1
    if present:
        group = society.partition.membership
        if below_link_bound(society.params, society.coordination[group[i], group[j]]):
            return network
    for node in (i, j):
        if node not in memo:
            memo[node] = None, _balls(masks, node)
    u_i = _memo_payoff(memo, i, society)
    if present:
        toggled = network._toggled(i, j)
        du_i = payoff(toggled, i, society) - u_i
        du_j = payoff(toggled, j, society) - _memo_payoff(memo, j, society)
        if not _pair_changes(True, du_i, du_j):
            return network
        _carry_memo(memo, i, j, added=False)
        return toggled
    balls_i, balls_j = memo[i][1], memo[j][1]
    added_i = _added_balls(balls_i, balls_j)
    new_i = _level_sum(added_i, i, society)
    if not _pair_changes(False, new_i - u_i, math.inf):
        return network
    added_j = _added_balls(balls_j, balls_i)
    new_j = _level_sum(added_j, j, society)
    if not _pair_changes(False, new_i - u_i, new_j - _memo_payoff(memo, j, society)):
        return network
    _carry_memo(memo, i, j, added=True)
    memo[i], memo[j] = (new_i, added_i), (new_j, added_j)
    return network._toggled(i, j)


def _memo_payoff(memo: dict, node: int, society: Society) -> float:
    """A remembered node's payoff, read off its balls on first use."""
    u, balls = memo[node]
    if u is None:
        u = _level_sum(balls, node, society)
        memo[node] = u, balls
    return u


def _carry_memo(memo: dict, i: int, j: int, added: bool) -> None:
    """Move a `_resolve` memo that holds i and j from a network to the one
    with the pair (i, j) toggled, keeping every entry that stays exact.

    On an add, every remembered node v at ``near`` hops from one end and at
    least near + 2 from the other, or unreachable from it, gets the merged
    balls of `model._added_balls`, its payoff unread; i and j are such
    nodes, and the link shortens no path from any other node.  On a cut,
    only the nodes at equal hop counts from i and j stay, unreachable ones
    included: no shortest path from them runs through the link.
    """
    balls_i, balls_j = memo[i][1], memo[j][1]
    if added:
        for near_balls, far_balls in ((balls_i, balls_j), (balls_j, balls_i)):
            last = len(far_balls) - 1
            previous = 0
            for near, ball in enumerate(near_balls):
                moved = ball & ~previous & ~far_balls[min(near + 1, last)]
                previous = ball
                while moved:
                    bit = moved & -moved
                    moved ^= bit
                    v = bit.bit_length() - 1
                    if v in memo:
                        memo[v] = None, _added_balls(memo[v][1], far_balls, near)
        return
    kept = ~balls_i[-1]  # i and j share one component; the rest keep their balls
    previous_i = previous_j = 0
    for ball_i, ball_j in zip(balls_i, balls_j):
        kept |= (ball_i & ~previous_i) & (ball_j & ~previous_j)
        previous_i, previous_j = ball_i, ball_j
    for v in [v for v in memo if not kept >> v & 1]:
        del memo[v]


def is_pairwise_stable(network: Network, society: Society, *,
                       memo: dict | None = None,
                       settled: Collection[tuple[int, int]] = frozenset()) -> bool:
    """No profitable unilateral cut and no mutually agreeable missing link.

    A caller that has already decided some pairs (i < j) of ``network``
    unchanged passes them as ``settled``, and they are not decided again.
    ``memo`` is a `_resolve` memo of ``network`` to read and fill, as a
    dynamics run keeps one; a pair found to change would carry it to
    another network, so it is emptied before False is returned.
    """
    check_network_size(network, society)
    memo = {} if memo is None else memo
    for i, j in all_pairs(network.n):
        if (i, j) not in settled and _resolve(network, i, j, society, memo) is not network:
            memo.clear()
            return False
    return True


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


def minimally_connected_sufficient(tree: Network, coordination: CoordinationMatrix,
                                   partition: GroupPartition, params: ModelParams) -> bool:
    """Whether cliques joined by single bridges along a group graph are
    pairwise stable: ``tree`` is a `Network` whose nodes are the group ids.

    The network is every intra-group pair plus, per edge of ``tree``, one
    bridge between the lowest-indexed members of its two groups; the verdict
    is `is_pairwise_stable` of it, every member pair included.
    """
    _require_low_cost(params)
    if coordination.m != partition.m or tree.n != partition.m:
        raise ValidationError("group graph, coordination matrix, and partition disagree")
    if not tree.is_connected():
        raise ValidationError("group graph must be connected")
    lowest = [partition.membership.index(g) for g in range(partition.m)]
    network = Network.disjoint_cliques(partition)
    for a, b in tree.edges:
        network = network.with_edge(lowest[a], lowest[b])
    return is_pairwise_stable(network, Society(partition, coordination, params))


# -- vectorized space tables ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpaceTables:
    """Per-network payoff ingredients for one (space, partition, delta).

    benefit[k, v, g] sums delta**distance from node v to every node of
    group g in the k-th network of the space; degree[k, v] is v's degree.
    Payoffs for any coordination matrix and cost then follow by weighting,
    so a sweep over those reuses one table.  Tables compare and hash by
    identity, and ``benefit`` and ``degree`` are read-only: `compute_tables`
    hands the same table to every caller with equal arguments.  ``_scan``
    remembers the last scan (`scan_space`) and the society it was made for.

    For two groups, ``_intervals`` holds each network's F12 stability
    interval and welfare line at one cost (`_AtCost`): four float64 per
    network, which `scan_space` reads on every scan at that cost.  They are
    built on the second scan at a cost: `scan_space` reads the cost of the
    scan in ``_scan`` before it replaces that scan.  The intervals settle a
    scan whole or not at all: one NaN end, or one end within `_MARGIN` of
    F12, makes the scan the per-pair scan.  Their build first fills
    ``_columns`` (`_cache_columns`): node-major copies of ``benefit`` and
    ``degree``, which hold for every cost and which every later scan reads.
    """

    space: SearchSpace
    partition: GroupPartition
    delta: float
    benefit: np.ndarray  # (K, n, m) float64
    degree: np.ndarray   # (K, n) uint8
    # cost -> its `_AtCost`, built ones only; one cost at a time
    _intervals: dict = field(default_factory=dict, init=False, repr=False)
    # "benefit": (n, m, K) float64, "degree": (n, K) uint8; set by the interval build
    _columns: dict = field(default_factory=dict, init=False, repr=False)
    # society -> its SpaceScan; one society at a time
    _scan: dict = field(default_factory=dict, init=False, repr=False)

    def _arrays(self) -> SpaceTables:
        """A table with these arrays and node-major copy but no memos: what a
        line scan keeps to compute its welfare later, so that a table and
        its last scan hold no reference cycle and a dropped table is freed
        at once."""
        arrays = SpaceTables(self.space, self.partition, self.delta, self.benefit, self.degree)
        arrays._columns.update(self._columns)
        return arrays


class _AtCost(NamedTuple):
    """A two-group table's F12 answers at one cost: each network is stable
    for F12 in ``[lo, hi]`` (`_stability_intervals`), and its welfare at
    F12 = x is ``base + slope * x`` to within `_line_radius`
    (`_welfare_lines`)."""

    lo: np.ndarray
    hi: np.ndarray
    base: np.ndarray
    slope: np.ndarray


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


# (space, partition, delta, workers) -> SpaceTables; the last table built
_last_tables: dict = {}


def compute_tables(space: SearchSpace, partition: GroupPartition, delta: float,
                   workers: int = 1) -> SpaceTables:
    """Build the whole-space payoff tables, chunked over the bitmask range.

    Chunks are contiguous; with workers > 1 they are computed in parallel
    processes and written back in canonical order, so the result never
    depends on the worker count.

    The last table is remembered: a call whose four arguments equal the
    last call's returns the same `SpaceTables`, so stable, efficient and
    poa on one society in one process build it once.  Any other call drops
    it before building, so at most one table is alive.  The worker count
    is part of the key, so a workers=2 build is a build, never the
    workers=1 table again.
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
    key = (space, partition, delta, workers)
    if key in _last_tables:
        return _last_tables[key]
    _last_tables.clear()  # free the old table before building the next
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
    benefit.flags.writeable = degree.flags.writeable = False
    tables = _last_tables[key] = SpaceTables(space=space, partition=partition, delta=delta,
                                             benefit=benefit, degree=degree)
    return tables


@dataclass(frozen=True, eq=False)
class SpaceScan:
    """Stability flags and welfare for every network in a space, and the
    answers every report reads: ``best``, ``argmax_masks()`` and
    ``stable_min``.  Scans compare and hash by identity.

    ``welfare_of`` gives the utility kernel's welfare of the networks at a
    slice or an index array of rows.  ``welfare`` is computed through it on
    first read, and ``welfare[k] == welfare_of(rows)[r]`` bitwise for
    ``rows[r] == k``.  A line row of a sweep (`scan_space`) names the rows
    that can hold each answer: ``top`` those that may lie within EPSILON of
    the best welfare, ``low`` the stable ones that may hold the least stable
    welfare.  The answers then read only those rows, and equal a whole
    scan's.  None, the default, means every row (every stable row for
    ``low``).
    """

    space: SearchSpace
    stable: np.ndarray  # (K,) bool
    welfare_of: Callable[[slice | np.ndarray], np.ndarray] = field(repr=False)
    top: np.ndarray | None = field(default=None, repr=False)
    low: np.ndarray | None = field(default=None, repr=False)

    def stable_masks(self) -> np.ndarray:
        return np.flatnonzero(self.stable)

    @cached_property
    def welfare(self) -> np.ndarray:
        """(K,) float64, read-only: every network's welfare."""
        welfare = self.welfare_of(slice(None))
        welfare.flags.writeable = False
        return welfare

    @cached_property
    def _top_welfare(self) -> np.ndarray:
        return self.welfare if self.top is None else self.welfare_of(self.top)

    @cached_property
    def best(self) -> float:
        """The highest welfare."""
        return float(self._top_welfare.max())

    def argmax_masks(self) -> np.ndarray:
        """The networks within EPSILON of ``best``, in bitmask order."""
        hits = np.flatnonzero(self._top_welfare >= self.best - EPSILON)
        return hits if self.top is None else self.top[hits]

    @cached_property
    def stable_min(self) -> float:
        """The least welfare of a stable network; NaN when none is stable."""
        stable_welfare = (self.welfare[self.stable] if self.low is None
                          else self.welfare_of(self.low))
        return float(stable_welfare.min()) if stable_welfare.size else math.nan


def _node_major(tables: SpaceTables) -> tuple[np.ndarray, np.ndarray]:
    """``(benefit, degree)`` node-major, as ``(n, m, K)`` and ``(n, K)``: the
    table's contiguous copy when it holds one (`_cache_columns`), strided
    views of ``tables.benefit`` and ``tables.degree`` otherwise."""
    if tables._columns:
        return tables._columns["benefit"], tables._columns["degree"]
    return tables.benefit.transpose(1, 2, 0), tables.degree.T


def _utilities(tables: SpaceTables, society: Society,
               rows: slice | np.ndarray = slice(None)) -> np.ndarray:
    """util[v, r]: node v's payoff in network ``rows[r]`` of the tables, for a
    contiguous slice of networks (all by default) or an index array of them,
    node-major: one contiguous column per node.

    Each column is ``benefit[v, 0, rows] * w[v, 0]``, plus the same product
    for groups 1 to m - 1 in order, minus ``cost * degree[v, rows]``, with
    v's weights ``w[v]`` for its group: the scalar `model._level_sum`'s
    doubles in its order, so the two engines agree bitwise for every m, and
    a network's column entries do not depend on the rows asked with it.
    The rows are computed ``_BLOCK`` at a time, all nodes at once, so the
    terms stay in cache; the tables are read node-major (`_node_major`), a
    slice's block as a view and an index array's block gathered.
    """
    if isinstance(rows, slice):
        rows = range(*rows.indices(len(tables.degree))[:2])
    n, cost = tables.space.n, society.params.cost
    benefit, degree = _node_major(tables)
    entries = society.coordination.entries
    weights = np.array([entries[g] for g in tables.partition.membership])  # (n, m)
    util = np.empty((n, len(rows)), dtype=np.float64)
    scratch = np.empty((n, min(_BLOCK, len(rows))), dtype=np.float64)
    for first in range(0, len(rows), _BLOCK):
        block = rows[first:first + _BLOCK]
        if isinstance(block, range):
            block = slice(block.start, block.stop)
        out = util[:, first:first + _BLOCK]
        term = scratch[:, :out.shape[1]]
        np.multiply(benefit[:, 0, block], weights[:, 0:1], out=out)
        for g in range(1, weights.shape[1]):
            out += np.multiply(benefit[:, g, block], weights[:, g:g + 1], out=term)
        out -= np.multiply(degree[:, block], cost, out=term)
    return util


def _welfare(util: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[r] = util[0, r] + ... + util[n - 1, r], network r's welfare from
    node-major ``util``, added left to right from 0.0: the order of
    `model.welfare`, so the two engines agree bitwise.  Each term is a
    node's whole column, so every add is one pass over the networks.
    """
    out.fill(0.0)
    for column in util:
        out += column
    return out


def _cache_columns(tables: SpaceTables) -> None:
    """Fill the table's ``_columns``, unless it holds them: contiguous
    node-major copies of ``benefit``, ``(n, m, K)``, and ``degree``,
    ``(n, K)``, which every later `_node_major` reads."""
    if not tables._columns:
        tables._columns.update(benefit=np.ascontiguousarray(tables.benefit.transpose(1, 2, 0)),
                               degree=np.ascontiguousarray(tables.degree.T))


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


def _pair_intervals(change_i, change_j, eta: float):
    """One free pair's half-line ends for each network of a block:
    ``(form, keep)`` arrays, the networks without the pair being left
    unchanged for F12 <= ``form`` and their partners with it for F12 >=
    ``keep``.

    ``change_i`` and ``change_j`` hold each endpoint's payoff change from
    adding the pair as ``(a, b)`` arrays, the change at F12 = x being
    ``a + b * x`` with ``b >= 0``; the cut side's change is its negation.
    An endpoint gains from the add above its gain crossing
    ``(EPSILON - a) / b`` and loses below its loss crossing
    ``(-EPSILON - a) / b``, an infinity when ``b`` is 0.  So the cut is
    refused from the later loss crossing on, ``keep``, and the add is
    refused up to ``form = max(min(gain_i, gain_j), keep)``.  Both are NaN
    (no trusted end) when a change is not sharp: its slope ``b`` is below
    ``2 * eta / _MARGIN`` and a bound lies within ``eta`` of its values on
    `_DOMAIN`.
    """
    low, high = _DOMAIN
    slope_min = 2 * eta / _MARGIN
    gains, losses, sharp = [], [], True
    for a, b in (change_i, change_j):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gains.append((EPSILON - a) / b)
            losses.append((-EPSILON - a) / b)
        for bound in (EPSILON, -EPSILON):
            # a flat change is sharp when its comparison with `bound` cannot
            # differ anywhere on the domain
            constant = (bound < a + b * low - eta) | (bound > a + b * high + eta)
            sharp = sharp & ((b >= slope_min) | ((b >= 0) & constant))
    keep = np.maximum(*losses)
    form = np.maximum(np.minimum(*gains), keep)
    form[~sharp] = keep[~sharp] = np.nan
    return form, keep


def _stability_intervals(tables: SpaceTables, society: Society) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: each network of a two-group table is pairwise stable for
    F12 in ``[lo, hi]`` at the society's cost, up to the margin below; NaN
    ends mark a network with no trusted interval.

    For node v of group g, util = B_g + x * B_h - cost * degree at F12 = x,
    with B_g its benefit from group g (weight exactly 1) and B_h from the
    other group h, so adding a pair changes each endpoint's
    payoff by ``a + b * x``.  Adding a link never lengthens a path, so
    ``b >= 0``; `_pair_changes` only grows with each endpoint's change, so
    the pair toggles a network without it on an upper half-line of x and
    one with it on a lower half-line.  Each free pair therefore gives one
    end per network (`_pair_intervals`): ``form`` lowers ``hi`` of the
    networks without it, ``keep`` raises ``lo`` of those with it.

    The margin argument.  A scanned change is the difference of two
    utilities, each at most five rounded operations on terms whose
    magnitudes sum to at most ``S = (n - 1) * (1 + cost)``: two weighted
    benefits, their sum, ``cost * degree`` and the difference
    (`_utilities`).  So it is within
    ``S * 2**-49`` of ``a + b * x``; ``eta = S * 2**-40`` leaves a factor of
    512 for the build's own rounding of ``a``, ``b`` and the crossings.  A
    sharp change has ``b >= 2 * eta / _MARGIN``, so it lies within ``eta``
    of a bound only within ``_MARGIN / 2`` of its crossing, or never on the
    domain.  The rule is monotone in each change and each change in x, so
    the float rule at x decides between the affine rule's decisions at
    ``x - _MARGIN / 2`` and ``x + _MARGIN / 2``.  Both equal
    ``lo <= x <= hi`` unless ``lo`` or ``hi`` lies within `_MARGIN` of x:
    between them every pair's end is farther than that from x, and past
    either end the pair that set it toggles the network at both points.
    When any network has such an end, or a NaN end, `scan_space` runs the
    per-pair scan over the whole table instead.
    """
    space, group = tables.space, tables.partition.membership
    cost = society.params.cost
    benefit, _ = _node_major(tables)
    eta = 2.0 ** -40 * (space.n - 1) * (1.0 + cost)
    lo = np.full(space.size, _DOMAIN[0])
    hi = np.full(space.size, _DOMAIN[1])
    # Intra-group pairs first: below the clique bound each one toggles every
    # network without it at every F12, which settles half the networks.
    pairs = sorted(enumerate(space.free_pairs), key=lambda tp: group[tp[1][0]] != group[tp[1][1]])
    for t, (i, j) in pairs:
        # Once lo > hi, or an end is NaN, further pairs change no flag: the
        # network is unstable wherever x is off its ends by the margin.  So
        # pair t skips a network whose partner is in that state too.
        live = np.flatnonzero((lo <= hi).reshape(space.size >> (t + 1), 2, 1 << t).any(axis=1))
        for first in range(0, live.size, _BLOCK):
            # the networks without pair t, and their partners with it
            r = live[first:first + _BLOCK]
            absent = (r >> t << (t + 1)) | (r & ((1 << t) - 1))
            present = absent | (1 << t)
            changes = []
            for v in (i, j):
                gain = benefit[v][:, present] - benefit[v][:, absent]  # (2, N)
                changes.append((gain[group[v]] - cost, gain[1 - group[v]]))
            form, keep = _pair_intervals(*changes, eta)
            hi[absent] = np.minimum(hi[absent], form)  # NaN propagates
            lo[present] = np.maximum(lo[present], keep)
    return lo, hi


def _welfare_lines(tables: SpaceTables, society: Society) -> tuple[np.ndarray, np.ndarray]:
    """``(base, slope)``: each network of a two-group table has welfare
    ``base + slope * x`` at F12 = x and the society's cost, to within
    `_line_radius`.  ``base`` adds each node's benefit from its own group
    less ``cost * degree``, node by node; ``slope`` adds each node's
    benefit from the other group.

    The margin argument.  Let L be the exact line, from the table's doubles,
    the cost and x.  Each of the n utilities the kernel adds is within
    ``S * 2**-49`` of its own line, ``S = (n - 1) * (1 + cost)``, as
    `_stability_intervals` shows for the changes, and the kernel adds them
    left to right from 0.0 (`_welfare`): n - 1 rounded adds of partial
    sums at most ``n * S`` in magnitude.  So the kernel's welfare is within
    ``n * S * 2**-53 * (16 + n)`` of L.  The doubles ``base`` and ``slope``
    take 2n and n - 1 rounded operations on terms of the same bound, and
    ``base + slope * x`` two more, so the line a scan evaluates is within
    ``n * S * 2**-53 * (2n + 2)`` of L.  Together that is below
    ``n * S * 2**-46`` for n <= 32, the table cap; `_line_radius`, ``r =
    n * S * 2**-44``, leaves a factor of 4 for the rounding of the
    thresholds in `_line_rows`.
    """
    group, cost = tables.partition.membership, society.params.cost
    benefit, degree = _node_major(tables)
    base, slope = np.zeros(len(tables.degree)), np.zeros(len(tables.degree))
    term = np.empty(len(tables.degree))
    for v, g in enumerate(group):
        base += np.subtract(benefit[v, g], np.multiply(degree[v], cost, out=term), out=term)
        slope += benefit[v, 1 - g]
    return base, slope


def _line_radius(n: int, cost: float) -> float:
    """``r``, the bound on |kernel welfare - evaluated line| that
    `_welfare_lines` argues."""
    return 2.0 ** -44 * n * (n - 1) * (1.0 + cost)


def _line_rows(at_cost: _AtCost, stable: np.ndarray, x: float,
               radius: float) -> tuple[np.ndarray, np.ndarray]:
    """``(top, low)`` of a line row at F12 = x (`SpaceScan`): the networks
    whose line lies within ``EPSILON + 2 * radius`` of the highest line, and
    the stable ones whose line lies within ``2 * radius`` of the least
    stable line.

    Every line is within ``radius`` of its kernel welfare.  So a network
    within EPSILON of the best welfare is within EPSILON + 2 * radius of
    the highest line, and the least stable welfare's network is within
    2 * radius of the least stable line: ``top`` holds the best welfare
    and the whole argmax set, ``low`` the least stable welfare.
    """
    line = np.multiply(at_cost.slope, x)
    line += at_cost.base
    top = np.flatnonzero(line >= line.max() - (EPSILON + 2 * radius))
    if not stable.any():
        return top, np.flatnonzero(stable)
    line[~stable] = math.inf
    return top, np.flatnonzero(line <= line.min() + 2 * radius)


def _rows_welfare(tables: SpaceTables, society: Society, rows: slice | np.ndarray) -> np.ndarray:
    """The welfare of the networks at ``rows`` (`_utilities`, `_welfare`)."""
    util = _utilities(tables, society, rows)
    return _welfare(util, np.empty(util.shape[1]))


def _interval_flags(tables: SpaceTables, society: Society) -> np.ndarray | None:
    """Stability flags at the society's F12 from the table's intervals at its
    cost, or None when they do not settle the whole scan: when the table
    holds none at that cost (`scan_space` builds them), or when any network
    has a NaN end or an end within `_MARGIN` of F12."""
    at_cost = tables._intervals.get(society.params.cost)
    if at_cost is None:
        return None
    lo, hi = at_cost.lo, at_cost.hi
    x = society.coordination[0, 1]
    # a NaN end compares False, so it fails the test as a near end does
    if not ((np.abs(lo - x) > _MARGIN) & (np.abs(hi - x) > _MARGIN)).all():
        return None
    return (lo <= x) & (x <= hi)


def scan_space(tables: SpaceTables, society: Society) -> SpaceScan:
    """Evaluate stability and welfare of every network against one society.

    A first scan is the per-pair scan.  It works through the space in
    chunks of ``1 << _CHUNK_BITS`` networks.  Each chunk's utilities come
    node-major from `_utilities`, and `_welfare` adds the node columns left
    to right from 0.0.  Besides the tables it holds ``welfare``,
    ``stable``, one chunk's utilities, and whole-space utility columns only
    for the endpoints of free pairs whose bit lies above the chunk.

    A two-group table's second scan at one cost, known as such because the
    scan the table remembers (below) was made at that cost, builds each
    network's F12 stability interval (`_stability_intervals`) and welfare
    line (`_welfare_lines`) and keeps them on the tables.  That scan and
    every later one at that cost take all the flags from the intervals when
    no network has a NaN end or an end within `_MARGIN` of F12; otherwise
    the whole scan is the per-pair scan.  Such a line row evaluates every
    line once, picks the networks that can hold its answers
    (`_line_rows`), and runs the utility kernel on those alone; its
    ``welfare`` is computed through the same kernel when first read.  The
    build first copies the table node-major (`_cache_columns`, 4.25 MB on a
    32,768-network table of 8 nodes), and from then on every scan at any
    cost reads that copy.  Either way the flags, the answers and the
    welfare are those of a first scan.

    The table remembers its last scan: for a society equal to that scan's,
    the same `SpaceScan` is returned, with its read-only ``stable`` and
    ``welfare``, and nothing is scanned.  So one society scanned twice
    never makes a second scan at its cost, nor the copy above.
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

    if society in tables._scan:
        return tables._scan[society]
    last = next(iter(tables._scan), None)  # the society of the last scan
    tables._scan.clear()  # free the old scan before making the next
    if last is None or last.params.cost != params.cost:
        tables._intervals.clear()  # a first scan at this cost: per pair
    elif partition.m == 2 and not tables._intervals:
        _cache_columns(tables)  # the second: build the F12 intervals and lines
        tables._intervals[params.cost] = _AtCost(*_stability_intervals(tables, society),
                                                 *_welfare_lines(tables, society))
    flags = _interval_flags(tables, society)
    if flags is not None:  # a line row
        flags.flags.writeable = False
        top, low = _line_rows(tables._intervals[params.cost], flags,
                              society.coordination[0, 1], _line_radius(space.n, params.cost))
        scan = tables._scan[society] = SpaceScan(
            space, flags, partial(_rows_welfare, tables._arrays(), society), top, low)
        return scan
    size = space.size
    pairs = list(enumerate(space.free_pairs))
    stable = np.ones(size, dtype=bool)
    chunk = min(1 << _CHUNK_BITS, size)
    low = chunk.bit_length() - 1
    # A pair below bit `low` has both partner networks in every chunk; a
    # higher pair's partners lie in different chunks, so its endpoints keep
    # whole-space columns and it is scanned after the loop.
    high_pairs = pairs[low:]
    high = {v: np.empty(size, dtype=np.float64)
            for v in {v for _, pair in high_pairs for v in pair}}
    welfare = np.empty(size, dtype=np.float64)
    for start in range(0, size, chunk):
        stop = start + chunk
        cols = _utilities(tables, society, slice(start, stop))
        _welfare(cols, welfare[start:stop])
        for t, (i, j) in pairs[:low]:
            _scan_pair(cols[i], cols[j], stable[start:stop], t)
        for v, column in high.items():
            column[start:stop] = cols[v]
    for t, (i, j) in high_pairs:
        _scan_pair(high[i], high[j], stable, t)
    stable.flags.writeable = welfare.flags.writeable = False
    scan = tables._scan[society] = SpaceScan(space, stable, welfare.__getitem__)
    return scan


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
    worst_stable = scan.stable_min
    if math.isnan(worst_stable):
        raise PoAUndefinedError("no pairwise stable network in the search space")
    if worst_stable <= 0.0:
        raise PoAUndefinedError(
            f"minimum stable welfare {worst_stable} is not positive; ratio undefined")
    return scan.best / worst_stable
