"""Link formation dynamics: one pair activates per period, additions need
mutual consent, removals are unilateral.

Pair activation is either uniformly random from a seeded portable generator
or replayed from an explicit script.  Runs record a full trace and detect
convergence by verifying the pairwise-stability definition outright, never
by a quiet-period heuristic alone.
"""

from __future__ import annotations

import enum
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .model import (
    Network,
    Society,
    ValidationError,
    _node_id,
    all_pairs,
    check_network_size,
    checked_pair,
    in_invariant_set,
    normalize_edge,
)
from .stability import _resolve, is_pairwise_stable
from .thresholds import RegimeKind, below_clique_bound, classify_two_group_stable


class Action(enum.Enum):
    ADDED = "Added"
    REMOVED = "Removed"
    NO_CHANGE = "NoChange"


@dataclass(frozen=True)
class SeededUniform:
    """Uniform unordered-pair draws from a Mersenne Twister stream.

    Pair t is the canonical lexicographic pair at floor(u * P) where u is
    the generator's next float in [0, 1) and P the pair count; the float
    stream of ``random.Random(seed)`` is stable across platforms and
    Python versions, so identical seeds give identical activation orders.
    """

    seed: int

    def __post_init__(self):
        # random.Random takes a negative seed's absolute value, so -3 and 3
        # would replay one stream; refuse it rather than alias it.
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValidationError(f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)

    def pairs(self, n: int) -> Iterator[tuple[int, int]]:
        if n < 2:
            raise ValidationError(f"uniform pair draws need at least 2 nodes, got {n}")
        pool = all_pairs(n)
        count = len(pool)
        rng = random.Random(self.seed)
        return (pool[min(int(rng.random() * count), count - 1)] for _ in itertools.repeat(None))


@dataclass(frozen=True)
class Scripted:
    """Replays exactly the given activation sequence, then stops.  Any
    sequence of integer pairs is stored as a tuple of (int, int) tuples."""

    sequence: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sequence = []
        for entry, pair in enumerate(self.sequence):
            try:
                i, j = pair
                sequence.append((_node_id(i), _node_id(j)))
            except ValidationError as exc:
                raise ValidationError(f"script entry {entry}: {exc}") from None
            except (TypeError, ValueError):
                raise ValidationError(f"script entry {entry}: {pair!r} is not a pair") from None
        object.__setattr__(self, "sequence", tuple(sequence))

    def pairs(self, n: int) -> Iterator[tuple[int, int]]:
        """The script's pairs, each checked, even past any step cap, before
        the first is handed out."""
        for entry, (i, j) in enumerate(self.sequence):
            try:
                checked_pair(i, j, n)
            except ValidationError as exc:
                raise ValidationError(f"script entry {entry}: {exc}") from None
        return (normalize_edge(i, j) for i, j in self.sequence)


PairSelector = SeededUniform | Scripted


@dataclass(frozen=True)
class TraceStep:
    index: int
    pair: tuple[int, int]
    action: Action
    intra_count: int
    inter_count: int


@dataclass(frozen=True)
class DynamicsTrace:
    """Period-by-period record of one run.

    ``converged`` is true only when the final network passed the full
    pairwise-stability verification.
    """

    steps: tuple[TraceStep, ...]
    final: Network
    converged: bool

    CSV_HEADER = "step,i,j,action,intra_count,inter_count"

    @property
    def steps_to_convergence(self) -> Optional[int]:
        """The last period whose activation changed the network (0 when none
        did), or None when the run did not converge."""
        if not self.converged:
            return None
        return next((s.index for s in reversed(self.steps)
                     if s.action is not Action.NO_CHANGE), 0)

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for s in self.steps:
            lines.append(f"{s.index},{s.pair[0]},{s.pair[1]},{s.action.value},"
                         f"{s.intra_count},{s.inter_count}")
        return "\n".join(lines) + "\n"


def step(network: Network, pair: tuple[int, int], society: Society, *,
         memo: Optional[dict[int, tuple[float, tuple[int, ...]]]] = None,
         ) -> tuple[Network, Action]:
    """Resolve one activated pair against the current network.

    A missing link is added when one side strictly gains and the other at
    worst stays indifferent; it is refused when either side strictly loses
    or both are indifferent.  An existing link is cut as soon as one side
    strictly gains from cutting it.

    ``memo`` maps each node to ``(payoff, balls)`` in ``network``: its
    payoff, and its cumulative BFS balls, where ``balls[k]`` is the bitmask
    of nodes within k hops of it (`model._balls`).  An endpoint missing from
    it is filled by one BFS.  A caller that keeps one memo while the network
    stays the same, and empties it when the network changes, skips that BFS;
    the balls also decide a missing link with no BFS on the network with
    the link.
    """
    i, j = checked_pair(*pair, network.n)
    resolved = _resolve(network, i, j, society, {} if memo is None else memo)
    if resolved is network:
        return network, Action.NO_CHANGE
    return resolved, Action.ADDED if resolved.has_edge(i, j) else Action.REMOVED


def run(start: Network, selector: PairSelector, society: Society,
        max_steps: int) -> DynamicsTrace:
    """Drive the dynamics from ``start`` until stable, script end, or the cap.

    The full stability verification runs after as many consecutive
    unchanged periods as there are node pairs, and once more when the run
    stops for any other reason.
    """
    try:
        max_steps = operator.index(max_steps)
    except TypeError:
        raise ValidationError(f"max_steps must be an integer, got {max_steps!r}") from None
    if max_steps < 1:
        raise ValidationError("max_steps must be at least 1")
    check_network_size(start, society)
    partition = society.partition
    window = start.n * (start.n - 1) // 2  # one quiet period per node pair

    network = start
    intra = network.intra_count(partition)
    inter = network.edge_count - intra
    steps: list[TraceStep] = []
    quiet = 0
    memo: dict = {}  # (payoff, balls) in the current network, by node

    for period, pair in zip(range(1, max_steps + 1), selector.pairs(start.n)):
        network, action = step(network, pair, society, memo=memo)
        if action is Action.NO_CHANGE:
            quiet += 1
        else:
            memo.clear()
            quiet = 0
            delta = 1 if action is Action.ADDED else -1
            if partition.membership[pair[0]] != partition.membership[pair[1]]:
                inter += delta
            else:
                intra += delta
        steps.append(TraceStep(period, pair, action, intra, inter))
        if quiet >= window:
            if is_pairwise_stable(network, society):
                converged = True
                break
            quiet = 0  # verified unstable; wait for another quiet stretch
    else:
        converged = is_pairwise_stable(network, society)
    return DynamicsTrace(steps=tuple(steps), final=network, converged=converged)


def _no_cross_incentive_bounds(society: Society) -> bool:
    """True when every cross weight sits strictly below the first-link bound,
    so every pair of groups is in the disjoint regime."""
    params = society.params
    if not below_clique_bound(params):
        return False
    sizes = society.partition.sizes
    coord = society.coordination
    return all(classify_two_group_stable(sizes[a], sizes[b], params, coord[a, b]).kind
               is RegimeKind.DISJOINT
               for a in range(len(sizes)) for b in range(a + 1, len(sizes)))


def in_invariant_set_run(start: Network, selector: PairSelector, society: Society,
                         max_steps: int) -> DynamicsTrace:
    """Run from a state with no cross-group links, checking it stays that way.

    When every cross weight is strictly below the first-link bound (and the
    cost permits cliques), no visited network may hold a cross link before
    all groups complete their cliques; a violation means the engine and the
    closed-form bounds disagree, so it raises rather than returning.
    """
    partition = society.partition
    if not in_invariant_set(start, partition):
        raise ValidationError("start network must hold no cross-group links")
    trace = run(start, selector, society, max_steps)
    if _no_cross_incentive_bounds(society):
        full_intra = len(partition.intra_pairs())
        for s in trace.steps:
            if s.intra_count < full_intra and s.inter_count != 0:
                raise RuntimeError(
                    f"period {s.index}: cross link appeared below the first-link bound "
                    f"(intra {s.intra_count}/{full_intra})")
    return trace
