"""Link formation dynamics: one pair activates per period, additions need
mutual consent, removals are unilateral.

Pair activation is either uniformly random from a seeded portable generator
or replayed from an explicit script.  Runs record a full trace and detect
convergence by verifying the pairwise-stability definition outright, never
by a quiet-period heuristic alone.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import (
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    all_pairs,
    in_invariant_set,
    normalize_edge,
    payoff,
)
from .stability import _pair_changes, _toggle, is_pairwise_stable
from .thresholds import below_clique_bound, clique_link_gain


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

    def pairs(self, n: int) -> Iterator[tuple[int, int]]:
        pool = all_pairs(n)
        count = len(pool)
        rng = random.Random(self.seed)
        while True:
            yield pool[min(int(rng.random() * count), count - 1)]


@dataclass(frozen=True)
class Scripted:
    """Replays exactly the given activation sequence, then stops."""

    sequence: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, pairs: Sequence[tuple[int, int]]) -> "Scripted":
        return cls(tuple((int(i), int(j)) for i, j in pairs))

    def pairs(self, n: int) -> Iterator[tuple[int, int]]:
        for index, (i, j) in enumerate(self.sequence):
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValidationError(
                    f"script entry {index}: pair ({i}, {j}) out of range for n={n}")
            yield normalize_edge(i, j)


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
    pairwise-stability verification; ``steps_to_convergence`` is then the
    last period whose activation changed the network (0 when none did).
    """

    steps: tuple[TraceStep, ...]
    final: Network
    converged: bool
    steps_to_convergence: Optional[int]

    CSV_HEADER = "step,i,j,action,intra_count,inter_count"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for s in self.steps:
            lines.append(f"{s.index},{s.pair[0]},{s.pair[1]},{s.action.value},"
                         f"{s.intra_count},{s.inter_count}")
        return "\n".join(lines) + "\n"


def step(network: Network, pair: tuple[int, int], weights: np.ndarray,
         params: ModelParams) -> tuple[Network, Action]:
    """Resolve one activated pair against the current network.

    A missing link is added when one side strictly gains and the other at
    worst stays indifferent; it is refused when either side strictly loses
    or both are indifferent.  An existing link is cut as soon as one side
    strictly gains from cutting it.
    """
    i, j = normalize_edge(*pair)
    present = network.has_edge(i, j)
    toggled, du_i, du_j = _toggle(network, i, j, payoff(network, i, weights, params),
                                  payoff(network, j, weights, params), weights, params)
    if not _pair_changes(present, du_i, du_j, params.epsilon):
        return network, Action.NO_CHANGE
    return toggled, Action.REMOVED if present else Action.ADDED


def run(start: Network, selector: PairSelector, society: Society,
        max_steps: int, convergence_window: Optional[int] = None) -> DynamicsTrace:
    """Drive the dynamics from ``start`` until stable, script end, or the cap.

    The full stability verification runs after ``convergence_window``
    consecutive unchanged periods (defaulting to the pair count; 0 verifies
    every period) and once more when the run stops for any other reason.
    """
    if max_steps < 1:
        raise ValidationError("max_steps must be at least 1")
    if start.n != society.n:
        raise ValidationError("start network does not match the society size")
    partition = society.partition
    weights = society.weights
    params = society.params
    window = convergence_window
    if window is None:
        window = len(all_pairs(start.n))

    network = start
    intra = network.intra_count(partition)
    inter = network.edge_count - intra
    steps: list[TraceStep] = []
    quiet = 0
    last_change = 0
    converged = False

    activations = selector.pairs(start.n)
    for period in range(1, max_steps + 1):
        try:
            pair = next(activations)
        except StopIteration:
            break
        network, action = step(network, pair, weights, params)
        if action is not Action.NO_CHANGE:
            crossing = partition.membership[pair[0]] != partition.membership[pair[1]]
            delta = 1 if action is Action.ADDED else -1
            if crossing:
                inter += delta
            else:
                intra += delta
            quiet = 0
            last_change = period
        else:
            quiet += 1
        steps.append(TraceStep(period, pair, action, intra, inter))
        if quiet >= window:
            if is_pairwise_stable(network, weights, params):
                converged = True
                break
            quiet = 0  # verified unstable; wait for another quiet stretch

    if not converged:
        converged = is_pairwise_stable(network, weights, params)
    return DynamicsTrace(
        steps=tuple(steps),
        final=network,
        converged=converged,
        steps_to_convergence=last_change if converged else None,
    )


def _no_cross_incentive_bounds(society: Society) -> bool:
    """True when every cross weight sits strictly below the first-link bound."""
    params = society.params
    if not below_clique_bound(params):
        return False
    sizes = society.partition.sizes
    coord = society.coordination
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            bound = params.cost / clique_link_gain(min(sizes[a], sizes[b]), params.delta)
            if not coord[a, b] < bound - params.epsilon:
                return False
    return True


def in_invariant_set_run(start: Network, selector: PairSelector, society: Society,
                         max_steps: int,
                         convergence_window: Optional[int] = None) -> DynamicsTrace:
    """Run from a state with no cross-group links, checking it stays that way.

    When every cross weight is strictly below the first-link bound (and the
    cost permits cliques), no visited network may hold a cross link before
    all groups complete their cliques; a violation means the engine and the
    closed-form bounds disagree, so it raises rather than returning.
    """
    partition = society.partition
    if not in_invariant_set(start, partition):
        raise ValidationError("start network must hold no cross-group links")
    trace = run(start, selector, society, max_steps, convergence_window)
    if _no_cross_incentive_bounds(society):
        full_intra = len(partition.intra_pairs())
        for s in trace.steps:
            if s.intra_count < full_intra and s.inter_count != 0:
                raise RuntimeError(
                    f"period {s.index}: cross link appeared below the first-link bound "
                    f"(intra {s.intra_count}/{full_intra})")
    return trace
