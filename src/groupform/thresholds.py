"""Closed-form regime bounds: the two-group regimes, and the per-pair
redundant and maximal bounds that `classify` prints for more groups.  The
multigroup clique-tree verdict is no closed form; it is
`stability.minimally_connected_sufficient`.

Three gain factors drive every bound.  For a link into a clique of size s
with one-hop benefit delta:

  clique_link_gain(s)  = delta + (s - 1) * delta**2      (first link in)
  extra_link_gain(s)   = (1 - delta) * clique_link_gain  (parallel link, fresh endpoints)
  shortcut_gain()      = delta - delta**2                (direct link to a 2-hop contact)

They satisfy 0 < shortcut < extra(s) < clique(s) for s >= 3, 0 < delta < 1.
Dividing the link cost by a gain factor turns it into a coordination-weight
bound: below cost/clique_link_gain no cross link pays; above
cost/shortcut_gain every cross link pays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .model import (
    EPSILON,
    ModelParams,
    ValidationError,
    check_weight,
    checked_delta,
    checked_sizes,
)


class RegimeUndefinedError(ValueError):
    """Raised when the link cost is too high for the closed-form regimes."""


def clique_link_gain(s: int, delta: float) -> float:
    """Benefit factor of a direct link into an s-clique reached no other way."""
    (s,), delta = checked_sizes((s,)), checked_delta(delta)
    return delta + (s - 1) * delta * delta


def extra_link_gain(s: int, delta: float) -> float:
    """Benefit factor of an additional, fresh-endpoint link into an s-clique."""
    return clique_link_gain(s, delta) * (1.0 - delta)  # checks s and delta first


def shortcut_gain(delta: float) -> float:
    """Benefit of turning one two-hop contact into a direct link."""
    delta = checked_delta(delta)
    return delta - delta * delta


def below_link_bound(params: ModelParams, weight: float) -> bool:
    """True when the link cost lies strictly below ``weight`` times the
    shortcut gain, for a link between nodes whose groups weigh each other
    by ``weight``.

    Cutting such a link moves each endpoint at least one hop further from
    the other, a benefit loss of at least ``weight * shortcut_gain``, and
    saves exactly ``cost``; every other distance only grows.  So neither
    endpoint strictly gains from the cut, and the link is kept.
    """
    return params.cost < weight * shortcut_gain(params.delta) - EPSILON


def below_clique_bound(params: ModelParams) -> bool:
    """True when the link cost lies strictly below the clique-formation bound,
    the link bound at weight 1.

    Only then does every intra-group link pay, so groups form cliques and
    cutting a clique link never pays.
    """
    return below_link_bound(params, 1.0)


def _require_low_cost(params: ModelParams) -> None:
    if not below_clique_bound(params):
        raise RegimeUndefinedError(
            f"cost {params.cost} is not below the clique-formation bound "
            f"{shortcut_gain(params.delta)}; regimes are undefined there")


class RegimeKind(enum.Enum):
    DISJOINT = "disjoint"
    BRIDGE = "bridge"
    EXACT_K = "exact_k"
    REDUNDANT = "redundant"
    MAXIMAL = "maximal"
    BOUNDARY_TIE = "boundary_tie"


@dataclass(frozen=True)
class RegimePrediction:
    """Predicted structure class with the bounds of the interval it came from.

    For ``EXACT_K``, ``k`` is the predicted cross-link count.  For
    ``BOUNDARY_TIE``, ``lower == upper`` is the tied bound and ``k`` its
    index in the bound list, which is also the fewest cross links on the
    bound's lower side.
    """

    kind: RegimeKind
    lower: float
    upper: float
    k: Optional[int] = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValidationError("regime interval bounds out of order")
        if self.kind is RegimeKind.EXACT_K and (self.k is None or self.k < 2):
            raise ValidationError("exact-k regime needs k >= 2")

    def interconnections(self, s1: int, s2: int) -> Optional[int]:
        """Predicted cross-link count, or None when the kind does not pin one."""
        if self.kind is RegimeKind.DISJOINT:
            return 0
        if self.kind is RegimeKind.BRIDGE:
            return 1
        if self.kind is RegimeKind.EXACT_K:
            return self.k
        if self.kind is RegimeKind.MAXIMAL:
            return s1 * s2
        return None


def stable_boundaries(s1: int, s2: int, params: ModelParams) -> list[float]:
    """Ascending coordination-weight bounds between stable-count regimes.

    Entry 0 separates disjoint from bridged; entry k separates k from k+1
    cross links; the last entry separates exact-k from fully linked.  The
    max over both group sizes in each bound evaluates at min(s1, s2) since
    the gain factors increase with s.
    """
    _require_low_cost(params)
    s = min(checked_sizes((s1, s2)))
    c, delta = params.cost, params.delta
    drop = delta * shortcut_gain(delta)  # per-existing-link reduction of the extra gain
    bounds = [c / clique_link_gain(s, delta)]
    for k in range(2, s + 1):
        bounds.append(c / (extra_link_gain(s, delta) - (k - 2) * drop))
    bounds.append(c / shortcut_gain(delta))
    return bounds


def efficient_boundaries(s1: int, s2: int, params: ModelParams) -> list[float]:
    """Ascending bounds between efficient-structure regimes (three values);
    `clique_link_gain` checks both sizes."""
    _require_low_cost(params)
    c, delta = params.cost, params.delta
    y1a = clique_link_gain(s1, delta)
    y1b = clique_link_gain(s2, delta)
    bridge_lb = c * delta / (y1a * y1b)
    redundant_lb = 2.0 * c / (extra_link_gain(s1, delta) + extra_link_gain(s2, delta)
                              + (s1 + s2 - 4) * delta * shortcut_gain(delta))
    maximal_lb = c / shortcut_gain(delta)
    return [bridge_lb, redundant_lb, maximal_lb]


def _classify(f_cross: float, bounds: list[float],
              regimes: list[tuple[RegimeKind, Optional[int]]]) -> RegimePrediction:
    """The regime of ``f_cross`` given ascending ``bounds`` and the
    ``len(bounds) + 1`` regimes (kind, k) between them, in order.

    Exactly on a bound (within EPSILON; the first such bound wins) the
    structure is not unique, so a boundary tie is reported instead of
    picking a side.
    """
    check_weight(f_cross)
    for index, bound in enumerate(bounds):
        if abs(f_cross - bound) <= EPSILON:
            return RegimePrediction(RegimeKind.BOUNDARY_TIE, bound, bound, k=index)
    ends = [0.0, *bounds, 1.0]
    index = next((i for i, bound in enumerate(bounds) if f_cross < bound), len(bounds))
    kind, k = regimes[index]
    return RegimePrediction(kind, ends[index], ends[index + 1], k=k)


def classify_two_group_stable(s1: int, s2: int, params: ModelParams,
                              f_cross: float) -> RegimePrediction:
    """Stable-structure regime for two groups as a function of the cross weight:
    disjoint, bridge, exactly k = 2..min(s1, s2) cross links, or maximal."""
    bounds = stable_boundaries(s1, s2, params)  # refuses bad sizes before range() reads them
    exact = [(RegimeKind.EXACT_K, k) for k in range(2, min(s1, s2) + 1)]
    regimes = [(RegimeKind.DISJOINT, None), (RegimeKind.BRIDGE, None), *exact,
               (RegimeKind.MAXIMAL, None)]
    return _classify(f_cross, bounds, regimes)


def classify_two_group_efficient(s1: int, s2: int, params: ModelParams,
                                 f_cross: float) -> RegimePrediction:
    """Welfare-maximal structure regime for two groups (four closed intervals)."""
    regimes = [(RegimeKind.DISJOINT, None), (RegimeKind.BRIDGE, None),
               (RegimeKind.REDUNDANT, None), (RegimeKind.MAXIMAL, None)]
    return _classify(f_cross, efficient_boundaries(s1, s2, params), regimes)


def stability_efficiency_overlap(s1: int, s2: int, params: ModelParams,
                                 f_cross: float) -> bool:
    """True when the efficient structure is also pairwise stable.

    The overlap is a union of closed intervals whose middle piece exists
    only when delta is large relative to the group-size imbalance.
    """
    check_weight(f_cross)
    eff = efficient_boundaries(s1, s2, params)
    stab = stable_boundaries(s1, s2, params)
    n = s1 + s2
    intervals = [(0.0, eff[0]), (eff[2], 1.0)]
    if params.delta >= max(s1 - 3, s2 - 3) / (n - 3):
        intervals.append((stab[0], eff[1]))
    return any(lo - EPSILON <= f_cross <= hi + EPSILON for lo, hi in intervals)


def redundancy_bounds(s_a: int, s_b: int, params: ModelParams) -> tuple[float, float]:
    """Cross weights above which redundant, then maximal, links form and persist:
    entries 1 and -1 of `stable_boundaries`."""
    bounds = stable_boundaries(s_a, s_b, params)
    return bounds[1], bounds[-1]
