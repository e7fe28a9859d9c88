import math

import pytest
from hypothesis import given, strategies as st

from groupform.model import (
    EPSILON,
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    ValidationError,
)
from groupform.thresholds import (
    GroupGraph,
    RegimeKind,
    RegimeUndefinedError,
    below_clique_bound,
    below_link_bound,
    classify_two_group_efficient,
    classify_two_group_stable,
    clique_link_gain,
    efficient_boundaries,
    extra_link_gain,
    minimally_connected_sufficient,
    redundancy_bounds,
    shortcut_gain,
    stability_efficiency_overlap,
    stable_boundaries,
)

PARAMS = ModelParams(0.5, 0.2)

sizes_st = st.integers(3, 12)
delta_st = st.floats(0.02, 0.98, allow_nan=False)


class TestGainFactors:
    def test_first_link_values(self):
        assert clique_link_gain(3, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert clique_link_gain(5, 0.5) == pytest.approx(1.5, abs=1e-12)

    @given(sizes_st, delta_st)
    def test_first_link_grows_with_group_size(self, s, delta):
        assert clique_link_gain(s + 1, delta) > clique_link_gain(s, delta)

    def test_extra_link_values(self):
        assert extra_link_gain(3, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert extra_link_gain(5, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_shortcut_value(self):
        assert shortcut_gain(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_shortcut_peaks_at_one_quarter(self):
        # clique formation is impossible for any cost of 1/4 or more
        peak = max(shortcut_gain(k / 1000) for k in range(1, 1000))
        assert peak <= 0.25 + 1e-12
        assert shortcut_gain(0.5) == 0.25

    @given(sizes_st, delta_st)
    def test_ordering(self, s, delta):
        assert 0 < shortcut_gain(delta) < extra_link_gain(s, delta) < clique_link_gain(s, delta)

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            clique_link_gain(2, 0.5)
        with pytest.raises(ValidationError):
            shortcut_gain(1.0)


class TestLinkBound:
    @pytest.mark.parametrize("weight, below", [(0.8, False), (0.9, True), (1.0, True),
                                               (0.0, False)])
    def test_strict_at_delta_half_and_cost_one_fifth(self, weight, below):
        # 0.8 * shortcut_gain(0.5) is the cost exactly: a tie is not below
        assert below_link_bound(PARAMS, weight) is below

    @given(delta_st, st.floats(1e-3, 0.3), st.floats(0.0, 1.0))
    def test_clique_bound_is_weight_one(self, delta, cost, weight):
        params = ModelParams(delta, cost)
        # the clique bound's own formula before it became the weight-1 case
        assert below_link_bound(params, 1.0) is (cost < shortcut_gain(delta) - EPSILON)
        assert below_clique_bound(params) is below_link_bound(params, 1.0)
        # a lower weight never lies further below the bound
        assert not below_link_bound(params, weight) or below_clique_bound(params)


class TestStableBoundaries:
    def test_frozen_values_3_5(self):
        bounds = stable_boundaries(3, 5, PARAMS)
        expected = [0.2, 0.4, 8 / 15, 0.8]
        assert len(bounds) == len(expected)
        for got, want in zip(bounds, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_last_bound_meets_the_maximal_bound(self):
        for s1, s2 in [(3, 3), (3, 5), (4, 7), (5, 5), (6, 9)]:
            for delta in (0.2, 0.5, 0.7):
                params = ModelParams(delta, 0.8 * shortcut_gain(delta))
                bounds = stable_boundaries(s1, s2, params)
                assert bounds[-1] == pytest.approx(
                    params.cost / shortcut_gain(delta), rel=1e-12)

    def test_requires_low_cost(self):
        with pytest.raises(RegimeUndefinedError):
            stable_boundaries(3, 5, ModelParams(0.5, 0.25))


class TestClassifyStable:
    def test_disjoint_example(self):
        pred = classify_two_group_stable(3, 5, PARAMS, 0.1)
        assert pred.kind is RegimeKind.DISJOINT
        assert pred.upper == pytest.approx(0.2, abs=1e-12)
        assert pred.interconnections(3, 5) == 0

    def test_boundary_tie_example(self):
        pred = classify_two_group_stable(3, 5, PARAMS, 0.4)
        assert pred.kind is RegimeKind.BOUNDARY_TIE
        assert pred.lower == pytest.approx(0.4, abs=1e-12)
        assert pred.k == 1  # one cross link below 0.4, two above

    def test_maximal_example(self):
        pred = classify_two_group_stable(3, 5, PARAMS, 0.85)
        assert pred.kind is RegimeKind.MAXIMAL
        assert pred.lower == pytest.approx(0.8, abs=1e-12)
        assert pred.interconnections(3, 5) == 15

    def test_exact_two_example(self):
        pred = classify_two_group_stable(3, 5, PARAMS, 0.45)
        assert pred.kind is RegimeKind.EXACT_K and pred.k == 2
        assert pred.lower == pytest.approx(0.4, abs=1e-12)
        assert pred.upper == pytest.approx(0.2 / 0.375, abs=1e-12)

    def test_bridge_interval(self):
        pred = classify_two_group_stable(3, 5, PARAMS, 0.3)
        assert pred.kind is RegimeKind.BRIDGE
        assert pred.interconnections(3, 5) == 1

    def test_regime_is_monotone_in_cross_weight(self):
        order = []
        for k in range(1, 100):
            f = k / 100
            pred = classify_two_group_stable(3, 5, PARAMS, f)
            if pred.kind is RegimeKind.BOUNDARY_TIE:
                continue
            rank = {RegimeKind.DISJOINT: 0, RegimeKind.BRIDGE: 1,
                    RegimeKind.MAXIMAL: 99}.get(pred.kind, pred.k)
            order.append(rank)
        assert order == sorted(order)

    def test_undefined_when_cost_high(self):
        with pytest.raises(RegimeUndefinedError):
            classify_two_group_stable(3, 5, ModelParams(0.5, 0.3), 0.5)

    def test_count_prediction_symmetric_and_peaked_at_even_split(self):
        # fixed n = 20, cross weight 0.25: count depends only on min(s1, s2)
        counts = {}
        for s1 in range(3, 18):
            pred = classify_two_group_stable(s1, 20 - s1, PARAMS, 0.25)
            assert pred.kind is not RegimeKind.BOUNDARY_TIE
            counts[s1] = pred.interconnections(s1, 20 - s1)
        for s1 in range(3, 18):
            assert counts[s1] == counts[20 - s1]
        assert max(counts, key=counts.get) == 10


class TestClassifyEfficient:
    def test_frozen_boundaries_3_5(self):
        bounds = efficient_boundaries(3, 5, PARAMS)
        expected = [1 / 15, 8 / 35, 0.8]
        for got, want in zip(bounds, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_disjoint_example(self):
        pred = classify_two_group_efficient(3, 5, PARAMS, 0.05)
        assert pred.kind is RegimeKind.DISJOINT
        assert pred.upper == pytest.approx(1 / 15, abs=1e-12)

    def test_bridge_example(self):
        pred = classify_two_group_efficient(3, 5, PARAMS, 0.15)
        assert pred.kind is RegimeKind.BRIDGE
        assert pred.upper == pytest.approx(8 / 35, abs=1e-12)

    def test_maximal_example(self):
        pred = classify_two_group_efficient(3, 5, PARAMS, 0.9)
        assert pred.kind is RegimeKind.MAXIMAL
        assert pred.lower == pytest.approx(0.8, abs=1e-12)

    def test_redundant_band(self):
        pred = classify_two_group_efficient(3, 5, PARAMS, 0.5)
        assert pred.kind is RegimeKind.REDUNDANT
        assert pred.interconnections(3, 5) is None

    def test_bridge_upper_stays_below_both_redundancy_bounds(self):
        for s1, s2 in [(3, 3), (3, 5), (3, 8), (4, 6), (5, 9)]:
            for delta in (0.2, 0.4, 0.6, 0.8):
                params = ModelParams(delta, 0.5 * shortcut_gain(delta))
                upper = efficient_boundaries(s1, s2, params)[1]
                assert upper < params.cost / extra_link_gain(max(s1, s2), delta)


class TestBoundsAscend:
    def test_both_bound_lists_ascend_down_to_tiny_delta(self):
        for exponent in range(-8, -1):
            delta = 10.0 ** exponent
            params = ModelParams(delta, delta / 2)
            for s1 in range(3, 14):
                for s2 in range(s1, 14):
                    for bounds in (stable_boundaries(s1, s2, params),
                                   efficient_boundaries(s1, s2, params)):
                        assert bounds == sorted(bounds), (delta, s1, s2)

    def test_delta_within_the_tolerance_is_refused(self):
        # here rounding could swap the efficient bridge and redundant bounds
        # (sizes 12 and 13), but the clique bound is below the tolerance
        params = ModelParams(1e-17, 5e-18)
        with pytest.raises(RegimeUndefinedError):
            efficient_boundaries(12, 13, params)


def _stable_regimes(s1, s2):
    exact = [(RegimeKind.EXACT_K, k) for k in range(2, min(s1, s2) + 1)]
    return [(RegimeKind.DISJOINT, None), (RegimeKind.BRIDGE, None), *exact,
            (RegimeKind.MAXIMAL, None)]


def _efficient_regimes(s1, s2):
    return [(RegimeKind.DISJOINT, None), (RegimeKind.BRIDGE, None),
            (RegimeKind.REDUNDANT, None), (RegimeKind.MAXIMAL, None)]


class TestRegimeWalk:
    """Both classifiers against their bound lists and regime tables."""

    @given(sizes_st, sizes_st, delta_st, st.floats(0.01, 0.99), st.data())
    def test_prediction_sits_in_its_interval(self, s1, s2, delta, cost_share, data):
        params = ModelParams(delta, cost_share * shortcut_gain(delta))
        eps = EPSILON
        stable = stable_boundaries(s1, s2, params)
        assert redundancy_bounds(s1, s2, params) == (stable[1], stable[-1])
        for classify, boundaries, regimes in (
                (classify_two_group_stable, stable_boundaries, _stable_regimes),
                (classify_two_group_efficient, efficient_boundaries, _efficient_regimes)):
            bounds = boundaries(s1, s2, params)
            assert bounds == sorted(bounds)
            near_bound = st.builds(lambda b, d: min(max(b + d, 0.0), 1.0),
                                   st.sampled_from(bounds), st.floats(-2 * eps, 2 * eps))
            f = data.draw(st.floats(0.0, 1.0) | near_bound)
            pred = classify(s1, s2, params, f)
            ends = [0.0, *bounds, 1.0]
            if pred.kind is RegimeKind.BOUNDARY_TIE:
                assert bounds[pred.k] == pred.lower == pred.upper
                assert abs(f - pred.lower) <= eps
                assert all(abs(f - b) > eps for b in bounds[:pred.k])
                continue
            assert all(abs(f - b) > eps for b in bounds)
            i = ends.index(pred.lower)
            assert pred.upper == ends[i + 1]
            assert (pred.lower < f or f == pred.lower == 0.0)
            assert (f < pred.upper or f == pred.upper == 1.0)
            assert (pred.kind, pred.k) == regimes(s1, s2)[i]


class TestOverlap:
    def test_low_weight_overlap(self):
        assert stability_efficiency_overlap(3, 5, PARAMS, 0.05)

    def test_gap_between_disjoint_and_bridge(self):
        assert not stability_efficiency_overlap(3, 5, PARAMS, 0.1)

    def test_full_weight_always_overlaps(self):
        for s1, s2, delta, cost in [(3, 5, 0.5, 0.2), (4, 4, 0.3, 0.1), (3, 8, 0.7, 0.15)]:
            assert stability_efficiency_overlap(s1, s2, ModelParams(delta, cost), 1.0)

    def test_middle_interval_needs_large_delta(self):
        # sizes (3, 9): the size-imbalance threshold is (9-3)/(12-3) = 2/3
        low = ModelParams(0.5, 0.1)
        assert not stability_efficiency_overlap(3, 9, low, 0.105)
        # same cross weight lies in the middle overlap piece when delta is high
        high = ModelParams(0.7, 0.1)
        stable_lo = stable_boundaries(3, 9, high)[0]
        eff_hi = efficient_boundaries(3, 9, high)[1]
        assert stable_lo <= eff_hi
        mid = (stable_lo + eff_hi) / 2
        assert stability_efficiency_overlap(3, 9, high, mid)

    @pytest.mark.parametrize("f_cross", [math.nan, 1.5, -0.5, 1 + 5e-10])
    def test_weight_outside_unit_interval_refused_as_by_the_classifiers(self, f_cross):
        for decide in (stability_efficiency_overlap, classify_two_group_stable,
                       classify_two_group_efficient):
            with pytest.raises(ValidationError,
                               match=r"cross-group weight must be in \[0, 1\], got"):
                decide(3, 5, PARAMS, f_cross)


class TestRedundancyBounds:
    def test_frozen_values(self):
        assert redundancy_bounds(3, 5, PARAMS) == (
            pytest.approx(0.4, abs=1e-12), pytest.approx(0.8, abs=1e-12))
        assert redundancy_bounds(3, 3, PARAMS) == (
            pytest.approx(0.4, abs=1e-12), pytest.approx(0.8, abs=1e-12))

    @given(sizes_st, sizes_st, delta_st)
    def test_redundant_before_maximal(self, s1, s2, delta):
        cost = 0.5 * shortcut_gain(delta)
        lo, hi = redundancy_bounds(s1, s2, ModelParams(delta, cost))
        assert lo < hi


class TestGroupGraph:
    def test_star_edges(self):
        tree = GroupGraph.star(4, center=1)
        assert tree.edges == frozenset({(0, 1), (1, 2), (1, 3)})

    def test_rejects_self_loops(self):
        with pytest.raises(ValidationError):
            GroupGraph.from_edges(3, [(1, 1)])

    def test_connectivity(self):
        assert GroupGraph.star(4).is_connected()
        assert not GroupGraph.from_edges(4, [(0, 1)]).is_connected()

    def test_distances_with_toggles(self):
        ring = GroupGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert ring.distances_from(0)[2] == 2
        assert ring.without_edge(0, 1).distances_from(0)[1] == 3
        assert ring.with_edge(0, 2).distances_from(0)[2] == 1
        assert isinstance(ring.with_edge(0, 2), GroupGraph)

    @pytest.mark.parametrize("source", [3, -1])
    def test_distances_from_out_of_range_source_rejected(self, source):
        with pytest.raises(ValidationError, match=f"^node {source} out of range$"):
            GroupGraph.star(3).distances_from(source)


class TestBridgeSufficiency:
    def test_two_group_reduction_matches_the_bridge_regime(self):
        # one tree edge between two groups: the check must accept exactly the
        # open bridge band of the two-group classifier
        tree = GroupGraph.from_edges(2, [(0, 1)])
        partition = GroupPartition.from_sizes([3, 5])
        for k in range(1, 100):
            f = k / 100
            pred = classify_two_group_stable(3, 5, PARAMS, f)
            verdict = minimally_connected_sufficient(
                tree, CoordinationMatrix.uniform(2, f), partition, PARAMS)
            if pred.kind is RegimeKind.BOUNDARY_TIE:
                continue
            assert verdict == (pred.kind is RegimeKind.BRIDGE)

    def test_star_with_qualified_center(self):
        partition = GroupPartition.from_sizes([3, 3, 3, 3])
        tree = GroupGraph.star(4, center=0)
        rows = [[1.0, 0.3, 0.3, 0.3],
                [0.3, 1.0, 0.1, 0.1],
                [0.3, 0.1, 1.0, 0.1],
                [0.3, 0.1, 0.1, 1.0]]
        coordination = CoordinationMatrix.from_array(rows)
        assert minimally_connected_sufficient(tree, coordination, partition, PARAMS)

    def test_star_fails_when_a_spoke_is_too_weak(self):
        partition = GroupPartition.from_sizes([3, 3, 3, 3])
        tree = GroupGraph.star(4, center=0)
        rows = [[1.0, 0.3, 0.3, 0.1],
                [0.3, 1.0, 0.1, 0.1],
                [0.3, 0.1, 1.0, 0.1],
                [0.1, 0.1, 0.1, 1.0]]
        coordination = CoordinationMatrix.from_array(rows)
        assert not minimally_connected_sufficient(tree, coordination, partition, PARAMS)

    def test_five_equal_groups_star_premise(self):
        params = ModelParams(0.55, 0.2)
        lo = params.cost / clique_link_gain(3, params.delta)
        hi = params.cost / extra_link_gain(3, params.delta)
        assert lo < 0.2 < hi
        partition = GroupPartition.from_sizes([3, 3, 3, 3, 3])
        tree = GroupGraph.star(5, center=0)
        assert minimally_connected_sufficient(
            tree, CoordinationMatrix.uniform(5, 0.2), partition, params)

    def test_disconnected_tree_rejected(self):
        partition = GroupPartition.from_sizes([3, 3, 3])
        tree = GroupGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValidationError):
            minimally_connected_sufficient(
                tree, CoordinationMatrix.uniform(3, 0.3), partition, PARAMS)
