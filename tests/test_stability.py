import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupform.dynamics import Action, step
from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    all_pairs,
    expand_matrix,
    payoff,
)
from groupform.stability import (
    CapExceededError,
    _pair_changes,
    PoAUndefinedError,
    SpaceScan,
    compute_tables,
    defeats,
    enumerate_stable,
    full_graph_space,
    interconnection_space,
    is_pairwise_stable,
    poa_from_scan,
    price_of_anarchy,
    scan_space,
)
from groupform.thresholds import RegimeKind, classify_two_group_stable

from conftest import random_network, random_society

PARAMS = ModelParams(0.5, 0.2)


def society_3_5(f12: float) -> Society:
    return Society(GroupPartition.from_sizes([3, 5]),
                   CoordinationMatrix.uniform(2, f12), PARAMS)


def society_3_3(f12: float, params: ModelParams = PARAMS) -> Society:
    return Society(GroupPartition.from_sizes([3, 3]),
                   CoordinationMatrix.uniform(2, f12), params)


def gains_from_edge(network: Network, i: int, j: int, society: Society) -> bool:
    """Strict gain for i of having edge (i, j) versus not having it."""
    w, params = society.weights, society.params
    return (payoff(network.with_edge(i, j), i, w, params)
            - payoff(network.without_edge(i, j), i, w, params)) > params.epsilon


class TestBenefitsFromEdge:
    def test_intra_link_always_pays_below_the_clique_bound(self):
        society = society_3_5(0.1)
        network = Network.from_edges(8, [(0, 1), (1, 2)])
        assert gains_from_edge(network, 0, 2, society)

    def test_cross_link_refused_in_the_disjoint_regime(self):
        society = society_3_5(0.1)
        network = Network.disjoint_cliques(society.partition)
        assert not gains_from_edge(network, 0, 3, society)

    def test_cross_link_pays_for_the_smaller_group_member(self):
        society = society_3_5(0.3)
        network = Network.disjoint_cliques(society.partition)
        assert gains_from_edge(network, 0, 3, society)


EPS = 1e-9


class TestPairRule:
    @pytest.mark.parametrize("present, du_i, du_j, changes", [
        (False, 2 * EPS, 0.0, True),         # one strict gain, the other indifferent
        (False, 0.0, 2 * EPS, True),
        (False, 2 * EPS, -EPS, True),        # a loss inside the band is indifference
        (False, 0.0, 0.0, False),            # nobody strictly gains
        (False, 2 * EPS, -2 * EPS, False),   # the other side strictly loses
        (False, EPS, EPS, False),            # gains inside the band are not strict
        (True, 2 * EPS, -1.0, True),         # a cut needs one strict winner only
        (True, -1.0, 2 * EPS, True),
        (True, EPS, -1.0, False),
    ])
    def test_truth_table_at_the_epsilon_band(self, present, du_i, du_j, changes):
        assert bool(_pair_changes(present, du_i, du_j, EPS)) is changes
        vector = _pair_changes(np.array([present]), np.array([du_i]), np.array([du_j]), EPS)
        assert vector.tolist() == [changes]


class TestIsPairwiseStable:
    def test_single_clique_stable(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        assert is_pairwise_stable(Network.complete(3), w, PARAMS)

    def test_intra_path_not_stable(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        assert not is_pairwise_stable(Network.from_edges(3, [(0, 1), (1, 2)]), w, PARAMS)

    def test_disjoint_cliques_stable_below_first_link_bound(self):
        society = society_3_5(0.1)
        network = Network.disjoint_cliques(society.partition)
        assert is_pairwise_stable(network, society.weights, society.params)


class TestDefeats:
    def test_completing_a_clique_defeats_the_path(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        path = Network.from_edges(3, [(0, 1), (1, 2)])
        assert defeats(path.with_edge(0, 2), path, w, PARAMS)

    def test_cutting_a_clique_link_does_not_defeat(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        clique = Network.complete(3)
        assert not defeats(clique.without_edge(0, 1), clique, w, PARAMS)

    def test_identical_networks_rejected(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        clique = Network.complete(3)
        with pytest.raises(ValidationError):
            defeats(clique, clique, w, PARAMS)

    @given(st.integers(0, 2**31))
    def test_a_defeated_network_is_never_stable(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        i, j = rng.sample(range(society.n), 2)
        other = (network.without_edge(i, j) if network.has_edge(i, j)
                 else network.with_edge(i, j))
        if defeats(other, network, society.weights, society.params):
            assert not is_pairwise_stable(network, society.weights, society.params)


class TestEnumerateStable:
    def test_disjoint_regime_unique(self):
        society = society_3_5(0.1)
        nets = enumerate_stable(interconnection_space(society.partition), society)
        assert len(nets) == 1
        assert nets[0].edges == Network.disjoint_cliques(society.partition).edges

    def test_bridge_regime_counts(self):
        society = society_3_5(0.3)
        nets = enumerate_stable(interconnection_space(society.partition), society)
        assert len(nets) == 15
        assert {net.inter_count(society.partition) for net in nets} == {1}

    def test_maximal_regime_unique(self):
        society = society_3_5(0.85)
        nets = enumerate_stable(interconnection_space(society.partition), society)
        assert len(nets) == 1
        assert nets[0].inter_count(society.partition) == 15

    def test_boundary_counts_span_three_to_fifteen(self):
        nets = enumerate_stable(interconnection_space(society_3_5(0.8).partition),
                                society_3_5(0.8))
        counts = {net.inter_count(society_3_5(0.8).partition) for net in nets}
        assert min(counts) == 3 and max(counts) == 15

    def test_output_is_bitmask_ordered(self):
        society = society_3_5(0.3)
        space = interconnection_space(society.partition)
        nets = enumerate_stable(space, society)
        masks = [space.free_mask_of(net) for net in nets]
        assert masks == sorted(masks)

    def test_full_space_cap(self):
        with pytest.raises(CapExceededError):
            full_graph_space(8)

    def test_free_bits_cap(self):
        society = society_3_5(0.3)
        space = interconnection_space(society.partition)
        with pytest.raises(CapExceededError):
            enumerate_stable(space, society, free_bits_cap=10)

    def test_interconnection_space_needs_low_cost(self):
        society = society_3_3(0.3, ModelParams(0.5, 0.26))
        with pytest.raises(ValidationError):
            enumerate_stable(interconnection_space(society.partition), society)

    def test_full_space_stable_networks_hold_intra_cliques(self):
        society = society_3_3(0.3)
        nets = enumerate_stable(full_graph_space(6), society)
        intra = set(society.partition.intra_pairs())
        assert nets
        for net in nets:
            assert intra <= net.edges

    @pytest.mark.parametrize("f12", [0.05, 0.3, 0.5, 0.7, 0.9])
    def test_full_space_agrees_with_interconnection_space(self, f12):
        society = society_3_3(f12)
        full_sets = {net.edges for net in
                     enumerate_stable(full_graph_space(6), society)}
        inter_sets = {net.edges for net in
                      enumerate_stable(interconnection_space(society.partition), society)}
        assert full_sets == inter_sets

    @pytest.mark.parametrize("f12", [0.05, 0.3, 0.45, 0.6, 0.9])
    def test_counts_match_the_two_group_classifier(self, f12):
        society = society_3_5(f12)
        pred = classify_two_group_stable(3, 5, society.params, f12)
        assert pred.kind is not RegimeKind.BOUNDARY_TIE
        nets = enumerate_stable(interconnection_space(society.partition), society)
        counts = {net.inter_count(society.partition) for net in nets}
        assert counts == {pred.interconnections(3, 5)}


class TestEngineAgainstDefinition:
    @given(st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_scan_matches_the_scalar_check(self, seed):
        rng = random.Random(seed)
        partition = GroupPartition.from_sizes((3, 3))
        society = Society(partition,
                          CoordinationMatrix.uniform(2, rng.uniform(0, 1)),
                          ModelParams(rng.uniform(0.1, 0.9), rng.uniform(0.01, 0.9)))
        space = full_graph_space(partition.n)
        tables = compute_tables(space, partition, society.params.delta)
        scan = scan_space(tables, society)
        for _ in range(12):
            mask = rng.randrange(space.size)
            network = space.network_for(mask)
            assert bool(scan.stable[mask]) == is_pairwise_stable(
                network, society.weights, society.params)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_interconnection_scan_matches_the_scalar_check(self, seed):
        # the scalar checker evaluates pinned clique links explicitly, the
        # engine discharges them through the cost bound; both must agree
        rng = random.Random(seed)
        partition = GroupPartition.from_sizes(rng.choice([(3, 3), (3, 4)]))
        delta = rng.uniform(0.1, 0.9)
        cost = rng.uniform(0.3, 0.9) * (delta - delta * delta)
        society = Society(partition,
                          CoordinationMatrix.uniform(2, rng.uniform(0, 1)),
                          ModelParams(delta, cost))
        space = interconnection_space(partition)
        tables = compute_tables(space, partition, delta)
        scan = scan_space(tables, society)
        for _ in range(12):
            mask = rng.randrange(space.size)
            network = space.network_for(mask)
            assert bool(scan.stable[mask]) == is_pairwise_stable(
                network, society.weights, society.params)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_scan_welfare_matches_model_welfare(self, seed):
        from groupform.model import welfare
        rng = random.Random(seed)
        society = random_society(rng)
        if society.partition.n > 6:
            society = society_3_3(rng.uniform(0, 1))
        space = full_graph_space(society.partition.n)
        tables = compute_tables(space, society.partition, society.params.delta)
        scan = scan_space(tables, society)
        for _ in range(10):
            mask = rng.randrange(space.size)
            assert scan.welfare[mask] == pytest.approx(
                welfare(space.network_for(mask), society.weights, society.params),
                abs=1e-9)

    def test_worker_split_changes_nothing(self):
        society = society_3_3(0.4)
        space = full_graph_space(6)
        serial = compute_tables(space, society.partition, 0.5, workers=1)
        parallel = compute_tables(space, society.partition, 0.5, workers=2)
        assert np.array_equal(serial.benefit, parallel.benefit)
        assert np.array_equal(serial.degree, parallel.degree)


class TestFixpointEquivalence:
    @given(st.integers(0, 2**31))
    def test_stability_equals_no_step_changes(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        unchanged = all(
            step(network, pair, society.weights, society.params)[1] is Action.NO_CHANGE
            for pair in all_pairs(society.n))
        assert unchanged == is_pairwise_stable(network, society.weights, society.params)


class TestPriceOfAnarchy:
    def test_single_group_aligned(self):
        society = Society(GroupPartition.from_sizes([5]),
                          CoordinationMatrix.uniform(1, 0.0), PARAMS)
        assert price_of_anarchy(full_graph_space(5), society) == pytest.approx(1.0)

    def test_overlap_interval_gives_one(self):
        society = society_3_5(0.05)
        space = interconnection_space(society.partition)
        assert price_of_anarchy(space, society) == pytest.approx(1.0, abs=1e-12)

    def test_conflict_interval_exceeds_one(self):
        society = society_3_5(0.1)
        space = interconnection_space(society.partition)
        assert price_of_anarchy(space, society) > 1.0 + 1e-9

    def test_undefined_without_stable_networks(self):
        scan = SpaceScan(space=full_graph_space(3),
                         stable=np.zeros(8, dtype=bool),
                         welfare=np.ones(8))
        with pytest.raises(PoAUndefinedError):
            poa_from_scan(scan)

    def test_undefined_on_nonpositive_stable_welfare(self):
        society = Society(GroupPartition.from_sizes([3]),
                          CoordinationMatrix.uniform(1, 0.0),
                          ModelParams(0.5, 0.6))
        with pytest.raises(PoAUndefinedError):
            price_of_anarchy(full_graph_space(3), society)


class TestSearchSpaceEncoding:
    def test_network_roundtrip(self):
        partition = GroupPartition.from_sizes([3, 4])
        space = interconnection_space(partition)
        for mask in (0, 1, 5, space.size - 1):
            assert space.free_mask_of(space.network_for(mask)) == mask

    def test_network_outside_space_rejected(self):
        partition = GroupPartition.from_sizes([3, 4])
        space = interconnection_space(partition)
        broken = Network.disjoint_cliques(partition).without_edge(0, 1)
        with pytest.raises(ValidationError):
            space.free_mask_of(broken)
