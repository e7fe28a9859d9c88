import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    all_pairs,
    all_pairs_distances,
    density,
    edge_index,
    expand_matrix,
    format_edge_list,
    in_invariant_set,
    parse_edge_list,
    payoff,
    payoffs,
    welfare,
)
from oracles import oracle_distance, oracle_payoff

from conftest import random_network, random_society


def two_k3_bridge():
    partition = GroupPartition.from_sizes([3, 3])
    coordination = CoordinationMatrix.uniform(2, 0.4)
    weights = expand_matrix(coordination, partition)
    network = Network.disjoint_cliques(partition).with_edge(0, 3)
    return partition, weights, network


class TestGroupPartition:
    def test_from_sizes_assigns_contiguously(self):
        p = GroupPartition.from_sizes([3, 5])
        assert p.n == 8 and p.m == 2
        assert p.members(0) == [0, 1, 2]
        assert p.members(1) == [3, 4, 5, 6, 7]

    def test_rejects_small_groups(self):
        with pytest.raises(ValidationError):
            GroupPartition.from_sizes([3, 2])

    def test_rejects_membership_size_mismatch(self):
        with pytest.raises(ValidationError):
            GroupPartition(n=6, sizes=(3, 3), membership=(0, 0, 0, 1, 1, 0))

    def test_pair_split_covers_everything(self):
        p = GroupPartition.from_sizes([3, 4])
        assert sorted(p.intra_pairs() + p.cross_pairs()) == all_pairs(7)


class TestCoordinationMatrix:
    def test_unit_diagonal_enforced(self):
        with pytest.raises(ValidationError):
            CoordinationMatrix.from_array([[0.9, 0.2], [0.2, 1.0]])

    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError):
            CoordinationMatrix.from_array([[1.0, 0.2], [0.3, 1.0]])

    def test_off_diagonal_range_enforced(self):
        with pytest.raises(ValidationError):
            CoordinationMatrix.uniform(2, 1.2)

    def test_upper_triangle_roundtrip(self):
        c = CoordinationMatrix.from_upper_triangle(3, [0.1, 0.2, 0.3])
        assert c[0, 1] == 0.1 and c[0, 2] == 0.2 and c[1, 2] == 0.3
        assert c[2, 1] == 0.3


class TestExpandMatrix:
    def test_single_group_all_ones_off_diagonal(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(w, expected)

    def test_two_group_blocks(self):
        p = GroupPartition.from_sizes([3, 5])
        w = expand_matrix(CoordinationMatrix.uniform(2, 0.4), p)
        for i in range(8):
            for j in range(8):
                if i == j:
                    assert w[i, j] == 0.0
                elif (i < 3) == (j < 3):
                    assert w[i, j] == 1.0
                else:
                    assert w[i, j] == 0.4

    def test_equal_sizes_match_block_construction(self):
        coordination = CoordinationMatrix.from_array([[1.0, 0.7], [0.7, 1.0]])
        p = GroupPartition.from_sizes([3, 3])
        w = expand_matrix(coordination, p)
        blocks = np.kron(coordination.as_array(), np.ones((3, 3))) - np.eye(6)
        assert np.allclose(w, blocks, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expand_matrix(CoordinationMatrix.uniform(3, 0.2),
                          GroupPartition.from_sizes([3, 3]))


class TestDistances:
    def test_empty_network_unreachable(self):
        d = all_pairs_distances(Network.empty(3))
        for i in range(3):
            for j in range(3):
                assert d[i, j] == (0.0 if i == j else math.inf)

    def test_path_graph(self):
        d = all_pairs_distances(Network.from_edges(3, [(0, 1), (1, 2)]))
        assert d[0, 2] == 2.0 and d[2, 0] == 2.0 and d[0, 1] == 1.0

    def test_two_cliques_with_bridge(self):
        partition = GroupPartition.from_sizes([3, 3])
        network = Network.disjoint_cliques(partition).with_edge(0, 3)
        d = all_pairs_distances(network)
        assert d[1, 5] == 3.0
        assert d[0, 4] == 2.0

    @given(st.integers(0, 2**15 - 1))
    def test_matches_exhaustive_path_search(self, mask):
        network = Network.from_mask(mask, 6)
        d = all_pairs_distances(network)
        for i in range(6):
            for j in range(6):
                assert d[i, j] == oracle_distance(network, i, j)

    @given(st.integers(0, 2**15 - 1), st.integers(0, 14))
    def test_adding_an_edge_never_lengthens_paths(self, mask, extra):
        before = Network.from_mask(mask, 6)
        after = Network.from_mask(mask | (1 << extra), 6)
        assert np.all(all_pairs_distances(after) <= all_pairs_distances(before))


class TestPayoff:
    def test_single_clique_value(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        net = Network.complete(3)
        params = ModelParams(0.5, 0.2)
        for i in range(3):
            assert payoff(net, i, w, params) == pytest.approx(0.6, abs=1e-12)

    def test_empty_network_pays_nothing(self):
        p = GroupPartition.from_sizes([3, 3])
        w = expand_matrix(CoordinationMatrix.uniform(2, 0.9), p)
        values = payoffs(Network.empty(6), w, ModelParams(0.5, 0.2))
        assert np.array_equal(values, np.zeros(6))

    def test_bridge_endpoint_value(self):
        # hand total: 2(delta - c) + F (delta + 2 delta^2) - c
        _, w, net = two_k3_bridge()
        params = ModelParams(0.5, 0.2)
        assert payoff(net, 0, w, params) == pytest.approx(0.8, abs=1e-12)
        assert payoff(net, 0, w, params) == pytest.approx(
            oracle_payoff(net, 0, w, params), abs=1e-12)

    @given(st.integers(0, 2**31))
    def test_matches_path_search_oracle(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        node = rng.randrange(society.n)
        expected = oracle_payoff(network, node, society.weights, society.params)
        assert payoff(network, node, society.weights, society.params) == (
            pytest.approx(expected, abs=1e-9))


class TestWelfare:
    def test_empty_is_zero(self):
        p = GroupPartition.from_sizes([3, 3])
        w = expand_matrix(CoordinationMatrix.uniform(2, 0.5), p)
        assert welfare(Network.empty(6), w, ModelParams(0.5, 0.2)) == 0.0

    def test_single_clique_total(self):
        p = GroupPartition.from_sizes([3])
        w = expand_matrix(CoordinationMatrix.uniform(1, 0.0), p)
        assert welfare(Network.complete(3), w, ModelParams(0.5, 0.2)) == (
            pytest.approx(1.8, abs=1e-12))

    @given(st.integers(0, 2**31))
    def test_pairwise_regrouping_identity(self, seed):
        # v(E) = sum over pairs of 2 w_ij delta^d_ij - 2 |E| c
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        d = all_pairs_distances(network)
        params = society.params
        total = 0.0
        for i, j in all_pairs(network.n):
            if d[i, j] < math.inf:
                total += 2.0 * society.weights[i, j] * params.delta ** d[i, j]
        total -= 2.0 * network.edge_count * params.cost
        assert welfare(network, society.weights, params) == pytest.approx(total, abs=1e-9)

    @given(st.integers(0, 2**31))
    def test_edge_toggle_welfare_equals_summed_payoff_change(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        i, j = rng.sample(range(society.n), 2)
        with_e = network.with_edge(i, j)
        without_e = network.without_edge(i, j)
        lhs = welfare(with_e, society.weights, society.params) - welfare(
            without_e, society.weights, society.params)
        rhs = float(sum(payoffs(with_e, society.weights, society.params)
                        - payoffs(without_e, society.weights, society.params)))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.integers(0, 2**31))
    def test_group_preserving_relabeling_is_neutral(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        perm = list(range(society.n))
        for g in range(society.partition.m):
            members = society.partition.members(g)
            shuffled = members[:]
            rng.shuffle(shuffled)
            for a, b in zip(members, shuffled):
                perm[a] = b
        relabeled = Network.from_edges(society.n,
                                       [(perm[i], perm[j]) for i, j in network.edges])
        for node in range(society.n):
            assert payoff(relabeled, perm[node], society.weights, society.params) == (
                pytest.approx(payoff(network, node, society.weights, society.params),
                              abs=1e-9))
        assert welfare(relabeled, society.weights, society.params) == pytest.approx(
            welfare(network, society.weights, society.params), abs=1e-9)


class TestInvariantSet:
    def test_empty_network(self):
        assert in_invariant_set(Network.empty(6), GroupPartition.from_sizes([3, 3]))

    def test_disjoint_cliques(self):
        p = GroupPartition.from_sizes([3, 4])
        assert in_invariant_set(Network.disjoint_cliques(p), p)

    def test_bridge_breaks_it(self):
        p = GroupPartition.from_sizes([3, 4])
        assert not in_invariant_set(Network.disjoint_cliques(p).with_edge(0, 3), p)


class TestNetworkEncoding:
    def test_edge_index_is_lexicographic(self):
        pairs = all_pairs(5)
        for t, (i, j) in enumerate(pairs):
            assert edge_index(i, j, 5) == t

    @given(st.integers(0, 2**21 - 1))
    def test_mask_roundtrip(self, mask):
        assert Network.from_mask(mask, 7).to_mask() == mask

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Network.from_edges(4, [(2, 2)])

    def test_density(self):
        assert density(Network.complete(4)) == 1.0
        assert density(Network.empty(4)) == 0.0

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ModelParams(1.0, 0.2)
        with pytest.raises(ValidationError):
            ModelParams(0.5, 0.0)
        with pytest.raises(ValidationError):
            ModelParams(0.5, 0.2, epsilon=-1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["delta", "cost", "epsilon"])
    def test_params_reject_non_finite(self, field, value):
        fields = {"delta": 0.5, "cost": 0.2, "epsilon": 1e-9, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ModelParams(**fields)

    def test_society_group_count_checked(self):
        with pytest.raises(ValidationError):
            Society(GroupPartition.from_sizes([3, 3]),
                    CoordinationMatrix.uniform(3, 0.5), ModelParams(0.5, 0.2))


class TestEdgeListText:
    def test_roundtrip(self):
        network = Network.from_edges(6, [(0, 1), (2, 5), (3, 4)])
        assert parse_edge_list(format_edge_list(network), 6).edges == network.edges

    def test_empty_text(self):
        assert parse_edge_list("", 5).edges == frozenset()

    def test_parse_error_names_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_edge_list("0 1\n2 two\n", 5)

    def test_out_of_range_named(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_edge_list("0 9\n", 5)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_edge_list("0 1\n1 0\n", 5)
