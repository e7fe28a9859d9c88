import math
import random
import time

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
    _added_balls,
    _balls,
    _level_sum,
    all_pairs,
    format_edge_list,
    in_invariant_set,
    parse_edge_list,
    payoff,
    payoffs,
    welfare,
)
from groupform.stability import full_graph_space
from oracles import (
    all_pairs_distances,
    density,
    free_mask_of,
    node_weights,
    oracle_distance,
    oracle_payoff,
    queue_distances,
)

from conftest import random_network, random_society


PARAMS = ModelParams(0.5, 0.2)


def society_of(sizes, cross_weight: float, params: ModelParams = PARAMS) -> Society:
    return Society(GroupPartition.from_sizes(sizes),
                   CoordinationMatrix.uniform(len(sizes), cross_weight), params)


def two_k3_bridge():
    society = society_of([3, 3], 0.4)
    network = Network.disjoint_cliques(society.partition).with_edge(0, 3)
    return society, network


class TestGroupPartition:
    def test_from_sizes_assigns_contiguously(self):
        p = GroupPartition.from_sizes([3, 5])
        assert p.n == 8 and p.m == 2
        assert p.members(0) == [0, 1, 2]
        assert p.members(1) == [3, 4, 5, 6, 7]

    def test_rejects_small_groups(self):
        with pytest.raises(ValidationError):
            GroupPartition.from_sizes([3, 2])

    def test_rejects_membership_with_small_group(self):
        with pytest.raises(ValidationError):
            GroupPartition((0, 0, 0, 1, 1, 0))

    def test_membership_alone_gives_node_count_and_sizes(self):
        p = GroupPartition((0, 1, 0, 1, 0, 1))
        assert p.n == 6 and p.sizes == (3, 3) and p.m == 2
        assert p.members(1) == [1, 3, 5]

    def test_rejects_gap_in_group_ids(self):
        with pytest.raises(ValidationError, match=r"got sizes \(3, 0, 3\)"):
            GroupPartition((0, 0, 0, 2, 2, 2))

    @pytest.mark.parametrize("membership, message", [
        ((0, 1), "need at least 3 nodes, got 2"),
        ((0, 0, 0, -1, -1, -1), "node 3 assigned to unknown group -1"),
        ((0, 0, 0, 6, 6, 6), "node 3 assigned to unknown group 6"),
    ])
    def test_rejects_bad_membership(self, membership, message):
        with pytest.raises(ValidationError, match=message):
            GroupPartition(membership)

    @pytest.mark.parametrize("sizes", [[3, 3, -3], [3, 3, 0], [3, -1, 3]])
    def test_from_sizes_refuses_sizes_that_drop_a_group(self, sizes):
        with pytest.raises(ValidationError, match="every group needs >= 3 members, got sizes"):
            GroupPartition.from_sizes(sizes)

    def test_pair_split_covers_everything(self):
        p = GroupPartition.from_sizes([3, 4])
        assert sorted(p.intra_pairs() + p.cross_pairs()) == all_pairs(7)

    def test_from_sizes_takes_only_whole_sizes(self):
        assert GroupPartition.from_sizes([np.int64(3), 4]).sizes == (3, 4)
        assert all(type(s) is int for s in GroupPartition.from_sizes([np.int64(3)]).sizes)
        for sizes in ([3.9, 3], [3, 3.0], [np.float64(4.0), 3], ["3", 3]):
            with pytest.raises(ValidationError, match="must be integers"):
                GroupPartition.from_sizes(sizes)

    def test_membership_ids_must_be_integers(self):
        numpy_ids = GroupPartition(tuple(np.int64(g) for g in (0, 0, 0, 1, 1, 1)))
        assert numpy_ids.membership == (0, 0, 0, 1, 1, 1)
        assert all(type(g) is int for g in numpy_ids.membership)
        assert GroupPartition([0, 0, 0]).membership == (0, 0, 0)
        for membership in ((0, 0, 0, 1.0, 1, 1), (0, 0, 0, "1", 1, 1)):
            with pytest.raises(ValidationError, match="^membership must be integers"):
                GroupPartition(membership)


class TestCoordinationMatrix:
    def test_unit_diagonal_enforced(self):
        with pytest.raises(ValidationError):
            CoordinationMatrix([[0.9, 0.2], [0.2, 1.0]])

    def test_symmetry_enforced(self):
        with pytest.raises(ValidationError):
            CoordinationMatrix([[1.0, 0.2], [0.3, 1.0]])

    def test_off_diagonal_range_enforced(self):
        with pytest.raises(ValidationError):
            CoordinationMatrix.uniform(2, 1.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_named(self, value):
        with pytest.raises(ValidationError, match=f"must be finite, got {value}"):
            CoordinationMatrix.from_upper_triangle(3, [0.2, value, 0.3])

    def test_square_shape_enforced(self):
        assert CoordinationMatrix(((1.0, 0.2), (0.2, 1.0))).m == 2
        with pytest.raises(ValidationError, match="must be 2x2"):
            CoordinationMatrix(((1.0, 0.2), (0.2,)))

    def test_any_two_dimensional_sequence_gives_one_value(self):
        rows = [[1.0, 0.25], [0.25, 1.0]]
        built = [CoordinationMatrix(rows), CoordinationMatrix(tuple(map(tuple, rows))),
                 CoordinationMatrix(np.array(rows)), CoordinationMatrix([[1, 0.25], [0.25, 1]])]
        for matrix in built:
            assert matrix == built[0] and hash(matrix) == hash(built[0])
            assert all(type(value) is float for row in matrix.entries for value in row)
        assert built[0].entries == ((1.0, 0.25), (0.25, 1.0))

    @pytest.mark.parametrize("value", ["0.2", None, 1j])
    def test_non_numeric_weight_named(self, value):
        with pytest.raises(ValidationError, match="^coordination weights must be real, got"):
            CoordinationMatrix([[1.0, value], [value, 1.0]])
        with pytest.raises(ValidationError, match="^coordination weights must be real, got"):
            CoordinationMatrix.from_upper_triangle(2, [value])

    def test_upper_triangle_roundtrip(self):
        c = CoordinationMatrix.from_upper_triangle(3, [0.1, 0.2, 0.3])
        assert c[0, 1] == 0.1 and c[0, 2] == 0.2 and c[1, 2] == 0.3
        assert c[2, 1] == 0.3


class TestExpandMatrix:
    """The node-pair spreading of the coordination matrix that the oracles
    weigh payoffs with, and the group-count check that guards it."""

    def test_single_group_all_ones_off_diagonal(self):
        w = node_weights(society_of([3], 0.0))
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(w, expected)

    def test_two_group_blocks(self):
        w = node_weights(society_of([3, 5], 0.4))
        for i in range(8):
            for j in range(8):
                if i == j:
                    assert w[i, j] == 0.0
                elif (i < 3) == (j < 3):
                    assert w[i, j] == 1.0
                else:
                    assert w[i, j] == 0.4

    def test_equal_sizes_match_block_construction(self):
        coordination = CoordinationMatrix([[1.0, 0.7], [0.7, 1.0]])
        w = node_weights(Society(GroupPartition.from_sizes([3, 3]), coordination, PARAMS))
        blocks = np.kron(np.array(coordination.entries), np.ones((3, 3))) - np.eye(6)
        assert np.allclose(w, blocks, atol=0)

    def test_dimension_mismatch(self):
        for sizes, m in (([3, 3], 3), ([3, 3, 3], 2)):
            with pytest.raises(ValidationError, match="disagree on group count"):
                Society(GroupPartition.from_sizes(sizes), CoordinationMatrix.uniform(m, 0.2),
                        PARAMS)


class TestDistances:
    def test_empty_network_unreachable(self):
        d = all_pairs_distances(Network.empty(3))
        for i in range(3):
            for j in range(3):
                assert d[i, j] == (0.0 if i == j else math.inf)

    def test_path_graph(self):
        d = all_pairs_distances(Network(3, [(0, 1), (1, 2)]))
        assert d[0, 2] == 2.0 and d[2, 0] == 2.0 and d[0, 1] == 1.0

    def test_two_cliques_with_bridge(self):
        partition = GroupPartition.from_sizes([3, 3])
        network = Network.disjoint_cliques(partition).with_edge(0, 3)
        d = all_pairs_distances(network)
        assert d[1, 5] == 3.0
        assert d[0, 4] == 2.0

    @given(st.integers(0, 2**15 - 1))
    def test_matches_exhaustive_path_search(self, mask):
        network = full_graph_space(6).network_for(mask)
        d = all_pairs_distances(network)
        for i in range(6):
            for j in range(6):
                assert d[i, j] == oracle_distance(network, i, j)

    @given(st.integers(0, 2**31))
    def test_library_bfs_matches_the_queue_bfs(self, seed):
        # two blocks with no link between them, and one isolated node
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        split, isolated = rng.randrange(n + 1), rng.randrange(n)
        density = rng.choice([0.05, 0.15, 0.4])
        graph = Network(n, [(i, j) for i, j in all_pairs(n)
                            if (i < split) == (j < split) and isolated not in (i, j)
                            and rng.random() < density])
        for source in range(n):
            expected = queue_distances(graph, source)
            hops = graph.distances_from(source)
            assert hops == expected
            assert [type(d) for d in hops] == [type(d) for d in expected]
            balls = _balls(graph.neighbor_masks, source)
            assert len(balls) - 1 == max(d for d in expected if d < math.inf)
            for k, ball in enumerate(balls):
                assert ball == sum(1 << v for v, d in enumerate(expected) if d <= k)

    @given(st.integers(0, 2**15 - 1), st.integers(0, 14))
    def test_adding_an_edge_never_lengthens_paths(self, mask, extra):
        space = full_graph_space(6)
        before = space.network_for(mask)
        after = space.network_for(mask | (1 << extra))
        assert np.all(all_pairs_distances(after) <= all_pairs_distances(before))


class TestPayoff:
    def test_single_clique_value(self):
        society = society_of([3], 0.0)
        net = Network.complete(3)
        for i in range(3):
            assert payoff(net, i, society) == pytest.approx(0.6, abs=1e-12)

    def test_empty_network_pays_nothing(self):
        values = payoffs(Network.empty(6), society_of([3, 3], 0.9))
        assert np.array_equal(values, np.zeros(6))

    def test_bridge_endpoint_value(self):
        # hand total: 2(delta - c) + F (delta + 2 delta^2) - c
        society, net = two_k3_bridge()
        assert payoff(net, 0, society) == pytest.approx(0.8, abs=1e-12)
        assert payoff(net, 0, society) == pytest.approx(
            oracle_payoff(net, 0, society), abs=1e-12)

    @given(st.integers(0, 2**31))
    def test_matches_path_search_oracle(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        node = rng.randrange(society.n)
        expected = oracle_payoff(network, node, society)
        assert payoff(network, node, society) == (
            pytest.approx(expected, abs=1e-9))

    @pytest.mark.parametrize("evaluate", [
        lambda network, society: payoff(network, 0, society),
        payoffs,
        welfare,
    ], ids=["payoff", "payoffs", "welfare"])
    def test_network_of_another_size_rejected(self, evaluate):
        society = society_of([3, 3], 0.4)
        for n in (4, 7):
            with pytest.raises(ValidationError, match=f"network has {n} nodes"):
                evaluate(Network.complete(n), society)

    def test_out_of_range_node_rejected(self):
        society = society_of([3, 3], 0.4)
        for node in (6, -1):
            with pytest.raises(ValidationError) as info:
                payoff(Network.complete(6), node, society)
            assert str(info.value) == f"node {node} out of range"


class TestAddSidePayoff:
    """`stability._resolve` reads a missing link's payoffs from both
    endpoints' balls.  Each must be the very double that a BFS on the
    network with the link gives: the epsilon-band tests decide ties only
    because both engines compute the same double."""

    @given(st.integers(0, 2**31))
    def test_merged_balls_give_the_linked_payoff_bitwise(self, seed):
        rng = random.Random(seed)
        sizes = [rng.randint(3, 15) for _ in range(rng.randint(1, 4))]  # n <= 60
        m, n = len(sizes), sum(sizes)
        society = Society(
            GroupPartition.from_sizes(sizes),
            CoordinationMatrix.from_upper_triangle(
                m, [rng.random() for _ in range(m * (m - 1) // 2)]),
            ModelParams(rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.6)))
        # two blocks with no link between them, and one isolated node
        split, isolated = rng.randrange(1, n), rng.randrange(n)
        density = rng.choice([0.03, 0.1, 0.3])
        network = Network(n, [(i, j) for i, j in all_pairs(n)
                              if (i < split) == (j < split) and isolated not in (i, j)
                              and rng.random() < density])
        balls = [_balls(network.neighbor_masks, v) for v in range(n)]
        for i, j in all_pairs(n):
            if network.has_edge(i, j):
                continue
            linked = network.with_edge(i, j)
            for a, b in ((i, j), (j, i)):
                merged = _added_balls(balls[a], balls[b])
                assert tuple(merged) == _balls(linked.neighbor_masks, a), (i, j, a)
                assert _level_sum(merged, a, society) == payoff(linked, a, society), (i, j, a)


class TestWelfare:
    def test_empty_is_zero(self):
        assert welfare(Network.empty(6), society_of([3, 3], 0.5)) == 0.0

    def test_single_clique_total(self):
        assert welfare(Network.complete(3), society_of([3], 0.0)) == (
            pytest.approx(1.8, abs=1e-12))

    @given(st.integers(0, 2**31))
    def test_pairwise_regrouping_identity(self, seed):
        # v(E) = sum over pairs of 2 w_ij delta^d_ij - 2 |E| c
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        d = all_pairs_distances(network)
        w, params = node_weights(society), society.params
        total = 0.0
        for i, j in all_pairs(network.n):
            if d[i, j] < math.inf:
                total += 2.0 * w[i, j] * params.delta ** d[i, j]
        total -= 2.0 * network.edge_count * params.cost
        assert welfare(network, society) == pytest.approx(total, abs=1e-9)

    @given(st.integers(0, 2**31))
    def test_edge_toggle_welfare_equals_summed_payoff_change(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        i, j = rng.sample(range(society.n), 2)
        with_e = network.with_edge(i, j)
        without_e = network.without_edge(i, j)
        lhs = welfare(with_e, society) - welfare(without_e, society)
        rhs = float(sum(payoffs(with_e, society) - payoffs(without_e, society)))
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
        relabeled = Network(society.n, [(perm[i], perm[j]) for i, j in network.edges])
        for node in range(society.n):
            assert payoff(relabeled, perm[node], society) == (
                pytest.approx(payoff(network, node, society), abs=1e-9))
        assert welfare(relabeled, society) == pytest.approx(welfare(network, society),
                                                            abs=1e-9)


class TestInvariantSet:
    def test_empty_network(self):
        assert in_invariant_set(Network.empty(6), GroupPartition.from_sizes([3, 3]))

    def test_disjoint_cliques(self):
        p = GroupPartition.from_sizes([3, 4])
        assert in_invariant_set(Network.disjoint_cliques(p), p)

    def test_disjoint_cliques_are_the_intra_pairs(self):
        p = GroupPartition([1, 0, 2, 1, 0, 2, 2, 1, 0, 1])
        assert Network.disjoint_cliques(p) == Network(p.n, p.intra_pairs())

    def test_bridge_breaks_it(self):
        p = GroupPartition.from_sizes([3, 4])
        assert not in_invariant_set(Network.disjoint_cliques(p).with_edge(0, 3), p)


class TestNetworkEncoding:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Network(4, [(2, 2)])

    def test_density(self):
        assert density(Network.complete(4)) == 1.0
        assert density(Network.empty(4)) == 0.0

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            ModelParams(1.0, 0.2)
        with pytest.raises(ValidationError):
            ModelParams(0.5, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["delta", "cost"])
    def test_params_reject_non_finite(self, field, value):
        fields = {"delta": 0.5, "cost": 0.2, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ModelParams(**fields)

    def test_params_must_be_real_numbers(self):
        params = ModelParams(np.float64(0.5), np.float32(0.25))
        assert (type(params.delta), type(params.cost)) == (float, float)
        assert params == ModelParams(0.5, 0.25)
        for fields, message in (({"delta": "0.5", "cost": 0.2}, "delta must be real, got '0.5'"),
                                ({"delta": 0.5, "cost": None}, "cost must be real, got None")):
            with pytest.raises(ValidationError) as info:
                ModelParams(**fields)
            assert str(info.value) == message

    def test_society_group_count_checked(self):
        with pytest.raises(ValidationError):
            Society(GroupPartition.from_sizes([3, 3]),
                    CoordinationMatrix.uniform(3, 0.5), ModelParams(0.5, 0.2))


@st.composite
def networks_and_toggles(draw):
    """n <= 9, a starting edge set, a partition of the nodes into groups of
    3 or more (n >= 3), and a sequence of in-range add/remove operations."""
    n = draw(st.integers(3, 9))
    pairs = all_pairs(n)
    edges = draw(st.sets(st.sampled_from(pairs)))
    group_count = draw(st.integers(1, n // 3))
    sizes = [3] * group_count
    sizes[0] += n - 3 * group_count
    labels = [g for g, size in enumerate(sizes) for _ in range(size)]
    membership = tuple(draw(st.permutations(labels)))
    partition = GroupPartition(membership)
    node = st.integers(0, n - 1)
    ops = draw(st.lists(st.tuples(st.booleans(), node, node).filter(lambda op: op[1] != op[2]),
                        max_size=25))
    return n, frozenset(edges), partition, ops


def assert_matches_reference(network, n, edges, partition):
    """Every read of the mask-backed network agrees with the frozenset ``edges``."""
    assert network.n == n
    assert network.edges == edges
    assert network.sorted_edges() == sorted(edges)
    assert network.edge_count == len(edges)
    for i in range(n):
        for j in range(n + 1):
            if i != j:
                assert network.has_edge(i, j) == ((min(i, j), max(i, j)) in edges)
    for v in range(n):
        assert network.degree(v) == sum(1 for e in edges if v in e)
    intra = sum(1 for i, j in edges if partition.membership[i] == partition.membership[j])
    assert network.intra_count(partition) == intra
    assert network.inter_count(partition) == len(edges) - intra
    space = full_graph_space(n)
    mask = sum(1 << t for t, pair in enumerate(all_pairs(n)) if pair in edges)
    assert free_mask_of(space, network) == mask
    assert space.network_for(mask) == network
    rebuilt = Network(n, edges)
    assert rebuilt == network and hash(rebuilt) == hash(network)


class TestBitmaskNetwork:
    """The neighbor-mask network against a plain frozenset of edges."""

    @given(networks_and_toggles())
    def test_toggles_agree_with_a_frozenset_reference(self, case):
        n, edges, partition, ops = case
        network = Network(n, edges)
        assert_matches_reference(network, n, edges, partition)
        for add, i, j in ops:
            pair = (min(i, j), max(i, j))
            before, before_edges = network, edges
            if add:
                network, edges = network.with_edge(i, j), edges | {pair}
            else:
                network, edges = network.without_edge(i, j), edges - {pair}
            assert_matches_reference(network, n, edges, partition)
            assert (network == before) == (edges == before_edges)
            assert network != Network(n + 1, edges)

    @given(networks_and_toggles())
    def test_toggling_back_restores_the_network(self, case):
        n, edges, _, ops = case
        network = Network(n, edges)
        for _, i, j in ops:
            flipped = (network.without_edge(i, j) if network.has_edge(i, j)
                       else network.with_edge(i, j))
            assert flipped != network
            assert (flipped.without_edge(i, j) if flipped.has_edge(i, j)
                    else flipped.with_edge(i, j)) == network

    def test_out_of_range_pairs(self):
        network = Network.complete(4)
        for i, j in [(0, 4), (4, 0), (-1, 2), (3, 9), (0, 99)]:
            assert not network.has_edge(i, j)
            for op in (network.with_edge, network.without_edge):
                with pytest.raises(ValidationError) as info:
                    op(i, j)
                assert str(info.value) == f"edge ({min(i, j)}, {max(i, j)}) invalid for n=4"
        with pytest.raises(ValidationError):
            Network(4, [(1, 4)])

    def test_either_orientation_gives_the_same_network(self):
        for n, i, j in ((2, 0, 1), (5, 1, 4), (9, 3, 8)):
            forward, backward = Network(n, [(i, j)]), Network(n, [(j, i)])
            assert backward.neighbor_masks == forward.neighbor_masks
            assert backward == forward and backward.edges == frozenset({(i, j)})
        with pytest.raises(ValidationError) as info:
            Network(4, [(4, 1)])
        assert str(info.value) == "edge (1, 4) invalid for n=4"

    def test_degree_of_out_of_range_node_rejected(self):
        # -1 used to read node 4's mask, and 5 raised a raw IndexError
        network = Network(5, [(3, 4)])
        for node in (-1, 5):
            with pytest.raises(ValidationError, match=f"node {node} out of range"):
                network.degree(node)

    def test_numpy_integer_endpoints_build_the_int_network(self):
        edges = [(0, 1), (2, 1)]
        numpy_edges = [(np.int64(i), np.int64(j)) for i, j in edges]
        plain = Network(3, edges)
        for network in (Network(3, numpy_edges),
                        Network(3, [(np.int64(0), np.int64(1)), (np.int64(1), np.int64(2))]),
                        Network.empty(3).with_edge(*numpy_edges[0])
                        .with_edge(*numpy_edges[1]),
                        Network.complete(3).without_edge(np.int64(2), np.int64(0))):
            assert network == plain and hash(network) == hash(plain)
            assert [network.degree(v) for v in range(3)] == [1, 2, 1]
            assert all(type(v) is int for pair in network.edges for v in pair)
            assert all(type(mask) is int for mask in network.neighbor_masks)

    def test_self_loops_rejected(self):
        network = Network.complete(4)
        for op in (network.has_edge, network.with_edge, network.without_edge):
            with pytest.raises(ValidationError):
                op(2, 2)
        with pytest.raises(ValidationError):
            Network(4, [(2, 2)])


class TestEdgeListText:
    def test_roundtrip(self):
        network = Network(6, [(0, 1), (2, 5), (3, 4)])
        assert parse_edge_list(format_edge_list(network), 6).edges == network.edges

    def test_empty_text(self):
        assert parse_edge_list("", 5).edges == frozenset()

    def test_parse_error_names_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_edge_list("0 1\n2 two\n", 5)

    def test_out_of_range_named(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_edge_list("0 9\n", 5)

    def test_self_loop_named(self):
        with pytest.raises(ValidationError) as info:
            parse_edge_list("1 1\n", 6)
        assert str(info.value) == "line 1: self-loop (1, 1) not allowed"

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_edge_list("0 1\n1 0\n", 5)

    def test_complete_network_parses_in_linear_time(self):
        # 19,900 edges; a duplicate check that scans a list takes seconds here
        network = Network.complete(200)
        start = time.perf_counter()
        parsed = parse_edge_list(format_edge_list(network), 200)
        assert time.perf_counter() - start < 2.0
        assert parsed == network
