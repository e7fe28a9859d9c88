import gc
import math
import operator
import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupform import model, stability
from groupform.cli import _grid, _society_at, _sweep_row, load_scenario
from groupform.dynamics import Action, SeededUniform, run, step
from groupform.efficiency import efficient_search
from groupform.model import (
    EPSILON,
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    all_pairs,
    payoff,
    payoffs,
    welfare,
)
from groupform.stability import (
    CapExceededError,
    _pair_changes,
    _resolve,
    PoAUndefinedError,
    SearchSpace,
    SpaceScan,
    SpaceTables,
    _tables_chunk,
    _utilities,
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
from groupform.thresholds import (
    RegimeKind,
    below_clique_bound,
    classify_two_group_stable,
    efficient_boundaries,
    stable_boundaries,
)

from conftest import assert_scan_answers, random_network, random_society
from oracles import (
    exact_pair_changes,
    exact_pairwise_stable,
    exact_payoff,
    free_mask_of,
    reference_changing_pairs,
    reference_stable,
    reference_tables_chunk,
    reference_utilities,
    reference_welfare,
)

ROOT = Path(__file__).resolve().parent.parent
PARAMS = ModelParams(0.5, 0.2)


def society_3_5(f12: float) -> Society:
    return Society(GroupPartition.from_sizes([3, 5]),
                   CoordinationMatrix.uniform(2, f12), PARAMS)


def society_3_3(f12: float, params: ModelParams = PARAMS) -> Society:
    return Society(GroupPartition.from_sizes([3, 3]),
                   CoordinationMatrix.uniform(2, f12), params)


def one_clique_society() -> Society:
    return Society(GroupPartition.from_sizes([3]), CoordinationMatrix.uniform(1, 0.0), PARAMS)


def pinned_paths(*free_pairs):
    """A hand-built space over a partition: each group a pinned path, the
    given pairs free."""
    def space_of(partition: GroupPartition) -> SearchSpace:
        paths = frozenset((i, j) for i, j in partition.intra_pairs() if j == i + 1)
        return SearchSpace(kind="interconnection", n=partition.n, fixed_edges=paths,
                           free_pairs=free_pairs)
    return space_of


def gains_from_edge(network: Network, i: int, j: int, society: Society) -> bool:
    """Strict gain for i of having edge (i, j) versus not having it."""
    return (payoff(network.with_edge(i, j), i, society)
            - payoff(network.without_edge(i, j), i, society)) > EPSILON


class TestBenefitsFromEdge:
    def test_intra_link_always_pays_below_the_clique_bound(self):
        society = society_3_5(0.1)
        network = Network(8, [(0, 1), (1, 2)])
        assert gains_from_edge(network, 0, 2, society)

    def test_cross_link_refused_in_the_disjoint_regime(self):
        society = society_3_5(0.1)
        network = Network.disjoint_cliques(society.partition)
        assert not gains_from_edge(network, 0, 3, society)

    def test_cross_link_pays_for_the_smaller_group_member(self):
        society = society_3_5(0.3)
        network = Network.disjoint_cliques(society.partition)
        assert gains_from_edge(network, 0, 3, society)


EPS = EPSILON


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
        assert bool(_pair_changes(present, du_i, du_j)) is changes
        vector = _pair_changes(np.array([present]), np.array([du_i]), np.array([du_j]))
        assert vector.tolist() == [changes]


class TestIsPairwiseStable:
    def test_single_clique_stable(self):
        assert is_pairwise_stable(Network.complete(3), one_clique_society())

    def test_intra_path_not_stable(self):
        assert not is_pairwise_stable(Network(3, [(0, 1), (1, 2)]),
                                      one_clique_society())

    def test_disjoint_cliques_stable_below_first_link_bound(self):
        society = society_3_5(0.1)
        network = Network.disjoint_cliques(society.partition)
        assert is_pairwise_stable(network, society)

    def test_network_of_another_size_rejected(self):
        with pytest.raises(ValidationError, match="4 nodes"):
            is_pairwise_stable(Network.complete(4), one_clique_society())

    @pytest.mark.parametrize("n", [0, 1])
    def test_pairless_network_of_another_size_rejected(self, n):
        with pytest.raises(ValidationError, match=f"network has {n} nodes"):
            is_pairwise_stable(Network.empty(n), one_clique_society())


class TestDefeats:
    def test_completing_a_clique_defeats_the_path(self):
        path = Network(3, [(0, 1), (1, 2)])
        assert defeats(path.with_edge(0, 2), path, one_clique_society())

    def test_cutting_a_clique_link_does_not_defeat(self):
        clique = Network.complete(3)
        assert not defeats(clique.without_edge(0, 1), clique, one_clique_society())

    def test_identical_networks_rejected(self):
        clique = Network.complete(3)
        with pytest.raises(ValidationError):
            defeats(clique, clique, one_clique_society())

    def test_candidate_of_another_size_rejected(self):
        society = society_3_3(0.3)
        cliques = Network.disjoint_cliques(society.partition)
        candidate = Network(7, cliques.edges | {(0, 3)})
        with pytest.raises(ValidationError, match="candidate has 7 nodes"):
            defeats(candidate, cliques, society)

    def test_network_of_another_size_rejected(self):
        path = Network(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValidationError, match="network has 4 nodes"):
            defeats(path.with_edge(0, 2), path, one_clique_society())

    @given(st.integers(0, 2**31))
    def test_a_defeated_network_is_never_stable(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        i, j = rng.sample(range(society.n), 2)
        other = (network.without_edge(i, j) if network.has_edge(i, j)
                 else network.with_edge(i, j))
        if defeats(other, network, society):
            assert not is_pairwise_stable(network, society)


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
        masks = [free_mask_of(space, net) for net in nets]
        assert masks == sorted(masks)

    def test_full_space_cap(self):
        # C(8, 2) = 28 free pairs exceed the 22-pair table cap
        with pytest.raises(CapExceededError):
            enumerate_stable(full_graph_space(8), society_3_5(0.3))

    def test_free_bits_cap(self):
        # groups of 5 and 5 have 25 cross pairs, over the 22-pair table cap
        partition = GroupPartition.from_sizes([5, 5])
        with pytest.raises(CapExceededError, match="cap is 22 bits"):
            compute_tables(interconnection_space(partition), partition, 0.5)

    def test_more_than_32_nodes_refused_before_any_table(self):
        # no workload space has more than 10 nodes; 16 free pairs over 33
        # nodes would need a 35 MB benefit table
        partition = GroupPartition.from_sizes([16, 17])
        space = SearchSpace(kind="interconnection", n=33, fixed_edges=frozenset(),
                            free_pairs=tuple((i, 16 + i) for i in range(16)))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError) as info:
                compute_tables(space, partition, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == ("table BFS packs each node set into one lane "
                                   "of at most 32 bits; n <= 32")
        assert peak < 1 << 20

    def test_tables_for_a_space_of_another_size_rejected(self):
        with pytest.raises(ValidationError,
                           match="^search space has 6 nodes, the partition has 8$"):
            compute_tables(full_graph_space(6), GroupPartition.from_sizes([3, 5]), 0.5)
        # the 8-node space has rows for nodes 6 and 7, which no 3+3 group holds
        space = interconnection_space(GroupPartition.from_sizes([3, 5]))
        with pytest.raises(ValidationError,
                           match="^search space has 8 nodes, the partition has 6$"):
            compute_tables(space, GroupPartition.from_sizes([3, 3]), 0.5)

    def test_scan_against_another_society_rejected(self):
        tables = compute_tables(full_graph_space(6), GroupPartition.from_sizes([3, 3]), 0.5)
        one_group = Society(GroupPartition.from_sizes([6]),
                            CoordinationMatrix.uniform(1, 0.0), PARAMS)
        for society, message in (
                (one_group, "society partition does not match the tables"),
                (society_3_3(0.3, ModelParams(0.6, 0.2)),
                 "society delta does not match the tables")):
            with pytest.raises(ValidationError) as info:
                scan_space(tables, society)
            assert str(info.value) == message

    @pytest.mark.parametrize("entry", [enumerate_stable, price_of_anarchy, efficient_search])
    def test_entry_points_reject_a_space_of_another_size(self, entry):
        with pytest.raises(ValidationError, match="search space has 6 nodes"):
            entry(full_graph_space(6), society_3_5(0.3))

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
            assert bool(scan.stable[mask]) == is_pairwise_stable(network, society)

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
            assert bool(scan.stable[mask]) == is_pairwise_stable(network, society)

    @given(st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_scan_welfare_matches_model_welfare(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        if society.partition.n > 6:
            society = society_3_3(rng.uniform(0, 1))
        space = full_graph_space(society.partition.n)
        tables = compute_tables(space, society.partition, society.params.delta)
        scan = scan_space(tables, society)
        for _ in range(10):
            mask = rng.randrange(space.size)
            assert scan.welfare[mask] == welfare(space.network_for(mask), society)

    @pytest.mark.parametrize("f12", [0.2, 0.45, 0.8])
    def test_scan_welfare_equals_model_welfare_at_eight_nodes(self, f12):
        # Both engines add a network's payoffs left to right from 0.0.  At
        # eight nodes the order shows in the last bit: the same payoffs
        # added right to left differ on some of the sampled networks.
        society = society_3_5(f12)
        space = interconnection_space(society.partition)
        scan = scan_space(compute_tables(space, society.partition, PARAMS.delta), society)
        masks = random.Random(f12).sample(range(space.size), 200)
        networks = [space.network_for(k) for k in masks]
        assert [scan.welfare[k] for k in masks] == [welfare(g, society) for g in networks]
        assert any(reduce(operator.add, payoffs(g, society)[::-1].tolist(), 0.0)
                   != scan.welfare[k] for k, g in zip(masks, networks))

    @pytest.mark.parametrize("delta", [0.5, 0.45])
    @pytest.mark.parametrize("f12", [0.3, 0.37, 0.71])
    @pytest.mark.parametrize("sizes", [(3, 3), (3, 4)], ids=["3+3", "3+4"])
    def test_scalar_payoff_equals_table_util_bitwise(self, sizes, f12, delta):
        # Both engines add delta**level * (members of g first reached at that
        # level) per group, then weight the groups: the same doubles in the
        # same order, so the payoffs agree exactly, not just within 1e-9.
        partition = GroupPartition.from_sizes(sizes)
        society = Society(partition, CoordinationMatrix.uniform(2, f12),
                          ModelParams(delta, 0.2))
        space = full_graph_space(partition.n)
        rng = random.Random(f"{sizes}{f12}{delta}")
        window = 1 << 12  # table rows per window; n = 7 has 2^21 networks
        mismatches = []
        for _ in range(4):
            start = rng.randrange(0, space.size, window)
            benefit, degree = _tables_chunk(space, partition, delta, start, start + window)
            util = _utilities(SpaceTables(space, partition, delta, benefit, degree), society)
            for row in rng.sample(range(window), 250):
                network = space.network_for(start + row)
                for v in range(partition.n):
                    if payoff(network, v, society) != util[v, row]:
                        mismatches.append((start + row, v))
        assert mismatches == []

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (3, 3, 3, 3)], ids=["3+3+3", "3+3+3+3"])
    def test_scalar_payoff_equals_table_util_bitwise_for_more_groups(self, sizes):
        # From three groups on, the order in which the weighted group
        # benefits are added shows in the last bit: both engines add them
        # from group 0 up.  Hand-built space: cliques pinned, 12 cross pairs
        # free, and a random symmetric weight for each pair of groups.
        partition = GroupPartition.from_sizes(sizes)
        m = partition.m
        rng = random.Random(f"{sizes}")
        society = Society(partition, CoordinationMatrix.from_upper_triangle(
            m, [rng.uniform(0, 1) for _ in range(m * (m - 1) // 2)]), PARAMS)
        space = SearchSpace(kind="interconnection", n=partition.n,
                            fixed_edges=frozenset(partition.intra_pairs()),
                            free_pairs=tuple(sorted(rng.sample(partition.cross_pairs(), 12))))
        util = _utilities(compute_tables(space, partition, PARAMS.delta), society)
        mismatches = [(k, v) for k in rng.sample(range(space.size), 300)
                      for v in range(partition.n)
                      if payoff(space.network_for(k), v, society) != util[v, k]]
        assert mismatches == []

    def test_worker_split_changes_nothing(self, monkeypatch):
        # 2^15 networks in chunks of 2^10: 32 chunk boundaries, and the
        # worker pool runs, which it never does for a single chunk
        monkeypatch.setattr("groupform.stability._CHUNK_BITS", 10)
        society = society_3_3(0.4)
        space = full_graph_space(6)
        benefit, degree = _tables_chunk(space, society.partition, 0.5, 0, space.size)
        for workers in (1, 2):
            tables = compute_tables(space, society.partition, 0.5, workers=workers)
            assert np.array_equal(tables.benefit, benefit)
            assert np.array_equal(tables.degree, degree)


class TestEngineAgainstReference:
    """The node-major table build and the XOR-partner scan reproduce the
    row-major build and the gather-based scan of `oracles` exactly."""

    @staticmethod
    def assert_identical(tables: SpaceTables, society: Society) -> None:
        space, partition, delta = tables.space, tables.partition, tables.delta
        benefit, degree = reference_tables_chunk(space, partition, delta, 0, space.size)
        assert tables.benefit.shape == benefit.shape and tables.benefit.dtype == np.float64
        assert tables.degree.shape == degree.shape and tables.degree.dtype == np.uint8
        assert np.array_equal(tables.benefit, benefit)
        assert np.array_equal(tables.degree, degree)
        reference = SpaceTables(space, partition, delta, benefit, degree)
        scan = scan_space(tables, society)
        assert np.array_equal(scan.stable, reference_stable(reference, society))
        assert np.array_equal(scan.welfare, reference_welfare(reference, society))

    # Lanes are uint8 up to 8 nodes (inter-3+5 sets node 7, the top bit),
    # uint16 up to 16 and uint32 up to 32, which no workload space reaches:
    # the hand-built spaces' free pairs touch the top bit (node 15, node 31)
    # and the first node past the narrower width (node 8, node 16).
    @pytest.mark.parametrize("space_of, sizes", [
        (lambda p: full_graph_space(p.n), (3, 3)),
        (interconnection_space, (3, 4)),
        (interconnection_space, (3, 5)),
        (pinned_paths((0, 8), (0, 15), (2, 13), (3, 12), (5, 10), (7, 8), (7, 15), (8, 15)),
         (8, 8)),
        (pinned_paths((0, 16), (0, 31), (3, 16), (5, 27), (8, 24), (9, 10), (15, 31),
                      (16, 31), (20, 21)),
         (10, 11, 11)),
    ], ids=["full-3+3", "inter-3+4", "inter-3+5", "uint16-8+8", "uint32-10+11+11"])
    def test_tables_and_scan_match_the_reference(self, space_of, sizes):
        partition = GroupPartition.from_sizes(sizes)
        society = Society(partition, CoordinationMatrix.uniform(partition.m, 0.45), PARAMS)
        self.assert_identical(compute_tables(space_of(partition), partition, PARAMS.delta),
                              society)

    # 2^15 networks: 32 chunks with 5 free pairs above the chunk, 2 chunks
    # with 1, and one chunk with none
    @pytest.mark.parametrize("chunk_bits", [10, 14, 15])
    def test_chunked_scan_matches_the_reference(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(stability, "_CHUNK_BITS", chunk_bits)
        society = society_3_3(0.45)
        self.assert_identical(compute_tables(full_graph_space(6), society.partition,
                                             PARAMS.delta), society)

    # With 2^10-network chunks, each chunk of the full 3+3 space decides its
    # 10 pairs below bit 10 and then the 5 above it on its live networks.
    # Each case first shows from the oracle that its situation occurs.
    @pytest.mark.parametrize("case, cost, f12, block", [
        ("above-clique-bound", 0.3, 0.45, 1 << 12),
        ("chunk-empties-early", 0.2, 0.1, 1 << 12),
        ("partial-block-above-chunk", 0.3, 0.9, 8),
    ])
    def test_live_set_scan_matches_the_reference(self, monkeypatch, case, cost, f12, block):
        monkeypatch.setattr(stability, "_CHUNK_BITS", 10)
        monkeypatch.setattr(stability, "_BLOCK", block)
        society = society_3_3(f12, ModelParams(PARAMS.delta, cost))
        tables = compute_tables(full_graph_space(6), society.partition, PARAMS.delta)
        if case == "above-clique-bound":
            # intra-group pairs no longer change every network without them
            assert not below_clique_bound(society.params)
        elif case == "chunk-empties-early":
            # two pairs change every network of some chunk, so whatever the
            # order its live set empties before its last pair
            by_chunk = reference_changing_pairs(tables, society).reshape(32, -1)
            assert (by_chunk.min(axis=1) >= 2).any()
        else:
            # some chunk's live set reaches the pairs above the chunk in
            # whole blocks and a last partial one
            in_chunk = reference_changing_pairs(tables, society, range(10)) == 0
            survivors = in_chunk.reshape(32, -1).sum(axis=1)
            assert ((survivors > block) & (survivors % block != 0)).any()
        self.assert_identical(tables, society)

    def test_scan_holds_no_whole_space_util(self, monkeypatch):
        # a whole-space util is K * n doubles; the chunked scan holds
        # welfare, stable, one chunk's utilities and live rows, and the
        # utilities of one block of partner networks
        monkeypatch.setattr(stability, "_CHUNK_BITS", 10)
        society = society_3_3(0.45)
        tables = compute_tables(full_graph_space(6), society.partition, PARAMS.delta)
        tracemalloc.start()
        try:
            scan_space(tables, society)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * tables.space.size * 8

    @pytest.fixture(scope="class")
    def tables_3_5(self) -> SpaceTables:
        partition = GroupPartition.from_sizes([3, 5])
        return compute_tables(interconnection_space(partition), partition, PARAMS.delta)

    def test_utilities_of_a_space_within_one_block(self):
        # 512 networks: the kernel's only block is a partial one
        society = society_3_3(0.45)
        tables = compute_tables(interconnection_space(society.partition), society.partition,
                                PARAMS.delta)
        assert tables.space.size < stability._BLOCK
        util = _utilities(tables, society)
        assert util.flags.c_contiguous  # node-major: one contiguous column per node
        assert np.array_equal(util, reference_utilities(tables, society).T)

    def test_utilities_of_a_slice_off_the_block_grid(self, tables_3_5):
        # 9,000 rows from row 1,000: two whole blocks and a partial one
        society = society_3_5(0.45)
        util = _utilities(tables_3_5, society, slice(1000, 10000))
        assert util.shape == (8, 9000) and util.flags.c_contiguous
        assert np.array_equal(util, reference_utilities(tables_3_5, society)[1000:10000].T)

    # the four stable bounds (0.2, 0.4, 8/15, 0.8), 0.32 with its real ties,
    # and an interior point of the 3-link regime
    @pytest.mark.parametrize("f12", [*stable_boundaries(3, 5, PARAMS), 0.32, 0.6])
    def test_scan_matches_the_reference_at_the_bounds(self, tables_3_5, f12):
        self.assert_identical(tables_3_5, society_3_5(f12))


class TestStabilityIntervals:
    """From the second scan of a two-group table at one cost, `scan_space`
    reads the flags off per-network F12 intervals; every flag and welfare
    must equal a first scan's on a fresh table, bit for bit."""

    @staticmethod
    def society(sizes, delta: float, cost: float, f12: float) -> Society:
        return Society(GroupPartition.from_sizes(sizes), CoordinationMatrix.uniform(2, f12),
                       ModelParams(delta, cost))

    @staticmethod
    def first_scan(tables: SpaceTables, society: Society) -> SpaceScan:
        fresh = SpaceTables(tables.space, tables.partition, tables.delta,
                            tables.benefit, tables.degree)
        return scan_space(fresh, society)

    def assert_second_scans_match(self, tables: SpaceTables, society_at, grid) -> None:
        # the per-pair scan, then the interval build: two distinct societies,
        # since a table returns its last scan again for an equal one
        cost = society_at(grid[0]).params.cost
        built = cost in tables._intervals
        scan_space(tables, society_at(grid[0]))
        # a first scan at a cost builds none, and drops another cost's
        assert list(tables._intervals) == ([cost] if built else [])
        scan_space(tables, society_at(grid[1]))
        assert list(tables._intervals) == [cost]
        for f12 in grid:
            society = society_at(f12)
            scan, expected = scan_space(tables, society), self.first_scan(tables, society)
            assert np.array_equal(scan.stable, expected.stable), f12
            assert np.array_equal(scan.welfare, expected.welfare), f12

    # the workload society, the other size split, both delta extremes, a cost
    # just below the clique bound, and a full space (n = 6: two groups of at
    # least 3 need 6 nodes)
    @pytest.mark.parametrize("sizes, delta, cost, full", [
        ((3, 5), 0.5, 0.2, False),
        ((4, 4), 0.5, 0.2, False),
        ((3, 5), 0.05, 0.02, False),
        ((3, 5), 0.95, 0.02, False),
        ((3, 5), 0.5, 0.25 - 2 * EPSILON, False),
        ((3, 3), 0.5, 0.2, True),
    ], ids=["3+5", "4+4", "delta-0.05", "delta-0.95", "cost-at-clique-bound", "full-3+3"])
    def test_second_scan_equals_a_first_scan_on_a_dense_grid(self, sizes, delta, cost, full):
        partition = GroupPartition.from_sizes(sizes)
        params = ModelParams(delta, cost)
        space = full_graph_space(partition.n) if full else interconnection_space(partition)
        tables = compute_tables(space, partition, delta)
        bounds = [*stable_boundaries(*sizes, params), *efficient_boundaries(*sizes, params)]
        grid = sorted({k / 40 for k in range(41)} | {b for b in bounds if b <= 1})
        self.assert_second_scans_match(
            tables, lambda f12: self.society(sizes, delta, cost, f12), grid)

    # On a full space, whose intra-group pairs settle most networks unstable
    # at every F12, the rows that fall back to the per-pair scan are the grid
    # points within the margin of a stable bound, and 0 near the clique bound.
    @pytest.mark.parametrize("cost, rows", [
        (0.2, [0.2, 0.4, 8 / 15, 0.8]),
        (0.25 - 2 * EPSILON, [0.0, 0.25 - 2 * EPSILON, 0.25, 0.5 - 4 * EPSILON, 0.5,
                              2 / 3 - 16 / 3 * EPSILON, 1 - 8 * EPSILON, 1.0]),
    ], ids=["cost-0.2", "cost-at-clique-bound"])
    def test_full_space_rows_that_scan_pair_by_pair(self, cost, rows):
        sizes, params = (3, 3), ModelParams(PARAMS.delta, cost)
        tables = compute_tables(full_graph_space(6), GroupPartition.from_sizes(sizes),
                                params.delta)
        bounds = [*stable_boundaries(*sizes, params), *efficient_boundaries(*sizes, params)]
        grid = sorted({k / 40 for k in range(41)} | {b for b in bounds if b <= 1})
        societies = [self.society(sizes, params.delta, cost, f12) for f12 in grid]
        for society in societies[:2]:
            scan_space(tables, society)
        per_pair = [f12 for f12, society in zip(grid, societies)
                    if stability._interval_flags(tables, society) is None]
        assert per_pair == pytest.approx(rows, rel=0, abs=1e-12)

    def test_flags_at_the_interval_ends_equal_the_pair_rule(self):
        # at an end the float rule may go either way; only the fallback
        # near the ends keeps the flags equal there
        tables = compute_tables(interconnection_space(GroupPartition.from_sizes([3, 5])),
                                GroupPartition.from_sizes([3, 5]), PARAMS.delta)
        for f12 in (0.5, 0.6):
            scan_space(tables, society_3_5(f12))
        lo, hi, _, _ = tables._intervals[PARAMS.cost]
        ends = np.unique(np.concatenate([lo, hi]))
        ends = ends[(0 < ends) & (ends < 1)]
        assert ends.size >= 5
        grid = [x for end in ends for x in (np.nextafter(end, 0), end, np.nextafter(end, 1))]
        self.assert_second_scans_match(tables, society_3_5, [0.5, *map(float, grid)])

    @pytest.mark.parametrize("untrusted", ["every network", "one stable network"])
    def test_a_nan_end_makes_the_whole_scan_per_pair(self, untrusted):
        tables = compute_tables(interconnection_space(GroupPartition.from_sizes([3, 5])),
                                GroupPartition.from_sizes([3, 5]), PARAMS.delta)
        grid = (0.1, 0.6, 0.9)  # no interval end within the margin of these
        for f12 in grid:
            scan_space(tables, society_3_5(f12))
            # the first scan at the cost is per pair and builds no intervals
            assert (stability._interval_flags(tables, society_3_5(f12)) is None) == (f12 == 0.1)
        lo, hi, _, _ = tables._intervals[PARAMS.cost]
        if untrusted == "every network":
            lo[:] = hi[:] = np.nan
        else:  # read off its NaN end, this network would be unstable at 0.6
            lo[np.flatnonzero((lo <= 0.6) & (0.6 <= hi))[0]] = np.nan
        for f12 in grid:
            assert stability._interval_flags(tables, society_3_5(f12)) is None
            assert np.array_equal(scan_space(tables, society_3_5(f12)).stable,
                                  self.first_scan(tables, society_3_5(f12)).stable)

    def test_intervals_follow_the_cost_of_each_scan(self):
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        for cost in (0.2, 0.1, 0.2):
            grid = [0.1, 0.3, 0.45, 0.6, 0.9]
            self.assert_second_scans_match(
                tables, lambda f12: self.society((3, 5), PARAMS.delta, cost, f12), grid)
            assert list(tables._intervals) == [cost]

    @pytest.fixture
    def builds(self, monkeypatch) -> list:
        calls = []
        build = stability._stability_intervals

        def spy(tables, society):
            calls.append(society.params.cost)
            return build(tables, society)
        monkeypatch.setattr(stability, "_stability_intervals", spy)
        return calls

    def test_one_scan_per_table_never_builds(self, builds):
        partition = GroupPartition.from_sizes([3, 5])
        space = interconnection_space(partition)
        for f12 in (0.1, 0.3, 0.8):
            stability._last_tables.clear()  # each society in a process of its own
            enumerate_stable(space, society_3_5(f12))
            efficient_search(space, society_3_5(f12))
            price_of_anarchy(space, society_3_5(f12))
            scan_space(compute_tables(space, partition, PARAMS.delta), society_3_5(f12))
        assert builds == []
        # a second society at the cost is the table's second scan, as in a sweep
        enumerate_stable(space, society_3_5(0.3))
        price_of_anarchy(space, society_3_5(0.3))
        assert builds == [PARAMS.cost]

    def test_second_scan_builds_once(self, builds):
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        for f12 in (0.1, 0.3, 0.8, 0.9):
            scan_space(tables, society_3_5(f12))
        assert builds == [PARAMS.cost]

    def test_three_groups_keep_the_per_pair_scan(self, builds):
        partition = GroupPartition.from_sizes([3, 3, 3])
        space = SearchSpace(kind="interconnection", n=9,
                            fixed_edges=frozenset(partition.intra_pairs()),
                            free_pairs=tuple(partition.cross_pairs()[::3]))
        tables = compute_tables(space, partition, PARAMS.delta)
        for f12 in (0.1, 0.3, 0.8):
            scan_space(tables, Society(partition, CoordinationMatrix.uniform(3, f12), PARAMS))
        assert builds == [] and tables._intervals == {}


class TestWelfareLines:
    """On a line row (`scan_space`) the answers come from the networks that
    the welfare lines pick (`stability._line_rows`), and the whole welfare
    is computed on first read; all must equal a first scan's, bit for bit."""

    def test_kernel_welfare_lies_within_the_line_radius(self):
        # The margin argument of `_welfare_lines`, measured exactly at the 201
        # points of the sweep.  With delta = 1/2 every benefit is a dyadic
        # fraction of few bits, so each network's summed own-group benefit,
        # other-group benefit and degree are exact and give its exact line.
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        n, nodes = partition.n, np.arange(partition.n)
        group = np.array(partition.membership)
        sums = np.stack([tables.benefit[:, nodes, group].sum(axis=1),
                         tables.benefit[:, nodes, 1 - group].sum(axis=1),
                         tables.degree.sum(axis=1, dtype=np.int64)], axis=1)
        # group the networks by their exact line: each group's extreme
        # welfares bound its error
        keys, key_of = np.unique(sums, axis=0, return_inverse=True)
        order = np.argsort(key_of.ravel(), kind="stable")
        firsts = np.searchsorted(key_of.ravel()[order], np.arange(len(keys)))
        base, slope = stability._welfare_lines(tables, society_3_5(0.0))
        cost, worst_welfare, worst_line = Fraction(PARAMS.cost), Fraction(0), Fraction(0)

        def worst_off(values: np.ndarray, exact: list) -> Fraction:
            return max(abs(Fraction(value) - e)
                       for reduce in (np.maximum.reduceat, np.minimum.reduceat)
                       for value, e in zip(reduce(values[order], firsts).tolist(), exact))
        for x in _grid(0.0, 1.0, 0.005):
            exact = [Fraction(own) - cost * int(degree) + Fraction(other) * Fraction(x)
                     for own, other, degree in keys]
            welfare = stability._rows_welfare(tables, society_3_5(x), slice(None))
            worst_welfare = max(worst_welfare, worst_off(welfare, exact))
            worst_line = max(worst_line, worst_off(base + slope * x, exact))
        radius = stability._line_radius(n, PARAMS.cost)
        assert radius == n * (n - 1) * (1 + PARAMS.cost) * 2.0 ** -44
        assert 0 < worst_welfare and worst_welfare + worst_line <= radius

    def test_line_rows_pick_the_networks_within_the_margins(self):
        radius = 1e-12
        base = np.array([1.0, 2.0, 2.0 - EPSILON, 2.0 - 2 * EPSILON, 0.5, 0.5 + 1e-13])
        slope = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        at_cost = stability._AtCost(np.zeros(6), np.ones(6), base - slope, slope)
        stable = np.array([True, False, False, True, True, True])
        top, low = stability._line_rows(at_cost, stable, 1.0, radius)
        # within EPSILON + 2 * radius of the highest line 2.0, and within
        # 2 * radius of the least stable line 0.5
        assert top.tolist() == [1, 2] and low.tolist() == [4, 5]
        top, low = stability._line_rows(at_cost, np.zeros(6, dtype=bool), 1.0, radius)
        assert top.tolist() == [1, 2] and low.size == 0
        scan = SpaceScan(space=full_graph_space(3), stable=np.zeros(8, dtype=bool),
                         welfare_of=np.arange(8.0).__getitem__, top=np.array([6, 7]), low=low)
        assert scan.best == 7.0 and scan.argmax_masks().tolist() == [7]
        assert math.isnan(scan.stable_min)
        assert_scan_answers(scan)

    # the sweep's table, the other size splits, both delta extremes and a
    # full space at two costs, each with its count of line rows among the
    # 201: all but the first and those with an interval end within the margin
    @pytest.mark.parametrize("sizes, delta, cost, full, rows", [
        ((3, 5), 0.5, 0.2, False, 197),
        ((4, 4), 0.5, 0.2, False, 196),
        ((3, 4), 0.5, 0.2, False, 197),
        ((3, 5), 0.05, 0.02, False, 200),
        ((3, 5), 0.95, 0.02, False, 200),
        ((3, 3), 0.5, 0.2, True, 197),
        ((3, 3), 0.5, 0.1, True, 197),
    ], ids=["3+5", "4+4", "3+4", "delta-0.05", "delta-0.95", "full-3+3", "full-3+3-cost-0.1"])
    def test_line_rows_equal_first_scans(self, sizes, delta, cost, full, rows):
        def bits(x: float) -> bytes:
            return np.float64(x).tobytes()
        partition = GroupPartition.from_sizes(sizes)
        space = full_graph_space(partition.n) if full else interconnection_space(partition)
        stability._last_tables.clear()
        line_rows = 0
        for f12 in _grid(0.0, 1.0, 0.005):
            society = TestStabilityIntervals.society(sizes, delta, cost, f12)
            scan = stability._scan_for(space, society)  # the sweep's own path
            if scan.top is None:
                continue
            line_rows += 1
            expected = TestStabilityIntervals.first_scan(
                compute_tables(space, partition, delta), society)
            assert expected.top is None
            assert scan.stable.tobytes() == expected.stable.tobytes(), f12
            assert bits(scan.best) == bits(expected.best), f12
            assert np.array_equal(scan.argmax_masks(), expected.argmax_masks()), f12
            assert bits(scan.stable_min) == bits(expected.stable_min), f12
            assert scan.welfare.tobytes() == expected.welfare.tobytes(), f12
        assert line_rows == rows


class TestCachedColumns:
    """The interval build of a two-group table first copies ``benefit`` and
    ``degree`` node-major onto the tables; every later scan computes its
    utilities from that copy, with the flags and welfare of a first scan."""

    @pytest.fixture
    def caches(self, monkeypatch) -> list:
        calls = []
        cache = stability._cache_columns

        def spy(tables):
            calls.append(tables)
            return cache(tables)
        monkeypatch.setattr(stability, "_cache_columns", spy)
        return calls

    @staticmethod
    def sweep_tables() -> SpaceTables:
        partition = GroupPartition.from_sizes([3, 5])
        return compute_tables(interconnection_space(partition), partition, PARAMS.delta)

    def test_built_once_and_kept_across_rows_and_costs(self, monkeypatch):
        build, seen = stability._stability_intervals, []

        def spy(tables, society):
            seen.append(dict(tables._columns))
            return build(tables, society)
        monkeypatch.setattr(stability, "_stability_intervals", spy)
        tables = self.sweep_tables()
        scan_space(tables, society_3_5(0.1))  # a first scan: per-pair
        assert tables._columns == {} and seen == []
        scan_space(tables, society_3_5(0.3))  # builds the intervals, which settle it
        assert stability._interval_flags(tables, society_3_5(0.3)) is not None
        cached = dict(tables._columns)
        assert sorted(cached) == ["benefit", "degree"]
        for f12, cost in [(0.4, 0.2), (0.6, 0.2), (0.3, 0.1), (0.7, 0.1), (0.5, 0.2)]:
            society = TestStabilityIntervals.society((3, 5), PARAMS.delta, cost, f12)
            scan_space(tables, society)
            assert tables._columns.keys() == cached.keys()
            assert all(tables._columns[name] is cached[name] for name in cached)
        # one build per cost, 0.2 and then 0.1, each reading the one copy
        assert len(seen) == 2
        assert all(copy[name] is cached[name] for copy in seen for name in cached)

    def test_columns_equal_the_tables(self):
        tables = self.sweep_tables()
        for f12 in (0.1, 0.3):
            scan_space(tables, society_3_5(f12))
        expected = {"benefit": tables.benefit.transpose(1, 2, 0), "degree": tables.degree.T}
        assert tables._columns.keys() == expected.keys()
        for name, copy in tables._columns.items():
            assert copy.flags.c_contiguous and copy.dtype == expected[name].dtype, name
            assert copy.shape == expected[name].shape, name
            assert copy.tobytes() == np.ascontiguousarray(expected[name]).tobytes(), name
        assert tables.benefit.flags.c_contiguous and tables.degree.flags.c_contiguous

    def test_one_scan_commands_first_scans_and_three_groups_never_build(self, caches):
        partition = GroupPartition.from_sizes([3, 5])
        space = interconnection_space(partition)
        for f12 in (0.1, 0.3, 0.8):
            stability._last_tables.clear()  # each society in a process of its own
            enumerate_stable(space, society_3_5(f12))
            efficient_search(space, society_3_5(f12))
            price_of_anarchy(space, society_3_5(f12))
        stability._last_tables.clear()
        tables = compute_tables(space, partition, PARAMS.delta)
        scan_space(tables, society_3_5(0.3))
        assert tables._columns == {}
        partition = GroupPartition.from_sizes([3, 3, 3])
        space = SearchSpace(kind="interconnection", n=9,
                            fixed_edges=frozenset(partition.intra_pairs()),
                            free_pairs=tuple(partition.cross_pairs()[::3]))
        tables = compute_tables(space, partition, PARAMS.delta)
        for f12 in (0.1, 0.3, 0.8):
            scan_space(tables, Society(partition, CoordinationMatrix.uniform(3, f12), PARAMS))
        assert tables._columns == {} and caches == []

    @pytest.mark.parametrize("f12", [0.2, 0.4, 0.8])
    def test_per_pair_scans_from_the_columns_equal_a_first_scan(self, f12):
        tables = self.sweep_tables()
        for x in (0.1, 0.3):
            scan_space(tables, society_3_5(x))
        assert tables._columns
        society = society_3_5(f12)
        assert stability._interval_flags(tables, society) is None  # an end within the margin
        scan = scan_space(tables, society)
        expected = TestStabilityIntervals.first_scan(tables, society)
        assert np.array_equal(scan.stable, expected.stable)
        assert scan.welfare.tobytes() == expected.welfare.tobytes()


class TestKernelSources:
    """`_utilities` reads a table's node-major copy when it holds one and
    strided views of the table otherwise; both give the same bytes."""

    @pytest.fixture(scope="class")
    def tables_3_5(self) -> tuple[SpaceTables, SpaceTables]:
        copied = TestCachedColumns.sweep_tables()
        stability._last_tables.clear()  # so that `fresh` is a second table
        fresh = TestCachedColumns.sweep_tables()
        for f12 in (0.1, 0.3):
            scan_space(copied, society_3_5(f12))  # the second scan copies the table
        assert copied._columns and not fresh._columns
        return copied, fresh

    @pytest.mark.parametrize("cost", [0.2, 0.1])
    @pytest.mark.parametrize("rows", [slice(None), slice(1000, 10000)])
    def test_copy_and_strided_views_agree_on_the_sweep(self, tables_3_5, cost, rows):
        copied, fresh = tables_3_5
        for f12 in _grid(0.0, 1.0, 0.005)[::8]:
            society = TestStabilityIntervals.society((3, 5), PARAMS.delta, cost, f12)
            assert (_utilities(copied, society, rows).tobytes()
                    == _utilities(fresh, society, rows).tobytes()), f12
        assert not fresh._columns

    def test_copy_and_strided_views_agree_for_three_groups(self):
        partition = GroupPartition.from_sizes([3, 3, 3])
        space = SearchSpace(kind="interconnection", n=9,
                            fixed_edges=frozenset(partition.intra_pairs()),
                            free_pairs=tuple(partition.cross_pairs()[::3]))
        copied = compute_tables(space, partition, PARAMS.delta)
        stability._last_tables.clear()  # so that `fresh` is a second table
        fresh = compute_tables(space, partition, PARAMS.delta)
        stability._cache_columns(copied)
        assert copied._columns["benefit"].shape == (9, 3, space.size)
        society = Society(partition, CoordinationMatrix.from_upper_triangle(3, [0.1, 0.35, 0.7]),
                          PARAMS)
        for rows in (slice(None), slice(100, 700)):
            util = _utilities(copied, society, rows)
            assert util.tobytes() == _utilities(fresh, society, rows).tobytes()
            assert np.array_equal(util, reference_utilities(fresh, society)[rows].T)


class TestColumnWelfare:
    """`_welfare` adds each network's node-major columns left to right from
    0.0, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_column_sum_is_the_left_to_right_sum(self, rows):
        rng = np.random.default_rng(rows)
        zeros = rng.choice([0.0, -0.0], size=(rows, 32))
        spread = rng.standard_normal((rows, 32)) * 10.0 ** rng.integers(-8, 8, size=(rows, 32))
        mixed = np.where(rng.random((rows, 32)) < 0.5, zeros, spread)
        for values in (spread, zeros, mixed, -np.abs(zeros)):
            for n in range(1, 33):
                row_major = values[:, :n]
                out = stability._welfare(np.ascontiguousarray(row_major.T), np.empty(rows))
                expected = np.array([reduce(operator.add, row, 0.0)
                                     for row in row_major.tolist()])
                assert out.tobytes() == expected.tobytes(), n

    def test_sweep_welfare_is_the_reference_welfare(self):
        # every fourth sweep row: the first scan, the interval build, the
        # per-pair scans at 0.2, 0.4 and 0.8, and interval scans between
        tables = TestCachedColumns.sweep_tables()
        for f12 in _grid(0.0, 1.0, 0.005)[::4]:
            society = society_3_5(f12)
            expected = reference_welfare(tables, society)
            assert scan_space(tables, society).welfare.tobytes() == expected.tobytes(), f12
        assert tables._columns  # the later rows read the node-major copy


class TestIdentity:
    def test_tables_and_scans_compare_and_hash_by_identity(self):
        partition = GroupPartition.from_sizes([3, 3])
        space = interconnection_space(partition)
        tables = compute_tables(space, partition, PARAMS.delta)
        stability._last_tables.clear()  # so that `twin` is built anew
        twin = compute_tables(space, partition, PARAMS.delta)
        assert tables != twin and tables == tables
        scan, twin_scan = (scan_space(t, society_3_3(0.3)) for t in (tables, twin))
        assert scan != twin_scan and scan == scan
        assert len({tables, twin, scan, twin_scan}) == 4


class TestMemo:
    """`compute_tables` returns its last table again for an equal argument
    tuple, and a table its last scan for an equal society; anything else is
    built anew, a table only after the old one is freed."""

    def test_a_hit_returns_the_identical_table_and_scan(self):
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        scan = scan_space(tables, society_3_5(0.3))
        # equal arguments, each made anew
        again = compute_tables(interconnection_space(GroupPartition.from_sizes([3, 5])),
                               GroupPartition.from_sizes([3, 5]), 0.5, workers=1)
        assert again is tables
        assert scan_space(again, society_3_5(0.3)) is scan
        assert stability._scan_for(interconnection_space(partition), society_3_5(0.3)) is scan

    @pytest.mark.parametrize("changed", ["delta", "partition", "space", "workers"])
    def test_another_argument_builds_anew_after_freeing_the_old_table(self, monkeypatch,
                                                                      changed):
        partition = GroupPartition.from_sizes([3, 3])
        args = {"space": full_graph_space(6), "partition": partition, "delta": 0.5,
                "workers": 1}
        other = {"delta": 0.45, "partition": GroupPartition((0, 1, 0, 1, 0, 1)),
                 "space": interconnection_space(partition), "workers": 2}
        old = weakref.ref(compute_tables(**args))
        build, old_alive_at_build = stability._tables_chunk, []

        def spy(*chunk_args):
            old_alive_at_build.append(old() is not None)
            return build(*chunk_args)
        monkeypatch.setattr(stability, "_tables_chunk", spy)
        args[changed] = other[changed]
        tables = compute_tables(**args)
        assert old_alive_at_build == [False]  # one chunk, built once the old table was freed
        assert old() is None
        space, partition, delta = args["space"], args["partition"], args["delta"]
        assert (tables.space, tables.partition, tables.delta) == (space, partition, delta)
        benefit, degree = build(space, partition, delta, 0, space.size)
        assert np.array_equal(tables.benefit, benefit) and np.array_equal(tables.degree, degree)
        assert compute_tables(**args) is tables

    def test_a_table_with_a_line_row_is_freed_once_dropped(self):
        # a line row keeps the table's arrays for its welfare, not the table,
        # so the table and its remembered scan hold no reference cycle
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        for f12 in (0.3, 0.6):
            scan = scan_space(tables, society_3_5(f12))
        assert scan.top is not None  # a line row
        expected = TestStabilityIntervals.first_scan(tables, society_3_5(0.6)).welfare
        old = weakref.ref(tables)
        del tables
        gc.disable()  # freed by reference counts alone
        try:
            compute_tables(interconnection_space(partition), partition, 0.45)
            assert old() is None
        finally:
            gc.enable()
        assert scan.welfare.tobytes() == expected.tobytes()

    def test_another_society_scans_anew_as_a_first_scan_would(self):
        # cost 0.2 per pair, then the interval build; cost 0.1 per pair, then
        # its intervals; cost 0.2 again, per pair
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        previous = None
        for cost, f12 in [(0.2, 0.3), (0.2, 0.35), (0.1, 0.35), (0.1, 0.5), (0.2, 0.3)]:
            society = TestStabilityIntervals.society((3, 5), PARAMS.delta, cost, f12)
            scan = scan_space(tables, society)
            assert scan is not previous
            expected = TestStabilityIntervals.first_scan(tables, society)
            assert scan.stable.tobytes() == expected.stable.tobytes(), (cost, f12)
            assert scan.welfare.tobytes() == expected.welfare.tobytes(), (cost, f12)
            assert scan_space(tables, society) is scan
            previous = scan

    def test_tables_and_scans_are_read_only(self):
        partition = GroupPartition.from_sizes([3, 5])
        tables = compute_tables(interconnection_space(partition), partition, PARAMS.delta)
        first = scan_space(tables, society_3_5(0.3))  # per pair
        second = scan_space(tables, society_3_5(0.6))  # flags off the intervals
        assert stability._interval_flags(tables, society_3_5(0.6)) is not None
        for array in (tables.benefit, tables.degree, first.stable, first.welfare,
                      second.stable, second.welfare):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestIntervalBuild:
    """`_stability_intervals` lowers ``hi`` to every free pair's ``form`` and
    raises ``lo`` to its ``keep``; it skips a pair only for networks
    already shown unstable on the domain."""

    @pytest.fixture(scope="class")
    def full_3_3(self):
        society = society_3_3(0.3)
        tables = compute_tables(full_graph_space(6), society.partition, PARAMS.delta)
        return tables, society

    def test_skipping_settled_networks_changes_no_live_interval(self, full_3_3):
        tables, society = full_3_3
        space, group = tables.space, society.partition.membership
        lo, hi = stability._stability_intervals(tables, society)
        full_lo = np.full(space.size, stability._DOMAIN[0])
        full_hi = np.full(space.size, stability._DOMAIN[1])
        half = np.arange(space.size >> 1)
        eta = 2.0 ** -40 * (space.n - 1) * (1.0 + PARAMS.cost)
        for t, (i, j) in enumerate(space.free_pairs):
            absent = (half >> t << (t + 1)) | (half & ((1 << t) - 1))
            present = absent | (1 << t)
            changes = [(gain[:, group[v]] - PARAMS.cost, gain[:, 1 - group[v]])
                       for v in (i, j)
                       for gain in [tables.benefit[present, v] - tables.benefit[absent, v]]]
            form, keep = stability._pair_intervals(*changes, eta)
            full_hi[absent] = np.minimum(full_hi[absent], form)
            full_lo[present] = np.maximum(full_lo[present], keep)
        live = full_lo <= full_hi
        assert 0 < np.count_nonzero(live) < space.size
        assert np.array_equal(lo <= hi, live)
        assert np.array_equal(lo[live], full_lo[live]) and np.array_equal(hi[live], full_hi[live])

    def test_an_untrusted_pair_interval_leaves_its_networks_untrusted(self, monkeypatch,
                                                                      full_3_3):
        tables, society = full_3_3
        pair_intervals, marked = stability._pair_intervals, []

        def first_block_untrusted(change_i, change_j, eta):
            form, keep = pair_intervals(change_i, change_j, eta)
            if not marked:
                form[:] = keep[:] = np.nan
                marked.append(form.size)
            return form, keep
        monkeypatch.setattr(stability, "_pair_intervals", first_block_untrusted)
        lo, hi = stability._stability_intervals(tables, society)
        # each network of the block gets a NaN at the end its side moves:
        # ``hi`` without the pair, ``lo`` with it
        assert np.count_nonzero(np.isnan(lo) | np.isnan(hi)) == 2 * marked[0]
        assert np.count_nonzero(np.isnan(lo)) == np.count_nonzero(np.isnan(hi)) == marked[0]

    def test_scanned_changes_lie_within_the_margin_arguments_bound(self):
        # The margin argument of `_stability_intervals`: a scanned endpoint
        # change is within S * 2**-49 of a + b * x, S = (n - 1) * (1 + cost),
        # here measured exactly at the 201 points of the sweep.  With delta
        # = 1/2 every benefit is a dyadic fraction of few bits, so the gains
        # that make a (before the cost) and b are exact.
        partition = GroupPartition.from_sizes([3, 5])
        space = interconnection_space(partition)
        tables = compute_tables(space, partition, PARAMS.delta)
        group, n = partition.membership, space.n
        half = np.arange(space.size >> 1)
        without, with_pair, gains = [], [], []
        for t, (i, j) in enumerate(space.free_pairs):
            absent = (half >> t << (t + 1)) | (half & ((1 << t) - 1))
            for v in (i, j):
                # flat indices of node v's utility in each network and its partner
                without.append(absent * n + v)
                with_pair.append((absent | 1 << t) * n + v)
                gain = tables.benefit[absent | 1 << t, v] - tables.benefit[absent, v]
                gains.append(gain[:, [group[v], 1 - group[v]]])
        # group the changes by their (own, other) gain: each group has one
        # affine change, so its extreme scanned changes bound its error
        keys, key_of = np.unique(np.concatenate(gains), axis=0, return_inverse=True)
        order = np.argsort(key_of.ravel(), kind="stable")
        firsts = np.searchsorted(key_of.ravel()[order], np.arange(len(keys)))
        without, with_pair = (np.concatenate(flat)[order] for flat in (without, with_pair))
        cost, worst = Fraction(PARAMS.cost), Fraction(0)
        for x in _grid(0.0, 1.0, 0.005):
            util = _utilities(tables, society_3_5(x)).T.ravel()
            change = util[with_pair] - util[without]
            for (own, other), top, bottom in zip(keys, np.maximum.reduceat(change, firsts),
                                                 np.minimum.reduceat(change, firsts)):
                exact = Fraction(own) - cost + Fraction(other) * Fraction(x)
                worst = max(worst, abs(Fraction(top) - exact), abs(Fraction(bottom) - exact))
        assert 0 < worst <= (n - 1) * (1 + PARAMS.cost) * 2.0 ** -49


class TestRegimeBoundaries:
    """Over the whole F12 range of a two-group table at one cost, the stable
    set changes only at the paper's bounds: the interior ends of the live
    networks' F12 stability intervals are exactly `stable_boundaries`, each
    within `_MARGIN`, and at each bound a network whose interval starts there
    and one whose interval ends there change their verdict across it in
    exact arithmetic."""

    STEP = Fraction(1, 1000)

    @pytest.mark.parametrize("sizes, delta, cost, full", [
        ((3, 5), 0.5, 0.2, False),
        ((4, 4), 0.5, 0.2, False),
        ((3, 5), 0.05, 0.02, False),
        ((3, 5), 0.95, 0.02, False),
        ((3, 3), 0.5, 0.2, True),
        ((3, 3), 0.5, 0.1, True),
    ], ids=["3+5", "4+4", "delta-0.05", "delta-0.95", "full-3+3", "full-3+3-cost-0.1"])
    def test_interval_ends_are_the_stable_boundaries(self, sizes, delta, cost, full):
        partition, params = GroupPartition.from_sizes(sizes), ModelParams(delta, cost)
        space = full_graph_space(partition.n) if full else interconnection_space(partition)
        tables = compute_tables(space, partition, delta)
        # the build reads the cost, not F12
        society = Society(partition, CoordinationMatrix.uniform(2, 0.5), params)
        lo, hi = stability._stability_intervals(tables, society)
        assert not (np.isnan(lo).any() or np.isnan(hi).any())
        live = np.flatnonzero(lo <= hi)
        low, high = stability._DOMAIN
        ends = np.concatenate([lo[live], hi[live]])
        ends = ends[(low < ends) & (ends < high)]
        bounds = np.array([b for b in stable_boundaries(*sizes, params) if low < b < high])
        near = np.abs(ends[:, None] - bounds[None, :]) <= stability._MARGIN
        assert near.any(axis=1).all()  # no end off a bound
        assert near.any(axis=0).all()  # and an end at every bound

        exact = dict(partition=partition, delta=Fraction(str(delta)), cost=Fraction(str(cost)))
        wide = 2 * float(self.STEP)  # intervals reaching past the step inside

        def stable_at(mask, f12: Fraction) -> bool:
            return exact_pairwise_stable(space.network_for(int(mask)),
                                         coordination=[[1, f12], [f12, 1]], **exact)
        for bound in bounds:
            x = Fraction(float(bound)).limit_denominator(10**6)
            starts = live[(np.abs(lo[live] - bound) <= stability._MARGIN)
                          & (hi[live] > bound + wide)]
            stops = live[(np.abs(hi[live] - bound) <= stability._MARGIN)
                         & (lo[live] < bound - wide)]
            assert starts.size and stops.size, bound
            assert stable_at(starts[0], x + self.STEP) and not stable_at(starts[0], x - self.STEP)
            assert stable_at(stops[0], x - self.STEP) and not stable_at(stops[0], x + self.STEP)


class TestPairIntervals:
    """`_pair_intervals` on hand-made changes ``a + b * x``."""

    ETA = 1e-12

    def ends(self, i, j):
        form, keep = stability._pair_intervals(
            *((np.array([a]), np.array([b])) for a, b in (i, j)), self.ETA)
        return form[0], keep[0]

    def test_sides_follow_the_rule_off_the_ends(self):
        rng = np.random.default_rng(7)
        low, high = stability._DOMAIN
        xs = np.linspace(low, high, 301)
        for _ in range(200):
            i, j = ((rng.uniform(-1, 1), rng.uniform(0, 2)) for _ in range(2))
            form, keep = self.ends(i, j)
            for present, unchanged, end in ((False, xs <= form, form), (True, xs >= keep, keep)):
                sign = -1.0 if present else 1.0
                rule = ~_pair_changes(present, sign * (i[0] + i[1] * xs),
                                      sign * (j[0] + j[1] * xs))
                far = np.abs(xs - end) > stability._MARGIN
                assert np.array_equal(rule[far], unchanged[far]), (i, j, present)

    def test_a_flat_change_near_a_bound_has_no_trusted_interval(self):
        slope = self.ETA  # far below 2 * eta / margin
        assert np.isnan(self.ends((-EPSILON - 0.3 * slope, slope), (1.0, 1.0))).all()

    def test_an_exact_flat_tie_has_no_trusted_interval(self):
        # i's change sits on -EPSILON at every F12: its loss crossing is 0 / 0
        assert np.isnan(self.ends((-EPSILON, 0.0), (1.0, 1.0))).all()

    def test_a_flat_change_away_from_every_bound_is_trusted(self):
        # j gains for every F12; i's flat change stays 0, inside the band:
        # the pair is formed and kept on the whole domain
        form, keep = self.ends((0.0, 0.0), (1.0, 1.0))
        assert form < stability._DOMAIN[0] and keep < stability._DOMAIN[0]

    def test_the_rule_is_monotone_in_each_change(self):
        # the half-line ends rest on this: raising either endpoint's change
        # from adding the pair never stops a formation and never starts a cut
        values = np.array([-1.0, -1e-3, 0.0, 1e-3, 1.0,
                           *(np.nextafter(bound, toward) for bound in (-EPSILON, EPSILON)
                             for toward in (-np.inf, np.inf)),
                           -EPSILON, EPSILON])
        i, j, raised_i, raised_j = np.meshgrid(values, values, values, values, indexing="ij")
        raised = (raised_i >= i) & (raised_j >= j)
        formed = _pair_changes(False, i, j)
        assert not (raised & formed & ~_pair_changes(False, raised_i, raised_j)).any()
        cut = _pair_changes(True, -i, -j)
        assert not (raised & ~cut & _pair_changes(True, -raised_i, -raised_j)).any()


class TestFixpointEquivalence:
    @given(st.integers(0, 2**31))
    def test_stability_equals_no_step_changes(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        network = random_network(rng, society.n)
        unchanged = all(
            step(network, pair, society)[1] is Action.NO_CHANGE
            for pair in all_pairs(society.n))
        assert unchanged == is_pairwise_stable(network, society)


class TestEpsilonBandAudit:
    """Every payoff change the table engine puts inside the epsilon band is
    an exact tie in rational arithmetic, so epsilon absorbs float noise and
    never hides a real preference.  Sizes 3 and 5 on the interconnection
    space, delta 1/2 and cost 1/5: the band is met at the stable bounds 0.2,
    0.4 and 0.8, and at 0.32, which is no regime boundary."""

    DELTA, COST = Fraction(1, 2), Fraction(1, 5)

    @pytest.fixture(scope="class")
    def tables(self) -> SpaceTables:
        partition = GroupPartition.from_sizes([3, 5])
        return compute_tables(interconnection_space(partition), partition, PARAMS.delta)

    @staticmethod
    def band(tables: SpaceTables, f12_text: str) -> tuple[np.ndarray, int]:
        """Rows (network index, free-pair index, endpoint) of every toggle
        whose payoff change at that endpoint is within epsilon, and the
        number of (network, pair) decisions with such an endpoint."""
        society = Society(tables.partition, CoordinationMatrix.uniform(2, float(f12_text)),
                          PARAMS)
        util = _utilities(tables, society).T
        idx = np.arange(tables.space.size)
        rows, decisions = [], 0
        for t, pair in enumerate(tables.space.free_pairs):
            partner = idx ^ (1 << t)
            in_band = [np.abs(util[partner, v] - util[:, v]) <= EPSILON
                       for v in pair]
            decisions += int(np.count_nonzero(in_band[0] | in_band[1]))
            for v, hit in zip(pair, in_band):
                k = np.flatnonzero(hit)
                rows.append(np.column_stack([k, np.full_like(k, t), np.full_like(k, v)]))
        return np.concatenate(rows), decisions

    def assert_exact_ties(self, tables: SpaceTables, f12_text: str, rows) -> None:
        f12 = Fraction(f12_text)
        weights = [[Fraction(1), f12], [f12, Fraction(1)]]
        exact: dict[tuple[int, int], Fraction] = {}

        def util(mask: int, v: int) -> Fraction:
            if (mask, v) not in exact:
                exact[mask, v] = exact_payoff(tables.space.network_for(mask), v,
                                              tables.partition, weights, self.DELTA, self.COST)
            return exact[mask, v]

        for k, t, v in rows.tolist():
            assert util(k ^ (1 << t), v) - util(k, v) == 0, (f12_text, k, t, v)

    @pytest.mark.parametrize("f12_text, decisions", [("0.2", 30), ("0.32", 2_700),
                                                     ("0.4", 9_210)])
    def test_every_band_change_is_an_exact_tie(self, tables, f12_text, decisions):
        rows, found = self.band(tables, f12_text)
        assert found == decisions
        self.assert_exact_ties(tables, f12_text, rows)

    def test_sampled_band_changes_at_the_maximal_bound_are_exact_ties(self, tables):
        rows, _ = self.band(tables, "0.8")
        assert len(rows) == 937_980
        sample = np.random.default_rng(2024).choice(len(rows), 2_000, replace=False)
        self.assert_exact_ties(tables, "0.8", rows[sample])


class TestResolveShortcuts:
    """`_resolve` settles a kept link with no search, and refuses a missing
    link once its lower endpoint strictly loses, with no look at the other
    endpoint's change."""

    @staticmethod
    def forbid(monkeypatch, *names):
        def searched(*args):
            raise AssertionError("a link below its link bound needs no search")
        for name in names:
            monkeypatch.setattr(stability, name, searched)

    @pytest.mark.parametrize("pair, f12", [((0, 1), 0.4), ((3, 7), 0.4), ((0, 3), 0.9)])
    def test_link_below_its_bound_is_kept_without_search(self, monkeypatch, pair, f12):
        # intra links at weight 1, and at F = 0.9 the cross link too:
        # 0.9 * shortcut_gain(0.5) = 0.225 lies above the cost 0.2
        society = society_3_5(f12)
        network = Network.disjoint_cliques(society.partition).with_edge(0, 3)
        self.forbid(monkeypatch, "_balls", "payoff")
        memo = {}
        assert _resolve(network, *pair, society, memo) is network
        assert memo == {}

    def test_cross_link_above_its_bound_is_still_searched(self, monkeypatch):
        # F = 0.8 puts the cost exactly on 0.8 * shortcut_gain(0.5): the
        # shortcut must not fire, and the full comparison keeps the bridge
        society = society_3_5(0.8)
        network = Network.disjoint_cliques(society.partition).with_edge(0, 3)
        calls = []

        def counting(*args):
            calls.append(args[1])
            return payoff(*args)
        monkeypatch.setattr(stability, "payoff", counting)
        assert _resolve(network, 0, 3, society, {}) is network
        assert calls == [0, 3]

    def test_profitable_cross_cut_below_the_clique_bound_is_made(self):
        # 0.05 * shortcut_gain(0.5) < cost < shortcut_gain(0.5): only the
        # cross weight tells this link from a kept intra link
        society = society_3_3(0.05)
        network = Network.disjoint_cliques(society.partition).with_edge(0, 3)
        assert _resolve(network, 0, 3, society, {}) == network.without_edge(0, 3)

    def test_strict_loss_of_i_refuses_without_js_change(self, monkeypatch):
        society = society_3_5(0.1)  # disjoint regime: a cross link loses for both
        network = Network.disjoint_cliques(society.partition)
        merged = []
        added_balls = model._added_balls

        def counting(balls_a, balls_b):
            merged.append(balls_a)
            return added_balls(balls_a, balls_b)
        monkeypatch.setattr(stability, "_added_balls", counting)
        memo = {}
        assert _resolve(network, 0, 3, society, memo) is network
        assert len(merged) == 1
        # j is still searched: i's merged balls read j's balls
        assert merged[0] == memo[0][1] and set(memo) == {0, 3}

    def test_tie_for_i_does_not_veto_a_gain_for_j(self):
        # groups {0, 1, 2} and {3, 4, 5}: adding (0, 4) brings 4 from two
        # hops to one for node 0, a gain of 0.8 * (1/2 - 1/4) = 1/5, the
        # cost exactly; node 4 gains 1/5 more than the cost
        society = society_3_3(0.8)
        network = Network(6, [(0, 1), (0, 2), (0, 3), (3, 4)])
        weights = [[Fraction(1), Fraction(4, 5)], [Fraction(4, 5), Fraction(1)]]
        gains = [exact_payoff(network.with_edge(0, 4), v, society.partition, weights,
                              Fraction(1, 2), Fraction(1, 5))
                 - exact_payoff(network, v, society.partition, weights,
                                Fraction(1, 2), Fraction(1, 5))
                 for v in (0, 4)]
        assert gains == [0, Fraction(1, 5)]
        assert _resolve(network, 0, 4, society, {}) == network.with_edge(0, 4)


class TestExactReferee:
    """The scalar engine decides every pair as the consent rule does on
    payoffs in rational arithmetic (`oracles.exact_payoff`), and each
    endpoint's float payoff change lies inside the EPSILON band exactly
    when its exact change is 0.  Delta 1/2 or 2/5, cost 1/5 or 1/4 and
    cross weights in tenths: at delta 1/2 and cost 1/5, F = 8/10 puts
    F * shortcut_gain on the cost exactly, and F = 9/10 puts a cross link
    below its link bound."""

    @staticmethod
    def society_of(sizes, tenths, delta: Fraction, cost: Fraction) -> tuple[Society, dict]:
        """The society with cross weights ``tenths`` / 10, and its exact
        terms as `exact_payoff` keywords."""
        partition = GroupPartition.from_sizes(sizes)
        society = Society(partition,
                          CoordinationMatrix.from_upper_triangle(partition.m,
                                                                 [t / 10 for t in tenths]),
                          ModelParams(float(delta), float(cost)))
        weights = [[Fraction(society.coordination[a, b]).limit_denominator(10)
                    for b in range(partition.m)] for a in range(partition.m)]
        return society, {"partition": partition, "coordination": weights,
                         "delta": delta, "cost": cost}

    @staticmethod
    def exact_deltas(network: Network, i: int, j: int, society: Society,
                     exact: dict) -> tuple[Fraction, Fraction]:
        """Both endpoints' exact payoff changes when (i, j) toggles, each
        checked against its float change: within EPSILON where it is 0,
        and otherwise of its sign and outside the band."""
        toggled = (network.without_edge(i, j) if network.has_edge(i, j)
                   else network.with_edge(i, j))
        changes = []
        for v in (i, j):
            du = exact_payoff(toggled, v, **exact) - exact_payoff(network, v, **exact)
            float_du = payoff(toggled, v, society) - payoff(network, v, society)
            if du == 0:
                assert abs(float_du) <= EPSILON, (i, j, v, float_du)
            else:
                assert abs(float_du) > EPSILON and (float_du > 0) == (du > 0), \
                    (i, j, v, du, float_du)
            changes.append(du)
        return changes[0], changes[1]

    @given(st.lists(st.integers(3, 5), min_size=2, max_size=4), st.sampled_from(["1/2", "2/5"]),
           st.sampled_from(["1/5", "1/4"]), st.data(),
           st.sampled_from([0.15, 0.3, 0.6, 0.9]), st.integers(0, 2**32 - 1))
    def test_every_pair_is_decided_as_in_exact_arithmetic(self, sizes, delta, cost, data,
                                                          density, seed):
        pairs = len(sizes) * (len(sizes) - 1) // 2
        tenths = data.draw(st.lists(st.sampled_from([0, 1, 3, 5, 8, 9, 10]),
                                    min_size=pairs, max_size=pairs))
        society, exact = self.society_of(sizes, tenths, Fraction(delta), Fraction(cost))
        rng = random.Random(seed)
        network = Network(society.n, [p for p in all_pairs(society.n)
                                      if rng.random() < density])
        memo = {}
        for i, j in all_pairs(society.n):
            du_i, du_j = self.exact_deltas(network, i, j, society, exact)
            changes = _resolve(network, i, j, society, memo) is not network
            assert changes == exact_pair_changes(network.has_edge(i, j), du_i, du_j), \
                (i, j, du_i, du_j)
            if changes:
                memo = {}  # the memo now describes the toggled network

    @pytest.mark.parametrize("sizes, tenths", [([3, 4], [8]), ([4, 5], [8]),
                                               ([3, 3, 4], [8, 3, 10])])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_run_replays_in_exact_arithmetic(self, sizes, tenths, seed):
        society, exact = self.society_of(sizes, tenths, Fraction(1, 2), Fraction(1, 5))
        network = Network.empty(society.n)
        trace = run(network, SeededUniform(seed), society, 10_000)
        ties = 0
        for s in trace.steps:
            present = network.has_edge(*s.pair)
            du = self.exact_deltas(network, *s.pair, society, exact)
            ties += 0 in du
            if exact_pair_changes(present, *du):
                expected = Action.REMOVED if present else Action.ADDED
                network = (network.without_edge(*s.pair) if present
                           else network.with_edge(*s.pair))
            else:
                expected = Action.NO_CHANGE
            assert s.action is expected, (s.index, s.pair, du)
        assert network == trace.final
        assert ties, "no period reached the EPSILON band"
        stable = not any(exact_pair_changes(network.has_edge(i, j),
                                            *self.exact_deltas(network, i, j, society, exact))
                         for i, j in all_pairs(society.n))
        assert trace.converged == stable


class TestEnginesAgreeAtTheStableBounds:
    """At and just off each stable bound of sizes 3 and 5 (interconnection
    space, delta 1/2, cost 1/5) the closed form, the table scan and the
    scalar check decide alike.  Off a bound, every enumerated stable count is
    the classifier's count; on it, the classifier reports the tie and every
    enumerated count lies in the tie range the sweep prints."""

    OFFSET = 1e-7
    TIE_CELLS = ["0..1", "1..2", "2..3", "3..15"]

    @pytest.fixture(scope="class")
    def tables(self) -> SpaceTables:
        partition = GroupPartition.from_sizes([3, 5])
        return compute_tables(interconnection_space(partition), partition, PARAMS.delta)

    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("index", range(4))
    def test_classifier_scan_and_scalar_agree(self, tables, index, side):
        f12 = stable_boundaries(3, 5, PARAMS)[index] + side * self.OFFSET
        society = society_3_5(f12)
        scan = scan_space(tables, society)
        stable = [tables.space.network_for(int(k)) for k in scan.stable_masks()]
        counts = {network.inter_count(society.partition) for network in stable}
        prediction = classify_two_group_stable(3, 5, PARAMS, f12)
        if side:
            assert counts == {prediction.interconnections(3, 5)}
        else:
            assert (prediction.kind, prediction.k) == (RegimeKind.BOUNDARY_TIE, index)
            cell = _sweep_row(f12, society, None).split(",")[1]
            assert cell == self.TIE_CELLS[index]
            lo, hi = map(int, cell.split(".."))
            assert counts and counts <= set(range(lo, hi + 1))

        # the maximal-bound tie has 30,517 stable networks; 1,000 of them
        # keep the scalar check to about half a second
        rng = np.random.default_rng(2024)
        if len(stable) > 1_000:
            stable = [stable[k] for k in rng.choice(len(stable), 1_000, replace=False)]
        assert all(is_pairwise_stable(network, society) for network in stable)
        for k in rng.choice(np.flatnonzero(~scan.stable), 200, replace=False):
            assert not is_pairwise_stable(tables.space.network_for(int(k)), society), k


class TestScanAnswers:
    """A scan's best welfare, argmax set and least stable welfare, on the
    scans the reports read (`conftest.assert_scan_answers`)."""

    def test_every_row_of_the_checked_in_sweep(self):
        scenario = load_scenario(str(ROOT / "scenarios" / "two_groups_boundary.scn"))
        space = interconnection_space(scenario.society.partition)
        lines = (ROOT / "out" / "two_group_sweep.csv").read_text(encoding="ascii").splitlines()
        grid = _grid(0.0, 1.0, 0.005)
        assert len(lines) == len(grid) + 1 == 202
        for value, line in zip(grid, lines[1:]):
            society = _society_at(scenario.society, "F12", value)
            scan = stability._scan_for(space, society)  # the sweep's own path
            assert_scan_answers(scan)
            assert _sweep_row(value, society, scan) == line

    def test_stable_min_is_nan_without_a_stable_network(self):
        scan = SpaceScan(space=full_graph_space(3), stable=np.zeros(8, dtype=bool),
                         welfare_of=np.arange(8.0).__getitem__)
        assert math.isnan(scan.stable_min) and scan.best == 7.0
        assert_scan_answers(scan)


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
                         welfare_of=np.ones(8).__getitem__)
        with pytest.raises(PoAUndefinedError,
                           match="^no pairwise stable network in the search space$"):
            poa_from_scan(scan)

    def test_undefined_on_nonpositive_stable_welfare(self):
        society = Society(GroupPartition.from_sizes([3]),
                          CoordinationMatrix.uniform(1, 0.0),
                          ModelParams(0.5, 0.6))
        # the empty network is the least stable one
        with pytest.raises(PoAUndefinedError, match=r"^minimum stable welfare 0\.0 is not "
                                                    r"positive; ratio undefined$"):
            price_of_anarchy(full_graph_space(3), society)


class TestSearchSpaceEncoding:
    def test_network_roundtrip(self):
        partition = GroupPartition.from_sizes([3, 4])
        space = interconnection_space(partition)
        for mask in (0, 1, 5, space.size - 1):
            assert free_mask_of(space, space.network_for(mask)) == mask

    @given(st.integers(0, 2**21 - 1))
    def test_full_space_roundtrip(self, mask):
        space = full_graph_space(7)
        assert free_mask_of(space, space.network_for(mask)) == mask

    def test_full_space_bits_follow_lexicographic_pair_order(self):
        space = full_graph_space(5)
        for t, pair in enumerate(all_pairs(5)):
            assert space.network_for(1 << t).edges == {pair}

    def test_network_outside_space_rejected(self):
        partition = GroupPartition.from_sizes([3, 4])
        space = interconnection_space(partition)
        broken = Network.disjoint_cliques(partition).without_edge(0, 1)
        with pytest.raises(ValidationError):
            free_mask_of(space, broken)
