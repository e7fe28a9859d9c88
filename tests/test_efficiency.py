import random

import pytest
from hypothesis import given, settings, strategies as st

from groupform.efficiency import (
    ConsolidationCollisionError,
    consolidate_representatives,
    efficient_search,
)
from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    welfare,
)
from groupform.stability import (
    enumerate_stable,
    full_graph_space,
    interconnection_space,
)
from groupform.thresholds import RegimeKind, classify_two_group_stable

PARAMS = ModelParams(0.5, 0.2)


def society(sizes, f_cross, params=PARAMS) -> Society:
    partition = GroupPartition.from_sizes(sizes)
    return Society(partition, CoordinationMatrix.uniform(partition.m, f_cross), params)


def random_forest_instance(rng: random.Random, max_groups: int = 5):
    """Cliques joined by at most one link per group pair, acyclic over groups."""
    m = rng.randint(2, max_groups)
    sizes = [rng.randint(3, 5) for _ in range(m)]
    partition = GroupPartition.from_sizes(sizes)
    cross = [rng.uniform(0, 1) for _ in range(m * (m - 1) // 2)]
    soc = Society(partition, CoordinationMatrix.from_upper_triangle(m, cross),
                  ModelParams(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.5)))
    order = list(range(m))
    rng.shuffle(order)
    network = Network.disjoint_cliques(partition)
    for k in range(1, m):
        if rng.random() < 0.85:
            a, b = order[k], order[rng.randrange(k)]
            network = network.with_edge(rng.choice(partition.members(a)),
                                        rng.choice(partition.members(b)))
    return network, soc


class TestEfficientSearch:
    def test_disjoint_regime(self):
        soc = society([3, 5], 0.05)
        best, argmax = efficient_search(interconnection_space(soc.partition), soc)
        assert [net.edges for net in argmax] == [Network.disjoint_cliques(soc.partition).edges]
        assert best == pytest.approx(7.8, abs=1e-9)

    def test_bridge_regime(self):
        soc = society([3, 5], 0.15)
        _, argmax = efficient_search(interconnection_space(soc.partition), soc)
        assert argmax
        assert {net.inter_count(soc.partition) for net in argmax} == {1}

    def test_maximal_regime_is_the_complete_graph(self):
        soc = society([3, 5], 0.9)
        _, argmax = efficient_search(interconnection_space(soc.partition), soc)
        assert [net.edges for net in argmax] == [Network.complete(8).edges]

    def test_boundary_tie_keeps_every_maximizer(self):
        # sizes (3, 3): the disjoint/bridge welfare boundary is exactly 0.1
        soc = society([3, 3], 0.1)
        _, argmax = efficient_search(interconnection_space(soc.partition), soc)
        counts = sorted(net.inter_count(soc.partition) for net in argmax)
        assert counts == [0] + [1] * 9

    def test_full_space_argmax_holds_intra_cliques(self):
        for f in (0.05, 0.4, 0.9):
            soc = society([3, 3], f)
            _, argmax = efficient_search(full_graph_space(6), soc)
            intra = set(soc.partition.intra_pairs())
            for net in argmax:
                assert intra <= net.edges

    @pytest.mark.parametrize("f12", [0.05, 0.2, 0.5, 0.9])
    def test_full_space_agrees_with_interconnection_space(self, f12):
        soc = society([3, 3], f12)
        _, full_argmax = efficient_search(full_graph_space(6), soc)
        _, inter_argmax = efficient_search(interconnection_space(soc.partition), soc)
        assert {n.edges for n in full_argmax} == {n.edges for n in inter_argmax}

    @pytest.mark.parametrize("f12", [0.03, 0.1, 0.25, 0.45, 0.6, 0.75, 0.95])
    def test_efficient_count_never_below_stable_count(self, f12):
        soc = society([3, 5], f12)
        space = interconnection_space(soc.partition)
        pred = classify_two_group_stable(3, 5, soc.params, f12)
        assert pred.kind is not RegimeKind.BOUNDARY_TIE
        stable_count = pred.interconnections(3, 5)
        _, argmax = efficient_search(space, soc)
        assert all(net.inter_count(soc.partition) >= stable_count for net in argmax)
        stable_nets = enumerate_stable(space, soc)
        assert {n.inter_count(soc.partition) for n in stable_nets} == {stable_count}


class TestConsolidation:
    def test_single_representative_network_is_a_fixed_point(self):
        partition = GroupPartition.from_sizes([3, 3, 3])
        network = Network.disjoint_cliques(partition).with_edge(0, 3).with_edge(3, 6)
        assert consolidate_representatives(network, partition).edges == network.edges

    def test_scattered_chain_gets_rerouted_and_improves_welfare(self):
        partition = GroupPartition.from_sizes([3, 3, 3])
        soc = society([3, 3, 3], 0.4)
        scattered = Network.disjoint_cliques(partition).with_edge(0, 3).with_edge(5, 6)
        merged = consolidate_representatives(scattered, partition)
        cross = {e for e in merged.edges
                 if partition.membership[e[0]] != partition.membership[e[1]]}
        assert cross == {(0, 3), (3, 6)}
        assert welfare(merged, soc) > welfare(
            scattered, soc) + 1e-9

    def test_group_pair_connectivity_preserved(self):
        partition = GroupPartition.from_sizes([3, 3, 3, 3])
        network = (Network.disjoint_cliques(partition)
                   .with_edge(1, 5).with_edge(4, 9).with_edge(2, 11))
        merged = consolidate_representatives(network, partition)

        def group_pairs(net):
            return {(min(partition.membership[i], partition.membership[j]),
                     max(partition.membership[i], partition.membership[j]))
                    for i, j in net.edges
                    if partition.membership[i] != partition.membership[j]}

        assert group_pairs(merged) == group_pairs(network)

    def test_parallel_links_collide(self):
        partition = GroupPartition.from_sizes([3, 3])
        network = Network.disjoint_cliques(partition).with_edge(0, 3).with_edge(1, 4)
        with pytest.raises(ConsolidationCollisionError):
            consolidate_representatives(network, partition)

    def test_incomplete_clique_rejected(self):
        partition = GroupPartition.from_sizes([3, 3])
        network = Network.disjoint_cliques(partition).without_edge(0, 1)
        with pytest.raises(ValidationError):
            consolidate_representatives(network, partition)

    @given(st.integers(0, 2**31))
    @settings(max_examples=80)
    def test_consolidation_never_lowers_welfare_on_forests(self, seed):
        # Single-representative rerouting weakly improves welfare whenever the
        # linked-group structure is a forest: every rerouted through-path gets
        # shorter and the local carrier swaps cancel pairwise.
        rng = random.Random(seed)
        network, soc = random_forest_instance(rng)
        merged = consolidate_representatives(network, soc.partition)
        assert welfare(merged, soc) >= welfare(
            network, soc) - 1e-9

    def test_consolidation_can_lower_welfare_on_cyclic_structures(self):
        # With a cycle of linked groups, scattered carriers hold several
        # distinct short routes; collapsing them onto single hubs can lose
        # more on former-carrier distances than hub routing gains.  The
        # Fig-12-style welfare claim therefore does not extend to cycles.
        partition = GroupPartition.from_sizes([3, 5, 3, 3, 4])
        cross = [0.4820652966353193, 0.3321639009306121, 0.6963255224010796,
                 0.15795029943713068, 0.967307622828036, 0.07244596957198679,
                 0.06787060544433521, 0.6743233120753135, 0.9840259367559939,
                 0.8615940984978149]
        soc = Society(partition, CoordinationMatrix.from_upper_triangle(5, cross),
                      ModelParams(0.7594601740398177, 0.11808198484233386))
        network = Network.disjoint_cliques(partition)
        for i, j in [(1, 4), (1, 9), (1, 13), (7, 10), (9, 14), (10, 12), (12, 15)]:
            network = network.with_edge(i, j)
        merged = consolidate_representatives(network, partition)
        assert welfare(merged, soc) < welfare(
            network, soc) - 1e-3
