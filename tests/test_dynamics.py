import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from groupform import dynamics, model, stability
from groupform.cli import DEFAULT_MAX_STEPS
from groupform.dynamics import (
    Action,
    DynamicsTrace,
    Scripted,
    SeededUniform,
    _no_cross_incentive_bounds,
    in_invariant_set_run,
    run,
    step,
)
from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    payoff,
)
from groupform.stability import is_pairwise_stable

from conftest import assert_memo_on, random_network, random_society

PARAMS = ModelParams(0.5, 0.2)


def two_group_society(sizes, f12, params=PARAMS):
    partition = GroupPartition.from_sizes(sizes)
    return Society(partition, CoordinationMatrix.uniform(2, f12), params)


def example_one_setup():
    """Two groups {0,1,2} and {3..7} starting as line graphs, cross weight at
    the bridge/redundant boundary."""
    society = two_group_society([3, 5], 0.4)
    lines = Network(8, [(0, 1), (1, 2), (3, 5), (4, 5), (4, 6), (6, 7)])
    return society, lines


class TestStep:
    @given(st.integers(0, 2**31))
    def test_intra_pair_always_added_below_the_clique_bound(self, seed):
        rng = random.Random(seed)
        society = random_society(rng)
        params = ModelParams(society.params.delta,
                             0.8 * (society.params.delta - society.params.delta ** 2))
        society = Society(society.partition, society.coordination, params)
        network = random_network(rng, society.n)
        intra_missing = [p for p in society.partition.intra_pairs()
                         if not network.has_edge(*p)]
        if not intra_missing:
            return
        pair = rng.choice(intra_missing)
        _, action = step(network, pair, society)
        assert action is Action.ADDED

    def test_cross_pair_refused_in_the_disjoint_regime(self):
        society = two_group_society([3, 5], 0.1)
        network = Network.disjoint_cliques(society.partition)
        _, action = step(network, (0, 3), society)
        assert action is Action.NO_CHANGE

    def test_second_cross_link_refused_in_the_bridge_regime(self):
        society = two_group_society([3, 5], 0.3)
        network = Network.disjoint_cliques(society.partition).with_edge(0, 3)
        _, action = step(network, (1, 4), society)
        assert action is Action.NO_CHANGE

    def test_profitable_cut_removed(self):
        society = two_group_society([3, 3], 0.05)
        network = Network.disjoint_cliques(society.partition).with_edge(0, 3)
        result, action = step(network, (0, 3), society)
        assert action is Action.REMOVED
        assert not result.has_edge(0, 3)

    @pytest.mark.parametrize("f12, expected", [(0.1, Action.NO_CHANGE), (0.3, Action.ADDED)])
    def test_missing_link_is_decided_from_the_memo_alone(self, monkeypatch, f12, expected):
        society = two_group_society([3, 5], f12)
        network = Network.disjoint_cliques(society.partition)
        # both endpoints remembered, 3's payoff still unread
        memo = {0: (payoff(network, 0, society), model._balls(network.neighbor_masks, 0)),
                3: (None, model._balls(network.neighbor_masks, 3))}
        built = []

        def no_bfs(*args):
            raise AssertionError("a missing link needs no BFS once both endpoints are memoised")
        toggled = Network._toggled

        def counted_toggle(self, i, j):
            built.append((i, j))
            return toggled(self, i, j)
        monkeypatch.setattr(model, "_balls", no_bfs)
        monkeypatch.setattr(stability, "_balls", no_bfs)
        monkeypatch.setattr(Network, "_toggled", counted_toggle)
        _, action = step(network, (0, 3), society, memo=memo)
        assert action is expected
        # the network with the link is built only when the link is added
        assert built == ([(0, 3)] if expected is Action.ADDED else [])
        monkeypatch.undo()
        assert_memo_on(memo, network.with_edge(0, 3) if built else network, society)

    def test_network_of_another_size_rejected(self):
        society = two_group_society([4, 4], 0.45)
        memo = {v: 0.0 for v in range(9)}  # a full memo still checks the size
        for kwargs in ({}, {"memo": memo}):
            with pytest.raises(ValidationError, match="network has 9 nodes"):
                step(Network.empty(9), (0, 8), society, **kwargs)

    @pytest.mark.parametrize("pair", [(0, 8), (8, 0), (-1, 0)])
    def test_out_of_range_pair_rejected(self, pair):
        society = two_group_society([4, 4], 0.45)
        network = Network.disjoint_cliques(society.partition)
        memo = {v: 0.0 for v in range(-1, 9)}  # a full memo still checks the pair
        for kwargs in ({}, {"memo": memo}):
            with pytest.raises(ValidationError):
                step(network, pair, society, **kwargs)


class TestRunExampleOne:
    def test_cross_links_first_keeps_two(self):
        society, lines = example_one_setup()
        script = Scripted([(1, 5), (2, 6)] + society.partition.intra_pairs())
        trace = run(lines, script, society, max_steps=100)
        assert trace.final.inter_count(society.partition) == 2
        assert trace.converged
        assert is_pairwise_stable(trace.final, society)
        assert trace.final.intra_count(society.partition) == 13

    def test_intra_first_keeps_one(self):
        society, lines = example_one_setup()
        script = Scripted(society.partition.intra_pairs() + [(1, 5)])
        trace = run(lines, script, society, max_steps=100)
        assert trace.final.inter_count(society.partition) == 1
        assert trace.final.intra_count(society.partition) == 13


class TestRunExampleTwo:
    SOCIETY = Society(GroupPartition.from_sizes([3, 3, 3, 3, 3]),
                      CoordinationMatrix.uniform(5, 0.2),
                      ModelParams(0.55, 0.2))

    def group_edges(self, network):
        members = self.SOCIETY.partition.membership
        return {(min(members[i], members[j]), max(members[i], members[j]))
                for i, j in network.edges if members[i] != members[j]}

    def test_hub_order_forms_a_star(self):
        start = Network.disjoint_cliques(self.SOCIETY.partition)
        script = Scripted([(0, 3), (0, 6), (0, 9), (0, 9), (0, 12)])
        trace = run(start, script, self.SOCIETY, max_steps=50)
        assert self.group_edges(trace.final) == {(0, 1), (0, 2), (0, 3), (0, 4)}
        assert trace.converged
        assert is_pairwise_stable(trace.final, self.SOCIETY)

    def test_spread_order_forms_a_ring(self):
        start = Network.disjoint_cliques(self.SOCIETY.partition)
        script = Scripted([(3, 6), (0, 3), (0, 6), (0, 9), (6, 12), (3, 9), (9, 12)])
        trace = run(start, script, self.SOCIETY, max_steps=50)
        ring = {(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)}
        assert self.group_edges(trace.final) == ring
        assert trace.converged
        assert is_pairwise_stable(trace.final, self.SOCIETY)


class TestInvariantSetRuns:
    def test_single_group_forms_its_clique(self):
        society = Society(GroupPartition.from_sizes([5]),
                          CoordinationMatrix.uniform(1, 0.0), PARAMS)
        trace = in_invariant_set_run(Network.empty(5), SeededUniform(11),
                                     society, max_steps=2000)
        assert trace.converged
        assert trace.final.edges == Network.complete(5).edges

    def test_two_groups_form_disjoint_cliques(self):
        society = two_group_society([3, 5], 0.1)
        trace = in_invariant_set_run(Network.empty(8), SeededUniform(3),
                                     society, max_steps=4000)
        assert trace.converged
        assert trace.final.edges == Network.disjoint_cliques(society.partition).edges

    def test_bridge_regime_ends_with_one_cross_link(self):
        society = two_group_society([3, 5], 0.3)
        trace = in_invariant_set_run(Network.empty(8), SeededUniform(5),
                                     society, max_steps=4000)
        assert trace.converged
        assert trace.final.inter_count(society.partition) == 1
        assert trace.final.intra_count(society.partition) == 13

    def test_rejects_start_with_cross_link(self):
        society = two_group_society([3, 5], 0.1)
        start = Network(8, [(0, 3)])
        with pytest.raises(ValidationError):
            in_invariant_set_run(start, SeededUniform(1), society, max_steps=10)


class TestFirstLinkBound:
    # sizes 3 and 5 with delta 0.5 and cost 0.2 put the first bound at 0.2;
    # within EPSILON of it the boundary is a tie, not the disjoint regime
    @pytest.mark.parametrize("f12, expected", [(0.2, False), (0.2 - 5e-10, False),
                                               (0.2 - 2e-9, True), (0.1, True)])
    def test_disjoint_only_strictly_below_the_first_bound(self, f12, expected):
        assert _no_cross_incentive_bounds(two_group_society([3, 5], f12)) is expected

    def test_false_when_cost_reaches_the_clique_bound(self):
        params = ModelParams(0.5, 0.25)
        assert not _no_cross_incentive_bounds(two_group_society([3, 5], 0.0, params))


class TestPinnedStreams:
    """Four groups of 15 at F = 0.15, delta 0.5, cost 0.2, from the empty
    network: the sha256 of each seed's trace CSV.  Every period's decision
    shows in the trace, so a faster pair resolution must keep them."""

    TRACE_SHA256 = {
        1: "3703717debc581151d6217a5f8fd3b4d7fb4eaba61c734cc71563f652061f811",
        2: "a76a254f988c0f568c38f6345a54f0ca9696d64030a397780506e775a0fc3e06",
        3: "5f17cd8754f5a17501cd91af18aa2dcac7b86a63ffe7e85bd5de1e1d71ada87b",
        4: "47312c382539a073d86f3878b7259fc0aab8224939cd7236138f35fde630dc58",
    }

    @pytest.mark.parametrize("seed", sorted(TRACE_SHA256))
    def test_trace_digest(self, seed):
        society = Society(GroupPartition.from_sizes([15] * 4),
                          CoordinationMatrix.uniform(4, 0.15), PARAMS)
        trace = run(Network.empty(60), SeededUniform(seed), society, DEFAULT_MAX_STEPS)
        assert trace.converged
        assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == self.TRACE_SHA256[seed]

    def test_stream_one_call_counts(self, monkeypatch):
        # run carries its memo across changes and skips the pairs decided
        # unchanged since the last one; re-deciding them, or dropping the
        # memo on each change, raises these counts (23,338 steps, 27,194
        # `_resolve` calls and 10,815 BFS when it did both)
        counts = dict.fromkeys(["step", "_resolve", "_balls"], 0)

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        for module, name in [(dynamics, "step"), (dynamics, "_resolve"), (stability, "_resolve"),
                             (stability, "_balls"), (model, "_balls")]:
            counted(module, name)
        society = Society(GroupPartition.from_sizes([15] * 4),
                          CoordinationMatrix.uniform(4, 0.15), PARAMS)
        trace = run(Network.empty(60), SeededUniform(1), society, DEFAULT_MAX_STEPS)
        assert len(trace.steps) == 23338
        assert counts == {"step": 19101, "_resolve": 20513, "_balls": 3383}


class TestTraceMechanics:
    def test_identical_seeds_give_identical_traces(self):
        society = two_group_society([3, 4], 0.3)
        a = run(Network.empty(7), SeededUniform(99), society, max_steps=500)
        b = run(Network.empty(7), SeededUniform(99), society, max_steps=500)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_usually_differ(self):
        society = two_group_society([3, 4], 0.3)
        a = run(Network.empty(7), SeededUniform(1), society, max_steps=50)
        b = run(Network.empty(7), SeededUniform(2), society, max_steps=50)
        assert [s.pair for s in a.steps] != [s.pair for s in b.steps]

    def test_trace_counts_match_replay(self):
        society = two_group_society([3, 4], 0.3)
        trace = run(Network.empty(7), SeededUniform(17), society, max_steps=200)
        network = Network.empty(7)
        for s in trace.steps:
            network, action = step(network, s.pair, society)
            assert action is s.action
            assert s.intra_count == network.intra_count(society.partition)
            assert s.inter_count == network.inter_count(society.partition)
        assert network.edges == trace.final.edges

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_run_matches_a_loop_of_public_steps(self, monkeypatch, seed):
        # run keeps one memo for the whole run, carried over every change,
        # cross removals included, so after every step and every
        # verification each entry must equal a fresh (payoff, balls) on the
        # network of the moment
        society = two_group_society([4, 4], 0.45)
        checked = []

        def checked_step(network, pair, society, *, memo):
            result = step(network, pair, society, memo=memo)
            assert_memo_on(memo, result[0], society)
            checked.append(len(memo))
            return result

        def checked_verification(network, society, *, memo, settled):
            stable = is_pairwise_stable(network, society, memo=memo, settled=settled)
            assert_memo_on(memo, network, society)
            return stable
        monkeypatch.setattr(dynamics, "step", checked_step)
        monkeypatch.setattr(dynamics, "is_pairwise_stable", checked_verification)
        trace = run(Network.empty(8), SeededUniform(seed), society, max_steps=5000)
        monkeypatch.undo()
        assert max(checked) > 2  # entries outlive the pair that filled them
        membership = society.partition.membership
        assert any(s.action is Action.REMOVED and membership[s.pair[0]] != membership[s.pair[1]]
                   for s in trace.steps)
        network = Network.empty(8)
        pairs = SeededUniform(seed).pairs(8)
        for s in trace.steps:
            pair = next(pairs)
            network, action = step(network, pair, society)
            assert (s.pair, s.action) == (pair, action), f"period {s.index}"
        assert network == trace.final

    def test_step_fills_the_memo_with_current_payoffs(self):
        society = two_group_society([4, 4], 0.45)
        network = Network.disjoint_cliques(society.partition)
        memo = {}
        result = step(network, (5, 1), society, memo=memo)
        assert result == step(network, (5, 1), society) == (network.with_edge(1, 5), Action.ADDED)
        # the add carries both endpoints' entries to the returned network,
        # with the payoffs the decision computed
        assert set(memo) == {1, 5} and None not in (memo[1][0], memo[5][0])
        assert_memo_on(memo, result[0], society)
        # a refusal on 1's strict loss leaves the memo on its network, with
        # 1's payoff read and 4's not
        memo = {}
        assert step(result[0], (1, 4), society, memo=memo) == (result[0], Action.NO_CHANGE)
        assert set(memo) == {1, 4} and memo[1][0] is not None and memo[4][0] is None
        assert_memo_on(memo, result[0], society)

    def test_csv_layout(self):
        society = two_group_society([3, 4], 0.3)
        trace = run(Network.empty(7), Scripted([(0, 1), (0, 3)]), society,
                    max_steps=10)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "step,i,j,action,intra_count,inter_count"
        assert lines[1] == "1,0,1,Added,1,0"
        assert len(lines) == 3

    def test_stable_start_reports_zero_steps(self):
        society = two_group_society([3, 5], 0.1)
        start = Network.disjoint_cliques(society.partition)
        trace = run(start, SeededUniform(4), society, max_steps=500)
        assert trace.converged
        assert trace.steps_to_convergence == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_steps_to_convergence_is_the_last_changing_period(self, seed):
        society = two_group_society([3, 4], 0.3)
        trace = run(Network.empty(7), SeededUniform(seed), society, max_steps=5000)
        assert trace.converged
        counts = [(0, 0)] + [(s.intra_count, s.inter_count) for s in trace.steps]
        changed = [p for p in range(1, len(counts)) if counts[p] != counts[p - 1]]
        assert changed and trace.steps_to_convergence == changed[-1] < len(trace.steps)

    def test_script_out_of_range_rejected(self):
        society = two_group_society([3, 4], 0.3)
        with pytest.raises(ValidationError, match="entry 1"):
            run(Network.empty(7), Scripted([(0, 1), (0, 9)]), society, max_steps=10)

    @pytest.mark.parametrize("max_steps", [5000, 10])
    def test_script_checked_whole_before_the_first_period(self, monkeypatch, max_steps):
        # a bad last entry used to be refused only after every earlier period
        # ran, and one beyond max_steps not at all
        def no_step(*args, **kwargs):
            raise AssertionError("a period ran before the script was checked")
        monkeypatch.setattr(dynamics, "step", no_step)
        society = two_group_society([3, 5], 0.3)
        script = Scripted([(0, 1)] * 4999 + [(0, 9)])
        with pytest.raises(ValidationError,
                           match=r"^script entry 4999: edge \(0, 9\) invalid for n=8$"):
            run(Network.empty(8), script, society, max_steps=max_steps)

    def test_script_entries_must_be_integers(self):
        assert Scripted([(np.int64(1), np.int64(3))]).sequence == ((1, 3),)
        for pairs in ([(1.9, 3)], [(0, 1), (0, np.float64(0.7))]):
            with pytest.raises(ValidationError, match=f"script entry {len(pairs) - 1}"):
                Scripted(pairs)

    def test_raw_script_becomes_a_tuple_of_int_pairs(self):
        script = Scripted([[0, 1], (np.int64(2), 3)])
        assert script.sequence == ((0, 1), (2, 3))
        stored = Scripted(((0, 1), (2, 3)))
        assert script == stored and hash(script) == hash(stored)

    @pytest.mark.parametrize("entry", [(1, 2, 3), 4])
    def test_script_entries_must_be_pairs(self, entry):
        with pytest.raises(ValidationError) as info:
            Scripted([(0, 1), entry])
        assert str(info.value) == f"script entry 1: {entry!r} is not a pair"

    def test_seed_must_be_a_non_negative_integer(self):
        assert SeededUniform(np.int64(3)).seed == 3
        for seed, message in ((-3, "non-negative, got -3"), (3.0, "an integer, got 3.0"),
                              ("3", "an integer, got '3'")):
            with pytest.raises(ValidationError, match=message):
                SeededUniform(seed)

    def test_max_steps_must_be_an_integer(self):
        society = two_group_society([3, 3], 0.3)
        assert len(run(Network.empty(6), Scripted([(0, 1)] * 5), society,
                       max_steps=np.int64(2)).steps) == 2
        for max_steps, message in ((2.5, "an integer, got 2.5"), ("3", "an integer, got '3'")):
            with pytest.raises(ValidationError, match=f"^max_steps must be {message}$"):
                run(Network.empty(6), SeededUniform(1), society, max_steps)

    def test_start_network_of_another_size_rejected(self):
        society = two_group_society([3, 3], 0.4)
        with pytest.raises(ValidationError) as info:
            run(Network.empty(7), SeededUniform(1), society, max_steps=10)
        assert str(info.value) == "network has 7 nodes, the society has 6"

    def test_max_steps_truncation_reports_honestly(self):
        society = two_group_society([3, 5], 0.3)
        trace = run(Network.empty(8), SeededUniform(8), society, max_steps=3)
        assert len(trace.steps) == 3
        assert not trace.converged
        assert trace.steps_to_convergence is None


class TestIntraFirstTendency:
    SOCIETY = two_group_society([7, 7], 0.15)

    def test_cross_pair_from_empty_is_refused_when_weighted_gain_below_cost(self):
        params = self.SOCIETY.params
        assert self.SOCIETY.coordination[0, 1] * params.delta <= params.cost
        _, action = step(Network.empty(14), (0, 7), self.SOCIETY)
        assert action is Action.NO_CHANGE

    def test_first_cross_link_waits_for_intra_links_on_both_sides(self):
        partition = self.SOCIETY.partition
        for seed in range(100):
            trace = run(Network.empty(14), SeededUniform(seed), self.SOCIETY,
                        max_steps=50 * 91)
            assert trace.converged
            groups_with_intra = set()
            for s in trace.steps:
                crossing = partition.membership[s.pair[0]] != partition.membership[s.pair[1]]
                if s.action is Action.ADDED and crossing:
                    assert groups_with_intra == {0, 1}
                    break
                if s.action is Action.ADDED and not crossing:
                    groups_with_intra.add(partition.membership[s.pair[0]])
