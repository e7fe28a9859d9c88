"""End-to-end acceptance checks, one numbered criterion per test.

Each passing criterion prints one `[acceptance] criterion N: PASS` line
(visible under `pytest -s`).  Criterion 1 is split: the boundary scripts
reproduce the expected link counts, and the intra-first process, run on to
convergence, ends at a pairwise-stable network; the second check's
docstring carries the analysis of the consent tie it resolves.
"""

import io
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from groupform.cli import _fmt, load_scenario, main as cli_main
from groupform.dynamics import Action, Scripted, SeededUniform, in_invariant_set_run, run, step
from groupform.efficiency import argmax_from_scan, consolidate_representatives
from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    all_pairs,
    welfare,
)
from groupform.stability import (
    compute_tables,
    enumerate_stable,
    full_graph_space,
    interconnection_space,
    is_pairwise_stable,
    poa_from_scan,
    scan_space,
)
from groupform.thresholds import (
    RegimeKind,
    classify_two_group_efficient,
    classify_two_group_stable,
    clique_link_gain,
    efficient_boundaries,
    extra_link_gain,
    stability_efficiency_overlap,
    stable_boundaries,
)

from conftest import assert_scan_answers, random_network, random_society
from oracles import exact_payoff, kernel_welfare, reference_welfare
from test_efficiency import random_forest_instance


ROOT = Path(__file__).resolve().parent.parent


def _report(num: int, detail: str) -> None:
    print(f"[acceptance] criterion {num:>2}: PASS  {detail}", flush=True)


# -- criterion 1: boundary scripts ------------------------------------------------

BOUNDARY_SOCIETY = Society(GroupPartition.from_sizes([3, 5]),
                           CoordinationMatrix.uniform(2, 0.4),
                           ModelParams(0.5, 0.2))
TWO_LINES = Network(8, [(0, 1), (1, 2), (3, 5), (4, 5), (4, 6), (6, 7)])


def boundary_script_traces():
    society = BOUNDARY_SOCIETY
    intra = society.partition.intra_pairs()
    cross_first = run(TWO_LINES, Scripted([(1, 5), (2, 6)] + intra),
                      society, max_steps=200)
    intra_first = run(TWO_LINES, Scripted(intra + [(1, 5)]),
                      society, max_steps=200)
    return cross_first, intra_first


def test_criterion_01_boundary_scripts_reproduce_link_counts():
    started = time.perf_counter()
    cross_first, intra_first = boundary_script_traces()
    elapsed = time.perf_counter() - started
    partition = BOUNDARY_SOCIETY.partition
    assert cross_first.final.inter_count(partition) == 2
    assert intra_first.final.inter_count(partition) == 1
    assert cross_first.final.intra_count(partition) == 13
    assert intra_first.final.intra_count(partition) == 13
    assert cross_first.converged
    assert not intra_first.converged  # the script ends before the process does
    assert is_pairwise_stable(cross_first.final, BOUNDARY_SOCIETY)
    assert elapsed < 1.0
    _report(1, f"scripted finals hold 2 and 1 cross links in {elapsed:.2f}s "
               "(the intra-first script stops before convergence)")


def test_criterion_01_intra_first_final_is_pairwise_stable():
    """The intra-first boundary process, run to its end, is pairwise stable.

    The scripted intra-first run stops when its script does, one step short
    of convergence.  Its final network (both cliques plus the cross link
    (1, 5), at cross weight 0.4) leaves eight fresh cross pairs, and in
    rational arithmetic each has payoff changes of exactly (+1/10, 0): the
    member of the group of 3 strictly gains and the member of the group of 5
    is exactly indifferent (floats give 6.7e-16 for that zero).  Bilateral
    consent, as the README and `step` state it and as in Jackson & Wolinsky
    (1996), forms a link when one side strictly gains and the other at worst
    stays indifferent, so that network is not yet stable.  One more
    lexicographic pass over all pairs adds (0, 3) and nothing else, and ends
    at a network with 2 cross links that the whole-space scan at F12 = 0.4
    also lists as stable.
    """
    society = BOUNDARY_SOCIETY
    partition = society.partition
    _, intra_first = boundary_script_traces()
    stopped = intra_first.final

    delta, cost, f12 = Fraction(1, 2), Fraction(1, 5), Fraction(2, 5)
    assert (society.params.delta, society.params.cost,
            society.coordination.entries[0][1]) == (float(delta), float(cost), float(f12))
    coordination = ((1, f12), (f12, 1))
    crossing = {v for i, j in stopped.edges
                if partition.membership[i] != partition.membership[j] for v in (i, j)}
    fresh = [(i, j) for i, j in partition.cross_pairs()
             if i not in crossing and j not in crossing]
    assert fresh == [(0, 3), (0, 4), (0, 6), (0, 7), (2, 3), (2, 4), (2, 6), (2, 7)]
    for i, j in fresh:  # i lies in the group of 3, j in the group of 5
        joined = stopped.with_edge(i, j)
        gains = tuple(exact_payoff(joined, v, partition, coordination, delta, cost)
                      - exact_payoff(stopped, v, partition, coordination, delta, cost)
                      for v in (i, j))
        assert gains == (Fraction(1, 10), 0), (i, j)
        assert step(stopped, (i, j), society)[1] is Action.ADDED
    assert not is_pairwise_stable(stopped, society)

    finished = run(stopped, Scripted(all_pairs(partition.n)), society, max_steps=200)
    changes = [(s.index, s.pair, s.action) for s in finished.steps
               if s.action is not Action.NO_CHANGE]
    final = finished.final
    assert finished.converged
    assert changes == [(3, (0, 3), Action.ADDED)]
    assert final.intra_count(partition) == 13
    assert final.inter_count(partition) == 2
    assert is_pairwise_stable(final, society)
    assert final in enumerate_stable(interconnection_space(partition), society)
    _report(1, "intra-first process converges after adding (0, 3) on the exact "
               "(+1/10, 0) tie: 2 cross links, stable in both engines")


# -- criterion 2: closed-form boundary values -------------------------------------

def test_criterion_02_two_group_boundary_values():
    params = ModelParams(0.5, 0.2)
    stable = stable_boundaries(3, 5, params)
    efficient = efficient_boundaries(3, 5, params)
    expected_stable = [0.2, 0.4, 8.0 / 15.0, 0.8]
    expected_efficient = [1.0 / 15.0, 8.0 / 35.0, 0.8]
    assert len(stable) == 4 and len(efficient) == 3
    for got, want in zip(stable, expected_stable):
        assert abs(got - want) <= 1e-12
    for got, want in zip(efficient, expected_efficient):
        assert abs(got - want) <= 1e-12
    _report(2, "stable bounds (0.2, 0.4, 0.5333.., 0.8) and efficient bounds "
               "(0.0666.., 0.2285.., 0.8) within 1e-12")


# -- criterion 3: exhaustive oracle agreement at n = 7 -----------------------------

FULL7_PARTITION = GroupPartition.from_sizes([3, 4])
FULL7_PARAMS = ModelParams(0.5, 0.2)


@pytest.fixture(scope="module")
def full7_tables():
    """The n = 7 full-space tables (2,097,152 networks, about 250 MB), built
    once for criterion 3 and the exact check of the full-space workload."""
    return compute_tables(full_graph_space(7), FULL7_PARTITION, FULL7_PARAMS.delta)


def test_criterion_03_full_space_enumeration_matches_classifiers(full7_tables):
    started = time.perf_counter()
    partition = FULL7_PARTITION
    params = FULL7_PARAMS
    tables = full7_tables
    space = tables.space
    inter_space = interconnection_space(partition)
    inter_tables = compute_tables(inter_space, partition, params.delta)
    intra_pairs = set(partition.intra_pairs())
    sample_points = [0.05, 0.1, 0.3, 0.45, 0.5, 0.6, 0.7, 0.85, 0.95]

    stable_kinds = set()
    efficient_kinds = set()
    for f12 in sample_points:
        society = Society(partition, CoordinationMatrix.uniform(2, f12), params)
        scan = scan_space(tables, society)

        pred = classify_two_group_stable(3, 4, params, f12)
        assert pred.kind is not RegimeKind.BOUNDARY_TIE
        stable_kinds.add((pred.kind, pred.k))
        expected = pred.interconnections(3, 4)
        stable_nets = [space.network_for(int(k)) for k in scan.stable_masks()]
        stable_counts = {net.inter_count(partition) for net in stable_nets}
        assert stable_counts == {expected}, f"F12={f12}"
        assert all(intra_pairs <= net.edges for net in stable_nets), f"F12={f12}"
        inter_scan = scan_space(inter_tables, society)
        inter_sets = {inter_space.network_for(int(k)).edges
                      for k in inter_scan.stable_masks()}
        assert inter_sets == {net.edges for net in stable_nets}, f"F12={f12}"

        eff_pred = classify_two_group_efficient(3, 4, params, f12)
        assert eff_pred.kind is not RegimeKind.BOUNDARY_TIE
        efficient_kinds.add(eff_pred.kind)
        _, argmax = argmax_from_scan(scan)
        eff_counts = {net.inter_count(partition) for net in argmax}
        if eff_pred.kind is RegimeKind.REDUNDANT:
            assert all(2 <= c <= 11 for c in eff_counts), f"F12={f12}"
        else:
            assert eff_counts == {eff_pred.interconnections(3, 4)}, f"F12={f12}"

    assert stable_kinds == {(RegimeKind.DISJOINT, None), (RegimeKind.BRIDGE, None),
                            (RegimeKind.EXACT_K, 2), (RegimeKind.EXACT_K, 3),
                            (RegimeKind.MAXIMAL, None)}
    assert efficient_kinds == {RegimeKind.DISJOINT, RegimeKind.BRIDGE,
                               RegimeKind.REDUNDANT, RegimeKind.MAXIMAL}
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(3, f"2,097,152 networks x 9 cross weights agree with both "
               f"classifiers in {elapsed:.0f}s")


# -- exact decisions of the two table workloads ------------------------------------
#
# Both table workloads (the n = 7 full space at F12 = 3/10, and the sizes 3 and 5
# sweep over F12 = k/200) use delta = 1/2 and cost = 1/5, so every payoff is a
# rational with a small common denominator.  Their flags are decided again
# here in integers, by the consent rule written out, and compared with what
# the float engine decides within EPSILON.

def integer_parts(tables, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """Node-major int64 arrays (n, stop - start) for networks start to stop of
    two-group tables: B of the node's own group, B of the other group, and
    the degree, where B = benefit * 2**(n - 1).

    With delta = 1/2 each benefit entry is a sum of counts times 2**-hops
    with hops <= n - 1, so B is integral; that is asserted.
    """
    assert tables.delta == 0.5 and tables.partition.m == 2
    scaled = tables.benefit[start:stop] * (1 << (tables.space.n - 1))
    assert np.array_equal(scaled, np.trunc(scaled)), start
    nodes = np.arange(tables.space.n)
    own = np.array(tables.partition.membership)
    return (scaled[:, nodes, own].T.astype(np.int64),
            scaled[:, nodes, 1 - own].T.astype(np.int64),
            tables.degree[start:stop].T.astype(np.int64))


def exact_utilities(parts, f12: Fraction, cost: Fraction) -> tuple[np.ndarray, int]:
    """Every node's payoff in the networks of ``parts`` (`integer_parts`),
    as the integers ``scale * u`` with the ``scale`` they carry.

    For the common denominator q of the cross weight and the cost, scale is
    q * 2**(n - 1), and scale * u = q * B_own + q * f12 * B_other
    - q * cost * 2**(n - 1) * degree.
    """
    own, other, degree = parts
    dyadic = 1 << (len(own) - 1)
    q = math.lcm(f12.denominator, cost.denominator)
    util = q * own + int(q * f12) * other - int(q * cost * dyadic) * degree
    assert np.abs(util).max() < 1 << 30  # room for int32 and its differences
    return util, q * dyadic


def exact_stable(space, util: np.ndarray) -> tuple[np.ndarray, int]:
    """Stability flag of every network of ``space`` from integer utilities,
    and the number of endpoint changes that are exact ties (each toggle of
    a free pair counted once per endpoint, from the side without the link).

    A present free pair is cut when an endpoint strictly gains from the cut;
    a missing one forms when an endpoint strictly gains and neither loses.
    """
    stable = np.ones(space.size, dtype=bool)
    ties = 0
    for t, (i, j) in enumerate(space.free_pairs):
        # network k and its partner k ^ (1 << t): the pair absent at [:, 0]
        shape = (space.size >> (t + 1), 2, 1 << t)
        u_i, u_j = util[i].reshape(shape), util[j].reshape(shape)
        add_i, add_j = u_i[:, 1] - u_i[:, 0], u_j[:, 1] - u_j[:, 0]
        side = stable.reshape(shape)
        side[:, 0] &= ~(((add_i > 0) | (add_j > 0)) & (add_i >= 0) & (add_j >= 0))
        side[:, 1] &= ~((add_i < 0) | (add_j < 0))
        ties += np.count_nonzero(add_i == 0) + np.count_nonzero(add_j == 0)
    return stable, ties


def exact_welfare_cells(stable: np.ndarray, util: np.ndarray, scale: int):
    """Exact (stable minimum welfare, best welfare, PoA), and the masks of the
    stable and of the welfare-maximal networks."""
    welfare = util.sum(axis=0, dtype=np.int64)
    stable_min = Fraction(int(welfare[stable].min()), scale)
    best = Fraction(int(welfare.max()), scale)
    return ((stable_min, best, best / stable_min),
            np.flatnonzero(stable), np.flatnonzero(welfare == welfare.max()))


def test_exact_integer_decisions_on_the_full_space_workload(full7_tables):
    tables = full7_tables
    f12 = Fraction(3, 10)
    size, chunk = tables.space.size, 1 << 16
    util = np.empty((7, size), dtype=np.int32)  # int64 would add 117 MB to the tables
    for start in range(0, size, chunk):
        parts = integer_parts(tables, start, start + chunk)
        util[:, start:start + chunk], scale = exact_utilities(parts, f12, Fraction(1, 5))
    stable, ties = exact_stable(tables.space, util)
    assert ties == 1_568_352
    (stable_min, best, poa), _, argmax = exact_welfare_cells(stable, util, scale)
    del util
    society = Society(FULL7_PARTITION, CoordinationMatrix.uniform(2, float(f12)),
                      FULL7_PARAMS)
    scan = scan_space(tables, society)
    assert np.array_equal(stable, scan.stable)
    assert np.count_nonzero(stable) == 12
    assert np.array_equal(argmax, scan.argmax_masks)
    assert scan.stable_min == pytest.approx(float(stable_min), rel=1e-12)
    assert scan.best == pytest.approx(float(best), rel=1e-12)
    assert poa_from_scan(scan) == pytest.approx(float(poa), rel=1e-12)


def test_full_space_welfare_is_the_reference_welfare(full7_tables):
    # the scan adds each network's utility columns left to right from 0.0
    society = Society(FULL7_PARTITION, CoordinationMatrix.uniform(2, 0.3), FULL7_PARAMS)
    expected = reference_welfare(full7_tables, society)
    assert kernel_welfare(full7_tables, society).tobytes() == expected.tobytes()
    assert_scan_answers(scan_space(full7_tables, society), expected)


def test_full_space_scan_answers_are_the_welfare_reductions(full7_tables):
    # the enumerate_full7 society, whose scan stable, efficient and poa share
    society = Society(FULL7_PARTITION, CoordinationMatrix.uniform(2, 0.3), FULL7_PARAMS)
    assert_scan_answers(scan_space(full7_tables, society), kernel_welfare(full7_tables, society))


def test_exact_integer_decisions_on_the_sweep_workload():
    society = load_scenario(str(ROOT / "scenarios" / "two_groups_boundary.scn")).society
    partition = society.partition
    assert (partition.sizes, society.params) == ((3, 5), ModelParams(0.5, 0.2))
    space = interconnection_space(partition)
    tables = compute_tables(space, partition, 0.5)
    parts = integer_parts(tables, 0, space.size)
    lines = (ROOT / "out" / "two_group_sweep.csv").read_text(encoding="ascii").splitlines()
    assert len(lines) == 202
    ties_at = {}
    for k, line in enumerate(lines[1:]):
        f12 = Fraction(k, 200)
        util, scale = exact_utilities(parts, f12, Fraction(1, 5))
        stable, ties = exact_stable(space, util)
        if ties:
            # Elsewhere every change is at least 1 / scale away from a tie;
            # here the engine must settle each tie within EPSILON as exact
            # arithmetic does.
            ties_at[float(f12)] = ties
            scan = scan_space(tables, replace(
                society, coordination=CoordinationMatrix.uniform(2, float(f12))))
            assert np.array_equal(scan.stable, stable), line
        exact, stable_masks, argmax = exact_welfare_cells(stable, util, scale)
        # every free pair is a cross pair, so a mask's popcount is its count
        counts = [np.bitwise_count(masks) for masks in (stable_masks, argmax)]
        value, stable_cell, efficient_cell, *welfare_cells = line.split(",")
        assert value == _fmt(float(f12)), line
        for cell, count in zip((stable_cell, efficient_cell), counts):
            lo, _, hi = cell.partition("..")
            assert (int(lo), int(hi or lo)) == (count.min(), count.max()), line
        assert welfare_cells == [_fmt(float(x)) for x in exact], line
    assert ties_at == {0.2: 15, 0.32: 1_350, 0.4: 4_725, 0.8: 468_990}


# -- criterion 4: fixed-point equivalence on random instances ---------------------

def test_criterion_04_stability_equals_dynamics_fixed_point():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(10_000):
        society = random_society(rng)
        network = random_network(rng, society.n)
        unchanged = all(
            step(network, pair, society)[1] is Action.NO_CHANGE
            for pair in all_pairs(society.n))
        stable = is_pairwise_stable(network, society)
        assert unchanged == stable, (society, network.edges)
        checked += 1
    assert checked == 10_000
    _report(4, "stability <=> no single activation changes the network, "
               "10,000 random instances, zero counterexamples")


# -- criterion 5: convergence to disjoint cliques ----------------------------------

CONVERGENCE_SOCIETY = Society(GroupPartition.from_sizes([3, 4, 5]),
                              CoordinationMatrix.uniform(3, 0.1),
                              ModelParams(0.5, 0.2))


def criterion_05_trace(seed: int):
    n = CONVERGENCE_SOCIETY.n
    cap = 50 * (n * (n - 1) // 2)
    return in_invariant_set_run(Network.empty(n), SeededUniform(seed),
                                CONVERGENCE_SOCIETY, max_steps=cap)


def test_criterion_05_seeded_runs_converge_to_disjoint_cliques():
    cliques = Network.disjoint_cliques(CONVERGENCE_SOCIETY.partition).edges
    for seed in range(100):
        trace = criterion_05_trace(seed)
        assert trace.converged, f"seed {seed}"
        assert trace.final.edges == cliques, f"seed {seed}"
    _report(5, "100 seeds, n=12, all converged to the disjoint cliques "
               "within 50*C(n,2) periods")


# -- criterion 6: size-split sweep shape -------------------------------------------

def criterion_06_csv(tmp_path) -> str:
    tmp_path.mkdir(parents=True, exist_ok=True)
    scenario = tmp_path / "split.scn"
    scenario.write_text("group_sizes = 10, 10\nF = 0.25\ndelta = 0.5\ncost = 0.2\n",
                        encoding="ascii")
    out = tmp_path / "split.csv"
    code = cli_main(["sweep", "--scenario", str(scenario), "--parameter", "s1",
                     "--from", "3", "--to", "17", "--step", "1",
                     "--out", str(out)], out=io.StringIO())
    assert code == 0
    return out.read_text(encoding="ascii")


def test_criterion_06_size_split_sweep_symmetric_and_peaked(tmp_path):
    csv_text = criterion_06_csv(tmp_path)
    rows = csv_text.splitlines()[1:]
    counts = {}
    for row in rows:
        cells = row.split(",")
        counts[int(float(cells[0]))] = int(cells[1])
    assert sorted(counts) == list(range(3, 18))
    for s1 in range(3, 18):
        assert counts[s1] == counts[20 - s1]
    peak = max(counts.values())
    assert counts[10] == peak
    assert all(counts[s1] < peak for s1 in counts if s1 != 10)
    _report(6, f"predicted cross-link counts over s1=3..17 are symmetric about "
               f"10 and peak there at {peak}")


# -- criterion 7: price-of-anarchy curve -------------------------------------------

def test_criterion_07_price_of_anarchy_curve():
    partition = GroupPartition.from_sizes([3, 5])
    params = ModelParams(0.5, 0.2)
    space = interconnection_space(partition)
    tables = compute_tables(space, partition, params.delta)

    def poa_at(f12: float) -> float:
        society = Society(partition, CoordinationMatrix.uniform(2, f12), params)
        return poa_from_scan(scan_space(tables, society))

    boundaries = sorted(stable_boundaries(3, 5, params)
                        + efficient_boundaries(3, 5, params))
    grid = [k / 200 for k in range(201)
            if all(abs(k / 200 - b) > 1e-6 for b in boundaries)]
    poa = {f: poa_at(f) for f in grid}

    overlap_points = [f for f in grid if stability_efficiency_overlap(3, 5, params, f)]
    assert overlap_points
    for f in overlap_points:
        assert abs(poa[f] - 1.0) <= 1e-9, f"F12={f}"

    conflict_a = [f for f in grid if 1 / 15 < f < 0.2]
    conflict_b = [f for f in grid if 8 / 35 < f < 0.4]
    assert conflict_a and conflict_b
    for f in conflict_a + conflict_b:
        assert poa[f] > 1.0 + 1e-9, f"F12={f}"

    def max_slope(points):
        pairs = zip(points, points[1:])
        return max(abs(poa[b] - poa[a]) / (b - a) for a, b in pairs)

    intervals = [(1 / 15, 0.2), (8 / 35, 0.4), (0.4, 8 / 15), (8 / 15, 0.8)]
    slopes = [max_slope([f for f in grid if lo < f < hi]) for lo, hi in intervals]
    assert slopes[0] == max(slopes)
    assert all(slopes[0] > s for s in slopes[1:])
    _report(7, f"ratio is 1 on every overlap stretch, exceeds 1 in both conflict "
               f"stretches, and is steepest on (0.067, 0.2): slopes "
               f"{[round(s, 2) for s in slopes]}")


# -- criterion 8: representative consolidation ------------------------------------

def test_criterion_08_consolidation_never_lowers_welfare():
    rng = random.Random(81520)
    checked = 0
    for _ in range(1_000):
        network, society = random_forest_instance(rng)
        merged = consolidate_representatives(network, society.partition)
        before = welfare(network, society)
        after = welfare(merged, society)
        assert after >= before - 1e-9, (society, sorted(network.edges))
        checked += 1
    assert checked == 1_000
    _report(8, "1,000 random forest-linked clique instances, consolidation "
               "never lowered welfare (tolerance 1e-9)")


# -- criterion 9: star and ring bistability ----------------------------------------

EXAMPLE_TWO_SOCIETY = Society(GroupPartition.from_sizes([3, 3, 3, 3, 3]),
                              CoordinationMatrix.uniform(5, 0.2),
                              ModelParams(0.55, 0.2))
STAR_SCRIPT = [(0, 3), (0, 6), (0, 9), (0, 9), (0, 12)]
RING_SCRIPT = [(3, 6), (0, 3), (0, 6), (0, 9), (6, 12), (3, 9), (9, 12)]


def example_two_traces():
    start = Network.disjoint_cliques(EXAMPLE_TWO_SOCIETY.partition)
    star = run(start, Scripted(STAR_SCRIPT), EXAMPLE_TWO_SOCIETY, max_steps=50)
    ring = run(start, Scripted(RING_SCRIPT), EXAMPLE_TWO_SOCIETY, max_steps=50)
    return star, ring


def group_edges(network: Network) -> set:
    members = EXAMPLE_TWO_SOCIETY.partition.membership
    return {(min(members[i], members[j]), max(members[i], members[j]))
            for i, j in network.edges if members[i] != members[j]}


def test_criterion_09_star_and_ring_bistability():
    params = EXAMPLE_TWO_SOCIETY.params
    f_cross = EXAMPLE_TWO_SOCIETY.coordination[0, 1]
    assert params.delta < (math.sqrt(5) - 1) / 2
    assert params.cost / clique_link_gain(3, params.delta) < f_cross
    assert f_cross < params.cost / extra_link_gain(3, params.delta)

    star, ring = example_two_traces()
    assert group_edges(star.final) == {(0, 1), (0, 2), (0, 3), (0, 4)}
    assert group_edges(ring.final) == {(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)}
    for trace in (star, ring):
        assert trace.converged
        assert is_pairwise_stable(trace.final, EXAMPLE_TWO_SOCIETY)
    _report(9, "identical parameters, different activation orders: star and "
               "ring group structures both reached and both pairwise stable")


# -- criterion 10: determinism ------------------------------------------------------

def test_criterion_10_repeated_runs_are_byte_identical(tmp_path):
    first_a, first_b = boundary_script_traces()
    second_a, second_b = boundary_script_traces()
    assert first_a.to_csv() == second_a.to_csv()
    assert first_b.to_csv() == second_b.to_csv()

    for seed in range(0, 100, 10):
        assert criterion_05_trace(seed).to_csv() == criterion_05_trace(seed).to_csv()

    assert criterion_06_csv(tmp_path / "a") == criterion_06_csv(tmp_path / "b")

    star_one, ring_one = example_two_traces()
    star_two, ring_two = example_two_traces()
    assert star_one.to_csv() == star_two.to_csv()
    assert ring_one.to_csv() == ring_two.to_csv()
    _report(10, "boundary scripts, seeded convergence runs, the size-split "
                "sweep, and both bistability scripts replay byte-identically")
