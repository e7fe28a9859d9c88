import hashlib
import io
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import groupform.cli
import groupform.stability as stab
import groupform.thresholds as th
from groupform.cli import main, parse_scenario
from groupform.model import Network, ValidationError, parse_edge_list, welfare

ROOT = Path(__file__).resolve().parent.parent

SCENARIO_3_5 = """\
# two groups, bridge/redundant boundary
group_sizes = 3, 5
F = 0.4
delta = 0.5
cost = 0.2
seed = 7
space = inter
"""


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def run_cli(args) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(args, out=buffer)
    return code, buffer.getvalue()


class TestScenarioParsing:
    def test_full_parse(self):
        scenario = parse_scenario(SCENARIO_3_5)
        assert scenario.partition.sizes == (3, 5)
        assert scenario.society.coordination[0, 1] == 0.4
        assert scenario.seed == 7
        assert scenario.space == "inter"

    def test_unknown_key_names_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_scenario("group_sizes = 3, 3\nbogus = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match="delta"):
            parse_scenario("group_sizes = 3, 3\nF = 0.5\ncost = 0.2\n")

    def test_wrong_cross_entry_count(self):
        with pytest.raises(ValidationError, match="cross-group"):
            parse_scenario("group_sizes = 3, 3, 3\nF = 0.5\ndelta = 0.5\ncost = 0.2\n")

    @pytest.mark.parametrize("old, new, message", [
        ("group_sizes = 3, 5", "group_sizes = 3, x", "line 2: group_sizes must be integers"),
        ("F = 0.4", "F = abc", "line 3: F entries must be numbers"),
        ("delta = 0.5", "delta = half", "line 4: delta must be a number"),
        ("seed = 7", "seed = 7.5", "line 6: seed must be an integer"),
        ("space = inter", "max_steps = many", "line 7: max_steps must be an integer"),
        ("space = inter", "max_steps = 1e3", "line 7: max_steps must be an integer"),
        ("space = inter", "space = huge", "space must be 'full' or 'inter', got 'huge'"),
    ])
    def test_unreadable_value_names_key_and_line(self, old, new, message):
        with pytest.raises(ValidationError) as info:
            parse_scenario(SCENARIO_3_5.replace(old, new))
        assert str(info.value) == message

    def test_optional_keys_default(self):
        scenario = parse_scenario("group_sizes = 3, 3\nF = 0.5\ndelta = 0.5\ncost = 0.2\n")
        assert scenario.seed is None
        assert scenario.space == "inter"
        assert scenario.max_steps == groupform.cli.DEFAULT_MAX_STEPS

    def test_model_invariants_revalidated_on_load(self):
        with pytest.raises(ValidationError, match=">= 3"):
            parse_scenario("group_sizes = 3, 2\nF = 0.5\ndelta = 0.5\ncost = 0.2\n")
        with pytest.raises(ValidationError, match="delta"):
            parse_scenario("group_sizes = 3, 3\nF = 0.5\ndelta = 1.5\ncost = 0.2\n")
        with pytest.raises(ValidationError, match="\\[0, 1\\]"):
            parse_scenario("group_sizes = 3, 3\nF = 1.5\ndelta = 0.5\ncost = 0.2\n")


class TestEval:
    def test_disjoint_cliques_welfare(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        edges = [(0, 1), (0, 2), (1, 2)] + [(i, j) for i in range(3, 8)
                                            for j in range(i + 1, 8)]
        network = write(tmp_path, "net.edges",
                        "".join(f"{i} {j}\n" for i, j in edges))
        code, text = run_cli(["eval", "--scenario", scenario, "--network", network])
        assert code == 0
        assert "welfare: 7.8" in text
        assert "node 0: payoff 0.6" in text

    def test_empty_network(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        network = write(tmp_path, "net.edges", "")
        code, text = run_cli(["eval", "--scenario", scenario, "--network", network])
        assert code == 0
        assert "welfare: 0" in text

    def test_one_payoff_per_node_and_welfare_in_its_order(self, tmp_path, monkeypatch):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        network = write(tmp_path, "net.edges", "0 1\n1 2\n2 3\n3 4\n4 7\n5 6\n")
        society = parse_scenario(SCENARIO_3_5).society
        graph = parse_edge_list(Path(network).read_text(encoding="ascii"), society.n)
        expected = welfare(graph, society)
        calls, payoff = [], groupform.model.payoff

        def spy(network, i, society):
            calls.append(i)
            return payoff(network, i, society)
        monkeypatch.setattr(groupform.model, "payoff", spy)
        code, text = run_cli(["eval", "--scenario", scenario, "--network", network])
        assert code == 0 and calls == list(range(8))
        assert text.endswith(f"welfare: {expected:.12g}\n")

    def test_malformed_edge_line_exits_one(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        network = write(tmp_path, "net.edges", "0 1\nnot an edge\n")
        code, _ = run_cli(["eval", "--scenario", scenario, "--network", network])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestClassify:
    def test_boundary_listing(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        code, text = run_cli(["classify", "--scenario", scenario])
        assert code == 0
        assert "0.2, 0.4, 0.533333333333, 0.8" in text
        assert "0.0666666666667, 0.228571428571, 0.8" in text
        assert "boundary tie at 0.4" in text

    def test_zero_weight_is_disjoint_everywhere(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0"))
        code, text = run_cli(["classify", "--scenario", scenario])
        assert code == 0
        assert text.count("disjoint (0 interconnections)") == 2
        assert "pairwise stable: yes" in text

    def test_full_weight_is_maximal_everywhere(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 1"))
        code, text = run_cli(["classify", "--scenario", scenario])
        assert code == 0
        assert text.count("maximal (15 interconnections)") == 2
        assert "pairwise stable: yes" in text

    def test_high_cost_reported_out_of_scope(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("cost = 0.2",
                                                                 "cost = 0.3"))
        code, _ = run_cli(["classify", "--scenario", scenario])
        assert code == 1
        assert "clique-formation bound" in capsys.readouterr().err

    def test_multigroup_star_report(self, tmp_path):
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 3, 3, 3, 3, 3\nF = 0.2,0.2,0.2,0.2,0.2,"
                         "0.2,0.2,0.2,0.2,0.2\ndelta = 0.55\ncost = 0.2\n")
        code, text = run_cli(["classify", "--scenario", scenario])
        assert code == 0
        assert text.count("supported") == 5
        assert "star centered on group 0" in text

    def test_multigroup_report_golden(self, tmp_path):
        # only the star centred on the group that weighs the others 0.3 holds
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 3, 4, 3, 5\nF = 0.3, 0.3, 0.3, 0.1, 0.1, 0.1\n"
                         "delta = 0.5\ncost = 0.2\n")
        code, text = run_cli(["classify", "--scenario", scenario])
        assert code == 0
        assert text == (
            "groups: sizes 3, 4, 3, 5; delta = 0.5; cost = 0.2\n"
            "pair (0, 1): F = 0.3, redundant above 0.4, maximal above 0.8\n"
            "pair (0, 2): F = 0.3, redundant above 0.4, maximal above 0.8\n"
            "pair (0, 3): F = 0.3, redundant above 0.4, maximal above 0.8\n"
            "pair (1, 2): F = 0.1, redundant above 0.4, maximal above 0.8\n"
            "pair (1, 3): F = 0.1, redundant above 0.32, maximal above 0.8\n"
            "pair (2, 3): F = 0.1, redundant above 0.4, maximal above 0.8\n"
            "star centered on group 0: minimally connected cliques supported\n"
            "star centered on group 1: minimally connected cliques not supported\n"
            "star centered on group 2: minimally connected cliques not supported\n"
            "star centered on group 3: minimally connected cliques not supported\n")

    def test_multigroup_star_held_only_by_its_representatives_not_supported(self, tmp_path):
        # the star centred on group 1 keeps every representative pair, but the
        # members 1 and 9 of the end groups both gain from a direct link
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 4, 4, 3\nF = 0.149, 0.346, 0.227\n"
                         "delta = 0.55\ncost = 0.2045813770983067\n")
        code, text = run_cli(["classify", "--scenario", scenario])
        assert code == 0
        assert ("star centered on group 1: minimally connected cliques not supported\n"
                in text)


class TestSweep:
    def test_fig9_style_counts_and_determinism(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", "--scenario", scenario, "--parameter", "F12",
                "--from", "0.05", "--to", "0.95", "--step", "0.05"]
        assert main(args + ["--out", str(out_a)], out=io.StringIO()) == 0
        assert main(args + ["--out", str(out_b)], out=io.StringIO()) == 0
        text = out_a.read_text(encoding="ascii")
        assert text == out_b.read_text(encoding="ascii")
        lines = text.splitlines()
        assert lines[0] == ("value,stable_interconnections,efficient_interconnections,"
                            "stable_min_welfare,efficient_welfare,poa")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["0.1"][1] == "0"
        assert rows["0.3"][1] == "1"
        assert rows["0.45"][1] == "2"
        assert rows["0.6"][1] == "3"
        assert rows["0.85"][1] == "15"
        # boundary grid point emits the enumerated count range
        assert rows["0.4"][1] == "2..2"
        assert rows["0.8"][1] == "3..15"
        assert float(rows["0.05"][5]) == pytest.approx(1.0)
        assert float(rows["0.1"][5]) > 1.0

    def test_size_split_sweep_symmetric(self, tmp_path):
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 10, 10\nF = 0.25\ndelta = 0.5\ncost = 0.2\n")
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "s1",
                              "--from", "3", "--to", "17", "--step", "1"])
        assert code == 0
        lines = text.splitlines()
        counts = {int(float(l.split(",")[0])): l.split(",")[1] for l in lines[1:16]}
        assert counts == {3: "1", 4: "1", 5: "1", 6: "2", 7: "3", 8: "4", 9: "5",
                          10: "6", 11: "5", 12: "4", 13: "3", 14: "2", 15: "1",
                          16: "1", 17: "1"}
        # n = 20 is far beyond enumeration: welfare columns hold nan
        assert lines[1].split(",")[3] == "nan"

    def test_fractional_s1_grid_point_rejected(self, tmp_path, capsys):
        # a 3.5 row used to be computed for sizes 3 and 17, like the 3 row
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 10, 10\nF = 0.25\ndelta = 0.5\ncost = 0.2\n")
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "s1",
                              "--from", "3", "--to", "4", "--step", "0.5"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: s1=3.5 is not a whole group size\n"

    @pytest.mark.parametrize("parameter, start, stop, step, message", [
        ("F12", "0", "1.01", "0.01",
         "F12=1.01: cross-group weight must be in [0, 1], got 1.01"),
        ("delta", "0.5", "1", "0.25", "delta=1: delta must be in (0, 1), got 1.0"),
    ])
    def test_bad_last_grid_point_refused_before_any_table(
            self, tmp_path, capsys, monkeypatch, parameter, start, stop, step, message):
        # such a grid used to scan every earlier row before it was refused
        def no_tables(*args):
            raise AssertionError("a table was built for a grid that is refused")
        monkeypatch.setattr(groupform.cli.stab, "compute_tables", no_tables)
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", parameter,
                              "--from", start, "--to", stop, "--step", step])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("bounds", [("0", "1", "nan"), ("0", "inf", "0.1"),
                                        ("nan", "1", "0.1")])
    def test_non_finite_grid_rejected(self, tmp_path, capsys, bounds):
        # such a grid used to loop forever, appending points without bound
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        start, stop, step = bounds
        csv = tmp_path / "x.csv"
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "F12",
                              "--from", start, "--to", stop, "--step", step,
                              "--out", str(csv)])
        assert code == 1
        assert text == ""
        assert not csv.exists()
        assert capsys.readouterr().err == (
            "error: sweep --from, --to and --step must be finite\n")

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        # such a grid used to be built whole before the first row, without bound
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        csv = tmp_path / "x.csv"
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "F12",
                              "--from", "0", "--to", "1", "--step", "1e-12",
                              "--out", str(csv)])
        assert code == 1
        assert text == ""
        assert not csv.exists()
        assert capsys.readouterr().err == (
            f"error: sweep grid has more than {groupform.cli.MAX_SWEEP_POINTS} points\n")

    def test_full_space_stable_cells_match_the_stable_command(self, tmp_path):
        # 0.1 to 0.9 on sizes 3 and 3 meets every stable regime: disjoint,
        # bridge, exact-k (2 and 3 links), maximal, and ties at 0.2, 0.4, 0.8;
        # the full space frees intra pairs too, which the cell must not count
        scenario = SCENARIO_3_5.replace("3, 5", "3, 3").replace("space = inter", "space = full")
        code, text = run_cli(["sweep", "--scenario", write(tmp_path, "s.scn", scenario),
                              "--parameter", "F12", "--from", "0.1", "--to", "0.9",
                              "--step", "0.1"])
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 9
        for value, cell, *_ in rows:
            point = write(tmp_path, "p.scn", scenario.replace("F = 0.4", f"F = {value}"))
            code, report = run_cli(["stable", "--scenario", point])
            assert code == 0
            lo, _, hi = cell.partition("..")
            assert f"interconnection counts: {lo}..{hi or lo}" in report.splitlines(), value

    def test_svg_emission(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        svg = tmp_path / "plot.svg"
        code, _ = run_cli(["sweep", "--scenario", scenario, "--parameter", "F12",
                           "--from", "0.1", "--to", "0.9", "--step", "0.2",
                           "--out", str(tmp_path / "x.csv"), "--svg", str(svg)])
        assert code == 0
        assert svg.read_text(encoding="ascii").startswith("<svg")

    def test_closed_form_fallback_tie_rows(self, tmp_path):
        # groups of 10 and 10 exceed the enumeration cap; the grid points sit
        # on the first stable bound (0.2 / 2.75) and on the last one (0.8)
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 10, 10\nF = 0.25\ndelta = 0.5\ncost = 0.2\n")
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "F12",
                              "--from", "0.0727272727", "--to", "0.8",
                              "--step", "0.7272727273"])
        assert code == 0
        assert text.splitlines()[1:] == ["0.0727272727,0..1,1,nan,nan,nan",
                                         "0.8,10..100,,nan,nan,nan"]

    def test_rows_at_or_above_clique_bound_are_empty(self, tmp_path):
        # delta 0.5 puts the clique-formation bound at cost 0.25
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0.3"))
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "cost",
                              "--from", "0.2", "--to", "0.3", "--step", "0.05"])
        assert code == 0
        assert text.splitlines()[1:] == ["0.2,1,2,9.2,9.325,1.01358695652",
                                         "0.25,,,nan,nan,nan",
                                         "0.3,,,nan,nan,nan"]

    def test_stable_cell_reads_the_enumeration(self, tmp_path, monkeypatch):
        monkeypatch.setattr(th, "classify_two_group_stable", lambda *args: (
            th.RegimePrediction(th.RegimeKind.MAXIMAL, 0.8, 1.0)))
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", "F12",
                              "--from", "0.3", "--to", "0.3", "--step", "0.1"])
        assert code == 0
        assert text.splitlines()[1].startswith("0.3,1,")

    def test_three_groups_rejected(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 3, 3, 3\nF = 0.2, 0.2, 0.2\n"
                         "delta = 0.5\ncost = 0.2\n")
        code, _ = run_cli(["sweep", "--scenario", scenario, "--parameter", "F12",
                           "--from", "0", "--to", "1", "--step", "0.5"])
        assert code == 1
        assert "two groups" in capsys.readouterr().err


class TestDynamicsCommand:
    def test_scripted_example_trace(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        start = write(tmp_path, "start.edges",
                      "0 1\n1 2\n3 5\n4 5\n4 6\n6 7\n")
        intra = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        intra += [(i, j) for i in range(3, 8) for j in range(i + 1, 8)]
        script = write(tmp_path, "moves.txt",
                       "1 5\n2 6\n" + "".join(f"{i} {j}\n" for i, j in intra))
        trace_path = tmp_path / "trace.csv"
        final_path = tmp_path / "final.edges"
        code, text = run_cli(["dynamics", "--scenario", scenario,
                              "--script", script, "--start", start,
                              "--out", str(trace_path),
                              "--final-out", str(final_path)])
        assert code == 0
        assert "converged: yes" in text
        assert "2 interconnections" in text
        lines = trace_path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "step,i,j,action,intra_count,inter_count"
        final = parse_edge_list(final_path.read_text(encoding="ascii"), 8)
        assert final.edge_count == 13 + 2

    def test_seeded_run_deterministic(self, tmp_path):
        scenario = write(tmp_path, "s.scn",
                         SCENARIO_3_5.replace("F = 0.4", "F = 0.3"))
        args = ["dynamics", "--scenario", scenario, "--seed", "42",
                "--max-steps", "2000"]
        code_a, text_a = run_cli(args)
        code_b, text_b = run_cli(args)
        assert code_a == code_b == 0
        assert text_a == text_b
        assert "converged: yes" in text_a

    def test_script_pair_out_of_range(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        script = write(tmp_path, "moves.txt", "0 99\n")
        code, _ = run_cli(["dynamics", "--scenario", scenario, "--script", script])
        assert code == 1
        assert capsys.readouterr().err == "error: script entry 0: edge (0, 99) invalid for n=8\n"

    def test_missing_seed_and_script(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("seed = 7\n", ""))
        code, _ = run_cli(["dynamics", "--scenario", scenario])
        assert code == 1
        assert "seed" in capsys.readouterr().err


class TestSvgEdgeCases:
    """Plots that reach the SVG writer's fallback axes and flat-range guards,
    pinned by digest: tier-1's other plots never reach those branches."""

    BOUNDARY = str(ROOT / "scenarios" / "two_groups_boundary.scn")

    @pytest.mark.parametrize("script, digest", [
        # no rows: the fallback axes
        ("", "acc4afda4e1b0db6b18b3ed4691011c3ff213e5a6352874f118267ddf39dbfec"),
        # one NoChange row with both counts 0: x and y both flat
        ("0 3\n", "49712a8ede04b59b9ce53598d8eaa33af8aade1641b16c1dab8d8bd62c8f4ceb"),
    ])
    def test_dynamics_plot(self, tmp_path, script, digest):
        svg = tmp_path / "plot.svg"
        code, _ = run_cli(["dynamics", "--scenario", self.BOUNDARY,
                           "--script", write(tmp_path, "moves.txt", script),
                           "--svg", str(svg)])
        assert code == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("parameter, start, stop, step, digest", [
        # a single point
        ("F12", "0.3", "0.3", "0.1",
         "05ac36fd52564e68368c18a91cf1353ce32676d9c7c0f35681dab1bd041f90bf"),
        # a 2..2 tie cell, then two rows of empty and nan cells
        ("cost", "0.2", "0.3", "0.05",
         "4f5530b3c8936064343682b991671193743cbfcfa6e130cd0bdcd079b1253c82"),
    ])
    def test_sweep_plot(self, tmp_path, parameter, start, stop, step, digest):
        svg = tmp_path / "plot.svg"
        code, _ = run_cli(["sweep", "--scenario", self.BOUNDARY, "--parameter", parameter,
                           "--from", start, "--to", stop, "--step", step,
                           "--svg", str(svg)])
        assert code == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


class TestFlagOverrides:
    """--seed, --space and --max-steps replace the scenario key of that name."""

    def test_max_steps_flag_bounds_the_trace(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5 + "max_steps = 3\n")
        code, text = run_cli(["dynamics", "--scenario", scenario, "--max-steps", "7"])
        assert code == 0
        lines = text.splitlines()
        assert [line.split(",")[0] for line in lines[1:9]] == [
            "1", "2", "3", "4", "5", "6", "7", "converged: no"]

    def test_seed_flag_reproduces_the_scenario_seed(self, tmp_path):
        seven = write(tmp_path, "seven.scn", SCENARIO_3_5)
        three = write(tmp_path, "three.scn", SCENARIO_3_5.replace("seed = 7", "seed = 3"))
        code_a, from_key = run_cli(["dynamics", "--scenario", seven])
        code_b, from_flag = run_cli(["dynamics", "--scenario", three, "--seed", "7"])
        code_c, unflagged = run_cli(["dynamics", "--scenario", three])
        assert code_a == code_b == code_c == 0
        assert from_flag == from_key
        assert unflagged != from_key

    def test_space_flag_replaces_the_scenario_space(self, tmp_path):
        # the full space on 8 nodes is past the cap, so only the flag lets it run
        scenario = write(tmp_path, "s.scn",
                         SCENARIO_3_5.replace("space = inter", "space = full"))
        assert run_cli(["poa", "--scenario", scenario])[0] == 2
        code, text = run_cli(["poa", "--scenario", scenario, "--space", "inter"])
        assert code == 0
        assert text.startswith("space: interconnection (32768 networks)\n")

    def test_epsilon_flag_is_refused(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        with pytest.raises(SystemExit) as info:
            main(["classify", "--scenario", scenario, "--epsilon", "0.1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --epsilon 0.1" in capsys.readouterr().err


class TestStableAndEfficientCommands:
    def test_stable_writes_roundtrippable_files(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0.3"))
        out_dir = tmp_path / "stable"
        code, text = run_cli(["stable", "--scenario", scenario, "--out", str(out_dir)])
        assert code == 0
        assert "15 pairwise stable" in text
        summary = (out_dir / "summary.csv").read_text(encoding="ascii").splitlines()
        assert summary[0] == "index,edges,interconnections,welfare"
        assert len(summary) == 16
        for index in range(15):
            path = out_dir / f"stable_{index:04d}.edges"
            network = parse_edge_list(path.read_text(encoding="ascii"), 8)
            assert network.edge_count == 14

    def test_disjoint_regime_full_space_listing(self, tmp_path):
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 3, 3\nF = 0.05\ndelta = 0.5\ncost = 0.2\n")
        out_dir = tmp_path / "stable"
        code, text = run_cli(["stable", "--scenario", scenario, "--space", "full",
                              "--out", str(out_dir)])
        assert code == 0
        assert "1 pairwise stable" in text
        network = parse_edge_list((out_dir / "stable_0000.edges").read_text("ascii"), 6)
        assert network.edges == frozenset(
            {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)})
        summary = (out_dir / "summary.csv").read_text(encoding="ascii").splitlines()
        assert summary[1] == "0,6,0,3.6"

    def test_maximal_regime_single_complete_graph(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0.9"))
        out_dir = tmp_path / "stable"
        code, text = run_cli(["stable", "--scenario", scenario, "--out", str(out_dir)])
        assert code == 0
        assert "1 pairwise stable" in text
        network = parse_edge_list((out_dir / "stable_0000.edges").read_text("ascii"), 8)
        assert network.edges == Network.complete(8).edges

    def test_high_cost_excludes_full_cliques(self, tmp_path):
        # cost above the clique-formation peak: full cliques never stable
        scenario = write(tmp_path, "s.scn",
                         "group_sizes = 3, 3\nF = 0.1\ndelta = 0.5\ncost = 0.3\n"
                         "space = full\n")
        out_dir = tmp_path / "stable"
        code, _ = run_cli(["stable", "--scenario", scenario, "--space", "full",
                           "--out", str(out_dir)])
        assert code == 0
        summary = (out_dir / "summary.csv").read_text(encoding="ascii").splitlines()
        assert len(summary) > 1
        intra = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
        for index in range(len(summary) - 1):
            path = out_dir / f"stable_{index:04d}.edges"
            network = parse_edge_list(path.read_text(encoding="ascii"), 6)
            assert not intra <= network.edges

    def test_efficient_outputs(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0.15"))
        out_dir = tmp_path / "eff"
        code, text = run_cli(["efficient", "--scenario", scenario,
                              "--out", str(out_dir)])
        assert code == 0
        assert "best welfare 8.3" in text
        summary = (out_dir / "summary.csv").read_text(encoding="ascii").splitlines()
        assert len(summary) == 16
        assert all(line.split(",")[2] == "1" for line in summary[1:])

    @pytest.mark.parametrize("command", ["stable", "efficient"])
    def test_out_dir_holding_a_summary_is_refused(self, tmp_path, capsys, monkeypatch,
                                                   command):
        out_dir = tmp_path / "listing"
        first = write(tmp_path, "a.scn", SCENARIO_3_5)
        code, _ = run_cli([command, "--scenario", first, "--out", str(out_dir)])
        assert code == 0
        listing = {path.name: path.read_bytes() for path in out_dir.iterdir()}

        def enumerate_nothing(*args):
            raise AssertionError("the refusal must come before the enumeration")
        monkeypatch.setattr(groupform.cli.stab, "enumerate_stable", enumerate_nothing)
        monkeypatch.setattr(groupform.cli.eff, "efficient_search", enumerate_nothing)
        second = write(tmp_path, "b.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0.3"))
        code, text = run_cli([command, "--scenario", second, "--out", str(out_dir)])
        assert code == 1 and text == ""
        assert "already holds summary.csv" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == listing

    @pytest.mark.parametrize("command", ["stable", "efficient"])
    @pytest.mark.parametrize("below", ["", "/sub"], ids=["the-file", "under-it"])
    def test_out_path_at_or_under_a_file_is_refused(self, tmp_path, capsys, monkeypatch,
                                                    command, below):
        def enumerate_nothing(*args):
            raise AssertionError("the refusal must come before the enumeration")
        monkeypatch.setattr(groupform.cli.stab, "enumerate_stable", enumerate_nothing)
        monkeypatch.setattr(groupform.cli.eff, "efficient_search", enumerate_nothing)
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        target = write(tmp_path, "listing", "kept\n")
        code, text = run_cli([command, "--scenario", scenario, "--out", target + below])
        assert code == 1 and text == ""
        assert f"{target} is not a directory" in capsys.readouterr().err
        assert Path(target).read_text(encoding="ascii") == "kept\n"

    @pytest.mark.parametrize("command", ["stable", "efficient"])
    def test_missing_nested_out_dir_is_created(self, tmp_path, command):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        out_dir = tmp_path / "a" / "b" / "listing"
        code, _ = run_cli([command, "--scenario", scenario, "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "summary.csv").is_file()

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        code, _ = run_cli(["stable", "--scenario", scenario, "--space", "full"])
        assert code == 2
        assert "cap" in capsys.readouterr().err.lower()


class TestPoaCommand:
    def test_reports_space_and_value(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("F = 0.4", "F = 0.1"))
        code, text = run_cli(["poa", "--scenario", scenario])
        assert code == 0
        assert "space: interconnection (32768 networks)" in text
        assert "price of anarchy: 1.02564" in text


class TestOneProcess:
    def test_stable_efficient_and_poa_share_one_build_and_one_scan(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(stab, "_CHUNK_BITS", 12)  # 8 chunks per build
        chunks, scans, interval_builds = [], [], []
        build = stab._tables_chunk
        flags = stab._interval_flags
        intervals = stab._stability_intervals

        def chunk_spy(space, partition, delta, start, stop):
            chunks.append(start)
            return build(space, partition, delta, start, stop)

        def flags_spy(tables, society):  # once per scan that does work
            scans.append(society)
            return flags(tables, society)

        def intervals_spy(tables, society):
            interval_builds.append(society)
            return intervals(tables, society)
        monkeypatch.setattr(stab, "_tables_chunk", chunk_spy)
        monkeypatch.setattr(stab, "_interval_flags", flags_spy)
        monkeypatch.setattr(stab, "_stability_intervals", intervals_spy)
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        commands = [[command, "--scenario", scenario]
                    for command in ("stable", "efficient", "poa")]
        outputs = [run_cli(argv) for argv in commands]
        assert chunks == list(range(0, 1 << 15, 1 << 12))
        assert len(scans) == 1 and interval_builds == []
        fresh = []
        for argv in commands:  # each command in a process of its own
            stab._last_tables.clear()
            fresh.append(run_cli(argv))
        assert outputs == fresh and [code for code, _ in outputs] == [0, 0, 0]

    @pytest.mark.parametrize("parameter, start, stop, step, builds", [
        ("F12", "0", "1", "0.005", 1),  # the checked-in sweep: one table, 201 rows
        ("cost", "0.1", "0.2", "0.05", 1),
        ("delta", "0.5", "0.6", "0.05", 3),  # a table per row
    ])
    def test_a_sweep_builds_each_distinct_table_once(self, monkeypatch, parameter, start,
                                                      stop, step, builds):
        monkeypatch.setattr(stab, "_CHUNK_BITS", 12)  # 8 chunks per build
        chunks, scans = [], []
        build, flags = stab._tables_chunk, stab._interval_flags

        def chunk_spy(space, partition, delta, first, last):
            chunks.append(first)
            return build(space, partition, delta, first, last)

        def flags_spy(tables, society):
            scans.append(society)
            return flags(tables, society)
        monkeypatch.setattr(stab, "_tables_chunk", chunk_spy)
        monkeypatch.setattr(stab, "_interval_flags", flags_spy)
        scenario = str(ROOT / "scenarios" / "two_groups_boundary.scn")
        code, text = run_cli(["sweep", "--scenario", scenario, "--parameter", parameter,
                              "--from", start, "--to", stop, "--step", step])
        assert code == 0
        assert chunks == list(range(0, 1 << 15, 1 << 12)) * builds
        assert len(scans) == len(text.splitlines()) - 1


class TestInputErrors:
    @pytest.mark.parametrize("command, option", [
        ("sweep", "--out"), ("sweep", "--svg"),
        ("dynamics", "--out"), ("dynamics", "--final-out"), ("dynamics", "--svg")])
    @pytest.mark.parametrize("target, problem", [
        ("missing/file", "does not exist"), ("sub", "it is a directory")],
        ids=["in-a-missing-dir", "a-dir"])
    def test_unwritable_output_is_refused_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, option, target, problem):
        def work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(groupform.cli.stab, "compute_tables", work)
        monkeypatch.setattr(groupform.cli.dyn, "run", work)
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        (tmp_path / "sub").mkdir()
        grid = ["--parameter", "F12", "--from", "0", "--to", "1", "--step", "0.5"]
        code, text = run_cli([command, "--scenario", scenario,
                              *(grid if command == "sweep" else []),
                              option, str(tmp_path / target)])
        assert code == 1 and text == ""
        assert problem in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.scn", "sub"]

    @pytest.mark.parametrize("old, new", [("cost = 0.2", "cost = inf"),
                                          ("F = 0.4", "F = nan")])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, old, new):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace(old, new))
        code, text = run_cli(["dynamics", "--scenario", scenario])
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite, got" in err

    @pytest.mark.parametrize("scenario_text, args, message", [
        pytest.param("group_sizes = 3, 5\nF 0.4\n", ["classify"],
                     "line 2: expected 'key = value', got 'F 0.4'", id="no-equals"),
        pytest.param("group_sizes = 3, 5\ngroup_sizes = 3, 5\n", ["classify"],
                     "line 2: duplicate key 'group_sizes'", id="duplicate-key"),
        pytest.param(SCENARIO_3_5, ["sweep", "--parameter", "F12", "--from", "0", "--to", "1",
                                    "--step", "0"],
                     "sweep step must be positive", id="zero-step"),
        pytest.param(SCENARIO_3_5, ["sweep", "--parameter", "F12", "--from", "1", "--to", "0",
                                    "--step", "0.1"],
                     "sweep grid is empty", id="empty-grid"),
        pytest.param((ROOT / "scenarios" / "size_split.scn").read_text(encoding="ascii"),
                     ["sweep", "--parameter", "s1", "--from", "2", "--to", "4", "--step", "1"],
                     "s1=2: every group needs >= 3 members, got sizes (2, 18)",
                     id="small-group"),
        pytest.param(SCENARIO_3_5 + "max_steps = 0\n", ["dynamics"],
                     "max_steps must be at least 1", id="zero-max-steps"),
        pytest.param(SCENARIO_3_5.replace("seed = 7", "seed = -3"), ["dynamics"],
                     "seed must be non-negative, got -3", id="negative-seed-key"),
        pytest.param(SCENARIO_3_5, ["dynamics", "--seed", "-3"],
                     "seed must be non-negative, got -3", id="negative-seed-flag"),
        pytest.param(SCENARIO_3_5.replace("cost = 0.2\n", "cost = 0.2\nepsilon = 0\n"),
                     ["stable"], "line 6: unknown key 'epsilon'", id="epsilon-key"),
    ])
    def test_rejected_input_exits_one(self, tmp_path, capsys, scenario_text, args, message):
        scenario = write(tmp_path, "s.scn", scenario_text)
        code, text = run_cli([args[0], "--scenario", scenario, *args[1:]])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["dynamics", "efficient"])
    @pytest.mark.parametrize("size", [300_000_000, 10**30], ids=["3e8", "1e30"])
    def test_huge_group_size_exits_one_at_once(self, tmp_path, capsys, command, size):
        # refused on the sizes' sum, before one partition entry per node
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("3, 5", f"3, {size}"))
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code, text = run_cli([command, "--scenario", scenario])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 2.0
        assert peak < 1 << 20
        assert code == 1 and text == ""
        assert capsys.readouterr().err == (
            f"error: node count {size + 3} is above the cap of 1024 nodes\n")

    def test_seed_zero_runs(self, tmp_path):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5)
        code, text = run_cli(["dynamics", "--scenario", scenario, "--seed", "0"])
        assert code == 0
        assert "converged: yes" in text

    def test_non_ascii_scenario_exits_one(self, tmp_path, capsys):
        path = tmp_path / "s.scn"
        path.write_bytes(SCENARIO_3_5.encode("ascii") + "# caf\u00e9\n".encode("utf-8"))
        code, _ = run_cli(["classify", "--scenario", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_as_scenario_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(["classify", "--scenario", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestScenarioFiles:
    @pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.scn")),
                             ids=lambda path: path.name)
    def test_loads_and_classifies(self, path):
        golden = ROOT / "tests" / "golden" / f"{path.stem}.classify.txt"
        assert run_cli(["classify", "--scenario", str(path)]) == (
            0, golden.read_text(encoding="ascii"))


    def test_four_by_four_sweep_is_its_pinned_golden(self, tmp_path):
        # 101 rows of the 4+4 interconnection space (65,536 networks),
        # written when every row still computed every network's welfare
        golden = ROOT / "tests" / "golden"
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(["sweep", "--scenario", str(golden / "four_by_four.scn"),
                           "--parameter", "F12", "--from", "0", "--to", "1", "--step", "0.01",
                           "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (golden / "four_by_four.sweep.csv").read_bytes()


class TestModuleEntryPoint:
    def test_python_m_matches_main(self):
        scenario = "scenarios/two_groups_boundary.scn"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "groupform", "classify", "--scenario", scenario],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == run_cli(["classify", "--scenario", str(ROOT / scenario)])[1]


class TestScripts:
    @staticmethod
    def assert_outputs_match(tmp_path, monkeypatch, script, script_args) -> None:
        # capture the script's argument set, then rerun it writing to tmp_path
        calls = []
        monkeypatch.setattr(groupform.cli, "main", lambda argv: calls.append(argv) or 0)
        monkeypatch.setattr(sys, "argv", [script, *script_args])
        with pytest.raises(SystemExit):
            runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
        (argv,) = calls
        out_dir = ROOT / "out"
        written = [Path(arg).name for arg in argv if Path(arg).parent == out_dir]
        assert written
        local = [str(tmp_path / Path(arg).name) if Path(arg).parent == out_dir else arg
                 for arg in argv]
        assert main(local, out=io.StringIO()) == 0
        for name in written:
            assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes(), name

    @pytest.mark.parametrize("script, script_args", [("two_group_sweep.py", []),
                                                     ("size_split_sweep.py", []),
                                                     ("formation_trace.py", ["1"])])
    def test_outputs_match_checked_in_files(self, tmp_path, monkeypatch,
                                            script, script_args):
        self.assert_outputs_match(tmp_path, monkeypatch, script, script_args)

    def test_sweep_scans_pair_by_pair_only_on_its_first_row_and_at_three_bounds(
            self, tmp_path, monkeypatch):
        # The cached F12 intervals settle a scan whole or not at all.  The
        # per-pair scan runs on the table's first scan and wherever some
        # network's interval end lies within the margin of F12: at the
        # stable bounds on the grid (the fourth, 8/15, is off it).  Every
        # other row is a line row, whose answers the welfare lines pick.
        per_pair, line_rows = [], []
        interval_flags, rows_of = stab._interval_flags, stab._line_rows

        def spy(tables, society):
            flags = interval_flags(tables, society)
            if flags is None:
                per_pair.append(society.coordination[0, 1])
            return flags

        def line_spy(at_cost, stable, x, radius):
            line_rows.append(x)
            return rows_of(at_cost, stable, x, radius)
        monkeypatch.setattr(stab, "_interval_flags", spy)
        monkeypatch.setattr(stab, "_line_rows", line_spy)
        self.assert_outputs_match(tmp_path, monkeypatch, "two_group_sweep.py", [])
        assert per_pair == [0.0, 0.2, 0.4, 0.8]
        assert len(line_rows) == 197 and not set(per_pair) & set(line_rows)
