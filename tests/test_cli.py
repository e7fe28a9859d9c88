import io
from pathlib import Path

import pytest

from groupform.cli import main, parse_scenario
from groupform.model import Network, ValidationError, parse_edge_list

SCENARIO_3_5 = """\
# two groups, bridge/redundant boundary
group_sizes = 3, 5
F = 0.4
delta = 0.5
cost = 0.2
epsilon = 1e-9
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
        assert "out of range" in capsys.readouterr().err

    def test_missing_seed_and_script(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace("seed = 7\n", ""))
        code, _ = run_cli(["dynamics", "--scenario", scenario])
        assert code == 1
        assert "seed" in capsys.readouterr().err


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


class TestInputErrors:
    @pytest.mark.parametrize("old, new", [("epsilon = 1e-9", "epsilon = nan"),
                                          ("cost = 0.2", "cost = inf")])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, old, new):
        scenario = write(tmp_path, "s.scn", SCENARIO_3_5.replace(old, new))
        code, text = run_cli(["dynamics", "--scenario", scenario])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

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
