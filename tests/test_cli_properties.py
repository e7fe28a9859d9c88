"""Robustness as a property: whatever scenario text, edge list, script or
flag values `cli.main` is given, it returns 0, 1 or 2 and never raises.  A
failing case prints exactly one ``error:`` line on stderr, a passing one
prints nothing there, and every case ends within a time budget.

The argument vectors are always well-formed for argparse, whose own usage
errors exit through `SystemExit` by design; the values vary, not the flag
names.  Sizes and step counts stay small, so each case takes milliseconds:
every listed group-size split either enumerates at most 2^16 networks or
lies far above a cap, and a listing ``--out`` is always one that is
refused (a listing can hold tens of thousands of files; the listing tests
of `tests/test_cli.py` write them).
"""

import contextlib
import io
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from groupform.cli import main

BUDGET_S = 5.0

# Scenario values by key: good ones, and ones some rule refuses (None
# drops the key).  Every good group-size split enumerates at most 2^16
# networks in each space or lies far above a cap.
GOOD = {
    "group_sizes": ["3, 5", "3, 3", "4, 4", "3", "6", "3, 3, 3", "7, 7", "10, 10"],
    "delta": ["0.5", "0.55", "0.95"],
    "cost": ["0.2", "0.1", "0.05"],
    "seed": [None, "7", "0"],
    "max_steps": [None, "5"],
    "space": [None, "inter", "full"],
}
NUMBERS = ["0", "1", "1.01", "-0.2", "0.25", "0.2499999", "0.999999", "1e-300", "5e-324",
           "1e308", "1e309", "nan", "inf", "-inf", "", "x", "0.2\u00e9", None]
INTEGERS = ["-3", "1.5", "x", "", "0", "1" + "0" * 30, "9" * 5000]
BAD = {
    "group_sizes": ["", "3,", "0", "-3", "2, 5", "3.5, 5", "3 5", "x", "1_0", "3, 300000000",
                    "3, " + "9" * 30, "9" * 5000, None],
    "F": ["", "1.01", "-0.2", "nan", "inf", "x", "0.4,", "0.4, 0.4, 0.4, 0.4", None],
    "delta": NUMBERS,
    "cost": NUMBERS,
    "seed": INTEGERS,
    "max_steps": INTEGERS,
    "space": ["other", "", "Full"],
}
# lines appended to the text: "" and the comment are kept, the rest refused
LINES = ["", "# a comment", "unknown = 1", "no equals sign", "group_sizes = 3, 3", "= 0.5",
         "delta == 0.5"]


@st.composite
def scenario_texts(draw) -> str:
    """Scenario text with every key good but at most two, which get a value
    some rule refuses (or go missing); a stray line counts as one of two."""
    values = {key: draw(st.sampled_from(good)) for key, good in GOOD.items()}
    m = values["group_sizes"].count(",") + 1
    cross = draw(st.sampled_from(["0.4", "0.2", "0.8", "0.15", "1"]))
    values["F"] = ", ".join([cross] * (m * (m - 1) // 2))
    broken = draw(st.sets(st.sampled_from([*BAD, "line"]), max_size=2))
    for key in broken - {"line"}:
        values[key] = draw(st.sampled_from(BAD[key]))
    lines = [f"{key} = {value}" for key, value in values.items() if value is not None]
    if "line" in broken:
        lines.append(draw(st.sampled_from(LINES)))
    return "\n".join(lines) + "\n"


def pair_texts():
    """Edge-list or script text: distinct "i j" lines on nodes 0 to 5, and
    at times a line some rule refuses."""
    pair = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1])
    pairs = st.lists(pair, max_size=8, unique_by=frozenset)
    lines = pairs.map(lambda pairs: [f"{i} {j}" for i, j in pairs])
    bad = st.lists(st.sampled_from(["2 2", "0 99", "-1 2", "0 1 2", "a b", "1.5 2", "0",
                                    "# c", "4 5 # c"]), max_size=1)
    return st.tuples(lines, bad).map(lambda parts: "\n".join(parts[0] + parts[1]) + "\n")


# a good grid per parameter, then at most one grid flag set to any of FLOAT_FLAG
GRIDS = [("F12", "0", "1", "0.25"), ("cost", "0.05", "0.3", "0.05"),
         ("delta", "0.1", "0.9", "0.4"), ("s1", "3", "5", "1")]
FLOAT_FLAG = st.sampled_from(["0", "0.5", "1", "3", "-1", "-0.1", "nan", "inf", "1e-9"])


@st.composite
def sweep_flags(draw) -> dict:
    parameter, start, stop, step = draw(st.sampled_from(GRIDS))
    flags = {"--parameter": parameter, "--from": start, "--to": stop, "--step": step}
    for flag in draw(st.sets(st.sampled_from(["--from", "--to", "--step"]), max_size=1)):
        flags[flag] = draw(FLOAT_FLAG)
    return flags | draw(st.fixed_dictionaries({}, optional={
        "--space": st.sampled_from(["inter", "full"]),
        "--out": st.sampled_from(["out.csv", "missing/out.csv", "."])}))


FLAGS = {
    "eval": st.just({"--network": "edges"}),
    "classify": st.just({}),
    "sweep": sweep_flags(),
    "dynamics": st.fixed_dictionaries({"--max-steps": st.integers(-1, 30).map(str)}, optional={
        "--seed": st.integers(-2, 9).map(str), "--script": st.just("script"),
        "--start": st.just("edges"),
        "--final-out": st.sampled_from(["final.edges", "missing/final.edges"])}),
    "stable": st.fixed_dictionaries({}, optional={
        "--space": st.sampled_from(["inter", "full"]),
        "--out": st.sampled_from(["scenario.scn", "scenario.scn/listing"])}),
    "poa": st.fixed_dictionaries({}, optional={"--space": st.sampled_from(["inter", "full"])}),
}
FLAGS["efficient"] = FLAGS["stable"]


def run_case(scenario: str, edges: str, script: str, name: str, flags: dict):
    """``main``'s exit code, stderr and wall time on one case, run in a new
    directory that holds the scenario, edge list and script files the flags
    name."""
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "scenario.scn").write_bytes(scenario.encode("utf-8"))
        (folder / "edges").write_text(edges, encoding="ascii")
        (folder / "script").write_text(script, encoding="ascii")
        argv = [name, "--scenario", str(folder / "scenario.scn")]
        for flag, value in flags.items():
            path_flag = flag in ("--network", "--script", "--start", "--out", "--final-out")
            argv += [flag, str(folder / value) if path_flag else value]
        err = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = main(argv, out=io.StringIO())
        return code, err.getvalue(), time.perf_counter() - started


def assert_clean_exit(code: int, err: str, seconds: float) -> None:
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert seconds < BUDGET_S


@pytest.mark.parametrize("name", sorted(FLAGS))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(scenario=scenario_texts(), edges=pair_texts(), script=pair_texts(), data=st.data())
def test_main_exits_with_a_code_and_at_most_one_error_line(name, scenario, edges, script, data):
    flags = data.draw(FLAGS[name], label="flags")
    assert_clean_exit(*run_case(scenario, edges, script, name, flags))


# the two sizes that escaped before the node cap moved into `checked_count`:
# a MemoryError traceback, and a stall in `GroupPartition.from_sizes`
@pytest.mark.parametrize("size", [300_000_000, 10 ** 30])
@pytest.mark.parametrize("name, flags", [("dynamics", {"--max-steps": "5"}), ("efficient", {})])
def test_sizes_that_once_escaped_exit_one(size, name, flags):
    scenario = f"group_sizes = 3, {size}\nF = 0.4\ndelta = 0.5\ncost = 0.2\nseed = 3\n"
    code, err, seconds = run_case(scenario, "", "", name, flags)
    assert code == 1 and "above the cap of 1024 nodes" in err
    assert_clean_exit(code, err, seconds)
