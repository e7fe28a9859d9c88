"""The three workloads: their inputs, CLI commands and correctness gates.

Every gate returns ``(ops, failures, counts)``: the number of outputs
checked, one message per output that failed, and exact counts read off the
outputs.  An op is one command output on enumerate_full7, one CSV line on
sweep_f12 and one run on dynamics_4x15.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

WORKLOADS = ("enumerate_full7", "sweep_f12", "dynamics_4x15")

FULL7_SCENARIO = """\
# groups of 3 and 4 on the full space of 7 nodes (2^21 networks); at F12 = 0.3
# the stable regime is a bridge and the efficient regime is redundant
group_sizes = 3, 4
F = 0.3
delta = 0.5
cost = 0.2
space = full
"""

DYNAMICS_SCENARIO = """\
# four groups of 15; every cross weight is above the first-link bound
group_sizes = 15, 15, 15, 15
F = 0.15, 0.15, 0.15, 0.15, 0.15, 0.15
delta = 0.5
cost = 0.2
"""

# The argument set of scripts/two_group_sweep.py, and the output it checked in.
SWEEP_SCENARIO = "scenarios/two_groups_boundary.scn"
SWEEP_REFERENCE = "out/two_group_sweep.csv"
SWEEP_ARGS = ["--parameter", "F12", "--from", "0", "--to", "1", "--step", "0.005"]

DEFAULT_SEED = 1

# sha256 of the outputs of the code this benchmark was written against.
# CLI stdout is hashed with the output path replaced by "OUT".
REFERENCE_DIGESTS = {
    "sweep_reference": "f757e11b99580b87d2c3c16bfedfb06e9cb02b593997846e247cb3cf8388a054",
    "stable": "703266f233d490868146ca40550f5be05236788fdbe5740fa0bb03934005e1c7",
    "efficient": "69c06ae5b7dddb2157d3ac1c9181048adf9ab517b01301741437f98046e0cf2c",
    "poa": "1f9e81eb42cc8b3d427da67db73b127023b15f6474f6616f98123d5d079fa6f4",
    "dynamics_seed1": "3703717debc581151d6217a5f8fd3b4d7fb4eaba61c734cc71563f652061f811",
}


# dynamics_4x15 runs the activation streams of dynamics seeds 1 to
# DYNAMICS_STREAMS, one per repetition, and run.py weighs every stream the
# same.  The set is fixed.  Streams differ in cost per period, in part through
# the number of stability verifications, each of up to 1,770 pairs.  Sets of
# four streams drawn per seed (dynamics seeds 4(s - 1) + 1 to 4(s - 1) + 4 for
# s = 1..10) ran at -14% to +19% of their median periods per second, alike in
# two sets of runs, so such sets would move work_per_s from seed to seed with
# no change to the program.
DYNAMICS_STREAMS = 4


def dynamics_seeds(seed: int) -> list[int]:
    """The dynamics seeds a workload run cycles through: all the streams,
    starting from the one the run's seed picks (seed 1 starts from stream 1,
    whose trace is pinned)."""
    first = (seed - DEFAULT_SEED) % DYNAMICS_STREAMS
    return [1 + (first + k) % DYNAMICS_STREAMS for k in range(DYNAMICS_STREAMS)]


def write_inputs(workload: str, work: Path, root: Path) -> Path:
    """Write the workload's scenario under ``work``; return its path."""
    if workload == "sweep_f12":
        return root / SWEEP_SCENARIO
    path = work / f"{workload}.scn"
    path.write_text(FULL7_SCENARIO if workload == "enumerate_full7" else DYNAMICS_SCENARIO,
                    encoding="ascii")
    return path


def commands(workload: str, scenario: Path, out: Path, dyn_seed: int) -> list[list[str]]:
    """The CLI argument lists one repetition of the workload runs, in order."""
    scn = ["--scenario", str(scenario)]
    if workload == "enumerate_full7":
        return [["stable", *scn, "--out", str(out / "stable")],
                ["efficient", *scn, "--out", str(out / "efficient")],
                ["poa", *scn]]
    if workload == "sweep_f12":
        return [["sweep", *scn, *SWEEP_ARGS, "--out", str(out / "sweep.csv")]]
    return [["dynamics", *scn, f"--seed={dyn_seed}", "--out", str(out / "trace.csv")]]


# Spans each command's subtree must hold in a traced run.
REQUIRED_SPANS = {
    "stable": {"stability.compute_tables", "stability.scan_space", "stability.network_for",
               "model.welfare"},
    "efficient": {"stability.compute_tables", "stability.scan_space",
                  "efficiency.argmax_from_scan", "stability.network_for", "model.welfare"},
    "poa": {"stability.compute_tables", "stability.scan_space"},
    "sweep": {"stability.compute_tables", "stability.scan_space", "stability.network_for",
              "efficiency.argmax_from_scan", "thresholds.classify_two_group_stable"},
    "dynamics": {"dynamics.run", "dynamics.step", "model.payoff",
                 "stability.is_pairwise_stable"},
}


def digest(stdout: str, out: Path, files: list[Path]) -> str:
    h = hashlib.sha256(stdout.replace(str(out), "OUT").encode())
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _summary(directory: Path) -> list[tuple[int, str]]:
    """(interconnections, welfare text) per row of a stable/efficient summary."""
    lines = (directory / "summary.csv").read_text(encoding="ascii").splitlines()
    if lines[0] != "index,edges,interconnections,welfare":
        raise ValueError(f"unexpected summary header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    return [(int(r[2]), r[3]) for r in rows]


def check_enumerate(runs: dict, out: Path, society, th) -> tuple[int, list[str], dict]:
    """stable/efficient/poa on the full space against the closed-form classifiers."""
    failures = []
    s1, s2 = society.partition.sizes
    f12 = society.coordination[0, 1]
    stable_pred = th.classify_two_group_stable(s1, s2, society.params, f12)
    eff_pred = th.classify_two_group_efficient(s1, s2, society.params, f12)
    eff_count = eff_pred.interconnections(s1, s2)
    eff_allowed = range(2, s1 * s2) if eff_count is None else range(eff_count, eff_count + 1)
    rows = {}

    def check(command, body):
        rc, stdout = runs[command]
        if rc != 0:
            failures.append(f"{command}: exit code {rc}")
            return
        try:
            problem = body(stdout)
        except (OSError, ValueError, IndexError, KeyError, AttributeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(f"{command}: {problem}")

    def networks(command, stdout):
        directory = out / command
        files = sorted(directory.iterdir())
        if digest(stdout, out, files) != REFERENCE_DIGESTS[command]:
            return "output differs from the reference digest"
        summary = _summary(directory)
        if len(files) != len(summary) + 1:
            return f"{len(files) - 1} edge lists for {len(summary)} summary rows"
        rows[command] = summary
        return None

    def stable(stdout):
        problem = networks("stable", stdout)
        if problem:
            return problem
        found = {inter for inter, _ in rows["stable"]}
        if found != {stable_pred.interconnections(s1, s2)}:
            return f"stable interconnections {sorted(found)}, classifier says {stable_pred}"
        return None

    def efficient(stdout):
        problem = networks("efficient", stdout)
        if problem:
            return problem
        best = re.search(r"best welfare (\S+) attained", stdout).group(1)
        if any(inter not in eff_allowed or w != best for inter, w in rows["efficient"]):
            return f"argmax outside {eff_allowed} or below the best welfare {best}"
        return None

    def poa(stdout):
        if digest(stdout, out, []) != REFERENCE_DIGESTS["poa"]:
            return "output differs from the reference digest"
        value = float(re.search(r"price of anarchy: (\S+)", stdout).group(1))
        if "stable" not in rows or "efficient" not in rows:
            return "no stable/efficient summary to compare with"
        best = max(float(w) for _, w in rows["efficient"])
        worst_stable = min(float(w) for _, w in rows["stable"])
        if not (value > 1 and abs(value - best / worst_stable) <= 1e-10 * value):
            return f"PoA {value} is not > 1 or differs from {best} / {worst_stable}"
        return None

    check("stable", stable)
    check("efficient", efficient)
    check("poa", poa)
    return 3, failures, {}


def compare_lines(actual: list[str], reference: list[str]) -> list[str]:
    """One failure per reference line that the output does not reproduce."""
    failures = [f"line {k + 1}: {a!r} != {r!r}"
                for k, (a, r) in enumerate(zip(actual, reference)) if a != r]
    if len(actual) != len(reference):
        failures.append(f"{len(actual)} lines, reference has {len(reference)}")
    return failures


def check_sweep(runs: dict, out: Path, root: Path, seed: int) -> tuple[int, list[str], dict]:
    """Sweep rows byte-identical to the checked-in reference CSV.

    When the output passes, the gate runs again against a copy of the
    reference with one corrupted row and must report exactly that row;
    otherwise the gate itself counts as failed.
    """
    reference_bytes = (root / SWEEP_REFERENCE).read_bytes()
    reference = reference_bytes.decode("ascii").splitlines()
    ops = len(reference) + 3  # plus stdout, the reference digest and the self-check
    rc, stdout = runs["sweep"]
    if rc != 0:
        return ops, [f"sweep: exit code {rc}"] * ops, {}
    path = out / "sweep.csv"
    actual = path.read_text(encoding="ascii").splitlines()
    failures = compare_lines(actual, reference)
    if stdout != f"wrote {len(reference) - 1} rows to {path}\n":
        failures.append(f"sweep: unexpected stdout {stdout!r}")
    if hashlib.sha256(reference_bytes).hexdigest() != REFERENCE_DIGESTS["sweep_reference"]:
        failures.append(f"{SWEEP_REFERENCE} differs from the reference digest")
    corrupt_at = 1 + seed % (len(reference) - 1)
    corrupted = list(reference)
    corrupted[corrupt_at] += "0"
    if not failures and len(compare_lines(actual, corrupted)) != 1:
        failures.append(f"gate missed the corrupted reference line {corrupt_at + 1}")
    return ops, failures, {"rows": len(actual) - 1}


_STDOUT_DYNAMICS = re.compile(
    r"wrote trace \((\d+) periods\) to (.+)\nconverged: (yes|no)\n"
    r"(?:steps to convergence: (\d+)\n)?final: (\d+) edges, (\d+) interconnections\n\Z")


def check_dynamics(runs: dict, out: Path, society, dyn_seed: int) -> tuple[int, list[str], dict]:
    """A converged run whose trace is internally consistent and holds every
    intra-group link; on the default seed, the trace is byte-identical to
    the reference."""
    rc, stdout = runs["dynamics"]
    if rc != 0:
        return 1, [f"dynamics: exit code {rc}"], {}
    match = _STDOUT_DYNAMICS.match(stdout)
    if match is None:
        return 1, [f"dynamics: unexpected stdout {stdout!r}"], {}
    periods, _, converged, last_change, edges, inter_final = match.groups()
    text = (out / "trace.csv").read_text(encoding="ascii")
    lines = text.splitlines()
    membership = society.partition.membership
    intra_pairs = len(society.partition.intra_pairs())
    counts = {"added_intra": 0, "added_cross": 0, "removed": 0, "no_change": 0}
    intra = inter = changed_at = 0
    problems = []
    if lines[0] != "step,i,j,action,intra_count,inter_count":
        problems.append(f"header {lines[0]!r}")
    for k, line in enumerate(lines[1:], start=1):
        step, i, j, action, intra_now, inter_now = line.split(",")
        cross = membership[int(i)] != membership[int(j)]
        if action == "Added":
            counts["added_cross" if cross else "added_intra"] += 1
        elif action == "Removed":
            counts["removed"] += 1
        else:
            counts["no_change"] += 1
        change = {"Added": 1, "Removed": -1, "NoChange": 0}[action]
        if change:
            changed_at = k
            if cross:
                inter += change
            else:
                intra += change
        if (int(step), int(intra_now), int(inter_now)) != (k, intra, inter):
            problems.append(f"trace line {k + 1} is inconsistent: {line!r}")
            break
    if converged != "yes":
        problems.append("run did not converge")
    if intra != intra_pairs:
        problems.append(f"{intra} of {intra_pairs} intra-group links present")
    if (int(periods), int(edges), int(inter_final)) != (len(lines) - 1, intra + inter, inter):
        problems.append("stdout summary disagrees with the trace")
    if last_change is None or int(last_change) != changed_at:
        problems.append(f"steps to convergence {last_change}, last change at {changed_at}")
    if dyn_seed == DEFAULT_SEED and digest(text, out, []) != REFERENCE_DIGESTS["dynamics_seed1"]:
        problems.append("default-seed trace differs from the reference digest")
    counts["periods"] = len(lines) - 1
    failures = [f"dynamics seed {dyn_seed}: {p}" for p in problems[:1]]
    return 1, failures, counts
