"""One repetition of a workload in a fresh process; run.py starts it.

Modes:
  setup     import groupform and load the scenario, report the set-up time
  run       set-up, then the workload's CLI commands, timed and checked
  trace     as run, with every layer wrapped in spans written to --spans
  workers2  build the enumerate_full7 tables with workers=1 and workers=2,
            time both and compare them bitwise

The last line of stdout is one JSON object.  Set-up time runs from
--t0 (the parent's CLOCK_MONOTONIC reading just before it started this
process) to the end of the scenario load, so it includes interpreter
start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_groupform():
    sys.path.insert(0, str(ROOT / "src"))
    import groupform.cli as cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "groupform":
        raise ImportError(f"groupform imported from {cli.__file__}, not from this checkout")
    return cli


def _peak_rss_mb() -> float:
    """This process's peak resident memory.

    ru_maxrss is not enough on Linux: exec folds the parent's peak into the
    child's, so a parent that has parsed a large spans file would inflate
    it.  VmHWM belongs to this process's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_commands(cli, argvs: list[list[str]]) -> tuple[dict, dict]:
    """Run each CLI command in-process; return {command: (rc, stdout)} and
    {command: seconds}."""
    runs, seconds = {}, {}
    for argv in argvs:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            rc = cli.main(argv, out=out)
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            rc = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
        seconds[argv[0]] = time.perf_counter() - start
        runs[argv[0]] = (rc, out.getvalue())
    return runs, seconds


def _check(workload: str, runs: dict, out: Path, scenario, seed: int,
           dyn_seed: int) -> tuple[int, list[str], dict]:
    import workloads
    try:
        if workload == "enumerate_full7":
            from groupform import thresholds
            return workloads.check_enumerate(runs, out, scenario.society, thresholds)
        if workload == "sweep_f12":
            return workloads.check_sweep(runs, out, ROOT, seed)
        return workloads.check_dynamics(runs, out, scenario.society, dyn_seed)
    except (OSError, ValueError, IndexError, KeyError, AttributeError) as exc:
        return 1, [f"{workload}: unreadable output: {exc!r}"], {}


def _work(workload: str, scenario, counts: dict) -> int:
    """Networks evaluated (space size x societies scanned), or dynamics periods."""
    if workload == "dynamics_4x15":
        return counts.get("periods", 0)
    scans = 3 if workload == "enumerate_full7" else counts.get("rows", 0)
    return scenario.build_space().size * scans


def _workers2(stab, scenario) -> dict:
    """Time compute_tables with one and two workers; the tables must be equal."""
    space = scenario.build_space()
    society = scenario.society
    result, digests = {}, {}
    for workers in (1, 2):
        start = time.perf_counter()
        tables = stab.compute_tables(space, society.partition, society.params.delta,
                                     workers=workers)
        result[f"workers{workers}_s"] = time.perf_counter() - start
        digests[workers] = (hashlib.sha256(tables.benefit).hexdigest(),
                            hashlib.sha256(tables.degree).hexdigest())
        del tables
    failures = [] if digests[1] == digests[2] else [
        "compute_tables(workers=2) differs from workers=1"]
    return {**result, "ops": 1, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "run", "trace", "workers2"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dyn-seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    cli = _import_groupform()
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    scenario = cli.load_scenario(args.scenario)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.mode == "workers2":
        from groupform import stability
        print(json.dumps(_workers2(stability, scenario)))
        return 0

    import workloads
    out = Path(args.out)
    argvs = workloads.commands(args.workload, Path(args.scenario), out, args.dyn_seed)
    runs, command_s = _run_commands(cli, argvs)
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.active = False
        tracer.dump(args.spans)
    ops, failures, counts = _check(args.workload, runs, out, scenario, args.seed, args.dyn_seed)
    print(json.dumps({"setup_s": setup_s, "wall_s": sum(command_s.values()),
                      "command_s": command_s, "peak_rss_mb": peak_rss_mb,
                      "work": _work(args.workload, scenario, counts),
                      "ops": ops, "failures": failures, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
