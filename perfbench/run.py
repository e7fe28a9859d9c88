#!/usr/bin/env python3
"""groupform benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md beside this
file): enumerate_full7, sweep_f12, dynamics_4x15.  Every repetition runs in
its own child process (child.py), so peak memory is per repetition; the
child runs the groupform CLI in-process from the checkout's src/
directory.  Repetitions continue for about --seconds; every output is
checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics, taken from spans around every library layer in a traced
repetition, alternated with an untraced one on the same input.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result when the checkout holds no groupform sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170  # the whole run, children included, ends within this


class Runner:
    """Starts child repetitions one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, scenario: Path, work: Path, started: float):
        self.workload, self.seed, self.scenario, self.work = workload, seed, scenario, work
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        self._count = 0

    def spawn(self, mode: str, dyn_seed: int, spans: Path | None = None) -> dict | None:
        """One child; None (and one failed op) when it crashes or times out."""
        self._count += 1
        out = self.work / f"rep{self._count}"
        out.mkdir()
        argv = [sys.executable, str(HERE / "child.py"), "--mode", mode,
                "--workload", self.workload, "--scenario", str(self.scenario),
                "--out", str(out), "--seed", str(self.seed), "--dyn-seed", str(dyn_seed)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        proc = subprocess.Popen(argv + ["--t0", str(time.monotonic_ns())], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            stdout, stderr = "", f"timed out after {timeout:.0f} s"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        try:
            result = json.loads(stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            self.attempted += 1
            self.failures.append(f"{mode} child failed (exit {proc.returncode}): {tail}")
            return None
        if "setup_s" in result:
            self.setup_samples.append(result["setup_s"])
        if "ops" in result:
            self.attempted += result["ops"]
            self.failures += result["failures"][:result["ops"]]
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _repeat(runner: Runner, seconds: int, cycle, at_least: int = 1) -> None:
    """Call cycle(k) for k = 0, 1, ... at least ``at_least`` times, then while
    at least half a cycle's time is left."""
    durations = []
    k = 0
    while True:
        start = runner.elapsed()
        if not cycle(k):
            return
        durations.append(runner.elapsed() - start)
        k += 1
        if k >= at_least and seconds - runner.elapsed() < 0.5 * statistics.median(durations):
            return


def run_plain(runner: Runner, seconds: int) -> dict:
    # Repetition k runs stream k mod len(streams); only dynamics_4x15 has more
    # than one.
    streams = (workloads.dynamics_seeds(runner.seed) if runner.workload == "dynamics_4x15"
               else [runner.seed])
    reps = []

    def cycle(k):
        while len(runner.setup_samples) < min(SETUP_SAMPLES, 5 * (k + 1) - 1):
            runner.spawn("setup", runner.seed)
        rep = runner.spawn("run", streams[k % len(streams)])
        if rep is not None:
            reps.append(rep)
        return rep is not None

    _repeat(runner, seconds, cycle, at_least=len(streams))
    if len(reps) < len(streams):
        return {}
    print("setup_s samples:", " ".join(f"{x:.4f}" for x in runner.setup_samples))
    print("work_per_s by repetition:", " ".join(f"{r['work'] / r['wall_s']:.1f}" for r in reps))
    print("command_s by repetition:", " | ".join(
        " ".join(f"{name}={t:.3f}" for name, t in r["command_s"].items()) for r in reps))
    print("peak_rss_mb by repetition:", " ".join(f"{r['peak_rss_mb']:.1f}" for r in reps))
    # Every stream weighs the same however many repetitions fit in the run:
    # throughput is over one pass of the streams, each stream's work and time
    # the mean over its repetitions, and the peak is the largest stream's.
    by_stream = [reps[j::len(streams)] for j in range(len(streams))]
    work = sum(statistics.fmean(r["work"] for r in rs) for rs in by_stream)
    wall = sum(statistics.fmean(r["wall_s"] for r in rs) for rs in by_stream)
    return {
        "setup_s": statistics.median(runner.setup_samples),
        "work_per_s": work / wall,
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in rs) for rs in by_stream),
    }


def run_traced(runner: Runner, seconds: int) -> dict:
    pairs = []

    def cycle(k):
        # Every pair runs the same input, the run's first dynamics stream, so
        # counts repeat exactly per seed.
        plain = runner.spawn("run", workloads.dynamics_seeds(runner.seed)[0])
        spans = runner.work / f"spans{k}.json"
        traced = runner.spawn("trace", workloads.dynamics_seeds(runner.seed)[0], spans)
        if plain is None or traced is None:
            return False
        doc = json.loads(spans.read_text(encoding="ascii"))
        layers, problems = tracing.derive(doc, workloads.REQUIRED_SPANS)
        runner.attempted += 1
        runner.failures += problems[:1]
        pairs.append((plain, traced, layers))
        return True

    _repeat(runner, seconds, cycle)
    if not pairs:
        return {}
    # The lower median is a sample, so counts stay whole numbers.
    metrics = {name: statistics.median_low(layers[name] for _, _, layers in pairs)
               for name in pairs[0][2]}
    accounted = [layers["trace.command_s"] / traced["wall_s"] for _, traced, layers in pairs]
    if not all(0.99 <= share <= 1.0 for share in accounted):
        runner.attempted += 1
        runner.failures.append(f"spans cover {accounted} of the traced command time")
    counts = pairs[0][1]["counts"]
    actions = ("added_intra", "added_cross", "removed", "no_change")
    metrics.update({f"dynamics.{action}": counts.get(action, 0) for action in actions})
    changes = sum(counts.get(action, 0) for action in actions[:3])
    metrics.update({
        "dynamics.change_ratio": changes / counts["periods"] if "periods" in counts else 0.0,
        "trace.wall_s": statistics.median(traced["wall_s"] for _, traced, _ in pairs),
        "trace.overhead_s": statistics.median(t["wall_s"] - p["wall_s"] for p, t, _ in pairs),
        "trace.accounted_share": statistics.median(accounted),
        "trace.peak_rss_mb": statistics.median(plain["peak_rss_mb"] for plain, _, _ in pairs),
        "stability.compute_tables.workers1_s": 0.0,
        "stability.compute_tables.workers2_s": 0.0,
    })
    if runner.workload == "enumerate_full7":
        timed = runner.spawn("workers2", runner.seed)
        if timed is not None:
            metrics["stability.compute_tables.workers1_s"] = timed["workers1_s"]
            metrics["stability.compute_tables.workers2_s"] = timed["workers2_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "groupform" / "__init__.py").is_file():
        print(f"error: no groupform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        scenario = workloads.write_inputs(args.workload, work, ROOT)
        runner = Runner(args.workload, args.seed, scenario, work, started)
        values = (run_traced if args.trace else run_plain)(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in declared
               if m["name"] not in values and m["name"] != "failed_ops_ratio"]
    if missing:
        runner.attempted += 1
        runner.failures.append(f"no value for {missing}")
    attempted = runner.attempted
    failed = min(len(runner.failures), attempted)
    values["failed_ops_ratio"] = failed / attempted
    for failure in runner.failures[:10]:
        print(f"FAIL {failure}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
