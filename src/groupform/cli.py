"""Command-line front end: scenario files in, reports/CSV/SVG out.

Subcommands: eval, classify, sweep, dynamics, stable, efficient, poa.
Exit codes: 0 success, 1 validation error, 2 search-space cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import dynamics as dyn
from . import efficiency as eff
from . import stability as stab
from . import thresholds as th
from .model import (
    DEFAULT_EPSILON,
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    _parse_pairs,
    format_edge_list,
    parse_edge_list,
    payoffs,
    welfare,
)

DEFAULT_MAX_STEPS = 100_000


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file: the society plus run configuration."""

    society: Society
    seed: Optional[int]
    space: str                       # "full" | "inter"
    max_full_n: int
    max_steps: int

    @property
    def partition(self) -> GroupPartition:
        return self.society.partition

    def build_space(self, override: Optional[str] = None) -> stab.SearchSpace:
        kind = override or self.space
        if kind == "full":
            return stab.full_graph_space(self.partition.n, node_cap=self.max_full_n)
        if kind == "inter":
            return stab.interconnection_space(self.partition)
        raise ValidationError(f"unknown space kind {kind!r} (use 'full' or 'inter')")


_SCENARIO_KEYS = {"group_sizes", "F", "delta", "cost", "epsilon", "seed",
                  "space", "max_full_n", "max_steps"}


def parse_scenario(text: str) -> Scenario:
    """Parse the flat key = value scenario format (# starts a comment)."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    def take(key: str, default=None):
        return raw.pop(key, (0, default))[1]

    def must_take(key: str):
        if key not in raw:
            raise ValidationError(f"scenario is missing required key {key!r}")
        return raw.pop(key)

    lineno, sizes_text = must_take("group_sizes")
    try:
        sizes = [int(s) for s in sizes_text.split(",")]
    except ValueError:
        raise ValidationError(f"line {lineno}: group_sizes must be integers") from None
    partition = GroupPartition.from_sizes(sizes)

    lineno, f_text = must_take("F")
    try:
        cross = [float(v) for v in f_text.split(",")] if f_text.strip() else []
    except ValueError:
        raise ValidationError(f"line {lineno}: F entries must be numbers") from None
    coordination = CoordinationMatrix.from_upper_triangle(partition.m, cross)

    def number(key: str, default=None, cast=float):
        if key in raw:
            lineno, value = raw.pop(key)
            try:
                return cast(value)
            except ValueError:
                raise ValidationError(f"line {lineno}: {key} must be a number") from None
        if default is None:
            raise ValidationError(f"scenario is missing required key {key!r}")
        return default

    delta = number("delta")
    cost = number("cost")
    epsilon = number("epsilon", DEFAULT_EPSILON)
    seed = number("seed", 0, cast=int) if "seed" in raw else None
    max_full_n = number("max_full_n", stab.DEFAULT_FULL_NODE_CAP, cast=int)
    max_steps = number("max_steps", DEFAULT_MAX_STEPS, cast=int)
    space = take("space", "inter")
    if space not in ("full", "inter"):
        raise ValidationError(f"space must be 'full' or 'inter', got {space!r}")

    society = Society(partition, coordination, ModelParams(delta, cost, epsilon))
    return Scenario(society=society, seed=seed,
                    space=space, max_full_n=max_full_n, max_steps=max_steps)


def load_scenario(path: str, epsilon_override: Optional[float] = None) -> Scenario:
    text = Path(path).read_text(encoding="ascii")
    scenario = parse_scenario(text)
    if epsilon_override is not None:
        society = scenario.society
        params = replace(society.params, epsilon=epsilon_override)
        scenario = replace(scenario, society=Society(society.partition,
                                                     society.coordination, params))
    return scenario


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- subcommands ---------------------------------------------------------------

def cmd_eval(scenario: Scenario, network_path: str, out) -> int:
    society = scenario.society
    text = Path(network_path).read_text(encoding="ascii")
    network = parse_edge_list(text, society.n)
    values = payoffs(network, society.weights, society.params)
    for node, value in enumerate(values):
        print(f"node {node}: payoff {_fmt(value)}", file=out)
    print(f"welfare: {_fmt(float(values.sum()))}", file=out)
    return 0


def _describe(pred: th.RegimePrediction, s1: int, s2: int) -> str:
    if pred.kind is th.RegimeKind.BOUNDARY_TIE:
        return f"boundary tie at {_fmt(pred.lower)}"
    count = pred.interconnections(s1, s2)
    label = pred.kind.value if pred.kind is not th.RegimeKind.EXACT_K else f"exact-{pred.k}"
    count_text = "2..{}".format(s1 * s2 - 1) if count is None else str(count)
    return (f"{label} ({count_text} interconnections), "
            f"for F12 in [{_fmt(pred.lower)}, {_fmt(pred.upper)}]")


def cmd_classify(scenario: Scenario, out) -> int:
    society = scenario.society
    params = society.params
    partition = society.partition
    if partition.m != 2:
        return _classify_multigroup(scenario, out)
    s1, s2 = partition.sizes
    f12 = society.coordination[0, 1]
    stable_pred = th.classify_two_group_stable(s1, s2, params, f12)
    eff_pred = th.classify_two_group_efficient(s1, s2, params, f12)
    overlap = th.stability_efficiency_overlap(s1, s2, params, f12)
    print(f"groups: sizes {s1}, {s2}; F12 = {_fmt(f12)}; "
          f"delta = {_fmt(params.delta)}; cost = {_fmt(params.cost)}", file=out)
    print(f"stable boundaries: "
          + ", ".join(_fmt(b) for b in th.stable_boundaries(s1, s2, params)), file=out)
    print(f"efficient boundaries: "
          + ", ".join(_fmt(b) for b in th.efficient_boundaries(s1, s2, params)), file=out)
    print(f"stable regime: {_describe(stable_pred, s1, s2)}", file=out)
    print(f"efficient regime: {_describe(eff_pred, s1, s2)}", file=out)
    print(f"efficient structure is pairwise stable: {'yes' if overlap else 'no'}", file=out)
    return 0


def _classify_multigroup(scenario: Scenario, out) -> int:
    society = scenario.society
    partition = society.partition
    params = society.params
    print(f"groups: sizes {', '.join(str(s) for s in partition.sizes)}; "
          f"delta = {_fmt(params.delta)}; cost = {_fmt(params.cost)}", file=out)
    for a in range(partition.m):
        for b in range(a + 1, partition.m):
            lo, hi = th.redundancy_bounds(partition.sizes[a], partition.sizes[b], params)
            print(f"pair ({a}, {b}): F = {_fmt(society.coordination[a, b])}, "
                  f"redundant above {_fmt(lo)}, maximal above {_fmt(hi)}", file=out)
    for center in range(partition.m):
        tree = th.GroupGraph.star(partition.m, center)
        ok = th.minimally_connected_sufficient(tree, society.coordination,
                                               partition, params)
        print(f"star centered on group {center}: minimally connected cliques "
              f"{'supported' if ok else 'not supported'}", file=out)
    return 0


SWEEP_HEADER = ("value,stable_interconnections,efficient_interconnections,"
                "stable_min_welfare,efficient_welfare,poa")


def _grid(start: float, stop: float, step: float) -> list[float]:
    if step <= 0:
        raise ValidationError("sweep step must be positive")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        values.append(round(v, 12))
        k += 1
    if not values:
        raise ValidationError("sweep grid is empty")
    return values


def _count_cell(counts: list[int]) -> str:
    lo, hi = min(counts), max(counts)
    return str(lo) if lo == hi else f"{lo}..{hi}"


def _sweep_row(scenario: Scenario, space_kind: Optional[str], value: float,
               parameter: str, tables_cache: dict) -> str:
    society = scenario.society
    s1, s2 = society.partition.sizes
    params = society.params
    if parameter == "F12":
        society = Society(society.partition,
                          CoordinationMatrix.uniform(2, value), params)
    elif parameter == "s1":
        sizes = (int(value), society.partition.n - int(value))
        if min(sizes) < 3:
            raise ValidationError(f"s1={int(value)} leaves a group below 3 members")
        partition = GroupPartition.from_sizes(sizes)
        society = Society(partition,
                          CoordinationMatrix.uniform(2, society.coordination[0, 1]),
                          params)
    elif parameter == "delta":
        society = Society(society.partition, society.coordination,
                          ModelParams(value, params.cost, params.epsilon))
    elif parameter == "cost":
        society = Society(society.partition, society.coordination,
                          ModelParams(params.delta, value, params.epsilon))
    else:
        raise ValidationError(f"unknown sweep parameter {parameter!r} "
                              "(use F12, s1, delta, or cost)")
    s1, s2 = society.partition.sizes
    params = society.params
    f12 = society.coordination[0, 1]

    stable_pred = th.classify_two_group_stable(s1, s2, params, f12)
    eff_pred = th.classify_two_group_efficient(s1, s2, params, f12)

    scenario_now = replace(scenario, society=society)
    try:
        space = scenario_now.build_space(space_kind)
        key = (space.kind, society.partition, params.delta)
        if key not in tables_cache:
            tables_cache.clear()  # sweeps vary one axis; one live table is enough
            tables_cache[key] = stab.compute_tables(space, society.partition,
                                                    params.delta)
        scan = stab.scan_space(tables_cache[key], society)
    except stab.CapExceededError:
        scan = None

    partition = society.partition
    if scan is not None:
        stable_masks = scan.stable_masks()
        stable_counts = [space.network_for(int(k)).inter_count(partition)
                         for k in stable_masks]
        _, argmax = eff.argmax_from_scan(scan, params.epsilon)
        eff_counts = [net.inter_count(partition) for net in argmax]
        if stable_pred.kind is th.RegimeKind.BOUNDARY_TIE:
            stable_cell = f"{min(stable_counts)}..{max(stable_counts)}"
        else:
            stable_cell = str(stable_pred.interconnections(s1, s2))
        eff_cell = _count_cell(eff_counts)
        stable_welfares = scan.welfare[scan.stable]
        stable_min = float(stable_welfares.min()) if stable_welfares.size else float("nan")
        best = float(scan.welfare.max())
        try:
            poa = stab.poa_from_scan(scan)
        except stab.PoAUndefinedError:
            poa = float("nan")
        return (f"{_fmt(value)},{stable_cell},{eff_cell},"
                f"{_fmt(stable_min)},{_fmt(best)},{_fmt(poa)}")

    # Space too large to enumerate: closed-form predictions, welfare columns empty.
    stable_count = stable_pred.interconnections(s1, s2)
    if stable_count is None:
        # Bound k separates k from k + 1 links; the last one separates
        # min(s1, s2) from s1 * s2.
        bounds = th.stable_boundaries(s1, s2, params)
        k = bounds.index(stable_pred.lower)
        upper = s1 * s2 if k == len(bounds) - 1 else k + 1
        stable_cell = f"{k}..{upper}"
    else:
        stable_cell = str(stable_count)
    eff_count = eff_pred.interconnections(s1, s2)
    if eff_pred.kind is th.RegimeKind.REDUNDANT:
        eff_cell = f"2..{s1 * s2 - 1}"
    elif eff_count is None:
        eff_cell = ""
    else:
        eff_cell = str(eff_count)
    return f"{_fmt(value)},{stable_cell},{eff_cell},nan,nan,nan"


def cmd_sweep(scenario: Scenario, parameter: str, start: float, stop: float,
              step: float, space_kind: Optional[str], out_path: Optional[str],
              svg_path: Optional[str], out) -> int:
    if scenario.partition.m != 2:
        raise ValidationError("sweeps need exactly two groups")
    tables_cache: dict = {}
    rows = [SWEEP_HEADER]
    for value in _grid(start, stop, step):
        rows.append(_sweep_row(scenario, space_kind, value, parameter, tables_cache))
    csv_text = "\n".join(rows) + "\n"
    if out_path:
        Path(out_path).write_text(csv_text, encoding="ascii")
        print(f"wrote {len(rows) - 1} rows to {out_path}", file=out)
    else:
        out.write(csv_text)
    if svg_path:
        _write_sweep_svg(csv_text, svg_path)
        print(f"wrote plot to {svg_path}", file=out)
    return 0


def cmd_dynamics(scenario: Scenario, seed: Optional[int], script_path: Optional[str],
                 start_path: Optional[str], max_steps: Optional[int],
                 out_path: Optional[str], final_path: Optional[str],
                 svg_path: Optional[str], out) -> int:
    society = scenario.society
    if script_path is not None:
        text = Path(script_path).read_text(encoding="ascii")
        selector: dyn.PairSelector = dyn.Scripted.of(
            [(i, j) for _, i, j in _parse_pairs(text)])
    else:
        run_seed = seed if seed is not None else scenario.seed
        if run_seed is None:
            raise ValidationError("seeded dynamics need a seed (scenario key or --seed)")
        selector = dyn.SeededUniform(run_seed)

    if start_path is not None:
        start = parse_edge_list(Path(start_path).read_text(encoding="ascii"), society.n)
    else:
        start = Network.empty(society.n)

    steps = max_steps if max_steps is not None else scenario.max_steps
    trace = dyn.run(start, selector, society, max_steps=steps)
    csv_text = trace.to_csv()
    if out_path:
        Path(out_path).write_text(csv_text, encoding="ascii")
        print(f"wrote trace ({len(trace.steps)} periods) to {out_path}", file=out)
    else:
        out.write(csv_text)
    if final_path:
        Path(final_path).write_text(format_edge_list(trace.final), encoding="ascii")
        print(f"wrote final network to {final_path}", file=out)
    if svg_path:
        _write_trace_svg(trace, svg_path)
        print(f"wrote plot to {svg_path}", file=out)
    print(f"converged: {'yes' if trace.converged else 'no'}", file=out)
    if trace.converged:
        print(f"steps to convergence: {trace.steps_to_convergence}", file=out)
    partition = society.partition
    print(f"final: {trace.final.edge_count} edges, "
          f"{trace.final.inter_count(partition)} interconnections", file=out)
    return 0


def _write_networks(networks, partition, society, out_dir: str, prefix: str, out) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ["index,edges,interconnections,welfare"]
    for index, network in enumerate(networks):
        (directory / f"{prefix}_{index:04d}.edges").write_text(
            format_edge_list(network), encoding="ascii")
        rows.append(f"{index},{network.edge_count},{network.inter_count(partition)},"
                    f"{_fmt(welfare(network, society.weights, society.params))}")
    (directory / "summary.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {len(networks)} networks and summary.csv to {directory}", file=out)


def cmd_stable(scenario: Scenario, space_kind: Optional[str],
               out_dir: Optional[str], out) -> int:
    society = scenario.society
    space = scenario.build_space(space_kind)
    networks = stab.enumerate_stable(space, society)
    print(f"space: {space.kind.value} ({space.size} networks); "
          f"{len(networks)} pairwise stable", file=out)
    counts = sorted({net.inter_count(society.partition) for net in networks})
    if counts:
        print(f"interconnection counts: {counts[0]}..{counts[-1]}", file=out)
    if out_dir:
        _write_networks(networks, society.partition, society, out_dir, "stable", out)
    return 0


def cmd_efficient(scenario: Scenario, space_kind: Optional[str],
                  out_dir: Optional[str], out) -> int:
    society = scenario.society
    space = scenario.build_space(space_kind)
    best, argmax = eff.efficient_search(space, society)
    print(f"space: {space.kind.value} ({space.size} networks); "
          f"best welfare {_fmt(best)} attained by {len(argmax)} networks", file=out)
    if out_dir:
        _write_networks(argmax, society.partition, society, out_dir, "efficient", out)
    return 0


def cmd_poa(scenario: Scenario, space_kind: Optional[str], out) -> int:
    society = scenario.society
    space = scenario.build_space(space_kind)
    value = stab.price_of_anarchy(space, society)
    print(f"space: {space.kind.value} ({space.size} networks)", file=out)
    print(f"price of anarchy: {_fmt(value)}", file=out)
    return 0


# -- SVG emission (CSV columns drawn as polylines; no interactivity) ------------

def _svg_document(series: list[tuple[str, list[float], list[float]]],
                  width: int = 640, height: int = 400) -> str:
    pad = 48
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy if not np.isnan(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>']
    for k, (name, series_x, series_y) in enumerate(series):
        color = colors[k % len(colors)]
        points = " ".join(f"{sx(x):.1f},{sy(y):.1f}"
                          for x, y in zip(series_x, series_y) if not np.isnan(y))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(f'<text x="{pad + 6}" y="{pad + 16 * (k + 1)}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _mid_count(cell: str) -> float:
    if ".." in cell:
        lo, hi = cell.split("..")
        return (float(lo) + float(hi)) / 2.0
    return float(cell) if cell else float("nan")


def _write_sweep_svg(csv_text: str, path: str) -> None:
    lines = csv_text.strip().splitlines()
    xs, stable_counts, eff_counts, poas = [], [], [], []
    for line in lines[1:]:
        cells = line.split(",")  # range cells use "a..b", never a comma
        xs.append(float(cells[0]))
        stable_counts.append(_mid_count(cells[1]))
        eff_counts.append(_mid_count(cells[2]))
        poas.append(float(cells[5]))
    Path(path).write_text(_svg_document([
        ("stable interconnections", xs, stable_counts),
        ("efficient interconnections", xs, eff_counts),
        ("price of anarchy", xs, poas),
    ]), encoding="ascii")


def _write_trace_svg(trace: dyn.DynamicsTrace, path: str) -> None:
    xs = [float(s.index) for s in trace.steps]
    intra = [float(s.intra_count) for s in trace.steps]
    inter = [float(s.inter_count) for s in trace.steps]
    Path(path).write_text(_svg_document([
        ("intra-group links", xs, intra),
        ("cross-group links", xs, inter),
    ]), encoding="ascii")


# -- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupform",
        description="Multigroup network formation: payoffs, stability, "
                    "efficiency, dynamics, and parameter sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the indifference tolerance")

    p = sub.add_parser("eval", help="per-node payoffs and welfare of a network")
    common(p)
    p.add_argument("--network", required=True, help="edge-list file")

    p = sub.add_parser("classify", help="stable/efficient regimes and boundaries")
    common(p)

    p = sub.add_parser("sweep", help="CSV over a parameter grid")
    common(p)
    p.add_argument("--parameter", required=True, choices=["F12", "s1", "delta", "cost"])
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--space", choices=["full", "inter"], default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--svg", default=None, help="optional SVG plot path")

    p = sub.add_parser("dynamics", help="run formation dynamics, write the trace")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--script", default=None, help="file of 'i j' activations")
    p.add_argument("--start", default=None, help="starting network edge-list file")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.add_argument("--final-out", default=None, help="final network edge-list path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")

    p = sub.add_parser("stable", help="enumerate pairwise stable networks")
    common(p)
    p.add_argument("--space", choices=["full", "inter"], default=None)
    p.add_argument("--out", default=None, help="directory for edge lists + summary.csv")

    p = sub.add_parser("efficient", help="enumerate welfare-maximal networks")
    common(p)
    p.add_argument("--space", choices=["full", "inter"], default=None)
    p.add_argument("--out", default=None, help="directory for edge lists + summary.csv")

    p = sub.add_parser("poa", help="price of anarchy over the declared space")
    common(p)
    p.add_argument("--space", choices=["full", "inter"], default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, args.epsilon)
        if args.command == "eval":
            return cmd_eval(scenario, args.network, out)
        if args.command == "classify":
            return cmd_classify(scenario, out)
        if args.command == "sweep":
            return cmd_sweep(scenario, args.parameter, args.start, args.stop,
                             args.step, args.space, args.out, args.svg, out)
        if args.command == "dynamics":
            return cmd_dynamics(scenario, args.seed, args.script, args.start,
                                args.max_steps, args.out, args.final_out,
                                args.svg, out)
        if args.command == "stable":
            return cmd_stable(scenario, args.space, args.out, out)
        if args.command == "efficient":
            return cmd_efficient(scenario, args.space, args.out, out)
        if args.command == "poa":
            return cmd_poa(scenario, args.space, out)
        raise AssertionError(f"unhandled command {args.command}")
    except stab.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, th.RegimeUndefinedError, stab.PoAUndefinedError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
