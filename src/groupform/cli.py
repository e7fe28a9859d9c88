"""Command-line front end: scenario files in, reports/CSV/SVG out.

Subcommands: eval, classify, sweep, dynamics, stable, efficient, poa.
Exit codes: 0 success, 1 validation error, 2 search-space cap exceeded.
"""

from __future__ import annotations

import argparse
import math
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
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    _left_sum,
    _parse_pairs,
    format_edge_list,
    parse_edge_list,
    payoffs,
    welfare,
)

DEFAULT_MAX_STEPS = 100_000
MAX_SWEEP_POINTS = 100_000


# Search-space builders by the name a scenario or --space gives.  Each looks
# its builder up at call time, so a wrapped (traced) builder is the one run.
SPACES = {"full": lambda partition: stab.full_graph_space(partition.n),
          "inter": lambda partition: stab.interconnection_space(partition)}

# Run settings a flag of the same name replaces.
OVERRIDES = ("seed", "space", "max_steps")

# The society settings `sweep --parameter` varies.
SWEEP_PARAMETERS = ("F12", "s1", "delta", "cost")

_REQUIRED = object()


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file: the society plus run configuration."""

    society: Society
    seed: Optional[int]
    space: str                       # a key of SPACES
    max_steps: int

    @property
    def partition(self) -> GroupPartition:
        return self.society.partition

    def build_space(self) -> stab.SearchSpace:
        return SPACES[self.space](self.partition)


_SCENARIO_KEYS = {"group_sizes", "F", "delta", "cost", "seed", "space", "max_steps"}


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

    def read(key: str, cast=float, default=_REQUIRED, problem="must be a number"):
        """The key's value through ``cast``, or ``default`` when it is absent."""
        if key not in raw:
            if default is _REQUIRED:
                raise ValidationError(f"scenario is missing required key {key!r}")
            return default
        lineno, value = raw[key]
        try:
            return cast(value)
        except ValueError:
            raise ValidationError(f"line {lineno}: {key} {problem}") from None

    sizes = read("group_sizes", lambda text: [int(s) for s in text.split(",")],
                 problem="must be integers")
    partition = GroupPartition.from_sizes(sizes)
    cross = read("F", lambda text: [float(v) for v in text.split(",")] if text else [],
                 problem="entries must be numbers")
    coordination = CoordinationMatrix.from_upper_triangle(partition.m, cross)
    delta = read("delta")
    cost = read("cost")
    seed = read("seed", int, default=None, problem="must be an integer")
    max_steps = read("max_steps", int, default=DEFAULT_MAX_STEPS, problem="must be an integer")
    space = read("space", str, default="inter")
    if space not in SPACES:
        names = " or ".join(map(repr, SPACES))
        raise ValidationError(f"space must be {names}, got {space!r}")

    society = Society(partition, coordination, ModelParams(delta, cost))
    return Scenario(society=society, seed=seed, space=space, max_steps=max_steps)


def load_scenario(path: str) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="ascii"))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- subcommands ---------------------------------------------------------------

def cmd_eval(scenario: Scenario, args: argparse.Namespace, out) -> int:
    society = scenario.society
    text = Path(args.network).read_text(encoding="ascii")
    network = parse_edge_list(text, society.n)
    values = payoffs(network, society).tolist()
    for node, value in enumerate(values):
        print(f"node {node}: payoff {_fmt(value)}", file=out)
    print(f"welfare: {_fmt(_left_sum(values))}", file=out)  # welfare's order, no second BFS
    return 0


def _predicted_cell(pred: th.RegimePrediction, s1: int, s2: int) -> str:
    """The closed-form cross-link count: one number, the redundant range, or
    empty for a boundary tie."""
    if pred.kind is th.RegimeKind.REDUNDANT:
        return f"2..{s1 * s2 - 1}"
    count = pred.interconnections(s1, s2)
    return "" if count is None else str(count)


def _describe(pred: th.RegimePrediction, s1: int, s2: int) -> str:
    if pred.kind is th.RegimeKind.BOUNDARY_TIE:
        return f"boundary tie at {_fmt(pred.lower)}"
    label = pred.kind.value if pred.kind is not th.RegimeKind.EXACT_K else f"exact-{pred.k}"
    return (f"{label} ({_predicted_cell(pred, s1, s2)} interconnections), "
            f"for F12 in [{_fmt(pred.lower)}, {_fmt(pred.upper)}]")


def cmd_classify(scenario: Scenario, args: argparse.Namespace, out) -> int:
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
        tree = Network.star(partition.m, center)
        ok = stab.minimally_connected_sufficient(tree, society.coordination,
                                                 partition, params)
        print(f"star centered on group {center}: minimally connected cliques "
              f"{'supported' if ok else 'not supported'}", file=out)
    return 0


SWEEP_HEADER = ("value,stable_interconnections,efficient_interconnections,"
                "stable_min_welfare,efficient_welfare,poa")


def _grid(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError("sweep --from, --to and --step must be finite")
    if step <= 0:
        raise ValidationError("sweep step must be positive")
    # floor((stop - start) / step) + 1 points; the quotient may overflow to inf
    if (stop - start) / step >= MAX_SWEEP_POINTS:
        raise ValidationError(f"sweep grid has more than {MAX_SWEEP_POINTS} points")
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


def _count_cell(counts: list[int], tie: bool = False) -> str:
    if not counts:
        return ""
    lo, hi = min(counts), max(counts)
    return str(lo) if lo == hi and not tie else f"{lo}..{hi}"


def _society_at(society: Society, parameter: str, value: float) -> Society:
    """The society with one of SWEEP_PARAMETERS set to ``value``; a refusal
    names the grid point, as in ``F12=1.01: ...``."""
    if parameter == "s1" and not float(value).is_integer():
        raise ValidationError(f"s1={_fmt(value)} is not a whole group size")
    try:
        if parameter == "s1":
            sizes = (int(value), society.partition.n - int(value))
            return replace(society, partition=GroupPartition.from_sizes(sizes))
        if parameter == "F12":
            return replace(society, coordination=CoordinationMatrix.uniform(2, value))
        return replace(society, params=replace(society.params, **{parameter: value}))
    except ValidationError as exc:
        raise ValidationError(f"{parameter}={_fmt(value)}: {exc}") from None


def _sweep_row(value: float, society: Society, scan: Optional[stab.SpaceScan]) -> str:
    """One CSV row: counts from the scan of the society's space, or the
    closed-form predictions when the space was too large to enumerate."""
    s1, s2 = society.partition.sizes
    params = society.params
    f12 = society.coordination[0, 1]
    stable_pred = th.classify_two_group_stable(s1, s2, params, f12)
    tie = stable_pred.kind is th.RegimeKind.BOUNDARY_TIE
    partition = society.partition
    if scan is not None:
        # Cross links come only from free pairs, so a stable network's count
        # is read off its mask.  The efficient cell still builds its argmax
        # networks: a traced perfbench sweep requires the spans of both
        # efficiency.argmax_from_scan and stability.network_for.
        cross = scan.space.cross_bits(partition)
        stable_counts = np.bitwise_count(scan.stable_masks() & cross).tolist()
        best, argmax = eff.argmax_from_scan(scan)
        stable_cell = _count_cell(stable_counts, tie=tie)
        eff_cell = _count_cell([net.inter_count(partition) for net in argmax])
        try:
            poa = stab.poa_from_scan(scan)
        except stab.PoAUndefinedError:
            poa = float("nan")
        return (f"{_fmt(value)},{stable_cell},{eff_cell},"
                f"{_fmt(scan.stable_min)},{_fmt(best)},{_fmt(poa)}")

    # Space too large to enumerate: closed-form predictions, welfare columns empty.
    if tie:
        # Bound k separates k from k + 1 links; the last one, k = min(s1, s2),
        # separates k from s1 * s2.
        k = stable_pred.k
        stable_cell = f"{k}..{s1 * s2 if k == min(s1, s2) else k + 1}"
    else:
        stable_cell = _predicted_cell(stable_pred, s1, s2)
    eff_pred = th.classify_two_group_efficient(s1, s2, params, f12)
    return f"{_fmt(value)},{stable_cell},{_predicted_cell(eff_pred, s1, s2)},nan,nan,nan"


def cmd_sweep(scenario: Scenario, args: argparse.Namespace, out) -> int:
    _refuse_unwritable(args.out, args.svg)
    if scenario.partition.m != 2:
        raise ValidationError("sweeps need exactly two groups")

    def scan_at(society: Society) -> Optional[stab.SpaceScan]:
        try:
            return stab._scan_for(SPACES[scenario.space](society.partition), society)
        except stab.CapExceededError:
            return None

    grid = _grid(args.start, args.stop, args.step)
    # refuse a bad point before the first table is built
    societies = [_society_at(scenario.society, args.parameter, value) for value in grid]
    rows = [SWEEP_HEADER]
    for value, society in zip(grid, societies):
        if th.below_clique_bound(society.params):
            rows.append(_sweep_row(value, society, scan_at(society)))
        else:  # the regime table and the pinned cliques both need the bound
            rows.append(f"{_fmt(value)},,,nan,nan,nan")
    csv_text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text, encoding="ascii")
        print(f"wrote {len(rows) - 1} rows to {args.out}", file=out)
    else:
        out.write(csv_text)
    if args.svg:
        _write_svg(csv_text, args.svg, (
            ("stable interconnections", "stable_interconnections"),
            ("efficient interconnections", "efficient_interconnections"),
            ("price of anarchy", "poa")))
        print(f"wrote plot to {args.svg}", file=out)
    return 0


def cmd_dynamics(scenario: Scenario, args: argparse.Namespace, out) -> int:
    _refuse_unwritable(args.out, args.final_out, args.svg)
    society = scenario.society
    if args.script is not None:
        text = Path(args.script).read_text(encoding="ascii")
        selector: dyn.PairSelector = dyn.Scripted(
            [(i, j) for _, i, j in _parse_pairs(text)])
    else:
        if scenario.seed is None:
            raise ValidationError("seeded dynamics need a seed (scenario key or --seed)")
        selector = dyn.SeededUniform(scenario.seed)

    if args.start is not None:
        start = parse_edge_list(Path(args.start).read_text(encoding="ascii"), society.n)
    else:
        start = Network.empty(society.n)

    trace = dyn.run(start, selector, society, max_steps=scenario.max_steps)
    csv_text = trace.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text, encoding="ascii")
        print(f"wrote trace ({len(trace.steps)} periods) to {args.out}", file=out)
    else:
        out.write(csv_text)
    if args.final_out:
        Path(args.final_out).write_text(format_edge_list(trace.final), encoding="ascii")
        print(f"wrote final network to {args.final_out}", file=out)
    if args.svg:
        _write_svg(csv_text, args.svg, (("intra-group links", "intra_count"),
                                        ("cross-group links", "inter_count")))
        print(f"wrote plot to {args.svg}", file=out)
    print(f"converged: {'yes' if trace.converged else 'no'}", file=out)
    if trace.converged:
        print(f"steps to convergence: {trace.steps_to_convergence}", file=out)
    partition = society.partition
    print(f"final: {trace.final.edge_count} edges, "
          f"{trace.final.inter_count(partition)} interconnections", file=out)
    return 0


def _refuse_unwritable(*files: Optional[str], out_dir: Optional[str] = None) -> None:
    """Refuse, before the run whose results they would hold, an output file
    that is a directory or lies in a missing one, and an --out directory
    under a file or holding an earlier listing, whose edge files beyond this
    run's count would otherwise stay beside the new summary.  A missing
    --out directory is created when the listing is written."""
    for path in filter(None, files):
        target = Path(path)
        if not target.parent.is_dir():
            raise ValidationError(f"cannot write {path}: "
                                  f"directory {target.parent} does not exist")
        if target.is_dir():
            raise ValidationError(f"cannot write {path}: it is a directory")
    if out_dir:
        directory = Path(out_dir)
        existing = next(p for p in (directory, *directory.parents) if p.exists())
        if not existing.is_dir():
            raise ValidationError(f"{existing} is not a directory; "
                                  "give --out a new or empty directory")
        if (directory / "summary.csv").exists():
            raise ValidationError(f"{out_dir} already holds summary.csv; "
                                  "give --out a new or empty directory")


def _write_networks(networks, society, out_dir: str, prefix: str, out) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ["index,edges,interconnections,welfare"]
    for index, network in enumerate(networks):
        (directory / f"{prefix}_{index:04d}.edges").write_text(
            format_edge_list(network), encoding="ascii")
        rows.append(f"{index},{network.edge_count},{network.inter_count(society.partition)},"
                    f"{_fmt(welfare(network, society))}")
    (directory / "summary.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {len(networks)} networks and summary.csv to {directory}", file=out)


def cmd_stable(scenario: Scenario, args: argparse.Namespace, out) -> int:
    _refuse_unwritable(out_dir=args.out)
    society = scenario.society
    space = scenario.build_space()
    networks = stab.enumerate_stable(space, society)
    print(f"space: {space.kind} ({space.size} networks); "
          f"{len(networks)} pairwise stable", file=out)
    counts = sorted({net.inter_count(society.partition) for net in networks})
    if counts:
        print(f"interconnection counts: {counts[0]}..{counts[-1]}", file=out)
    if args.out:
        _write_networks(networks, society, args.out, "stable", out)
    return 0


def cmd_efficient(scenario: Scenario, args: argparse.Namespace, out) -> int:
    _refuse_unwritable(out_dir=args.out)
    society = scenario.society
    space = scenario.build_space()
    best, argmax = eff.efficient_search(space, society)
    print(f"space: {space.kind} ({space.size} networks); "
          f"best welfare {_fmt(best)} attained by {len(argmax)} networks", file=out)
    if args.out:
        _write_networks(argmax, society, args.out, "efficient", out)
    return 0


def cmd_poa(scenario: Scenario, args: argparse.Namespace, out) -> int:
    society = scenario.society
    space = scenario.build_space()
    value = stab.price_of_anarchy(space, society)
    print(f"space: {space.kind} ({space.size} networks)", file=out)
    print(f"price of anarchy: {_fmt(value)}", file=out)
    return 0


# -- SVG emission (CSV columns drawn as polylines; no interactivity) ------------

def _svg_document(series: list[tuple[str, list[float], list[float]]]) -> str:
    width, height, pad = 640, 400, 48
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy if not math.isnan(y)]
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
                          for x, y in zip(series_x, series_y) if not math.isnan(y))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        parts.append(f'<text x="{pad + 6}" y="{pad + 16 * (k + 1)}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_svg(csv_text: str, path: str, series: tuple[tuple[str, str], ...]) -> None:
    """Plot each ``(label, column)`` of ``series`` against the CSV's first
    column.  A range cell ``a..b`` is drawn at its midpoint; an empty or
    ``nan`` cell leaves a gap."""
    header, *rows = csv_text.splitlines()
    columns = header.split(",")
    cells = [row.split(",") for row in rows]  # range cells use "a..b", never a comma

    def read(cell: str) -> float:
        if ".." in cell:
            lo, hi = cell.split("..")
            return (float(lo) + float(hi)) / 2.0
        return float(cell) if cell else float("nan")

    xs = [float(row[0]) for row in cells]
    Path(path).write_text(_svg_document([
        (label, xs, [read(row[columns.index(name)]) for row in cells])
        for label, name in series]), encoding="ascii")


# -- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupform",
        description="Multigroup network formation: payoffs, stability, "
                    "efficiency, dynamics, and parameter sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--scenario", required=True, help="scenario file path")
        return p

    def space_option(p):
        p.add_argument("--space", choices=SPACES, default=None)

    p = command("eval", cmd_eval, "per-node payoffs and welfare of a network")
    p.add_argument("--network", required=True, help="edge-list file")

    command("classify", cmd_classify, "stable/efficient regimes and boundaries")

    p = command("sweep", cmd_sweep, "CSV over a parameter grid")
    p.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    space_option(p)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--svg", default=None, help="optional SVG plot path")

    p = command("dynamics", cmd_dynamics, "run formation dynamics, write the trace")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--script", default=None, help="file of 'i j' activations")
    p.add_argument("--start", default=None, help="starting network edge-list file")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.add_argument("--final-out", default=None, help="final network edge-list path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")

    for name, run, help_text in (
            ("stable", cmd_stable, "enumerate pairwise stable networks"),
            ("efficient", cmd_efficient, "enumerate welfare-maximal networks"),
            ("poa", cmd_poa, "price of anarchy over the declared space")):
        p = command(name, run, help_text)
        space_option(p)
        if run is not cmd_poa:
            p.add_argument("--out", default=None,
                           help="directory for edge lists + summary.csv")
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        given = {key: getattr(args, key) for key in OVERRIDES
                 if getattr(args, key, None) is not None}
        return args.run(replace(load_scenario(args.scenario), **given), args, out)
    except stab.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, th.RegimeUndefinedError, stab.PoAUndefinedError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
