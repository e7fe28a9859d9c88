"""In-memory spans around groupform's layers, and the per-layer metrics
derived from them.

`install` wraps every public function of the six library modules, and the
one method the metrics name (`SearchSpace.network_for`), in a recorder.  A
function is rebound in every module namespace that holds it, not only where
it is defined: `efficiency` imports `compute_tables` and `scan_space` by
name, and `dynamics` does the same with `step`, `payoff` and
`is_pairwise_stable`, so wrapping the defining module alone would miss
those calls.

Spans are kept as plain lists while the workload runs and written to a
JSON file when the process ends; `derive` turns such a file into metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter_ns

LAYERS = ("model", "stability", "efficiency", "dynamics", "thresholds", "cli")

COMMAND_SPAN = "cli.main"


def _table_info(args, tables) -> dict:
    return {"networks": int(tables.benefit.shape[0]),
            "bytes": int(tables.benefit.nbytes + tables.degree.nbytes)}


def _scan_info(args, scan) -> dict:
    return {"networks": int(scan.stable.size), "stable": int(scan.stable.sum())}


# Counts read off a layer's arguments and return value, at the boundary
# where the work happens.
OBSERVERS = {
    COMMAND_SPAN: lambda args, rc: {"command": args[0][0]},
    "stability.compute_tables": _table_info,
    "stability.scan_space": _scan_info,
    "efficiency.argmax_from_scan": lambda args, result: {"networks": len(result[1])},
    "stability.is_pairwise_stable": lambda args, result: {"confirmed": bool(result)},
}


class Tracer:
    """Records [name, parent, start_ns, end_ns, info] spans while active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name_id, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                record[4] = observe(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions in every namespace that binds them."""
    import groupform

    modules = {layer: importlib.import_module(f"groupform.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original) -> wrapper; each wrapper keeps its original alive
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)):
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    for namespace in (groupform, *modules.values()):
        for key, value in list(vars(namespace).items()):
            if id(value) in wrappers:
                setattr(namespace, key, wrappers[id(value)])
    space_cls = modules["stability"].SearchSpace
    space_cls.network_for = tracer.wrap("stability.network_for", space_cls.network_for)


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def derive(doc: dict, required: dict[str, set[str]]) -> tuple[dict, list[str]]:
    """The per-layer metrics of one spans file, and its accounting problems.

    A span's self time is its duration minus its direct children's.  Summed
    over one command's subtree, the self times must equal the command span;
    that also proves every span was closed.  ``required`` maps a command
    (the first CLI argument) to span names its subtree must contain, which
    catches a layer whose calls escaped the wrapping.
    """
    names, spans = doc["names"], doc["spans"]
    child_ns = [0] * len(spans)
    root = list(range(len(spans)))
    for k, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:  # a parent is appended before its children
            child_ns[parent] += end - start
            root[k] = root[parent]

    per_name: dict[str, dict] = {}
    self_by_root: dict[int, int] = {}
    names_by_root: dict[int, set[str]] = {}
    step_us: list[float] = []
    for k, (name_id, _, start, end, info) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        entry = per_name.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "infos": []})
        entry["calls"] += 1
        entry["ns"] += duration
        if info is not None:
            entry["infos"].append(info)
        if names[spans[root[k]][0]] != COMMAND_SPAN:
            continue  # the set-up scenario load sits outside every command
        entry["self_ns"] += duration - child_ns[k]
        self_by_root[root[k]] = self_by_root.get(root[k], 0) + duration - child_ns[k]
        names_by_root.setdefault(root[k], set()).add(name)
        if name == "dynamics.step":
            step_us.append(duration / 1e3)

    problems = []
    command_ns = 0
    for r, self_ns in self_by_root.items():
        duration = spans[r][3] - spans[r][2]
        command = spans[r][4]["command"]
        command_ns += duration
        if self_ns != duration:
            problems.append(f"{command}: self times sum to {self_ns} ns, span is {duration} ns")
        missing = required.get(command, set()) - names_by_root[r]
        if missing:
            problems.append(f"{command}: no spans for {sorted(missing)}")

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def seconds(name):
        return per_name.get(name, {}).get("ns", 0) / 1e9

    def per_unit_ns(name, unit):
        return per_name[name]["ns"] / unit if unit else 0.0

    def info_sum(name, key):
        return sum(info[key] for info in per_name.get(name, {}).get("infos", []))

    tables, scans = "stability.compute_tables", "stability.scan_space"
    table_networks = info_sum(tables, "networks")
    scan_networks = info_sum(scans, "networks")
    classify = ("thresholds.classify_two_group_stable", "thresholds.classify_two_group_efficient")
    metrics = {
        "stability.compute_tables.s": seconds(tables),
        "stability.compute_tables.calls": calls(tables),
        "stability.compute_tables.networks": table_networks,
        "stability.compute_tables.ns_per_network": per_unit_ns(tables, table_networks),
        "stability.compute_tables.bytes": max(
            (info["bytes"] for info in per_name.get(tables, {}).get("infos", [])), default=0),
        "stability.scan_space.s": seconds(scans),
        "stability.scan_space.calls": calls(scans),
        "stability.scan_space.networks": scan_networks,
        "stability.scan_space.ns_per_network": per_unit_ns(scans, scan_networks),
        "stability.scans_per_table": calls(scans) / calls(tables) if calls(tables) else 0.0,
        "stability.network_for.s": seconds("stability.network_for"),
        "stability.network_for.calls": calls("stability.network_for"),
        "stability.stable_networks": info_sum(scans, "stable"),
        "efficiency.argmax_from_scan.s": seconds("efficiency.argmax_from_scan"),
        "efficiency.argmax_from_scan.calls": calls("efficiency.argmax_from_scan"),
        "efficiency.argmax_from_scan.networks": info_sum("efficiency.argmax_from_scan", "networks"),
        "dynamics.step.s": seconds("dynamics.step"),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.p50_us": _quantile(step_us, 50),
        "dynamics.step.p99_us": _quantile(step_us, 99),
        "dynamics.run.self_s": per_name.get("dynamics.run", {}).get("self_ns", 0) / 1e9,
        "model.payoff.s": seconds("model.payoff"),
        "model.payoff.calls": calls("model.payoff"),
        "model.welfare.s": seconds("model.welfare"),
        "model.welfare.calls": calls("model.welfare"),
        "stability.is_pairwise_stable.s": seconds("stability.is_pairwise_stable"),
        "stability.is_pairwise_stable.calls": calls("stability.is_pairwise_stable"),
        "stability.is_pairwise_stable.confirmed":
            info_sum("stability.is_pairwise_stable", "confirmed"),
        "thresholds.classify.s": sum(seconds(name) for name in classify),
        "thresholds.classify.calls": sum(calls(name) for name in classify),
        "cli.load_scenario.s": seconds("cli.load_scenario"),
        "cli.self_s": sum(v["self_ns"] for k, v in per_name.items() if k.startswith("cli.")) / 1e9,
        "trace.command_s": command_ns / 1e9,
    }
    return metrics, problems
