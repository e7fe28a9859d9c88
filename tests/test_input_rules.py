"""Each input rule is checked in one place, and bad input to any public call
gets that check's `ValidationError` with its exact message, never a raw
`TypeError` or `IndexError`."""

import ast
from pathlib import Path

import pytest

import groupform
from groupform.dynamics import Scripted, SeededUniform, run, step
from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    parse_edge_list,
    payoff,
)
from groupform.stability import is_pairwise_stable
from groupform.thresholds import (
    classify_two_group_stable,
    clique_link_gain,
    extra_link_gain,
    shortcut_gain,
)

SOURCE = Path(groupform.__file__).resolve().parent  # the package the probes import

PARAMS = ModelParams(0.5, 0.2)
ONE_GROUP = Society(GroupPartition.from_sizes([3]), CoordinationMatrix([[1.0]]), PARAMS)
SIX = Society(GroupPartition.from_sizes([3, 3]), CoordinationMatrix.uniform(2, 0.4), PARAMS)

NOT_AN_INTEGER = "'float' object cannot be interpreted as an integer"

PROBES = [
    # node ids
    ("payoff-float-node", lambda: payoff(Network.complete(3), 1.0, ONE_GROUP),
     "node ids must be integers, got 1.0"),
    ("distances-float-source", lambda: Network.complete(3).distances_from(1.5),
     "node ids must be integers, got 1.5"),
    ("degree-float-node", lambda: Network.complete(3).degree(1.0),
     "node ids must be integers, got 1.0"),
    # pairs
    ("script-self-loop", lambda: Scripted([(1, 1)]).pairs(3),
     "script entry 0: self-loop (1, 1) not allowed"),
    ("script-pair-out-of-range", lambda: Scripted([(0, 1)] * 4999 + [(0, 9)]).pairs(8),
     "script entry 4999: edge (0, 9) invalid for n=8"),
    ("script-float-node", lambda: Scripted([(0, 1), (1.9, 3)]),
     "script entry 1: node ids must be integers, got 1.9"),
    ("edge-list-self-loop", lambda: parse_edge_list("1 1\n", 6),
     "line 1: self-loop (1, 1) not allowed"),
    ("edge-list-out-of-range", lambda: parse_edge_list("0 1\n2 9\n", 6),
     "line 2: edge (2, 9) invalid for n=6"),
    ("has-edge-float-node", lambda: Network.complete(3).has_edge(0, 1.5),
     "node ids must be integers, got 1.5"),
    ("network-float-edge", lambda: Network(3, [(0, 1.5)]),
     "node ids must be integers, got 1.5"),
    ("step-self-loop", lambda: step(Network.empty(6), (2, 2), SIX),
     "self-loop (2, 2) not allowed"),
    ("network-short-edge", lambda: Network(3, [(0,)]), "(0,) is not a pair"),
    ("network-scalar-edge", lambda: Network(3, [0]), "0 is not a pair"),
    ("step-short-pair", lambda: step(Network.empty(6), (2,), SIX), "(2,) is not a pair"),
    ("script-short-pair", lambda: Scripted([(0, 1), (0, 1, 2)]),
     "script entry 1: (0, 1, 2) is not a pair"),
    # network size
    ("payoff-size", lambda: payoff(Network.complete(7), 0, SIX),
     "network has 7 nodes, the society has 6"),
    ("step-size", lambda: step(Network.empty(7), (0, 1), SIX),
     "network has 7 nodes, the society has 6"),
    ("stable-size", lambda: is_pairwise_stable(Network.empty(7), SIX),
     "network has 7 nodes, the society has 6"),
    ("run-size", lambda: run(Network.empty(7), SeededUniform(1), SIX, max_steps=10),
     "network has 7 nodes, the society has 6"),
    # delta
    ("params-delta", lambda: ModelParams(1.0, 0.2), "delta must be in (0, 1), got 1.0"),
    ("clique-gain-delta", lambda: clique_link_gain(3, 1.0), "delta must be in (0, 1), got 1.0"),
    ("shortcut-gain-delta", lambda: shortcut_gain(0.0), "delta must be in (0, 1), got 0.0"),
    ("extra-gain-text-delta", lambda: extra_link_gain(3, "0.5"), "delta must be real, got '0.5'"),
    # group sizes
    ("clique-gain-fractional-size", lambda: clique_link_gain(3.5, 0.5),
     f"group sizes must be integers: {NOT_AN_INTEGER}"),
    ("classify-fractional-size", lambda: classify_two_group_stable(2.5, 5, PARAMS, 0.3),
     f"group sizes must be integers: {NOT_AN_INTEGER}"),
    ("clique-gain-small-size", lambda: clique_link_gain(2, 0.5),
     "every group needs >= 3 members, got sizes (2,)"),
    ("classify-small-size", lambda: classify_two_group_stable(3, 2, PARAMS, 0.3),
     "every group needs >= 3 members, got sizes (3, 2)"),
    # cross weight
    ("matrix-weight", lambda: CoordinationMatrix.uniform(2, 1.01),
     "cross-group weight must be in [0, 1], got 1.01"),
    ("classify-weight", lambda: classify_two_group_stable(3, 5, PARAMS, 1.01),
     "cross-group weight must be in [0, 1], got 1.01"),
    ("classify-text-weight", lambda: classify_two_group_stable(3, 5, PARAMS, "0.3"),
     "cross-group weight must be in [0, 1], got '0.3'"),
    # node count
    ("network-negative-count", lambda: Network(-1, []),
     "node count must be a non-negative integer, got -1"),
    ("empty-negative-count", lambda: Network.empty(-1),
     "node count must be a non-negative integer, got -1"),
    ("network-fractional-count", lambda: Network(2.5, []),
     "node count must be a non-negative integer, got 2.5"),
    ("empty-fractional-count", lambda: Network.empty(2.5),
     "node count must be a non-negative integer, got 2.5"),
    ("uniform-draws-one-node", lambda: SeededUniform(1).pairs(1),
     "uniform pair draws need at least 2 nodes, got 1"),
    ("complete-fractional-count", lambda: Network.complete(2.5),
     "node count must be a non-negative integer, got 2.5"),
    ("star-fractional-count", lambda: Network.star(2.5),
     "node count must be a non-negative integer, got 2.5"),
    ("uniform-draws-fractional-count", lambda: SeededUniform(1).pairs(2.5),
     "node count must be a non-negative integer, got 2.5"),
    # coordination matrix shape
    ("matrix-flat-row", lambda: CoordinationMatrix([1.0, 0.2]),
     "coordination matrix must be 2x2"),
    # whole inputs that are not sequences
    ("matrix-scalar", lambda: CoordinationMatrix(5), "coordination matrix must be a sequence, got 5"),
    ("script-scalar", lambda: Scripted(5), "script must be a sequence, got 5"),
]


@pytest.mark.parametrize("call, message", [probe[1:] for probe in PROBES],
                         ids=[probe[0] for probe in PROBES])
def test_bad_input_gets_the_rules_message(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def _validation_raises() -> list[str]:
    """The source text of every ``raise ValidationError(...)`` statement in
    the package; docstrings and comments are not statements."""
    raises = []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValidationError"):
                raises.append(f"{path.name}: {ast.get_source_segment(text, node)}")
    return raises


@pytest.mark.parametrize("text", [
    "out of range", "invalid for n=", "self-loop", "nodes, the society has",
    "must be in (0, 1)", "must be in [0, 1]", ">= 3 members",
    "node ids must be integers", "group sizes must be integers",
    "non-negative integer", "is not a pair", "must be a sequence",
])
def test_each_rule_is_raised_from_one_place(text):
    found = [statement for statement in _validation_raises() if text in statement]
    assert len(found) == 1, found


def test_the_raise_scan_sees_every_module():
    # a scan that found nothing would pass every count of one vacuously
    assert {line.split(":")[0] for line in _validation_raises()} >= {
        "model.py", "dynamics.py", "stability.py", "thresholds.py", "cli.py"}
