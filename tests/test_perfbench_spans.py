"""Every span the benchmark requires still names a function it can wrap.

`perfbench/tracing.py` wraps each public function of a layer module that
is defined in that module (``fn.__module__``), plus
``SearchSpace.network_for``, and `perfbench/workloads.py`'s
``REQUIRED_SPANS`` names the spans each command's traced run must show.  A
refactor that renames such a function, makes it private or moves it to
another module would otherwise fail only the traced benchmark run.  The
workloads file is executed from its source, so nothing is written beside
it.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from groupform.stability import SearchSpace

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
REQUIRED_SPANS = runpy.run_path(str(WORKLOADS))["REQUIRED_SPANS"]
SPANS = sorted(set().union(*REQUIRED_SPANS.values()))


@pytest.mark.parametrize("span", SPANS)
def test_span_names_a_public_function_of_its_layer(span):
    layer, name = span.split(".")
    module = f"groupform.{layer}"
    if span == "stability.network_for":
        fn = SearchSpace.network_for
    else:
        assert not name.startswith("_"), span
        fn = getattr(importlib.import_module(module), name, None)
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), span
    assert fn.__module__ == module, span
