"""The benchmark's traced figures name functions that the package has.

``bench/spans.py`` traces every public function of each ``timopigp``
layer module and looks up each ``<layer>.<function>.calls`` or
``.self_s`` figure of ``BENCHMARK.json``'s ``per_layer`` by that name.
A deleted or renamed function would surface only as a KeyError in a
traced benchmark run; this test names it instead.  It only reads
``BENCHMARK.json``.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_figures() -> list:
    """The ``per_layer`` names that read a traced function's span
    statistics; a layer total such as ``cli.self_s`` names no function."""
    names = [entry["name"] for entry in
             json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    return [name for name in names
            if name.rpartition(".")[2] in ("calls", "self_s")
            and name.count(".") == 2]


def test_figures_found():
    assert "gp.assemble.calls" in traced_figures()


@pytest.mark.parametrize("figure", traced_figures())
def test_traced_figure_names_a_public_function(figure):
    layer, name, _ = figure.split(".")
    module = importlib.import_module(f"timopigp.{layer}")
    function = getattr(module, name, None)
    assert not name.startswith("_"), figure
    assert inspect.isfunction(function), figure
    assert function.__module__ == module.__name__, figure
