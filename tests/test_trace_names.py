"""The names that the benchmark tracer wraps still exist in the package.

``benchmarks/spans.py`` replaces functions and methods by name while a traced
run is installed.  A rename in ``distreg`` would otherwise show up only as a
crash in ``benchmarks/run.py --trace 1`` runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("layer", sorted(spans.FUNCTIONS))
def test_traced_functions_resolve(layer):
    module = importlib.import_module(f"distreg.{layer}")
    missing = [name for name in spans.FUNCTIONS[layer] if getattr(module, name, None) is None]
    assert missing == []


@pytest.mark.parametrize("name", spans.SYNTH_CLASSES)
def test_traced_synth_methods_are_defined_on_the_class(name):
    # the tracer reads each method from the class's own __dict__, so an
    # inherited method would raise KeyError there
    cls = getattr(importlib.import_module("distreg.synth"), name)
    assert [m for m in spans.SYNTH_METHODS if m not in vars(cls)] == []
