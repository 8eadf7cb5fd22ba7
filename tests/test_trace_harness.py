"""The traced benchmark run wraps package functions by name.

``perfbench/tracer.py`` looks up every attribute it wraps when it installs
itself, so ``--trace 1`` fails on a name the package no longer has. The
tracer is read here as it stands and each of its names is resolved.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracer = _tracer()
    names = [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTS]
    return names + [("numerics", "invert_monotone"),
                    ("transforms", "Relabeling.inverse")]


@pytest.mark.parametrize("module, attribute", _wrapped_names())
def test_traced_name_resolves(module, attribute):
    obj = importlib.import_module(f"seqscreen.{module}")
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
