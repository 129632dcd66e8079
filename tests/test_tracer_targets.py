"""Every function the benchmark tracer wraps still exists.

Tracer.install skips a (module, name) target the package no longer defines,
so a renamed or deleted function would leave its per-layer metrics reading 0
without any error.  The tracer is loaded from its file and not run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import euclid4.cli  # noqa: F401  (loads every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
_spec = importlib.util.spec_from_file_location("tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TARGETS = tracer.SPAN_TARGETS + tracer.COUNT_TARGETS


@pytest.mark.parametrize("module_name, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    obj = importlib.import_module(f"euclid4.{module_name}")
    for name in attr.split("."):
        obj = getattr(obj, name, None)
    # callable, not isfunction: units.unit_data is an lru_cache wrapper
    assert callable(obj), f"euclid4.{module_name}.{attr} does not resolve"
