"""Every function the benchmark tracer wraps still exists.

Tracer.install skips a (module, name) target the package no longer defines,
so a renamed or deleted function would leave its per-layer metrics reading 0
without any error.  The tracer is loaded from its file; one test installs
it and removes it again, and none runs a workload."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import euclid4.cli  # noqa: F401  (loads every module the tracer patches)
from euclid4 import admissible, certs, residues

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


def test_prime_loading_runs_under_the_traced_layer():
    """certs and admissible call degree_one_primes_above through their own
    bindings; once the tracer is installed both are its wrapper, so the
    residues.degree_one_primes_above layer covers prime loading in verify
    as well as the search."""
    original = residues.degree_one_primes_above
    t = tracer.Tracer()
    t.install()
    try:
        wrapper = residues.degree_one_primes_above
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert certs.degree_one_primes_above is wrapper
        assert admissible.degree_one_primes_above is wrapper
    finally:
        t.uninstall()
    assert certs.degree_one_primes_above is original
    assert admissible.degree_one_primes_above is original
