"""Every function the benchmark tracer wraps still exists.

Tracer.install skips a (module, name) target the package no longer defines,
so a renamed or deleted function would leave its per-layer metrics reading 0
without any error.  The names admissible and the package serve on first use
(admissible._LAZY) must resolve to the defining module's object and be
wrapped where they are served.  The tracer is loaded from its file; two
tests install it and remove it again, and none runs a workload."""

import importlib
import importlib.util
import sys
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


LAZY = [(module, name) for module in ("euclid4", "euclid4.admissible")
        for name in admissible._LAZY]


@pytest.mark.parametrize("module_name, name", LAZY, ids=[f"{m}.{n}" for m, n in LAZY])
def test_lazy_name_is_the_defining_modules_object(monkeypatch, module_name, name):
    """A name served on first use is the very object its defining module
    binds, and is then bound in the serving module.  The binding an earlier
    access left is removed first, so that __getattr__ runs."""
    module = importlib.import_module(module_name)
    monkeypatch.delitem(vars(module), name, raising=False)
    value = getattr(module, name)
    defining = importlib.import_module(f"euclid4.{admissible._LAZY[name]}")
    assert value is vars(defining)[name]
    assert vars(module)[name] is value


@pytest.mark.parametrize("module_name", ["euclid4", "euclid4.admissible"])
def test_unknown_name_imports_nothing(module_name, monkeypatch):
    """Any other name is an AttributeError at once, with no import tried."""
    module = importlib.import_module(module_name)

    def refuse(name, package=None):
        raise AssertionError(f"import of {name} tried")

    monkeypatch.setattr(importlib, "import_module", refuse)
    before = set(sys.modules)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert set(sys.modules) == before


def test_tracer_wraps_the_lazy_names(monkeypatch):
    """Install binds the lazily served targets, when not yet accessed, and
    wraps them at their old addresses; uninstall restores them."""
    targets = [(admissible, "find_prime_element"), (admissible, "brute_force_surjectivity"),
               (certs, "certificate_to_json")]
    originals = [getattr(module, name) for module, name in targets]
    for module, name in targets[:2]:
        monkeypatch.delitem(vars(module), name)
    t = tracer.Tracer()
    t.install()
    try:
        for (module, name), original in zip(targets, originals):
            wrapper = getattr(module, name)
            assert wrapper is not original and wrapper.__wrapped__ is original
    finally:
        t.uninstall()
    assert [getattr(module, name) for module, name in targets] == originals
