"""The package's records are plain classes: what a cold import loads, and
how the records compare, hash, pickle and refuse assignment."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import euclid4
from euclid4.cli import RunReport
from euclid4.elements import NFElement, one, theta
from euclid4.fields import FieldRegistryEntry, FieldSpec
from euclid4.generators import WitnessResult, _FieldGenerators
from euclid4.intmath import IntPoly
from euclid4.residues import DegreeOnePrime, degree_one_primes_above
from euclid4.units import unit_data


def test_cold_cli_import_loads_no_fractions_and_one_dataclass():
    """import euclid4.cli, without the site hooks, loads none of fractions,
    decimal and numbers; AdmissibleCertificate is the package's one
    dataclass."""
    code = (
        "import sys\n"
        "import euclid4.cli\n"
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
        "print(sorted(f'{c.__module__}.{c.__qualname__}'\n"
        "             for name, mod in list(sys.modules.items()) if name.startswith('euclid4')\n"
        "             for c in vars(mod).values()\n"
        "             if isinstance(c, type) and c.__module__ == name\n"
        "             and '__dataclass_fields__' in vars(c)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(euclid4.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "['euclid4.admissible.AdmissibleCertificate']"]


# Loaded on first use only: the oracle, the witness with the prime
# generators, and the certificate reader.
LAZY_MODULES = ("euclid4.certs", "euclid4.generators", "euclid4.surjectivity")
FROZEN_K8 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmark", "data", "certs", "K_8.json")


def _lazy_loaded_after(argv) -> list[list[str]]:
    """The modules of LAZY_MODULES that a python -S child holds once it has
    imported euclid4.cli, and again once cli.main(argv) has returned 0."""
    code = (
        "import contextlib, io, json, sys\n"
        "import euclid4.cli\n"
        f"lazy = set({LAZY_MODULES!r})\n"
        "loaded = [sorted(lazy & set(sys.modules))]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert euclid4.cli.main({argv!r}) == 0\n"
        "loaded.append(sorted(lazy & set(sys.modules)))\n"
        "print(json.dumps(loaded))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(euclid4.__file__))}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cold_table_run_loads_no_oracle_generators_or_reader(tmp_path):
    """Neither importing euclid4.cli nor a whole reproduce-tables run loads
    the oracle, the generators or the certificate reader."""
    argv = ["reproduce-tables", "--out", str(tmp_path), "--jobs", "1"]
    assert _lazy_loaded_after(argv) == [[], []]
    assert (tmp_path / "summary.json").exists()


def test_verify_with_the_oracle_loads_no_generators():
    """verify --oracle loads the reader and the oracle, and not the
    generators."""
    loaded = _lazy_loaded_after(["verify", FROZEN_K8, "--oracle"])
    assert loaded == [[], ["euclid4.certs", "euclid4.surjectivity"]]


@pytest.fixture(scope="module")
def k1(entries):
    return entries["K_1"]


def test_records_survive_pickle(k1):
    """A pickled copy of each record equals its source and hashes equal; a
    registry FieldSpec carries its cached tables along."""
    spec = k1.spec
    for table in ("mult_table", "tower", "norm_forms", "sqrt_map", "index"):
        getattr(spec, table)
    hash(spec)
    units = unit_data(spec)
    records = [spec, theta(spec), degree_one_primes_above(spec, 29)[1], units, k1,
               spec.theta_minpoly]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert copy is not record and type(copy) is type(record)
        assert copy == record and hash(copy) == hash(record), type(record).__name__
    copy = pickle.loads(pickle.dumps(spec))
    assert {"mult_table", "tower", "norm_forms", "_hash"} <= set(vars(copy))
    assert copy.tower == spec.tower and copy.norm_forms == spec.norm_forms

    report = RunReport("K_1", "Reproduced", (29, 17), "K_1.json", 1.5, {"search_bound": 10})
    copy = pickle.loads(pickle.dumps(report))
    assert copy is not report and copy == report
    with pytest.raises(TypeError):
        hash(report)


def test_records_compare_by_class_and_fields(k1):
    """Equality is same-class and field by field, and the repr names the
    fields as a dataclass repr did."""
    spec = k1.spec
    P = degree_one_primes_above(spec, 29)[0]
    same = DegreeOnePrime(P.field, P.p, P.lifted_c, P.conjugate_index, P.basis_images)
    assert same == P and hash(same) == hash(P)
    assert DegreeOnePrime(P.field, P.p, P.lifted_c, 3, P.basis_images) != P
    assert NFElement(spec, [1, 0, 0, 0]) == one(spec)
    assert one(spec) != (spec, (1, 0, 0, 0)) and IntPoly((1, 2)) != (1, 2)
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert repr(IntPoly((1, 2))) == "IntPoly(coeffs=(1, 2))"
    with pytest.raises(TypeError):
        NFElement(spec)
    assert FieldRegistryEntry(label="x", spec=spec, expected_g=4, expected_p1_p2=(3, 5)) \
        == FieldRegistryEntry("x", spec, 4, (3, 5))


def test_frozen_records_refuse_assignment(k1):
    """Every record but RunReport is immutable, as when it was a frozen
    dataclass; RunReport takes its certificate path after the fact."""
    spec = k1.spec
    units = unit_data(spec)
    records = [
        (spec, "discriminant"),
        (spec.theta_minpoly, "coeffs"),
        (units.eta, "coords"),
        (degree_one_primes_above(spec, 29)[0], "p"),
        (units, "g"),
        (k1, "label"),
        (WitnessResult((1, 2), (3, 4), 5, 6, 7, units.eta), "z"),
        (_FieldGenerators([], 0, 1, (1, 1), (), (), ()), "h"),
    ]
    assert isinstance(spec, FieldSpec)
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        spec.mult_table = None

    report = RunReport("K_1", "Reproduced", (29, 17), None, 1.5, {})
    report.certificate_path = "K_1.json"
    assert report.row()["certificate"] == "K_1.json"
