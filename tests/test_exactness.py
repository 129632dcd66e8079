"""Production code uses no floating point.

Every module of the package is parsed and searched for the ways a float can
enter: a float literal, a call to float, a name from math other than the
integer functions, and true division.  No true division is allowed anywhere.
Rationals are integer numerators over a denominator, so an import of
fractions is refused too.

python -O strips assert statements, so the package holds none: its checks
raise typed errors instead, and keep them under every interpreter flag.

The package imports only the standard library and itself, so it runs, the
oracle included, where numpy and every other third-party package are absent.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import euclid4

PACKAGE = Path(euclid4.__file__).parent
INTEGER_MATH = {"gcd", "isqrt", "lcm"}


def float_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node):
        here = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{here} float literal {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"{here} call to float")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"{here} import math")
        elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            found.append(f"{here} import fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"{here} fractions import")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            extra = {a.name for a in node.names} - INTEGER_MATH
            if extra:
                found.append(f"{here} math import {sorted(extra)}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{here} true division")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_no_floating_point_in_production():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [use for path in modules for use in float_uses(path)]
    assert found == []


def test_float_scan_sees_each_kind(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import math\n"
        "from math import gcd, sqrt\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = 1 / 2\n"
        "z /= 2\n"
        "w = 7 // 2\n"
        "import fractions\n"
        "from fractions import Fraction\n"
    )
    kinds = [use.split(" ", 1)[1] for use in float_uses(sample)]
    assert kinds == [
        "import math",
        "math import ['sqrt']",
        "float literal 0.5",
        "call to float",
        "true division",
        "true division",
        "import fractions",
        "fractions import",
    ]


def assert_lines(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_in_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{line}" for path in modules for line in assert_lines(path)]
    assert found == []


def test_assert_scan_sees_assert(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("x = 1\nassert x, 'x'\nif x:\n    assert x == 1\n")
    assert assert_lines(sample) == [2, 4]


def test_foreign_prime_is_rejected_under_optimized_python():
    """check_conditions on K_1 with P1 from K_2 raises FieldMismatch under
    python -O too."""
    code = (
        "from euclid4.admissible import check_conditions\n"
        "from euclid4.errors import FieldMismatch\n"
        "from euclid4.fields import registry_entry\n"
        "from euclid4.residues import degree_one_primes_above\n"
        "from euclid4.units import unit_data\n"
        "k1, k2 = registry_entry('K_1').spec, registry_entry('K_2').spec\n"
        "try:\n"
        "    check_conditions(k1, unit_data(k1), degree_one_primes_above(k2, 5)[0],\n"
        "                     degree_one_primes_above(k1, 17)[0])\n"
        "except FieldMismatch:\n"
        "    print('rejected')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def foreign_imports(path):
    """The imports of path that are neither relative nor standard library."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    assert [use for path in modules for use in foreign_imports(path)] == []


def test_import_scan_sees_foreign_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os, numpy as np\n"
        "from math import gcd\n"
        "from .errors import CapExceeded\n"
        "def f():\n"
        "    from sympy.ntheory import factorint\n"
    )
    assert foreign_imports(sample) == ["sample.py:1 numpy", "sample.py:5 sympy.ntheory"]


def test_oracle_runs_with_numpy_blocked():
    """verify --oracle confirms the 40 frozen certificates in a process
    where importing numpy fails."""
    certs = sorted((PACKAGE.parent.parent / "benchmark" / "data" / "certs").glob("*.json"))
    assert len(certs) == 40
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from euclid4.cli import main\n"
        "sys.exit(main(['verify', '--oracle', *sys.argv[1:]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code, *map(str, certs)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 40 and all(line.endswith("oracle-confirmed") for line in lines)
