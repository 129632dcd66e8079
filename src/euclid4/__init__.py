"""Exact-arithmetic admissible-prime-pair certificates for the
class-number-one imaginary Galois quartic fields.

The oracle, the witness and the prime generators load on first use, as in
admissible: __getattr__ serves their names from there.
"""

from . import admissible
from .admissible import AdmissibleCertificate, check_conditions, search_pair
from .elements import NFElement, from_power_coords, inverse_unit, norm, trace
from .fields import (
    FieldRegistryEntry,
    FieldSpec,
    build_biquadratic,
    build_cyclic_quartic,
    integral_basis_closure_check,
    registry,
    registry_entry,
)
from .intmath import (
    IntPoly,
    continued_fraction_fundamental_unit,
    factorize,
    is_prime,
    mult_order,
    poly_roots_mod_p,
)
from .residues import DegreeOnePrime, degree_one_primes_above, reduce_mod_p2, unit_order_mod_p2
from .units import UnitData, infinite_order_unit, torsion, unit_data, verify_unit_data

__version__ = "0.1.0"


def __getattr__(name):
    """A name that admissible serves on first use (admissible._LAZY), bound
    here once loaded; any other name is an AttributeError at once."""
    if name not in admissible._LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(admissible, name)
    globals()[name] = value
    return value
