"""Exact-arithmetic admissible-prime-pair certificates for the
class-number-one imaginary Galois quartic fields."""

from .admissible import (
    AdmissibleCertificate,
    WitnessResult,
    brute_force_surjectivity,
    check_conditions,
    construct_witness,
    find_prime_element,
    search_pair,
)
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
