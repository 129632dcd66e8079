"""Unit-group data: torsion order g, a generator eta, an infinite-order unit.

The infinite-order unit starts as the fundamental unit eps0 of the real
quadratic subfield, embedded into the quartic field.  The unit index
[E : W E+] is 1 or 2, and it is 2 exactly when eta eps0 is a square in the
ring; then its square root, found exactly by the norm-equation search of
norm_solutions, replaces eps0 (strongest_unit).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .elements import NFElement, _value, norm, norm_solutions, one, sqrt_radicand, theta
from .errors import CapExceeded, DegenerateField, NotAUnit
from .fields import FieldSpec
from .intmath import continued_fraction_fundamental_unit
from .residues import degree_one_primes_above, reduce_mod_p2, split_primes


class Provenance(enum.Enum):
    REAL_QUADRATIC_SUBFIELD = "RealQuadraticSubfield"
    SUPPLIED = "Supplied"


@dataclass(frozen=True)
class UnitData:
    g: int
    eta: NFElement
    epsilon: NFElement
    provenance: Provenance


def _half_sum(field: FieldSpec, const: int, elem: NFElement) -> NFElement:
    """(const + elem) / 2 as an exact integral element.

    b0 = 1, so the coordinates are ((const + x0)/2, x1/2, x2/2, x3/2); raises
    ValueError when one of them is not an integer.
    """
    vec = (const + elem.coords[0],) + elem.coords[1:]
    if any(v % 2 for v in vec):
        raise ValueError("element is not integral")
    return NFElement(field, tuple(v // 2 for v in vec))


def torsion(spec: FieldSpec) -> tuple[int, NFElement]:
    """Exact torsion order of the unit group and a canonical generator.

    The only roots of unity that fit in a quartic field have order n with
    phi(n) | 4; which occur is decided by the imaginary quadratic subfields
    (biquadratic case) or by the conductor (cyclic case).  The returned
    generator is verified to have order exactly g (torsion_units).
    """
    if spec.kind == "cyclic":
        if spec.conductor == 5:
            g, eta = 10, -theta(spec)
        else:
            g, eta = 2, -one(spec)
    else:
        rads = set(spec.sqrt_map)
        has_i = -1 in rads
        has_w3 = -3 in rads
        has_w8 = has_i and -2 in rads
        if has_i and has_w3:
            # zeta_12 = -i * zeta_3
            z3 = _half_sum(spec, -1, sqrt_radicand(spec, -3))
            eta = -(sqrt_radicand(spec, -1) * z3)
            g = 12
        elif has_w8:
            eta = _half_sum(spec, 0, sqrt_radicand(spec, 2) + sqrt_radicand(spec, -2))
            g = 8
        elif has_i:
            eta = -sqrt_radicand(spec, -1)
            g = 4
        elif has_w3:
            eta = _half_sum(spec, 1, sqrt_radicand(spec, -3))
            g = 6
        else:
            eta = -one(spec)
            g = 2
    if torsion_units(g, eta) is None:
        raise DegenerateField(f"the torsion generator does not have order {g}")
    return g, eta


def infinite_order_unit(spec: FieldSpec) -> NFElement:
    """Fundamental unit of Q(sqrt(real_subfield_d)) embedded into the field."""
    d = spec.real_subfield_d
    x, y, _sign = continued_fraction_fundamental_unit(d)
    s = sqrt_radicand(spec, d)
    if d % 4 == 1:
        omega = _half_sum(spec, 1, s)
    else:
        omega = s
    eps = x * one(spec) + y * omega
    if norm(eps) not in (1, -1):
        raise NotAUnit(f"the subfield unit has norm {norm(eps)}")
    return eps


def sqrt_in_ring(spec: FieldSpec, v: NFElement) -> NFElement | None:
    """A w with w*w = v for a unit v, or None, a proof that there is none;
    a non-unit raises NotAUnit.

    v conj(v) = (U + V sqrt(d)) / s with s = e D^2 (FieldSpec.norm_forms),
    and v is a unit exactly when U^2 - d V^2 = s^2.  A root has
    w conj(w) = alpha = (a + b sqrt(d)) / h, the totally positive root of
    v conj(v), with a^2 = h^2 (U + s) / (2 s), b^2 = h^2 (U - s) / (2 d s)
    and b of the sign of V; the roots are the solutions x of
    x conj(x) = alpha in the ring (norm_solutions) with x x = v.  Of +-w,
    the one returned is in [0, (q-1)/2] modulo the first degree-one prime
    above q, the least split prime prime to the index, which fixes the
    unit data every certificate carries.
    """
    d, e, _, _, det, _ = spec.tower
    gu, gv = spec.norm_forms
    # 2U, 2V and 2s
    u2, v2, s2 = _value(gu, v.coords), _value(gv, v.coords), 2 * e * det * det
    if u2 * u2 - d * v2 * v2 != s2 * s2:
        raise NotAUnit(f"{v} is not a unit")
    h = 2 if d % 4 == 1 else 1
    squares = ((h * h * (u2 + s2), 2 * s2), (h * h * (u2 - s2), 2 * d * s2))  # a^2, b^2
    a, b = (isqrt(num // den) for num, den in squares)
    if any(num != den * r * r for (num, den), r in zip(squares, (a, b))):
        return None
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    roots = [x for x in norm_solutions(spec, identity, a, b if v2 >= 0 else -b)
             if (NFElement(spec, x) * NFElement(spec, x)).coords == v.coords]
    if not roots:
        return None
    q = next((q for q in split_primes(spec, 20000) if spec.index % q), None)
    if q is None:
        raise CapExceeded(f"no split prime below 20000 fixes the root's sign for {spec.name()}")
    root = NFElement(spec, roots[0])
    return root if reduce_mod_p2(root, degree_one_primes_above(spec, q)[0]) % q <= q // 2 else -root


def strongest_unit(spec: FieldSpec, eta: NFElement, eps: NFElement) -> NFElement:
    """The square root of eta eps when it has one, else eps.

    K is CM, so the unit index [E : W E+] is at most 2 (Washington,
    Introduction to Cyclotomic Fields, Thm 4.12), and it is 2 exactly when
    some eta^t eps is a square; the root then generates E modulo torsion.
    No even t has one: zeta^2 eps = w^2 gives x = w / zeta with x^2 = eps,
    so x conj(x), totally positive with square eps^2, is eps = x^2 (eps > 1
    in one embedding); then conj(x) = x is real and eps a square in the
    real subfield, which a fundamental unit is not.  An odd t gives eta^t eps = eta eps
    (eta^((t-1)/2))^2, so one call suffices.
    """
    w = sqrt_in_ring(spec, eta * eps)
    return eps if w is None else w


@lru_cache(maxsize=128)
def unit_data(spec: FieldSpec) -> UnitData:
    """Canonical unit data: torsion plus the strongest available unit.

    Starts from the embedded fundamental unit of the real quadratic subfield
    and upgrades it through exact square-root extraction when it is a square
    in the ring (up to torsion); provenance records whether an upgrade
    happened.
    """
    g, eta = torsion(spec)
    eps0 = infinite_order_unit(spec)
    eps = strongest_unit(spec, eta, eps0)
    prov = Provenance.REAL_QUADRATIC_SUBFIELD if eps == eps0 else Provenance.SUPPLIED
    if not has_infinite_order(eps, g, eta):
        raise DegenerateField("the unit is a torsion unit")
    return UnitData(g, eta, eps, prov)


def torsion_units(g: int, eta: NFElement) -> list[NFElement] | None:
    """eta^0, ..., eta^(g-1), the torsion units, when eta has order exactly
    g, else None.  One walk of at most g - 1 products decides it: eta^g = 1
    and no earlier power is 1."""
    powers = [one(eta.field)]
    x = eta
    for _ in range(1, g):
        if x.coords == (1, 0, 0, 0):
            return None
        powers.append(x)
        x = x * eta
    return powers if x.coords == (1, 0, 0, 0) else None


def has_infinite_order(x: NFElement, g: int, eta: NFElement) -> bool:
    """A unit x has infinite order when it is none of the torsion units;
    comparing coordinates keeps the cost independent of the size of x,
    which may come from a certificate.  eta must have order exactly g
    (ValueError otherwise)."""
    powers = torsion_units(g, eta)
    if powers is None:
        raise ValueError(f"eta does not have order {g}")
    return all(x.coords != z.coords for z in powers)


def verify_unit_data(u: UnitData) -> bool:
    """Re-check all UnitData invariants exactly.

    g must be the true torsion order of the field, eta must have order
    exactly g, and epsilon must be a unit of infinite order.  The walk of
    eta starts only once g is the field's own, so a stated g cannot make it
    long.
    """
    spec = u.eta.field
    if u.epsilon.field != spec:
        return False
    true_g, _ = torsion(spec)
    if u.g != true_g:
        return False
    if norm(u.eta) not in (1, -1) or norm(u.epsilon) not in (1, -1):
        return False
    powers = torsion_units(u.g, u.eta)
    return powers is not None and all(u.epsilon.coords != z.coords for z in powers)
