"""Unit-group data: torsion order g, a generator eta, an infinite-order unit.

The infinite-order unit is the fundamental unit of the real quadratic
subfield, embedded into the quartic field.  That is always a legitimate
choice here (only its multiplicative orders modulo squared primes matter),
and it avoids any unit-index computation in the quartic field itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .elements import NFElement, norm, one, sqrt_radicand, theta
from .errors import CapExceeded, DegenerateField, NotAUnit
from .fields import FieldSpec
from .intmath import continued_fraction_fundamental_unit, factorize, legendre, sqrt_mod_prime_power
from .linalg import adjugate_int, det_int
from .residues import reduction_maps, split_primes


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
    generator is verified to have order exactly g.
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
    if not _element_order_is(eta, g):
        raise DegenerateField(f"the torsion generator does not have order {g}")
    return g, eta


def _element_order_is(eta: NFElement, g: int) -> bool:
    if (eta ** g).coords != (1, 0, 0, 0):
        return False
    return all((eta ** (g // q)).coords != (1, 0, 0, 0) for q in factorize(g))


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
    """An exact w with w*w = v, or None when v is proven not to be a square.

    The proof is a quadratic character: v is a non-residue modulo one of
    the primes above one of the first three split primes.  Otherwise
    candidate roots are Hensel-lifted componentwise modulo a power of the
    first of them, pulled back through the inverse adj(H) / det(H) of the
    matrix H of basis images (det(H) is a unit there), and verified exactly,
    so a returned value is always correct.  When four lifts of doubling
    precision find no root, or fewer than three split primes lie below
    20000, nothing is proven either way, and the call raises CapExceeded.
    """
    # reduction_maps also serves primes dividing the index, but the filter
    # stays: it fixes q, hence the root pinned by roots[0] and the sign of
    # the w returned, and so the unit data every certificate carries.
    qs = list(islice((q for q in split_primes(spec, 20000) if spec.index % q), 3))
    if len(qs) < 3:
        raise CapExceeded(f"fewer than 3 split primes below 20000 for {spec.name()}")
    for q in qs:
        for _, images in reduction_maps(spec, q, 1):
            val = sum(c * im for c, im in zip(v.coords, images)) % q
            if legendre(val, q) != 1:
                return None
    q = qs[0]
    bits = max(abs(c) for c in v.coords).bit_length() + 4
    prec = max(2, (bits // 2 + 40) // max(1, q.bit_length() - 1))
    for _ in range(4):
        qm = q ** prec
        homs = [images for _, images in reduction_maps(spec, q, prec)]
        vals = [sum(c * im for c, im in zip(v.coords, row)) % qm for row in homs]
        roots = [sqrt_mod_prime_power(val, q, prec) for val in vals]
        adj = adjugate_int(homs)
        det_inv = pow(det_int(homs), -1, qm)
        for signs in range(8):
            svec = [roots[0]]
            for i in range(1, 4):
                svec.append(roots[i] if (signs >> (i - 1)) & 1 == 0 else (qm - roots[i]) % qm)
            coords = [sum(a * s for a, s in zip(row, svec)) * det_inv % qm for row in adj]
            lifted = tuple(c if c <= qm // 2 else c - qm for c in coords)
            w = NFElement(spec, lifted)
            if (w * w).coords == v.coords:
                return w
        prec *= 2
    raise CapExceeded("no square root found in four lifts, and no character rules one out")


def strongest_unit(spec: FieldSpec, g: int, eta: NFElement,
                   eps: NFElement) -> NFElement:
    """A square root of the first torsion multiple eta^t eps (t < g) that
    has one, or eps itself.

    The embedded subfield unit can be the square of a unit of the quartic
    field (times torsion); in that case its residue images generate only an
    index-two subgroup and reference pairs cannot be certified.  Extracting
    the root restores the full image.  One round suffices: K is CM, so the
    unit index [E : W E+] is at most 2 (Washington, Introduction to
    Cyclotomic Fields, Thm 4.12).  Hence some eta^t eps is a square exactly
    when the index is 2, its root then generates E modulo torsion, and no
    torsion multiple of that root is a square again.  The inverse
    needs no pass of its own: zeta^t eps^-1 = w^2 gives
    zeta^t eps = (w eps)^2.
    """
    t_power = one(spec)
    for _t in range(g):
        w = sqrt_in_ring(spec, t_power * eps)
        if w is not None and has_infinite_order(w, g, eta):
            return w
        t_power = t_power * eta
    return eps


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
    eps = strongest_unit(spec, g, eta, eps0)
    prov = (
        Provenance.REAL_QUADRATIC_SUBFIELD
        if eps.coords == eps0.coords
        else Provenance.SUPPLIED
    )
    if norm(eps) not in (1, -1):
        raise NotAUnit(f"the unit has norm {norm(eps)}")
    if not has_infinite_order(eps, g, eta):
        raise DegenerateField("the unit is a torsion unit")
    return UnitData(g, eta, eps, prov)


def has_infinite_order(x: NFElement, g: int, eta: NFElement) -> bool:
    """A unit x has infinite order when it is none of the torsion units
    eta^0, ..., eta^(g-1) (eta generates them); comparing coordinates keeps
    the cost independent of the size of x, which may come from a certificate."""
    power = one(eta.field)
    for _ in range(g):
        if x.coords == power.coords:
            return False
        power = power * eta
    return True


def verify_unit_data(u: UnitData) -> bool:
    """Re-check all UnitData invariants exactly.

    g must be the true torsion order of the field, eta must have order
    exactly g, and epsilon must be a unit of infinite order.
    """
    spec = u.eta.field
    if u.epsilon.field != spec:
        return False
    true_g, _ = torsion(spec)
    if u.g != true_g:
        return False
    if norm(u.eta) not in (1, -1) or norm(u.epsilon) not in (1, -1):
        return False
    if not _element_order_is(u.eta, u.g):
        return False
    return has_infinite_order(u.epsilon, u.g, u.eta)
