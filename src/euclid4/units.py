"""Unit-group data: torsion order g, a generator eta, an infinite-order unit.

The infinite-order unit is the fundamental unit of the real quadratic
subfield, embedded into the quartic field.  That is always a legitimate
choice here (only its multiplicative orders modulo squared primes matter),
and it avoids any unit-index computation in the quartic field itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd

from .elements import NFElement, from_power_coords, norm, one, sqrt_radicand, theta
from .fields import FieldSpec
from .intmath import continued_fraction_fundamental_unit, factorize, legendre, sqrt_mod_prime_power
from .linalg import charpoly_int
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
    """(const + elem) / 2 as an exact integral element."""
    power = field.power_from_coords(elem.coords)
    vec = [Fraction(const) + power[0]] + [p for p in power[1:]]
    return from_power_coords(field, [v / 2 for v in vec])


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
    assert _element_order_is(eta, g)
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
    assert norm(eps) in (1, -1)
    return eps


def _solve_mod(mat, rhs, modulus):
    """Solve a 4x4 system with unit determinant modulo a prime power."""
    m = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    q = modulus
    for c in range(4):
        piv = next(i for i in range(c, 4) if gcd(m[i][c], q) == 1)
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, q)
        m[c] = [x * inv % q for x in m[c]]
        for i in range(4):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[c])]
    return [m[i][4] for i in range(4)]


def sqrt_in_ring(spec: FieldSpec, v: NFElement) -> NFElement | None:
    """An exact w with w*w = v, or None.

    Quadratic-residue characters at split primes rule squares out quickly;
    candidate roots are Hensel-lifted componentwise modulo a split prime
    power, reconstructed by linear algebra, and verified exactly, so a
    returned value is always correct.
    """
    # reduction_maps also serves primes dividing the index, but the filter
    # stays: it fixes q, hence the root pinned by roots[0] and the sign of
    # the w returned, and so the unit data every certificate carries.
    qs = list(islice((q for q in split_primes(spec, 20000) if spec.index % q), 3))
    if len(qs) < 3:
        return None
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
        for signs in range(8):
            svec = [roots[0]]
            for i in range(1, 4):
                svec.append(roots[i] if (signs >> (i - 1)) & 1 == 0 else (qm - roots[i]) % qm)
            coords = _solve_mod(homs, svec, qm)
            lifted = tuple(c if c <= qm // 2 else c - qm for c in coords)
            w = NFElement(spec, lifted)
            if (w * w).coords == v.coords:
                return w
        prec *= 2
    return None


def strongest_unit(spec: FieldSpec, g: int, eta: NFElement,
                   eps: NFElement) -> NFElement:
    """Replace eps by a square root of a torsion multiple while one exists.

    The embedded subfield unit can be the square of a unit of the quartic
    field (times torsion); in that case its residue images generate only an
    index-two subgroup and reference pairs cannot be certified.  Extracting
    the root restores the full image.  Each extraction halves the
    archimedean size, so this terminates immediately in practice.  The
    inverse needs no pass of its own: zeta^t eps^-1 = w^2 gives
    zeta^t eps = (w eps)^2.
    """
    current = eps
    for _ in range(6):
        found = None
        t_power = one(spec)
        for _t in range(g):
            w = sqrt_in_ring(spec, t_power * current)
            if w is not None and has_infinite_order(w):
                found = w
                break
            t_power = t_power * eta
        if found is None:
            return current
        current = found
    return current


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
    assert norm(eps) in (1, -1) and has_infinite_order(eps)
    return UnitData(g, eta, eps, prov)


@lru_cache(maxsize=1)
def _cyclotomic_quartic_products() -> frozenset:
    """Coefficient tuples of every monic quartic that is a product of
    cyclotomic polynomials (the characteristic polynomials of torsion units)."""
    lin = {1: (-1, 1), 2: (1, 1)}
    quad = {3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}
    quart = {
        5: (1, 1, 1, 1, 1),
        8: (1, 0, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        12: (1, 0, -1, 0, 1),
    }

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return tuple(out)

    prods = set(quart.values())
    for q in quad.values():
        for q2 in quad.values():
            prods.add(mul(q, q2))
        for l1 in lin.values():
            for l2 in lin.values():
                prods.add(mul(q, mul(l1, l2)))
    for a in lin.values():
        for b in lin.values():
            for c in lin.values():
                for d in lin.values():
                    prods.add(mul(mul(a, b), mul(c, d)))
    return frozenset(prods)


def has_infinite_order(x: NFElement) -> bool:
    """Exact, float-free test: a unit is torsion iff its characteristic
    polynomial is a product of cyclotomic polynomials."""
    char = tuple(charpoly_int(x.mult_matrix()))
    return char not in _cyclotomic_quartic_products()


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
    return has_infinite_order(u.epsilon)
