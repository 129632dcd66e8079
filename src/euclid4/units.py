"""Unit-group data: torsion order g, a generator eta, an infinite-order unit.

The infinite-order unit starts as the fundamental unit eps0 of the real
quadratic subfield, embedded into the quartic field.  The unit index
[E : W E+] is 1 or 2, and it is 2 exactly when eta eps0 is a square in the
ring; then its square root replaces eps0 (strongest_unit).  sqrt_in_ring
writes that root in closed form from the tower K = F(y), F = Q(sqrt(d)),
with integer square roots in F only, so its cost does not grow with the
size of the unit the way a lattice search does.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from math import isqrt
from operator import mul

from .elements import NFElement, _value, norm, one, sqrt_radicand, theta
from .errors import CapExceeded, DegenerateField, NotAUnit
from .fields import FieldSpec
from .intmath import Record, continued_fraction_fundamental_unit
from .residues import degree_one_primes_above, reduce_mod_p2, split_primes


class Provenance(enum.Enum):
    REAL_QUADRATIC_SUBFIELD = "RealQuadraticSubfield"
    SUPPLIED = "Supplied"


class UnitData(Record):
    __slots__ = ("g", "eta", "epsilon", "provenance")

    def __init__(self, g: int, eta: NFElement, epsilon: NFElement, provenance: Provenance):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "provenance", provenance)


def _half_sum(field: FieldSpec, const: int, elem: NFElement) -> NFElement:
    """(const + elem) / 2 as an exact integral element.

    b0 = 1, so the coordinates are ((const + x0)/2, x1/2, x2/2, x3/2); raises
    ValueError when one of them is not an integer.
    """
    vec = (const + elem.coords[0],) + elem.coords[1:]
    if any(v % 2 for v in vec):
        raise ValueError("element is not integral")
    return NFElement(field, tuple(v // 2 for v in vec))


def _torsion_order(spec: FieldSpec) -> int:
    """The number g of roots of unity in the field.  Only those of order n
    with phi(n) | 4 fit in a quartic field; which occur is decided by the
    imaginary quadratic subfields (biquadratic case) or by the conductor
    (cyclic case)."""
    if spec.kind == "cyclic":
        return 10 if spec.conductor == 5 else 2
    rads = spec.sqrt_map
    has_i, has_w3 = -1 in rads, -3 in rads
    if has_i:
        return 12 if has_w3 else 8 if -2 in rads else 4
    return 6 if has_w3 else 2


def torsion(spec: FieldSpec) -> tuple[int, NFElement]:
    """Exact torsion order of the unit group (_torsion_order) and a
    canonical generator, verified to have order exactly g (torsion_units).
    """
    g = _torsion_order(spec)
    if g == 12:
        # zeta_12 = -i * zeta_3
        z3 = _half_sum(spec, -1, sqrt_radicand(spec, -3))
        eta = -(sqrt_radicand(spec, -1) * z3)
    elif g == 8:
        eta = _half_sum(spec, 0, sqrt_radicand(spec, 2) + sqrt_radicand(spec, -2))
    elif g == 4:
        eta = -sqrt_radicand(spec, -1)
    elif g == 6:
        eta = _half_sum(spec, 1, sqrt_radicand(spec, -3))
    elif g == 10:
        eta = -theta(spec)
    else:
        eta = -one(spec)
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


def _sqrt_in_f(d: int, u0: int, u1: int) -> tuple[int, int, int] | None:
    """(r0, r1, k) with ((r0 + r1 x) / k)^2 = u0 + u1 x in F = Q(x), x^2 = d
    squarefree and u0, u1 integers not both 0; None when u0 + u1 x is not a
    square in F.

    A root p + q x has p^2 + d q^2 = u0, 2 p q = u1 and norm p^2 - d q^2 =
    +-m with m^2 = u0^2 - d u1^2, so 4 p^2 = 2 (u0 +- m).  Where that is a
    positive square t^2, t = 2 p is an integer and the root is
    (u0 +- m + u1 x) / t; where u0 - m = 0, p = 0 and the root is q x with
    d q^2 = u0, q an integer since d is squarefree.
    """
    n = u0 * u0 - d * u1 * u1
    m = isqrt(n) if n >= 0 else 0
    if m * m != n:
        return None
    for s in (u0 + m, u0 - m):
        t = isqrt(2 * s) if s > 0 else 0
        if t and t * t == 2 * s:
            return s, u1, t
    q = isqrt(u0 // d) if u0 > 0 and u1 == 0 else 0
    return (0, q, 1) if q and d * q * q == u0 else None


def sqrt_in_ring(spec: FieldSpec, v: NFElement) -> NFElement | None:
    """A w with w*w = v for a unit v, or None, a proof that there is none;
    a non-unit raises NotAUnit.

    v conj(v) = (U + V sqrt(d)) / s with s = e D^2 (FieldSpec.norm_forms),
    and v is a unit exactly when U^2 - d V^2 = s^2.  Complex conjugation is
    y -> -y on the tower K = F(y), F = Q(x) (FieldSpec.tower), and D v =
    (T0 + T1 x) + (T2 + T3 x) y with T = c adj(S), so v = A + B y with
    A, B in F.  Suppose w^2 = v.  Then w conj(w) is totally positive (K is
    CM) with square v conj(v), so it is alpha = (a + b sqrt(d)) / h, the
    totally positive root, with a^2 = h^2 (U + s) / (2 s), b^2 = h^2 (U - s)
    / (2 d s) and b of the sign of V; no such a, b means no root.
    tau = w + conj(w) lies in F, and tau^2 = v + conj(v) + 2 alpha =
    2 (A + alpha) = z.  If z != 0, then tau != 0 and w tau = w^2 + w conj(w)
    = v + alpha, so w = (v + alpha) / tau = tau / 2 + (B / tau) y for one
    of the two roots +-tau of z in F.  If z = 0, then alpha = -A, so
    B^2 y^2 = A^2 - alpha^2 = 0 and v = A; conj(w) = -w, so w = c y with c
    in F and c^2 = A e / (Be + Ce x).  Either way w is fixed
    up to sign by a square root in F (_sqrt_in_f), and there is none when
    that root does not exist or w, mapped back through the rows of S, has
    a coordinate that is not an integer; w w = v is checked last.  Of +-w,
    the one returned is in [0, (q-1)/2] modulo the first degree-one prime
    above q, the least split prime prime to the index, which fixes the unit
    data every certificate carries.
    """
    d, e, be, ce, det, adj = spec.tower
    gu, gv = spec.norm_forms
    c = v.coords
    # 2U, 2V and 2s
    u2, v2, s2 = _value(gu, c), _value(gv, c), 2 * e * det * det
    if u2 * u2 - d * v2 * v2 != s2 * s2:
        raise NotAUnit(f"{v} is not a unit")
    h = 2 if d % 4 == 1 else 1
    squares = ((h * h * (u2 + s2), 2 * s2), (h * h * (u2 - s2), 2 * d * s2))  # a^2, b^2
    a, b = (isqrt(num // den) for num, den in squares)
    if any(num != den * r * r for (num, den), r in zip(squares, (a, b))):
        return None
    if v2 < 0:
        b = -b
    t0, t1, t2, t3 = (sum(map(mul, c, col)) for col in zip(*adj))
    n = h * det
    # n^2 z = 2 n (h (T0 + T1 x) + D (a + b x))
    z0, z1 = 2 * n * (h * t0 + det * a), 2 * n * (h * t1 + det * b)
    if z0 or z1:
        root = _sqrt_in_f(d, z0, z1)
        if root is None:
            return None
        r0, r1, k = root
        # tau = (r0 + r1 x) / kn, and B / tau = (T2 + T3 x) kn (r0 - r1 x) / (D N(r))
        kn, nr = k * n, r0 * r0 - d * r1 * r1
        coeffs = (r0 * det * nr, r1 * det * nr,
                  2 * kn * kn * (t2 * r0 - d * t3 * r1), 2 * kn * kn * (t3 * r0 - t2 * r1))
        den = 2 * kn * det * nr
    else:
        # c^2 = e (T0 + T1 x) (Be - Ce x) / (D N(Be + Ce x))
        nb = be * be - d * ce * ce
        f = e * det * nb
        root = _sqrt_in_f(d, f * (t0 * be - d * t1 * ce), f * (t1 * be - t0 * ce))
        if root is None:
            return None
        r0, r1, k = root
        coeffs, den = (0, 0, r0, r1), k * det * nb
    # w = W S for its tower coordinates W = coeffs / den
    coords = [sum(map(mul, coeffs, col)) for col in zip(*spec.tower_rows)]
    if any(x % den for x in coords):
        return None
    w = NFElement(spec, tuple(x // den for x in coords))
    if (w * w).coords != c:
        return None
    q = next((q for q in split_primes(spec, 20000) if spec.index % q), None)
    if q is None:
        raise CapExceeded(f"no split prime below 20000 fixes the root's sign for {spec.name()}")
    return w if reduce_mod_p2(w, degree_one_primes_above(spec, q)[0]) % q <= q // 2 else -w


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

    g must be the true torsion order of the field (_torsion_order, read
    off the radicands or the conductor), eta must have order exactly g, and
    epsilon must be a unit of infinite order.  The walk of eta, at most
    g - 1 products, starts only once g is the field's own, so a stated g
    cannot make it long.
    """
    spec = u.eta.field
    if u.epsilon.field != spec or u.g != _torsion_order(spec):
        return False
    if norm(u.eta) not in (1, -1) or norm(u.epsilon) not in (1, -1):
        return False
    powers = torsion_units(u.g, u.eta)
    return powers is not None and all(u.epsilon.coords != z.coords for z in powers)
