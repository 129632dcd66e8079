"""Degree-one unramified prime machinery.

For an unramified prime p of residue degree one, reduction modulo the square
of a prime ideal above p is a ring map onto Z/p^2.  Every supported field is
a tower of two square roots, K = Q(x, y) with x = sqrt(d) real and
e y^2 = Be + Ce x (FieldSpec.tower), so at an odd prime that splits
completely each map O -> Z/p^2 is fixed by a square root s of d and a square
root t of (Be + Ce s) / e modulo p^2 (Tonelli-Shanks and a Newton lift), two
signs each.  The integral basis is adj(S) (1, x, y, xy) / D with e and D
coprime to every such p, so the same two square roots serve whether or not p
divides the index of theta.  degree_one_primes_above is the one evaluator.
A map a certificate stores carries its own root pair, the images of x and
y, so a stored prime is checked with no square root taken in a biquadratic
field (Ce = 0) and one in a cyclic field.

The primes come from the odd-prime sieve in intmath (odd_primes), which
also answers is_prime and holds the certificate cap MAX_CERT_PRIME; the
splitting test splits_completely lives with FieldSpec in fields.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import mul

from .elements import NFElement
from .errors import NotCoprime, Ramified
from .fields import FieldSpec, splits_completely
from .intmath import Record, factorize, is_prime, mult_order, odd_primes, sqrt_mod_prime_power

# The certificate cap lives with the sieve in intmath; admissible, certs,
# generators and the tests import it from here, as they import
# splits_completely.
from .intmath import MAX_CERT_PRIME  # noqa: F401

# Not called here: benchmark/test_gate.py checks that tracing patches this
# binding of the (now test-only) residue scan, so the name stays bound.
from .intmath import poly_roots_mod_p  # noqa: F401


class DegreeOnePrime(Record):
    """A prime ideal of residue degree one above p, with its mod-p^2 data.

    lifted_c is the image of theta mod p^2 (its residue mod p is the root of
    theta's minimal polynomial).  basis_images are the images of the four
    integral basis elements under the reduction map O -> Z/p^2; they
    determine the map completely and stay meaningful even when p divides the
    generator index.
    """

    __slots__ = ("field", "p", "lifted_c", "conjugate_index", "basis_images")

    def __init__(self, field: FieldSpec, p: int, lifted_c: int, conjugate_index: int,
                 basis_images: tuple[int, int, int, int]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lifted_c", lifted_c)
        object.__setattr__(self, "conjugate_index", conjugate_index)
        object.__setattr__(self, "basis_images", basis_images)

    def __repr__(self):
        return f"DegreeOnePrime(p={self.p}, root={self.lifted_c % self.p}, conj={self.conjugate_index})"


def split_primes(spec: FieldSpec, bound: int):
    """The odd unramified primes up to bound that split completely, ascending,
    read off the shared sieve; a bound above MAX_CERT_PRIME is CapExceeded."""
    odd = compress(range(1, bound + 1, 2), odd_primes(bound))
    return (p for p in odd if spec.discriminant % p and splits_completely(spec, p))


def degree_one_primes_above(spec: FieldSpec, p: int,
                            root: tuple[int, int] | None = None) -> list[DegreeOnePrime]:
    """All primes of residue degree one above an odd prime p: four when p
    splits completely in these Galois fields, else none.

    Each prime is a ring map O -> Z/p^2, fixed by the images s, t of x and
    y (see FieldSpec.tower): s^2 = d and e t^2 = Be + Ce s, two signs each.
    root, when given, is one such pair (s, t), such as the images of x and
    y under a stored map, and raises ValueError unless both congruences
    hold mod p^2; without it, s and t are found by Tonelli-Shanks.  For -s
    the root of (Be - Ce s) / e is taken afresh, unless Ce = 0 (every
    biquadratic field) and t serves again.  Every root pair gives the same
    four maps, so the list does not depend on root.

    The basis images are adj(S) (1, s, t, st) / D = a + t b, with
    a = adj(S) (1, s, 0, 0) / D and b = adj(S) (0, 0, 1, s) / D formed once
    for both signs of t.  The primes are numbered in the order of (theta
    image mod p, basis images), which is the ascending order of the roots
    of theta's minimal polynomial mod p whenever those are distinct.
    Raises ValueError unless p is an odd prime and Ramified when it divides
    the field discriminant.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if spec.discriminant % p == 0:
        raise Ramified(f"{p} divides the field discriminant")
    if not splits_completely(spec, p):
        return []
    d, e, be, ce, det, adj = spec.tower
    p2 = p * p
    inv_det, inv_e = pow(det, -1, p2), pow(e, -1, p2)
    if root is None:
        s0 = sqrt_mod_prime_power(d, p, 2)
        t0 = sqrt_mod_prime_power((be + ce * s0) * inv_e, p, 2)
    else:
        s0, t0 = root
        if (s0 * s0 - d) % p2 or (e * t0 * t0 - be - ce * s0) % p2:
            raise ValueError(f"({s0}, {t0}) is not a root pair of the tower mod {p}^2")
    t1 = t0 if ce == 0 else sqrt_mod_prime_power((be - ce * s0) * inv_e, p, 2)
    out = []
    c0, c1, c2, c3 = spec.theta_coords
    for s, ts in ((s0, (t0, -t0)), (-s0, (t1, -t1))):
        a0, a1, a2, a3 = [(r0 + r1 * s) * inv_det % p2 for r0, r1, _, _ in adj]
        b0, b1, b2, b3 = [(r2 + r3 * s) * inv_det % p2 for _, _, r2, r3 in adj]
        for t in ts:
            i0, i1, i2, i3 = images = (
                (a0 + t * b0) % p2, (a1 + t * b1) % p2, (a2 + t * b2) % p2, (a3 + t * b3) % p2)
            out.append(((c0 * i0 + c1 * i1 + c2 * i2 + c3 * i3) % p2, images))
    out.sort(key=lambda m: (m[0] % p, m[1]))
    return [DegreeOnePrime(spec, p, theta, idx, images) for idx, (theta, images) in enumerate(out)]


def reduce_mod_p2(x: NFElement, prime: DegreeOnePrime) -> int:
    """Image of x under the reduction map O -> Z/p^2 attached to the prime."""
    if x.field != prime.field:
        raise ValueError("element does not belong to the prime's field")
    return sum(map(mul, x.coords, prime.basis_images)) % (prime.p * prime.p)


def unit_order_mod_p2(x: NFElement, prime: DegreeOnePrime) -> int:
    """Multiplicative order of x modulo the squared prime ideal.

    Valid because reduction identifies (O/pi^2)* with (Z/p^2)*, a cyclic
    group of order p(p-1), that is C_(p-1) x C_p.  The order of u^p is the
    order of the C_(p-1) part, and the C_p part is trivial exactly when
    u^(p-1) = 1, so only p - 1 is factored.
    """
    u = reduce_mod_p2(x, prime)
    p = prime.p
    p2 = p * p
    if gcd(u, p) != 1:
        raise NotCoprime(f"element reduces to a non-unit mod {p}^2")
    order = mult_order(pow(u, p, p2), p2, p - 1)
    return order if pow(u, p - 1, p2) == 1 else order * p


def has_order_mod_p2(u: int, p: int, n: int) -> bool:
    """Whether the residue u has order exactly n modulo p^2, for n dividing
    p(p-1): u^n = 1 and u^(n/l) != 1 for each prime l | n (Cohen, A Course
    in Computational Algebraic Number Theory, 1.4.3).  The primes dividing
    n are p and those of n with p removed, a divisor of p - 1."""
    if p * (p - 1) % n:
        raise ValueError(f"{n} does not divide {p}({p} - 1)")
    p2 = p * p
    m, ells = (n // p, [p]) if n % p == 0 else (n, [])
    ells += factorize(m)
    return pow(u, n, p2) == 1 and all(pow(u, n // l, p2) != 1 for l in ells)
