"""Degree-one unramified prime machinery.

For an unramified prime p of residue degree one, reduction modulo the square
of a prime ideal above p is a ring map onto Z/p^2.  Every supported field is
a tower of two square roots, K = Q(x, y) with x = sqrt(d) real and
y^2 = B + C x (FieldSpec.tower), so at an odd prime that splits completely
each map O -> Z/p^k is fixed by a square root s of d and a square root t of
B + C s modulo p^k (Tonelli-Shanks and a Newton lift), two signs each.  The
integral basis is adj(S) (1, x, y, xy) / D with D coprime to every such p,
so the same two square roots serve whether or not p divides the index of
theta.  `reduction_maps` is the one evaluator: degree-one primes use it at
k = 2 and the unit square-root lifting at higher k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .elements import NFElement
from .errors import NotCoprime, Ramified
from .fields import FieldSpec
from .intmath import ResidueClass, is_prime, legendre, mult_order, sqrt_mod_prime_power

# Not called here: benchmark/test_gate.py checks that tracing patches this
# binding of the (now test-only) residue scan, so the name stays bound.
from .intmath import poly_roots_mod_p  # noqa: F401


@dataclass(frozen=True)
class DegreeOnePrime:
    """A prime ideal of residue degree one above p, with its mod-p^2 data.

    basis_images are the images of the four integral basis elements under the
    reduction map O -> Z/p^2; they determine the map completely and stay
    meaningful even when p divides the generator index.
    """

    field: FieldSpec
    p: int
    root_c: ResidueClass
    lifted_c: ResidueClass
    conjugate_index: int
    basis_images: tuple[int, int, int, int]

    def __repr__(self):
        return f"DegreeOnePrime(p={self.p}, root={self.root_c.value}, conj={self.conjugate_index})"


def _validate_p(spec: FieldSpec, p: int):
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if spec.discriminant % p == 0:
        raise Ramified(f"{p} divides the field discriminant")


def splits_completely(spec: FieldSpec, p: int) -> bool:
    """Cheap arithmetic splitting test for an odd unramified prime."""
    _validate_p(spec, p)
    if spec.kind == "biquadratic":
        return all(legendre(d, p) == 1 for d in spec.sqrt_map)
    f = spec.conductor
    if f == 16:
        return p % 16 in (1, 7)
    return pow(p, (f - 1) // 4, f) == 1


def split_primes(spec: FieldSpec, bound: int):
    """The odd unramified primes up to bound that split completely, ascending."""
    for p in range(3, bound + 1, 2):
        if is_prime(p) and spec.discriminant % p and splits_completely(spec, p):
            yield p


def reduction_maps(spec: FieldSpec, p: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The four ring maps O -> Z/p^k at an odd prime p that splits
    completely, as (theta image, basis images); [] when p does not split.

    A map is fixed by the images s, t of x and y (see FieldSpec.tower):
    s^2 = d and t^2 = B + C s, two signs each.  The basis images are
    adj(S) (1, s, t, st) / D.  The maps are sorted by (theta image mod p,
    basis images), which is the ascending order of the roots of theta's
    minimal polynomial mod p whenever those are distinct.
    """
    if not splits_completely(spec, p):
        return []
    d, b, c, det, adj = spec.tower
    pk = p ** k
    inv_det = pow(det, -1, pk)
    s0 = sqrt_mod_prime_power(d, p, k)
    out = []
    for s in (s0, pk - s0):
        rad = b + c * s
        t0 = sqrt_mod_prime_power(rad.numerator * pow(rad.denominator, -1, pk), p, k)
        for t in (t0, pk - t0):
            vec = (1, s, t, s * t)
            images = tuple(sum(a * v for a, v in zip(row, vec)) * inv_det % pk for row in adj)
            theta = sum(a * im for a, im in zip(spec.theta_coords, images)) % pk
            out.append((theta, images))
    out.sort(key=lambda m: (m[0] % p, m[1]))
    return out


def degree_one_primes_above(spec: FieldSpec, p: int) -> list[DegreeOnePrime]:
    """All primes of residue degree one above p (0 or 4 for these Galois fields).

    Raises Ramified when p divides the field discriminant.
    """
    return [
        DegreeOnePrime(spec, p, ResidueClass(theta % p, p), ResidueClass(theta, p * p), idx, images)
        for idx, (theta, images) in enumerate(reduction_maps(spec, p, 2))
    ]


def reduce_mod_p2(x: NFElement, prime: DegreeOnePrime) -> ResidueClass:
    """Image of x under the reduction map O -> Z/p^2 attached to the prime."""
    if x.field != prime.field:
        raise ValueError("element does not belong to the prime's field")
    p2 = prime.p * prime.p
    val = sum(c * im for c, im in zip(x.coords, prime.basis_images)) % p2
    return ResidueClass(val, p2)


def unit_order_mod_p2(x: NFElement, prime: DegreeOnePrime) -> int:
    """Multiplicative order of x modulo the squared prime ideal.

    Valid because reduction identifies (O/pi^2)* with (Z/p^2)*, a cyclic
    group of order p(p-1).
    """
    u = reduce_mod_p2(x, prime)
    if gcd(u.value, prime.p) != 1:
        raise NotCoprime(f"element reduces to a non-unit mod {prime.p}^2")
    return mult_order(u, prime.p * (prime.p - 1))
