"""Integer, residue and polynomial primitives.

Everything is exact: arbitrary-precision integers and deterministic
algorithms only.  No floating point and no rational arithmetic anywhere.
Primality is one sieve of the odd numbers up to MAX_CERT_PRIME, grown on
demand and shared by is_prime and residues.split_primes.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt
from operator import index

from .errors import CapExceeded, NotCoprime

# Most bits a continued-fraction convergent denominator may reach.  The
# denominators grow at least like the Fibonacci numbers, so this also bounds
# the steps of the walk: d = 10**10 + 19 is refused after 9,586 steps, in
# 0.03 s on a 2-core host.  The largest registry fundamental unit has about
# 300 bits.
MAX_CF_BITS = 1 << 14

# Largest prime a certificate may name, in search and verification alike;
# orders mod p^2 trial-divide only p - 1, about sqrt(p) steps below it.
MAX_CERT_PRIME = 10 ** 6

# _odd_sieve[i] is 1 exactly when 2i + 1 is prime.  One sieve serves every
# primality question; it doubles on demand, to at most MAX_CERT_PRIME / 2
# bytes.
_odd_sieve = bytearray()


def odd_primes(bound: int) -> bytearray:
    """The shared sieve, grown to cover the odd numbers up to bound: entry i
    is 1 exactly when 2i + 1 is prime.  A bound above MAX_CERT_PRIME is
    CapExceeded, raised before the sieve grows."""
    global _odd_sieve
    if bound > MAX_CERT_PRIME:
        raise CapExceeded(f"bound {bound} exceeds the certificate cap {MAX_CERT_PRIME}")
    size = bound // 2 + 1
    if len(_odd_sieve) < size:
        size = min(max(size, 2 * len(_odd_sieve)), MAX_CERT_PRIME // 2 + 1)
        flags = bytearray([1]) * size
        flags[0] = 0
        for i in range(1, (isqrt(2 * size - 1) + 1) // 2):
            if flags[i]:
                start = 2 * i * (i + 1)  # (2i + 1)^2 = 2 start + 1
                flags[start::2 * i + 1] = bytes(len(range(start, size, 2 * i + 1)))
        _odd_sieve = flags
    return _odd_sieve


def is_prime(n: int) -> bool:
    """Primality of n up to MAX_CERT_PRIME, read off the shared sieve.

    Every prime the program names is at most the cap, so larger n, even or
    odd, raise CapExceeded instead of receiving an answer.
    """
    if n < 2:
        return False
    sieve = odd_primes(n)
    return sieve[n // 2] == 1 if n % 2 else n == 2


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, primes ascending.

    Intended for the small group orders that arise here (at most a few times
    10**7); not a general-purpose factoring routine.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            while m % q == 0:
                out[q] = out.get(q, 0) + 1
                m //= q
        d += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return dict(sorted(out.items()))


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = h^2 * s with s squarefree; returns (s, h).  Sign stays on s."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    s, h = 1, 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            s *= p
        h *= p ** (e // 2)
    return sign * s, h


def is_squarefree(n: int) -> bool:
    return squarefree_part(n)[0] == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _cf_unit_search(d: int, p0: int, q0: int, targets: tuple[int, ...]):
    """Continued fraction of (p0 + sqrt(d))/q0 with exact integer state.

    q0 must divide d - p0^2, and targets must hold -v with every v.  Walks
    the convergents h_k/b_k and returns the first (G, B, value) with
    G = q0*h - p0*b and G^2 - d B^2 = value in targets, or None once the
    first reduced state (p, q) recurs.  The complete quotient
    (p + sqrt(d))/q is reduced when it exceeds 1 and its conjugate lies in
    (-1, 0), which for root = isqrt(d) reads p <= root < p + q and
    q - p <= root; from there the expansion is purely periodic, so the walk
    ends one period after it, having met every state of the period.  A
    later lap would meet the same q with the same or the opposite value
    sign, which targets closed under negation do not tell apart.  The unit
    equations used below always have a solution within the first period.
    A denominator b above MAX_CF_BITS bits is CapExceeded.

    The value needs no product of convergents: G^2 - d b^2 for h_k/b_k is
    (-1)^(k+1) q0 q_(k+1), q_(k+1) the state's q one step on (the norm of
    h_k - b_k (p0 + sqrt(d))/q0 is (-1)^(k+1) q_(k+1)/q0), so a step adds
    and multiplies the convergents only by the small partial quotient.
    """
    root = isqrt(d)
    p, q = p0, q0
    a = (p + root) // q
    h_prev, h = 1, a
    b_prev, b = 0, 1
    reduced = None
    for step in count(1):
        if b.bit_length() > MAX_CF_BITS:
            raise CapExceeded(f"continued fraction of sqrt({d}) passes {MAX_CF_BITS} bits")
        p = a * q - p
        q = (d - p * p) // q
        val = -q0 * q if step % 2 else q0 * q
        if val in targets:
            return q0 * h - p0 * b, b, val
        if (p, q) == reduced:
            return None
        if reduced is None and p <= root < p + q and q - p <= root:
            reduced = (p, q)
        a = (p + root + (q < 0)) // q  # floor((p + sqrt(d))/q), either sign of q
        h, h_prev = a * h + h_prev, h
        b, b_prev = a * b + b_prev, b


class Record:
    """Base of the package's records, plain classes so that no import pays
    for generated code.  The fields are the __slots__, set once in __init__
    (_fill, or straight-line in the hot NFElement, DegreeOnePrime, UnitData
    and AdmissibleCertificate); equality is same-class and field by field,
    the hash is that of the fields, and assigning or deleting raises
    AttributeError.  A copy pickles through the constructor, as unpickling
    would call __setattr__."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class IntPoly(Record):
    """Integer polynomial, coefficients constant-term first, trimmed.  A
    coefficient that is not an integer (operator.index) raises TypeError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        c = tuple(map(index, coeffs))
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def eval_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc


def sqrt_mod_prime_power(a: int, p: int, k: int) -> int | None:
    """A square root of a modulo p^k for an odd prime p, or None when a is
    not a square mod p; a must be a unit mod p.

    Tonelli-Shanks mod p (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.1), with the non-residue found by scanning up from 2 only
    when it is used, then a Newton lift.  The root returned is the one whose
    residue mod p lies in [0, (p-1)/2]; it is the unique root mod p^k above
    that residue.
    """
    r = a % p
    if r == 0:
        raise ValueError(f"{a} is not a unit mod {p}")
    if legendre(r, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    t, x = pow(r, q, p), pow(r, (q + 1) // 2, p)
    # t = 1 at once when e = 1 (p = 3 mod 4), and then no non-residue is used
    if t != 1:
        z = 2
        while legendre(z, p) != -1:
            z += 1
        c = pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        t, x = t * c % p, x * b % p
    x = min(x, p - x)
    pk, cur = p ** k, p
    while cur < pk:
        cur = min(cur * cur, pk)
        x = (x - (x * x - a) * pow(2 * x, -1, cur)) % cur
    return x


def poly_roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """All roots of f modulo an odd prime p, ascending.

    Exhaustive evaluation in O(p); production code finds its roots with
    sqrt_mod_prime_power, and this stays as the tests' reference.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if all(c % p == 0 for c in f.coeffs):
        raise ValueError("f vanishes identically mod p")
    return [c for c in range(p) if f.eval_mod(c, p) == 0]


def mult_order(u: int, m: int, group_order: int) -> int:
    """Multiplicative order of u modulo m, dividing group_order.

    group_order must be a multiple of the true order (for modulus p^2 pass
    p(p-1)).  Computed by dividing out prime factors of group_order.
    """
    u %= m
    if gcd(u, m) != 1:
        raise NotCoprime(f"{u} shares a factor with {m}")
    if pow(u, group_order, m) != 1:
        raise ValueError("group_order is not an exponent multiple for u")
    t = group_order
    for q in factorize(group_order):
        while t % q == 0 and pow(u, t // q, m) == 1:
            t //= q
    return t


def continued_fraction_fundamental_unit(d: int) -> tuple[int, int, int]:
    """Fundamental unit of the ring of integers of Q(sqrt(d)), d squarefree > 1.

    Returns (x, y, norm_sign) with the unit x + y*w over the integral basis
    {1, w}, w = sqrt(d) or (1+sqrt(d))/2 according to d mod 4, y > 0 minimal.

    For d = 1 mod 4 the continued fraction of (1+sqrt(d))/2 delivers the
    fundamental solution of X^2 - d Y^2 = +-4 (X = Y mod 2 automatically);
    otherwise the classical expansion of sqrt(d) solves X^2 - d Y^2 = +-1.
    """
    if d <= 1 or not is_squarefree(d):
        raise ValueError("d must be a squarefree integer > 1")
    if d % 4 == 1:
        g, b, val = _cf_unit_search(d, 1, 2, (4, -4))
        # unit (g + b sqrt d)/2 = (g - b)/2 + b*w
        return (g - b) // 2, b, val // 4
    g, b, val = _cf_unit_search(d, 0, 1, (1, -1))
    return g, b, val
