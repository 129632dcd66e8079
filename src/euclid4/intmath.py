"""Integer, residue and polynomial primitives.

Everything is exact: arbitrary-precision integers, `fractions.Fraction`, and
deterministic algorithms only.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import CapExceeded, NonSimpleRoot, NotCoprime
from .linalg import det_int

# Witness set proven sufficient for deterministic Miller-Rabin below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64.

    The Miller-Rabin bases are proven sufficient only below 2**64 (above it
    composites such as 399165290221 * 798330580441 pass all twelve), so
    larger n raise CapExceeded instead of receiving an unproven answer.
    """
    if n < 2:
        return False
    if n >= 2 ** 64:
        raise CapExceeded(f"primality of {n} is not decided above 2**64")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

    Walks the convergents h_k/b_k and returns the first (G, B, value) with
    G = q0*h - p0*b and G^2 - d B^2 = value in targets.  One period always
    contains such a step for the unit equations used below.
    """
    root = isqrt(d)
    p, q = p0, q0
    a = (p + root) // q
    h_prev, h = 1, a
    b_prev, b = 0, 1
    for _ in range(10 ** 7):
        g = q0 * h - p0 * b
        val = g * g - d * b * b
        if val in targets:
            return g, b, val
        p = a * q - p
        q = (d - p * p) // q
        a = (p + root) // q
        h, h_prev = a * h + h_prev, h
        b, b_prev = a * b + b_prev, b
    raise AssertionError("continued fraction failed to close")


@dataclass(frozen=True)
class ResidueClass:
    """A residue `value` modulo `modulus` (here always p or p^2)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if not 0 <= self.value < self.modulus:
            object.__setattr__(self, "value", self.value % self.modulus)

    def __int__(self):
        return self.value


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients constant-term first, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return 0
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly((0,))
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        return " + ".join(reversed(terms)).replace("+ -", "- ") if terms else "0"


def sqrt_mod_prime_power(a: int, p: int, k: int) -> int | None:
    """A square root of a modulo p^k for an odd prime p, or None when a is
    not a square mod p; a must be a unit mod p.

    Tonelli-Shanks mod p (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.1), with the non-residue found by scanning up from 2, then a
    Newton lift.  The root returned is the one whose residue mod p lies in
    [0, (p-1)/2]; it is the unique root mod p^k above that residue.
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
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c, t, x = pow(z, q, p), pow(r, q, p), pow(r, (q + 1) // 2, p)
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


def poly_roots_mod_p(f: IntPoly, p: int) -> list[ResidueClass]:
    """All roots of f modulo an odd prime p, ascending.

    Exhaustive evaluation in O(p); production code finds its roots with
    sqrt_mod_prime_power, and this stays as the tests' reference.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if all(c % p == 0 for c in f.coeffs):
        raise ValueError("f vanishes identically mod p")
    return [ResidueClass(c, p) for c in range(p) if f.eval_mod(c, p) == 0]


def hensel_lift(f: IntPoly, c: ResidueClass) -> ResidueClass:
    """Refine a simple root of f mod p to the unique root mod p^2 above it."""
    p = c.modulus
    if f.eval_mod(c.value, p) != 0:
        raise ValueError("c is not a root of f mod p")
    d = f.derivative().eval_mod(c.value, p)
    if d == 0:
        raise NonSimpleRoot(f"f'({c.value}) = 0 mod {p}")
    p2 = p * p
    lifted = (c.value - f.eval_mod(c.value, p2) * pow(d, -1, p2)) % p2
    assert f.eval_mod(lifted, p2) == 0 and lifted % p == c.value
    return ResidueClass(lifted, p2)


def mult_order(u: ResidueClass, group_order: int) -> int:
    """Multiplicative order of u, dividing group_order.

    group_order must be a multiple of the true order (for modulus p^2 pass
    p(p-1)).  Computed by dividing out prime factors of group_order.
    """
    m = u.modulus
    if gcd(u.value, m) != 1:
        raise NotCoprime(f"{u.value} shares a factor with {m}")
    if pow(u.value, group_order, m) != 1:
        raise ValueError("group_order is not an exponent multiple for u")
    t = group_order
    for q in factorize(group_order):
        while t % q == 0 and pow(u.value, t // q, m) == 1:
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


def poly_resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    n, m = f.degree, g.degree
    if f.is_zero() or g.is_zero():
        return 0
    size = n + m
    mat = [[0] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        for j, c in enumerate(fc):
            mat[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(gc):
            mat[m + i][i + j] = c
    return det_int(mat)


def poly_discriminant(f: IntPoly) -> int:
    """Discriminant of f (monic leading coefficient assumed for our use)."""
    n = f.degree
    res = poly_resultant(f, f.derivative())
    lead = f.coeffs[-1]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val = sign * res
    assert val % lead == 0
    return val // lead


def count_real_roots(f: IntPoly) -> int:
    """Number of distinct real roots of f, by a Sturm chain over Q."""

    def fdiv_rem(a, b):
        a = list(a)
        db = len(b) - 1
        while len(a) - 1 >= db and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            q = a[-1] / b[-1]
            shift = len(a) - 1 - db
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        return a if a else [Fraction(0)]

    def sign_changes_at_inf(chain, positive):
        signs = []
        for poly in chain:
            lead = poly[-1]
            deg = len(poly) - 1
            s = lead if positive or deg % 2 == 0 else -lead
            if s != 0:
                signs.append(1 if s > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    p0 = [Fraction(c) for c in f.coeffs]
    if len(p0) == 1:
        return 0
    p1 = [Fraction(c) for c in f.derivative().coeffs]
    chain = [p0, p1]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        rem = fdiv_rem(chain[-2], chain[-1])
        if len(rem) == 1 and rem[0] == 0:
            break
        chain.append([-c for c in rem])
    return sign_changes_at_inf(chain, False) - sign_changes_at_inf(chain, True)
