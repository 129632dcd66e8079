"""Naive brute-force oracles, used by the tests only (the --oracle CLI path
runs admissible.brute_force_surjectivity, not this module).

Deliberately primitive implementations with their own local polynomial
arithmetic: no Hensel lifting, no order-factoring shortcuts, no shared code
with the production modules, so a production bug cannot hide here.
"""

from __future__ import annotations

from math import isqrt

from .errors import OracleMismatch
from .fields import FieldSpec


def _poly_divmod_mod_p(num, den, p):
    num = [c % p for c in num]
    den = [c % p for c in den]
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    inv = pow(den[-1], -1, p)
    quot = [0] * max(1, len(num) - len(den) + 1)
    rem = num[:]
    for shift in range(len(num) - len(den), -1, -1):
        coef = rem[shift + len(den) - 1] * inv % p
        if coef:
            quot[shift] = coef
            for i, dc in enumerate(den):
                rem[shift + i] = (rem[shift + i] - coef * dc) % p
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _poly_mul_mod(a, b, mod_poly, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    _, rem = _poly_divmod_mod_p(out, mod_poly, p)
    return rem


def oracle_splitting(spec: FieldSpec, p: int) -> list[int]:
    """Degree multiset of the defining polynomial mod p, by root stripping.

    Linear factors are peeled off by exhaustive evaluation; a rootless
    quartic remainder is classified as a quadratic square, a product of two
    quadratics (all its roots live in the degree-two extension), or
    irreducible.
    """
    if p < 3 or p >= 1000:
        raise ValueError("oracle restricted to odd p below 1000")
    f = [c % p for c in spec.theta_minpoly.coeffs]
    degrees = []
    changed = True
    while changed and len(f) > 1:
        changed = False
        for c in range(p):
            acc = 0
            for coef in reversed(f):
                acc = (acc * c + coef) % p
            if acc == 0:
                f, rem = _poly_divmod_mod_p(f, [-c % p, 1], p)
                if rem != [0]:
                    raise OracleMismatch(f"x - {c} does not divide f mod {p}")
                degrees.append(1)
                changed = True
                break
    deg = len(f) - 1
    if deg == 2:
        degrees.append(2)
    elif deg == 4:
        # perfect square of a quadratic?
        two_inv = pow(2, -1, p)
        u = f[3] * two_inv % p
        v = (f[2] - u * u) * two_inv % p
        if f[1] == 2 * u * v % p and f[0] == v * v % p:
            degrees.extend([2, 2])
        else:
            # f divides x^(p^2) - x exactly when it splits into quadratics
            e = p * p
            result = [1]
            base = [0, 1]
            while e:
                if e & 1:
                    result = _poly_mul_mod(result, base, f, p)
                e >>= 1
                if e:
                    base = _poly_mul_mod(base, base, f, p)
            diff = result + [0] * (2 - len(result))
            diff[1] = (diff[1] - 1) % p
            degrees.extend([2, 2] if all(c % p == 0 for c in diff) else [4])
    elif deg != 0:
        degrees.append(deg)
    return sorted(degrees)


def oracle_order(u: int, modulus: int) -> int:
    """Multiplicative order by sequential multiplication until the identity."""
    u %= modulus
    acc = u
    t = 1
    while acc != 1:
        acc = acc * u % modulus
        t += 1
        if t > modulus:
            raise ValueError("element is not invertible")
    return t


def oracle_unit_minimality(d: int, max_y: int = 10 ** 7) -> tuple[int, int]:
    """Smallest nontrivial unit of Q(sqrt(d)) by an ascending coefficient sweep.

    Returns coordinates (x, y) over the integral basis {1, w}.  For
    d = 1 mod 4 the norm form of x + y*w is x^2 + xy + y^2(1-d)/4 and both
    integral and half-integral units are covered by the same sweep.
    """
    if d <= 1 or d > 200:
        raise ValueError("oracle restricted to 1 < d <= 200")
    if d % 4 == 1:
        for y in range(1, max_y + 1):
            for sign in (-4, 4):
                s = d * y * y + sign
                if s < 0:
                    continue
                root = isqrt(s)
                if root * root == s and (root + y) % 2 == 0:
                    return ((root - y) // 2, y)
    else:
        for y in range(1, max_y + 1):
            for sign in (-1, 1):
                s = d * y * y + sign
                if s < 0:
                    continue
                root = isqrt(s)
                if root * root == s:
                    return (root, y)
    raise ValueError(f"no unit found below the sweep cap for d={d}")
