"""The surjectivity oracle: whether the unit images generate all of
(Z/p1^a1)* x (Z/p2^a2)*, checked from the definition.

It counts the subgroup the images of eta and eps generate from one walk of
each image mod p (UnitWalk), with no order computation or factoring, and
compares it with the group order.  UnitWalk also gives the witness's
discrete logarithms (generators.construct_witness).
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import CapExceeded, SamePrime
from .fields import FieldSpec
from .residues import DegreeOnePrime, reduce_mod_p2
from .units import UnitData


class UnitWalk:
    """The cyclic group <x> in (Z/p^a)*, for a in {0, 1, 2}, from one walk
    of x mod p.

    The walk steps x^i mod p^a for i below the order o of x mod p, and keeps
    each residue mod p with its exponent i: at most p - 1 entries.  The
    kernel of (Z/p^2)* -> (Z/p)* is 1 + pZ/p^2, and x^o = 1 + pt mod p^2.
    As (1 + pt)^k = 1 + pkt mod p^2, x has order o p mod p^2 when p does not
    divide t, else o.  x not invertible mod p^a, whose walk would never
    return to 1, is a ValueError.

    One walk serves both the oracle's count (_subgroup_order) and the
    witness's discrete logarithms (construct_witness): log returns the
    least exponent, in O(p) time and memory.
    """

    def __init__(self, x: int, p: int, a: int):
        m = p ** a
        if gcd(x, m) != 1:
            raise ValueError(f"{x} is not invertible mod {m}")
        q = p if a else 1
        self.x, self.p, self.a, self.m, self.q = x % m, p, a, m, q
        self.steps: dict[int, int] = {}
        y = 1 % m
        while y % q not in self.steps:
            self.steps[y % q] = len(self.steps)
            y = y * x % m
        self.o = len(self.steps)
        self.t = (y - 1) // p if a == 2 else 0
        self.order = self.o * p if self.t else self.o

    def log(self, s: int) -> int | None:
        """The exponent k below the order with x^k = s mod p^a, or None when
        s is not in <x>: s = x^i mod p for a stored i, and s x^-i = 1 + pw
        mod p^2 with w = kt mod p solvable, giving i + o k."""
        i = self.steps.get(s % self.q)
        if i is None:
            return None
        w = (s * pow(self.x, -i, self.m) % self.m - 1) // self.p if self.a == 2 else 0
        if self.t:
            return i + self.o * (w * pow(self.t, -1, self.p) % self.p)
        return i if w == 0 else None


def _subgroup_order(eta: tuple[int, int], eps: tuple[int, int],
                    p1: int, a1: int, p2: int, a2: int) -> int:
    """The order of the subgroup of (Z/p1^a1)* x (Z/p2^a2)* generated by
    the residue pairs eta and eps, for coprime moduli.

    Let A and B be the walks of eps mod p1^a1 and mod p2^a2 (UnitWalk), of
    orders o1 and o2, and g = gcd(o1, o2).  By the Chinese remainder theorem
    on exponents, k -> (k mod o1, k mod o2) maps the k < lcm(o1, o2) one to
    one onto the exponent pairs (i, j) with i = j mod g.  So <eps> has
    lcm(o1, o2) elements, and (u1, u2) lies in it iff u1 = eps1^i and
    u2 = eps2^j with i = j mod g.  The group is abelian, so <eta, eps> is
    the union of the cosets eta^j <eps>; for r the least j >= 1 with eta^j
    in <eps> (eta is invertible, so some eta^j is 1), the cosets with j < r
    are distinct and cover it, and its order is r lcm(o1, o2).  The memory
    is the two walks' dicts, of at most p1 - 1 and p2 - 1 entries.
    """
    A, B = UnitWalk(eps[0], p1, a1), UnitWalk(eps[1], p2, a2)
    m1, m2, g = A.m, B.m, gcd(A.order, B.order)
    r, (s1, s2) = 1, eta
    while True:
        i, j = A.log(s1), B.log(s2)
        if i is not None and j is not None and (i - j) % g == 0:
            return r * lcm(A.order, B.order)
        r, s1, s2 = r + 1, s1 * eta[0] % m1, s2 * eta[1] % m2


def brute_force_surjectivity(spec: FieldSpec, units: UnitData,
                             P1: DegreeOnePrime, P2: DegreeOnePrime,
                             a1: int, a2: int, cap: int = 10 ** 7) -> bool:
    """Whether the unit images generate all of (Z/p1^a1)* x (Z/p2^a2)*:
    the order of <eta, eps> there, counted from one walk of each image of
    eps mod p (_subgroup_order), against the group order.

    This is the definition-level oracle: it shares nothing with the order
    computations of admissible (no factoring, mult_order or
    has_order_mod_p2), and uses only pow and a dict.  Exponents up to 2 are
    supported (squares suffice for admissibility), and the moduli
    m1 = p1^a1 and m2 = p2^a2 must be coprime.  The unit images must be invertible.  The oracle's
    memory is two dicts of at most p1 - 1 and p2 - 1 entries; either of
    phi(m1) and phi(m2) above cap is still CapExceeded, and the group order
    phi(m1) phi(m2) itself is never walked.
    """
    if not (0 <= a1 <= 2 and 0 <= a2 <= 2):
        raise ValueError("exponents must be 0, 1 or 2")
    if P1.p == P2.p and a1 and a2:
        raise SamePrime(f"p1 = p2 = {P1.p}: the moduli are not coprime")
    m1 = P1.p ** a1
    m2 = P2.p ** a2

    def phi(p, a):
        return 1 if a == 0 else p ** (a - 1) * (p - 1)

    orders = phi(P1.p, a1), phi(P2.p, a2)
    if max(orders) > cap:
        raise CapExceeded(f"(Z/{m1})* x (Z/{m2})* has a factor of order {max(orders)} "
                          f"above cap {cap}")

    eta, eps = (
        (reduce_mod_p2(u, P1) % m1, reduce_mod_p2(u, P2) % m2)
        for u in (units.eta, units.epsilon)
    )
    if any(gcd(x, m) != 1 for pair in (eta, eps) for x, m in zip(pair, (m1, m2))):
        raise ValueError(f"a unit image is not invertible mod {m1 * m2}")
    return _subgroup_order(eta, eps, P1.p, a1, P2.p, a2) == orders[0] * orders[1]
