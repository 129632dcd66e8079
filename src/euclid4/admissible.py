"""Admissible prime pairs: the five-condition checker, the deterministic
search, the brute-force surjectivity oracle, and the constructive witness.

A pair of degree-one primes P1 (above p1) and P2 (above p2) is certified by
five exact facts about the unit images modulo the squared primes:

  (1) ord(eps) mod P1^2  = p1(p1-1)/g
  (2) gcd(p1(p1-1)/g, p2(p2-1)) = 1
  (3) gcd(p1(p1-1)/g, g) = 1
  (4) ord(eta) mod P1^2  = g
  (5) ord(eps) mod P2^2  = p2(p2-1)

Together these force the unit group to surject onto the full group of
coprime residues modulo P1^2 P2^2, which is the content a certificate
records; the enumeration oracle checks the same surjectivity directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from math import gcd, isqrt, lcm

from .elements import NFElement, norm
from .errors import (
    BoundExceeded,
    CapExceeded,
    ConditionFailed,
    MissingAssumption,
    NotGenerator,
    SamePrime,
    SearchExhausted,
)
from .fields import FieldSpec
from .residues import (
    DegreeOnePrime,
    degree_one_primes_above,
    reduce_mod_p2,
    split_primes,
    unit_order_mod_p2,
)
from .units import Provenance, UnitData


class Conclusion(enum.Enum):
    ADMISSIBLE_PAIR = "AdmissiblePair"
    EUCLIDEAN = "Euclidean"


@dataclass(frozen=True)
class AdmissibleCertificate:
    spec: FieldSpec
    units: UnitData
    P1: DegreeOnePrime
    P2: DegreeOnePrime
    ord_eps_P1: int
    ord_eta_P1: int
    ord_eps_P2: int
    conclusion: Conclusion
    unit_rank: int | None = None
    prime_count: int | None = None

    @property
    def pair(self) -> tuple[int, int]:
        return (self.P1.p, self.P2.p)


@dataclass(frozen=True)
class WitnessResult:
    alpha: tuple[int, int]
    beta: tuple[int, int]
    k: int
    e: int
    f_exp: int
    z: NFElement


def check_conditions(spec: FieldSpec, units: UnitData, P1: DegreeOnePrime,
                     P2: DegreeOnePrime) -> AdmissibleCertificate:
    """Evaluate the five conditions and return the certificate; the first
    failing condition raises ConditionFailed."""
    if P1.p == P2.p:
        raise SamePrime(f"p1 = p2 = {P1.p}")
    assert P1.field == spec and P2.field == spec
    assert units.eta.field == spec and units.epsilon.field == spec

    g = units.g
    p1, p2 = P1.p, P2.p

    def require(condition, computed, required):
        if computed != required:
            raise ConditionFailed(condition, f"computed {computed}, required {required}")

    if (p1 * (p1 - 1)) % g != 0:
        raise ConditionFailed(1, f"g = {g} does not divide p1(p1-1)")
    n1 = p1 * (p1 - 1) // g
    ord_eps_p1 = unit_order_mod_p2(units.epsilon, P1)
    require(1, ord_eps_p1, n1)
    m2 = p2 * (p2 - 1)
    require(2, gcd(n1, m2), 1)
    require(3, gcd(n1, g), 1)
    ord_eta_p1 = unit_order_mod_p2(units.eta, P1)
    require(4, ord_eta_p1, g)
    ord_eps_p2 = unit_order_mod_p2(units.epsilon, P2)
    require(5, ord_eps_p2, m2)

    return AdmissibleCertificate(
        spec=spec,
        units=units,
        P1=P1,
        P2=P2,
        ord_eps_P1=ord_eps_p1,
        ord_eta_P1=ord_eta_p1,
        ord_eps_P2=ord_eps_p2,
        conclusion=Conclusion.ADMISSIBLE_PAIR,
    )


class PairAttempts:
    """Prime pairs tried against the torsion multiples eta^t * eps of one
    field's unit, with the primes above each p and their unit orders cached.

    attempt(p1, p2) tests the gcd conditions (2) and (3), which depend on p1
    and p2 alone, then returns the certificate for the first t for which a
    conjugate above p1 passes (1) and (4) and a conjugate above p2 passes
    (5), taking the first such conjugate in index order on each side; None
    when no t does.  stats counts the rejections by reason.
    """

    def __init__(self, spec: FieldSpec, units: UnitData):
        self.spec = spec
        self.units = units
        self.variants = [units]
        for _ in range(1, units.g):
            eps_t = units.eta * self.variants[-1].epsilon
            self.variants.append(UnitData(units.g, units.eta, eps_t, Provenance.SUPPLIED))
        self.stats = {
            "no_condition5": 0,
            "g_nondivisible": 0,
            "gcd_failures": 0,
            "cond1_failures": 0,
            "cond4_failures": 0,
            "pairs_checked": 0,
        }
        self._primes: dict[int, list[DegreeOnePrime]] = {}
        self._orders: dict = {}

    def _orders_above(self, p, t):
        """(prime, ord(eps_t), ord(eta)) mod the square of each prime above p."""
        key = (p, t)
        if key not in self._orders:
            if p not in self._primes:
                self._primes[p] = degree_one_primes_above(self.spec, p)
            var = self.variants[t]
            self._orders[key] = [
                (prime, unit_order_mod_p2(var.epsilon, prime), unit_order_mod_p2(var.eta, prime))
                for prime in self._primes[p]
            ]
        return self._orders[key]

    def _cond1_conjugate(self, p1, t):
        g = self.units.g
        n1 = p1 * (p1 - 1) // g
        for prime, oe, oh in self._orders_above(p1, t):
            if oe != n1:
                self.stats["cond1_failures"] += 1
            elif oh != g:
                self.stats["cond4_failures"] += 1
            else:
                return prime
        return None

    def _cond5_conjugate(self, p2, t):
        for prime, oe, _ in self._orders_above(p2, t):
            if oe == p2 * (p2 - 1):
                return prime
        return None

    def attempt(self, p1: int, p2: int) -> AdmissibleCertificate | None:
        g = self.units.g
        if (p1 * (p1 - 1)) % g != 0:
            self.stats["g_nondivisible"] += 1
            return None
        n1 = p1 * (p1 - 1) // g
        if gcd(n1, g) != 1 or gcd(n1, p2 * (p2 - 1)) != 1:
            self.stats["gcd_failures"] += 1
            return None
        for t in range(g):
            prime1 = self._cond1_conjugate(p1, t)
            if prime1 is None:
                continue
            prime2 = self._cond5_conjugate(p2, t)
            if prime2 is None:
                self.stats["no_condition5"] += 1
                continue
            self.stats["pairs_checked"] += 1
            return check_conditions(self.spec, self.variants[t], prime1, prime2)
        return None


# Largest prime a certificate may name, in search and verification alike;
# orders mod p^2 trial-divide only p - 1, about sqrt(p) steps below it.
MAX_CERT_PRIME = 10 ** 6


def search_pair(spec: FieldSpec, units: UnitData, prime_bound: int) -> AdmissibleCertificate:
    """Deterministic sweep for the first admissible pair below the bound.

    Fixes p2 (the condition-(5) prime) first, ascending, then sweeps p1
    ascending; each pair is tried by PairAttempts over the torsion multiples
    eta^t * eps of the unit and the conjugates in index order, so repeated
    runs return byte-identical certificates.  The torsion sweep matters:
    condition (1) constrains the torsion component of the unit image, which
    multiplying by eta adjusts.  A bound above MAX_CERT_PRIME is CapExceeded.
    """
    if prime_bound < 3:
        raise SearchExhausted("prime bound below 3", {"split_primes": 0})
    if prime_bound > MAX_CERT_PRIME:
        raise CapExceeded(f"bound {prime_bound} exceeds the certificate cap {MAX_CERT_PRIME}")

    primes = list(split_primes(spec, prime_bound))
    attempts = PairAttempts(spec, units)
    for p2 in primes:
        for p1 in primes:
            if p1 == p2:
                continue
            cert = attempts.attempt(p1, p2)
            if cert is not None:
                return cert
    raise SearchExhausted(
        f"no admissible pair for {spec.name()} below {prime_bound}",
        {"split_primes": len(primes), **attempts.stats},
    )


# Block length of the oracle's coset walk: a block of int64 residues stays
# a few pages, whatever the group order.
_BLOCK = 1 << 12


def brute_force_surjectivity(spec: FieldSpec, units: UnitData,
                             P1: DegreeOnePrime, P2: DegreeOnePrime,
                             a1: int, a2: int, cap: int = 10 ** 7) -> bool:
    """Enumerate the unit-image subgroup of (Z/p1^a1)* x (Z/p2^a2)* and
    compare its size with the full group order.

    This is the definition-level oracle: it shares nothing with the order
    computations above.  Exponents up to 2 are supported (squares suffice
    for admissibility).  The moduli m1 = p1^a1 and m2 = p2^a2 are coprime,
    so the Chinese remainder theorem identifies the group with (Z/M)*,
    M = m1 m2, and each unit image is one residue mod M.  The group is
    abelian, so <eta, eps> is the union of the cosets eta^j <eps> for j < r,
    r the first j with eta^j already marked.  Each coset s <eps> is walked
    in blocks s eps^(kB) (1, eps, ..., eps^(B-1)) mod M of int64 residues,
    marked in a bytearray of M bytes, one byte per residue; the walk of the
    first coset ends where it returns to 1, at the order of eps.  M must
    stay below 2^31, where the int64 products of two residues cannot
    overflow, and the unit images must be invertible mod M.
    """
    if not (0 <= a1 <= 2 and 0 <= a2 <= 2):
        raise ValueError("exponents must be 0, 1 or 2")
    if P1.p == P2.p and a1 and a2:
        raise SamePrime(f"p1 = p2 = {P1.p}: the moduli are not coprime")
    m1 = P1.p ** a1
    m2 = P2.p ** a2

    def phi(p, a):
        return 1 if a == 0 else p ** (a - 1) * (p - 1)

    target = phi(P1.p, a1) * phi(P2.p, a2)
    if target > cap:
        raise CapExceeded(f"group order {target} exceeds cap {cap}")

    M = m1 * m2
    if M >= 2 ** 31:
        raise CapExceeded(f"modulus {M} is not below 2^31")
    # c1 = 1 mod m1, 0 mod m2 and c2 = 0 mod m1, 1 mod m2 (pow(_, -1, 1) is 0)
    c1 = m2 * pow(m2, -1, m1)
    c2 = m1 * pow(m1, -1, m2)
    eta, eps = (
        (reduce_mod_p2(u, P1) * c1 + reduce_mod_p2(u, P2) * c2) % M
        for u in (units.eta, units.epsilon)
    )
    if gcd(eta, M) != 1 or gcd(eps, M) != 1:
        raise ValueError(f"a unit image is not invertible mod {M}")

    import numpy as np

    size = min(_BLOCK, target)
    powers = np.empty(size, dtype=np.int64)  # eps^i mod M
    powers[0] = 1 % M
    n = 1
    while n < size:
        m = min(n, size - n)
        powers[n:n + m] = powers[:m] * pow(eps, n, M) % M
        n += m
    step = pow(eps, size, M)

    seen = bytearray(M)
    marks = np.frombuffer(seen, dtype=np.uint8)
    order = 0  # the order of eps, once the first coset has returned to 1
    s = 1 % M
    while not seen[s]:
        base, k = s, 0  # base = s eps^k
        while True:
            block = powers * base % M
            if not order:
                skip = int(k == 0)
                back = np.flatnonzero(block[skip:] == s)
                if back.size:
                    order = k + skip + int(back[0])
            if order and k + size >= order:
                marks[block[:order - k]] = 1
                break
            marks[block] = 1
            base = base * step % M
            k += size
        s = s * eta % M
    return seen.count(1) == target


def _dlog(base: int, target: int, modulus: int, order: int) -> int | None:
    """The least x >= 0 with base^x = target mod modulus, or None when target
    is not a power of base; order is a multiple of the order of base.

    Baby-step giant-step: the table keeps the least j < m for each baby step
    base^j, and giant steps i = 0, 1, ... are tried in turn, so the first
    hit i*m + j is the least exponent.
    """
    m = isqrt(order) + 1
    table = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * base % modulus
    giant = pow(base, -m, modulus)
    cur = target % modulus
    for i in range(m + 1):
        if cur in table:
            return i * m + table[cur]
        cur = cur * giant % modulus
    return None


def construct_witness(cert: AdmissibleCertificate, x: int, y: int) -> WitnessResult:
    """A unit z with z = x mod P1^2 and z = y mod P2^2, built constructively.

    x and y are residues in [0, p1^2) and [0, p2^2), prime to p1 and p2.
    beta = eps^(p1(p1-1)/g) is trivial mod P1^2 and generates mod P2^2;
    alpha = eta beta^k eps is trivial mod P2^2 (for the right k) and
    generates mod P1^2; z = alpha^e beta^f hits the target pair.  The two
    congruences are re-verified through the reduction map on the final
    element, independently of the modular bookkeeping used to find it.
    """
    p1, p2 = cert.P1.p, cert.P2.p
    q1, q2 = p1 * p1, p2 * p2
    if not (0 <= x < q1 and 0 <= y < q2):
        raise ValueError("targets must be residues mod p1^2 and p2^2")
    if gcd(x, p1) != 1 or gcd(y, p2) != 1:
        raise ValueError("targets must be coprime residues")

    g = cert.units.g
    n1 = cert.ord_eps_P1
    ord2 = p2 * (p2 - 1)
    e1 = reduce_mod_p2(cert.units.epsilon, cert.P1)
    e2 = reduce_mod_p2(cert.units.epsilon, cert.P2)
    h1 = reduce_mod_p2(cert.units.eta, cert.P1)
    h2 = reduce_mod_p2(cert.units.eta, cert.P2)

    b1 = pow(e1, n1, q1)
    b2 = pow(e2, n1, q2)
    if b1 != 1:
        raise NotGenerator("beta is not trivial mod P1^2; certificate corrupt")

    k = _dlog(b2, pow(h2 * e2 % q2, -1, q2), q2, ord2)
    if k is None:
        raise NotGenerator("beta does not generate mod P2^2")

    alpha1 = h1 * pow(b1, k, q1) % q1 * e1 % q1
    alpha2 = h2 * pow(b2, k, q2) % q2 * e2 % q2
    if alpha2 != 1:
        raise NotGenerator("alpha is not trivial mod P2^2")

    e_exp = _dlog(alpha1, x, q1, p1 * (p1 - 1))
    if e_exp is None:
        raise NotGenerator("alpha does not generate mod P1^2")
    f_exp = _dlog(b2, y, q2, ord2)
    if f_exp is None:
        raise NotGenerator("beta does not generate mod P2^2")

    # z = alpha^e beta^f = eta^e eps^((k n1 + 1) e + n1 f); reduce the
    # exponents by the orders so the exact element stays small.
    eps_exp = ((k * n1 + 1) * e_exp + n1 * f_exp)
    m = n1 * ord2 // gcd(n1, ord2)
    z = (cert.units.eta ** (e_exp % g)) * (cert.units.epsilon ** (eps_exp % m))

    if reduce_mod_p2(z, cert.P1) != x or reduce_mod_p2(z, cert.P2) != y:
        raise NotGenerator("witness failed re-verification")
    return WitnessResult(alpha=(alpha1, alpha2), beta=(b1, b2), k=k, e=e_exp, f_exp=f_exp, z=z)


def conclude_euclidean(cert: AdmissibleCertificate,
                       class_number_one: bool) -> AdmissibleCertificate:
    """Upgrade an admissible-pair certificate to the Euclidean conclusion.

    The class-number-one hypothesis is an external input (the supported
    fields are exactly the classified ones); unit rank 1 plus a two-prime
    admissible set gives rank + primes = 3 >= 3.
    """
    if not class_number_one:
        raise MissingAssumption("class number one must be asserted explicitly")
    if cert.conclusion != Conclusion.ADMISSIBLE_PAIR:
        raise ValueError("certificate is not an admissible-pair certificate")
    if cert.P1.p == cert.P2.p:
        raise SamePrime("admissible set must contain two non-associate primes")
    rank, s = 1, 2
    assert rank + s >= 3
    return replace(cert, conclusion=Conclusion.EUCLIDEAN, unit_rank=rank, prime_count=s)


_WORD = 1 << 64


def _tower_constants(spec: FieldSpec):
    """((d, e, Be, Ce, d Ce), e^2 D^4, adj(S)) for the tower of spec.

    e is the least common denominator of B and C in y^2 = B + C x, so
    e y^2 = Be + Ce x with integers Be, Ce (see FieldSpec.tower)."""
    d, b, c, det, adj = spec.tower
    e = lcm(b.denominator, c.denominator)
    be, ce = b.numerator * (e // b.denominator), c.numerator * (e // c.denominator)
    return (d, e, be, ce, d * ce), e * e * det ** 4, adj


def _tower_norm(consts, t0, t1, t2, t3):
    """U^2 - d V^2 = e^2 D^4 N(alpha) for alpha = (a + b y) / D with
    a = t0 + t1 x and b = t2 + t3 x, where e (a^2 - b^2 y^2) = U + V x.

    consts is the first entry of _tower_constants.  On exact integers the
    value is exact; on uint64 arrays, with the constants reduced mod 2^64,
    it is the same polynomial identity mod 2^64."""
    d, e, be, ce, dce = consts
    b0 = t2 * t2 + d * (t3 * t3)
    b1 = 2 * t2 * t3
    u = e * (t0 * t0 + d * (t1 * t1)) - be * b0 - dce * b1
    v = e * (2 * t0 * t1) - ce * b0 - be * b1
    return u * u - d * (v * v)


def _box_hits(prime: DegreeOnePrime, bound: int) -> list[tuple[int, int, int, int]]:
    """Coordinate vectors c with |c_i| <= bound, c0 + c1 r1 + c2 r2 + c3 r3
    = 0 mod p (r the basis images mod p) and |N(c)| = p, ordered by
    sup-norm and then lexicographically.

    Each c maps to tower coordinates T = c adj(S), and the tower norm of T
    is evaluated in uint64, that is mod 2^64.  Reduction mod 2^64 is a ring
    map, so overflow never drops a true hit; every candidate matching
    +-p e^2 D^4 mod 2^64 is confirmed in exact integers, its residue and
    its norm, before it counts.
    """
    import numpy as np

    spec, p = prime.field, prime.p
    r = [im % p for im in prime.basis_images]
    assert r[0] == 1  # first basis element is 1
    consts, scale, adj = _tower_constants(spec)
    wconsts = tuple(k % _WORD for k in consts)
    wadj = [[a % _WORD for a in row] for row in adj]
    targets = (p * scale % _WORD, -p * scale % _WORD)

    side = np.arange(-bound, bound + 1, dtype=np.int64)
    c2, c3 = (a.ravel() for a in np.meshgrid(side, side, indexing="ij"))
    rest = c2 * r[2] + c3 * r[3]
    # T_j = sum_i c_i adj[i][j] mod 2^64; the (c2, c3) part is shared
    u2, u3 = c2.view(np.uint64), c3.view(np.uint64)
    t23 = [u2 * wadj[2][j] + u3 * wadj[3][j] for j in range(4)]
    hits = []
    for c1 in range(-bound, bound + 1):
        c1_part = [c1 * a % _WORD for a in adj[1]]
        c0_first = -bound + (-(c1 * r[1] + rest) + bound) % p
        for c0_shift in range(0, 2 * bound + 1, p):
            idx = np.flatnonzero(c0_first <= bound - c0_shift)
            if not idx.size:
                break
            c0 = c0_first[idx] + c0_shift
            u0 = c0.view(np.uint64)
            t = [t23[j][idx] + u0 * wadj[0][j] + c1_part[j] for j in range(4)]
            n = _tower_norm(wconsts, *t)
            for i in np.flatnonzero((n == targets[0]) | (n == targets[1])):
                c = (int(c0[i]), c1, int(c2[idx[i]]), int(c3[idx[i]]))
                in_ideal = sum(v * w for v, w in zip(c, r)) % p == 0
                if in_ideal and abs(norm(NFElement(spec, c))) == p:
                    hits.append(c)
    return sorted(hits, key=lambda c: (max(abs(v) for v in c), c))


def find_prime_element(prime: DegreeOnePrime, coord_bound: int) -> NFElement:
    """An element of norm +-p generating the given conjugate prime ideal.

    Searches integral-basis coordinate vectors over the sublattice of
    elements reducing to 0 mod p and returns the one with |norm| = p that
    comes first by increasing sup-norm, lexicographic within a shell, in
    boxes of coordinate bound 4, 16, 64, ... capped at coord_bound.  The sweep filters
    candidates by the tower norm mod 2^64 and confirms them with exact
    integer arithmetic (_box_hits).
    """
    bound = 4
    while True:
        bound = min(bound, coord_bound)
        hits = _box_hits(prime, bound)
        if hits:
            return NFElement(prime.field, hits[0])
        if bound == coord_bound:
            break
        bound *= 4
    raise BoundExceeded(
        f"no element of norm +-{prime.p} with coordinates bounded by {coord_bound}"
    )
