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
from math import gcd, isqrt

from .elements import NFElement, norm
from .errors import (
    BoundExceeded,
    CapExceeded,
    ConditionFailed,
    DegenerateField,
    FieldMismatch,
    MissingAssumption,
    NotGenerator,
    SamePrime,
    SearchExhausted,
)
from .fields import FieldSpec
from .residues import (
    MAX_CERT_PRIME,
    DegreeOnePrime,
    degree_one_primes_above,
    has_order_mod_p2,
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
    if P1.field != spec or P2.field != spec:
        raise FieldMismatch("a prime of the pair lies in another field")
    if units.eta.field != spec or units.epsilon.field != spec:
        raise FieldMismatch("the units lie in another field")

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
    field's unit, with the primes above each p and the verdicts of the
    order conditions cached.

    attempt(p1, p2) tests the gcd conditions (2) and (3), which depend on p1
    and p2 alone, then returns the certificate for the first t for which a
    conjugate above p1 passes (1) and (4) and a conjugate above p2 passes
    (5), taking the first such conjugate in index order on each side; None
    when no t does.  stats counts the rejections by reason.  The conditions
    only ask whether an order equals a given n (has_order_mod_p2); the full
    orders are computed once, by check_conditions, for the pair returned.
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
        # (p, t) -> (first conjugate passing (1) and (4), or None, and the
        # (1) and (4) failures before it); (p, t) -> first passing (5)
        self._cond14: dict = {}
        self._cond5: dict = {}

    def _above(self, p):
        if p not in self._primes:
            self._primes[p] = degree_one_primes_above(self.spec, p)
        return self._primes[p]

    def _cond1_conjugate(self, p1, t):
        key = (p1, t)
        if key not in self._cond14:
            var = self.variants[t]
            g = self.units.g
            n1 = p1 * (p1 - 1) // g
            found, fail1, fail4 = None, 0, 0
            for prime in self._above(p1):
                if not has_order_mod_p2(reduce_mod_p2(var.epsilon, prime), p1, n1):
                    fail1 += 1
                elif not has_order_mod_p2(reduce_mod_p2(var.eta, prime), p1, g):
                    fail4 += 1
                else:
                    found = prime
                    break
            self._cond14[key] = (found, fail1, fail4)
        found, fail1, fail4 = self._cond14[key]
        self.stats["cond1_failures"] += fail1
        self.stats["cond4_failures"] += fail4
        return found

    def _cond5_conjugate(self, p2, t):
        key = (p2, t)
        if key not in self._cond5:
            eps = self.variants[t].epsilon
            self._cond5[key] = next(
                (prime for prime in self._above(p2)
                 if has_order_mod_p2(reduce_mod_p2(eps, prime), p2, p2 * (p2 - 1))),
                None,
            )
        return self._cond5[key]

    def condition5_possible(self, p2: int) -> bool:
        """Whether some torsion multiple has a conjugate above p2 passing
        (5); when none does, attempt(p1, p2) is None for every p1."""
        return any(self._cond5_conjugate(p2, t) is not None for t in range(self.units.g))

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


def search_pair(spec: FieldSpec, units: UnitData, prime_bound: int) -> AdmissibleCertificate:
    """Deterministic sweep for the first admissible pair below the bound.

    Fixes p2 (the condition-(5) prime) first, ascending, then sweeps p1
    ascending; each pair is tried by PairAttempts over the torsion multiples
    eta^t * eps of the unit and the conjugates in index order, so repeated
    runs return byte-identical certificates.  The torsion sweep matters:
    condition (1) constrains the torsion component of the unit image, which
    multiplying by eta adjusts.

    A p2 at which no torsion multiple passes (5) can pair with no p1, so its
    row is skipped unswept.  The split primes are drawn from split_primes
    only as far as the sweep reaches, so the work done depends on where the
    pair lies, not on the bound.  A bound above MAX_CERT_PRIME is
    CapExceeded, raised before any prime is drawn.

    On exhaustion the stats hold "split_primes", all split primes up to the
    bound; "rows_without_condition5", the p2 rows skipped; and the
    PairAttempts counters, to which skipped rows add nothing.
    """
    stream = split_primes(spec, prime_bound)
    primes: list[int] = []

    def drawn():
        # the split primes in order, each drawn from the stream the first
        # time a sweep reaches it
        i = 0
        while True:
            if i == len(primes):
                p = next(stream, None)
                if p is None:
                    return
                primes.append(p)
            yield primes[i]
            i += 1

    attempts = PairAttempts(spec, units)
    skipped = 0
    for p2 in drawn():
        if not attempts.condition5_possible(p2):
            skipped += 1
            continue
        for p1 in drawn():
            if p1 == p2:
                continue
            cert = attempts.attempt(p1, p2)
            if cert is not None:
                return cert
    raise SearchExhausted(
        f"no admissible pair for {spec.name()} below {prime_bound}",
        {"split_primes": len(primes), "rows_without_condition5": skipped, **attempts.stats},
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
    return replace(cert, conclusion=Conclusion.EUCLIDEAN, unit_rank=1, prime_count=2)


_WORD = 1 << 64


def _tower_constants(spec: FieldSpec):
    """((d, e, Be, Ce, d Ce), e^2 D^4, adj(S)) for the tower
    e y^2 = Be + Ce x of spec (see FieldSpec.tower)."""
    d, e, be, ce, det, adj = spec.tower
    return (d, e, be, ce, d * ce), e * e * det ** 4, adj


def _forms(consts, t0, t1, t2, t3):
    """(U, V) with e (a^2 - b^2 y^2) = U + V x for a = t0 + t1 x and
    b = t2 + t3 x: two quadratic forms in t; consts is the first entry of
    _tower_constants."""
    d, e, be, ce, dce = consts
    b0 = t2 * t2 + d * (t3 * t3)
    b1 = 2 * t2 * t3
    return (e * (t0 * t0 + d * (t1 * t1)) - be * b0 - dce * b1,
            e * (2 * t0 * t1) - ce * b0 - be * b1)


def _tower_norm(consts, t0, t1, t2, t3):
    """U^2 - d V^2 = e^2 D^4 N(alpha) for alpha = (a + b y) / D with
    a = t0 + t1 x and b = t2 + t3 x, where e (a^2 - b^2 y^2) = U + V x.

    consts is the first entry of _tower_constants.  On exact integers the
    value is exact; on uint64 arrays, with the constants reduced mod 2^64,
    it is the same polynomial identity mod 2^64.  _box_hits evaluates it as
    a quartic in c0 (_c0_quartic); the tests check that quartic against
    this direct form."""
    u, v = _forms(consts, t0, t1, t2, t3)
    return u * u - consts[0] * (v * v)


def _coordinate_forms(consts, adj):
    """The forms U and V of _forms as quadratic forms in the coordinates c
    of T = c adj: a pair of 4 x 4 integer matrices G with
    q(c adj) = sum over i <= j of G[i][j] c_i c_j, so G[i][i] = q(adj[i])
    and G[i][j] = q(adj[i] + adj[j]) - q(adj[i]) - q(adj[j]) for i < j."""
    q = [_forms(consts, *row) for row in adj]
    gram = ([[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)])
    for i in range(4):
        for j in range(i, 4):
            both = q[i] if i == j else _forms(consts, *(a + b for a, b in zip(adj[i], adj[j])))
            for g, qij, qi, qj in zip(gram, both, q[i], q[j]):
                g[i][j] = qij if i == j else qij - qi - qj
    return gram


def _c0_grid(gram, c2, c3):
    """For each form, the parts of its value on the lines of fixed
    (c1, c2, c3) that depend on (c2, c3) alone: (quad, lin1, lin0) with
    quad the (c2, c3) terms, lin1 the coefficient of c1 and lin0 that of c0
    without their c1 terms.  Exact on integers; mod 2^64 on uint64 arrays,
    with gram reduced mod 2^64."""
    c22, c23, c33 = c2 * c2, c2 * c3, c3 * c3
    quad = tuple(g[2][2] * c22 + g[2][3] * c23 + g[3][3] * c33 for g in gram)
    lin1 = tuple(g[1][2] * c2 + g[1][3] * c3 for g in gram)
    lin0 = tuple(g[0][2] * c2 + g[0][3] * c3 for g in gram)
    return quad, lin1, lin0


def _c0_quartic(d, gram, grid, c1):
    """(N4, n3, n2, n1, n0) with _tower_norm(c adj) = N4 c0^4 + ... + n0 on
    the lines of fixed (c1, c2, c3) (see _c0_grid).

    Each form is quadratic in c0: q = q0 c0^2 + a1 c0 + a0, with
    q0 = G[0][0], a1 = lin0 + G[0][1] c1 and a0 = quad + lin1 c1 + G[1][1] c1^2.
    So U^2 - d V^2 is a quartic whose coefficients are sums of
    m(x, y) = x_U y_U - d x_V y_V.  N4 depends on gram alone and is returned
    unreduced; every other product has an array factor when c1 or grid is
    one."""
    quad, lin1, lin0 = grid
    q0 = tuple(g[0][0] for g in gram)
    a0 = tuple(t + c1 * b + c1 * (c1 * g[1][1]) for t, b, g in zip(quad, lin1, gram))
    a1 = tuple(b + c1 * g[0][1] for b, g in zip(lin0, gram))

    def m(x, y):
        return x[0] * y[0] - d * (x[1] * y[1])

    return m(q0, q0), 2 * m(q0, a1), m(a1, a1) + 2 * m(q0, a0), 2 * m(a1, a0), m(a0, a0)


# Entries per Horner pass of _box_hits: the lines of consecutive c1 share one
# pass while their (c2, c3) grids together stay within this, so a small box
# takes few numpy calls and a large one holds one grid per array.
_PASS_ENTRIES = 1 << 14


def _box_hits(prime: DegreeOnePrime, bound: int) -> list[tuple[int, int, int, int]]:
    """Coordinate vectors c with |c_i| <= bound, c0 + c1 r1 + c2 r2 + c3 r3
    = 0 mod p (r the basis images mod p) and |N(c)| = p, ordered by
    sup-norm and then lexicographically.

    Half the box is swept (c1 > 0, or c1 = 0 and (c2, c3) > (0, 0) in lex
    order) and each hit c brings -c: N(-c) = N(c), and N(c0, 0, 0, 0) = c0^4.
    Each c maps to tower coordinates T = c adj(S), where the forms U and V
    of _tower_norm are quadratic forms in c (_coordinate_forms), so on each
    line of fixed (c1, c2, c3) the scaled norm e^2 D^4 N(c) = U^2 - d V^2 is
    a quartic in c0.  Its coefficients come from arrays the box shares
    (_c0_grid) by a few updates per c1 (_c0_quartic), and each step of c0 by
    p costs one Horner evaluation over all (c2, c3).  All of it runs in
    uint64, that is mod 2^64, a ring map, so overflow never drops a true
    hit; every candidate matching +-p e^2 D^4 mod 2^64 is confirmed in exact
    integers, its residue and its norm, before it counts.
    """
    import numpy as np

    spec, p = prime.field, prime.p
    r = [im % p for im in prime.basis_images]
    if r[0] != 1:
        raise DegenerateField("the first integral basis element is not 1")
    consts, scale, adj = _tower_constants(spec)
    gram = [[[k % _WORD for k in row] for row in g] for g in _coordinate_forms(consts, adj)]
    d = consts[0] % _WORD
    targets = (p * scale % _WORD, -p * scale % _WORD)

    # the (c2, c3) grid as a column and a row, so only products fill it
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    c2, c3 = side[:, None], side[None, :]
    rest = c2 * r[2] + c3 * r[3]
    grid = _c0_grid(gram, c2.view(np.uint64), c3.view(np.uint64))

    def candidates(first, lines):
        """The c on the lines c1 = first, ..., first + lines - 1 of the box
        whose scaled norm matches a target mod 2^64; one pass, whose arrays
        are freed before the next pass makes its own."""
        c1 = np.arange(first, first + lines, dtype=np.int64)[:, None, None]
        n4, n3, n2, n1, n0 = _c0_quartic(d, gram, grid, c1.view(np.uint64))
        n4 %= _WORD
        c0_first = -bound + (-(c1 * r[1] + rest) + bound) % p
        z0 = c0_first.view(np.uint64)
        for c0_shift in range(0, 2 * bound + 1, p):
            z = z0 + c0_shift
            n = n4 * z  # Horner, in place
            for k in (n3, n2, n1):
                n += k
                n *= z
            n += n0
            match = (n == targets[0]) | (n == targets[1])
            if c0_shift + p > 2 * bound + 1:  # the last row leaves the box
                match &= c0_first <= bound - c0_shift
            for line, i2, i3 in np.argwhere(match):
                yield (int(c0_first[line, i2, i3]) + c0_shift, first + int(line),
                       int(i2) - bound, int(i3) - bound)

    step = max(1, _PASS_ENTRIES // rest.size)
    hits = []
    for first in range(0, bound + 1, step):
        for c in candidates(first, min(step, bound + 1 - first)):
            if c[1] == 0 and c[2:] <= (0, 0):  # outside the half; found as -c
                continue
            in_ideal = sum(v * w for v, w in zip(c, r)) % p == 0
            if in_ideal and abs(norm(NFElement(spec, c))) == p:
                hits += [c, tuple(-v for v in c)]
    return sorted(hits, key=lambda c: (max(abs(v) for v in c), c))


# Largest coord_bound of find_prime_element: a sweep at bound b evaluates
# about (2b + 1)^4 / 2p candidates, one Horner step each, in arrays of
# (2b + 1)^2 uint64 entries; at b = 64 and p = 3 (K_8) that is about 0.3 s
# and 2.2 MB, and b = 100 takes about 2 s and 5 MB (2-core Xeon, Python 3.11).
MAX_COORD_BOUND = 64


def find_prime_element(prime: DegreeOnePrime, coord_bound: int) -> NFElement:
    """An element of norm +-p generating the given conjugate prime ideal.

    Searches integral-basis coordinate vectors over the sublattice of
    elements reducing to 0 mod p and returns the one with |norm| = p that
    comes first by increasing sup-norm, lexicographic within a shell, in
    boxes of coordinate bound 4, 16, 64, ... capped at coord_bound.  The sweep filters
    candidates by the tower norm, a quartic in c0 on each line of fixed
    (c1, c2, c3) evaluated by Horner mod 2^64, and confirms them with exact
    integer arithmetic (_box_hits).  A prime above MAX_CERT_PRIME or a
    coord_bound above MAX_COORD_BOUND is CapExceeded.
    """
    if prime.p > MAX_CERT_PRIME:
        raise CapExceeded(f"prime {prime.p} exceeds the certificate cap {MAX_CERT_PRIME}")
    if coord_bound > MAX_COORD_BOUND:
        raise CapExceeded(f"coordinate bound {coord_bound} exceeds the cap {MAX_COORD_BOUND}")
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
