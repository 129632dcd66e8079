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
    MissingAssumption,
    NotGenerator,
    SamePrime,
    SearchExhausted,
)
from .fields import FieldSpec
from .intmath import ResidueClass
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
    gcd_checks: tuple[bool, bool]
    conclusion: Conclusion
    unit_rank: int | None = None
    prime_count: int | None = None

    @property
    def pair(self) -> tuple[int, int]:
        return (self.P1.p, self.P2.p)


@dataclass(frozen=True)
class FailureReport:
    condition: int
    computed: object
    required: object

    def __str__(self):
        return (
            f"condition ({self.condition}) failed: "
            f"computed {self.computed}, required {self.required}"
        )


@dataclass(frozen=True)
class WitnessResult:
    alpha: tuple[ResidueClass, ResidueClass]
    beta: tuple[ResidueClass, ResidueClass]
    k: int
    e: int
    f_exp: int
    z: NFElement


def check_conditions(spec: FieldSpec, units: UnitData, P1: DegreeOnePrime,
                     P2: DegreeOnePrime):
    """Evaluate the five conditions; a certificate on success, else the first
    failing condition as a FailureReport."""
    if P1.p == P2.p:
        raise SamePrime(f"p1 = p2 = {P1.p}")
    assert P1.field == spec and P2.field == spec
    assert units.eta.field == spec and units.epsilon.field == spec

    g = units.g
    p1, p2 = P1.p, P2.p
    if (p1 * (p1 - 1)) % g != 0:
        return FailureReport(1, f"g = {g} does not divide p1(p1-1)", "divisibility")
    n1 = p1 * (p1 - 1) // g

    ord_eps_p1 = unit_order_mod_p2(units.epsilon, P1)
    if ord_eps_p1 != n1:
        return FailureReport(1, ord_eps_p1, n1)
    m2 = p2 * (p2 - 1)
    if gcd(n1, m2) != 1:
        return FailureReport(2, gcd(n1, m2), 1)
    if gcd(n1, g) != 1:
        return FailureReport(3, gcd(n1, g), 1)
    ord_eta_p1 = unit_order_mod_p2(units.eta, P1)
    if ord_eta_p1 != g:
        return FailureReport(4, ord_eta_p1, g)
    ord_eps_p2 = unit_order_mod_p2(units.epsilon, P2)
    if ord_eps_p2 != m2:
        return FailureReport(5, ord_eps_p2, m2)

    return AdmissibleCertificate(
        spec=spec,
        units=units,
        P1=P1,
        P2=P2,
        ord_eps_P1=ord_eps_p1,
        ord_eta_P1=ord_eta_p1,
        ord_eps_P2=ord_eps_p2,
        gcd_checks=(True, True),
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
            result = check_conditions(self.spec, self.variants[t], prime1, prime2)
            assert isinstance(result, AdmissibleCertificate)
            return result
        return None


def search_pair(spec: FieldSpec, units: UnitData, prime_bound: int) -> AdmissibleCertificate:
    """Deterministic sweep for the first admissible pair below the bound.

    Fixes p2 (the condition-(5) prime) first, ascending, then sweeps p1
    ascending; each pair is tried by PairAttempts over the torsion multiples
    eta^t * eps of the unit and the conjugates in index order, so repeated
    runs return byte-identical certificates.  The torsion sweep matters:
    condition (1) constrains the torsion component of the unit image, which
    multiplying by eta adjusts.
    """
    if prime_bound < 3:
        raise SearchExhausted("prime bound below 3", {"split_primes": 0})

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


def brute_force_surjectivity(spec: FieldSpec, units: UnitData,
                             P1: DegreeOnePrime, P2: DegreeOnePrime,
                             a1: int, a2: int, cap: int = 10 ** 7) -> bool:
    """Enumerate the unit-image subgroup of (Z/p1^a1)* x (Z/p2^a2)* by
    closure and compare with the full group order.

    This is the definition-level oracle: it shares nothing with the order
    computations above.  Exponents up to 2 are supported (squares suffice
    for admissibility).
    """
    if not (0 <= a1 <= 2 and 0 <= a2 <= 2):
        raise ValueError("exponents must be 0, 1 or 2")
    m1 = P1.p ** a1
    m2 = P2.p ** a2

    def phi(p, a):
        return 1 if a == 0 else p ** (a - 1) * (p - 1)

    target = phi(P1.p, a1) * phi(P2.p, a2)
    if target > cap:
        raise CapExceeded(f"group order {target} exceeds cap {cap}")

    gens = []
    for u in (units.eta, units.epsilon):
        gens.append(
            (reduce_mod_p2(u, P1).value % m1, reduce_mod_p2(u, P2).value % m2)
        )
    ident = (1 % m1, 1 % m2)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x1, x2 in frontier:
            for g1, g2 in gens:
                y = ((x1 * g1) % m1, (x2 * g2) % m2)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == target


def _dlog(base: int, target: int, modulus: int, order: int) -> int | None:
    """x with base^x = target mod modulus, or None.  Brute force for small
    orders, baby-step giant-step above."""
    if order <= 10 ** 4:
        cur = 1
        for x in range(order):
            if cur == target:
                return x
            cur = cur * base % modulus
        return None
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
            return (i * m + table[cur]) % order
        cur = cur * giant % modulus
    return None


def construct_witness(cert: AdmissibleCertificate, x: ResidueClass,
                      y: ResidueClass) -> WitnessResult:
    """A unit z with z = x mod P1^2 and z = y mod P2^2, built constructively.

    beta = eps^(p1(p1-1)/g) is trivial mod P1^2 and generates mod P2^2;
    alpha = eta beta^k eps is trivial mod P2^2 (for the right k) and
    generates mod P1^2; z = alpha^e beta^f hits the target pair.  The two
    congruences are re-verified through the reduction map on the final
    element, independently of the modular bookkeeping used to find it.
    """
    p1, p2 = cert.P1.p, cert.P2.p
    q1, q2 = p1 * p1, p2 * p2
    if x.modulus != q1 or y.modulus != q2:
        raise ValueError("targets must be residues mod p1^2 and p2^2")
    if gcd(x.value, p1) != 1 or gcd(y.value, p2) != 1:
        raise ValueError("targets must be coprime residues")

    g = cert.units.g
    n1 = cert.ord_eps_P1
    ord2 = p2 * (p2 - 1)
    e1 = reduce_mod_p2(cert.units.epsilon, cert.P1).value
    e2 = reduce_mod_p2(cert.units.epsilon, cert.P2).value
    h1 = reduce_mod_p2(cert.units.eta, cert.P1).value
    h2 = reduce_mod_p2(cert.units.eta, cert.P2).value

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

    e_exp = _dlog(alpha1, x.value, q1, p1 * (p1 - 1))
    if e_exp is None:
        raise NotGenerator("alpha does not generate mod P1^2")
    f_exp = _dlog(b2, y.value, q2, ord2)
    if f_exp is None:
        raise NotGenerator("beta does not generate mod P2^2")

    # z = alpha^e beta^f = eta^e eps^((k n1 + 1) e + n1 f); reduce the
    # exponents by the orders so the exact element stays small.
    eps_exp = ((k * n1 + 1) * e_exp + n1 * f_exp)
    m = n1 * ord2 // gcd(n1, ord2)
    z = (cert.units.eta ** (e_exp % g)) * (cert.units.epsilon ** (eps_exp % m))

    if reduce_mod_p2(z, cert.P1).value != x.value or reduce_mod_p2(z, cert.P2).value != y.value:
        raise NotGenerator("witness failed re-verification")
    return WitnessResult(
        alpha=(ResidueClass(alpha1, q1), ResidueClass(alpha2, q2)),
        beta=(ResidueClass(b1, q1), ResidueClass(b2, q2)),
        k=k,
        e=e_exp,
        f_exp=f_exp,
        z=z,
    )


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


def _box_hits_numpy(form, r, p, bound, dtype):
    """Coordinate vectors c with |c_i| <= bound, c0 + c1 r1 + c2 r2 + c3 r3
    = 0 mod p and |form(c)| = p, with the form evaluated in the given numpy
    dtype: int64 where no value can overflow it, object (exact Python
    integers) otherwise."""
    import numpy as np

    hits = []
    side = np.arange(-bound, bound + 1, dtype=dtype)
    c2g, c3g = np.meshgrid(side, side, indexing="ij")
    c2f, c3f = c2g.ravel(), c3g.ravel()
    for c1 in range(-bound, bound + 1):
        t = (-(c1 * r[1] + c2f * r[2] + c3f * r[3])) % p
        c0_start = -bound + ((t + bound) % p)
        for k in range(2 * bound // p + 1):
            c0 = c0_start + k * p
            mask = c0 <= bound
            if not mask.any():
                break
            cols = (c0[mask], np.full(mask.sum(), c1, dtype=dtype),
                    c2f[mask], c3f[mask])
            acc = np.zeros(cols[0].shape, dtype=dtype)
            for exps, coef in form.items():
                term = np.full(cols[0].shape, coef, dtype=dtype)
                for j, e in enumerate(exps):
                    for _ in range(e):
                        term *= cols[j]
                acc += term
            sel = np.nonzero(np.abs(acc) == p)[0]
            for idx in sel:
                hits.append(tuple(int(cols[j][idx]) for j in range(4)))
    return hits


def find_prime_element(prime: DegreeOnePrime, coord_bound: int) -> NFElement:
    """An element of norm +-p generating the given conjugate prime ideal.

    Searches integral-basis coordinate vectors over the sublattice of
    elements reducing to 0 mod p and returns the one with |norm| = p that
    comes first by increasing sup-norm, lexicographic within a shell.  The
    candidate sweep evaluates the precomputed norm form with numpy, in int64
    when the overflow bound sum|coef| * bound^4 stays below 2^62 and in
    exact object integers otherwise; the returned element is always
    confirmed with exact integer arithmetic.
    """
    spec = prime.field
    p = prime.p
    r = [im % p for im in prime.basis_images]
    assert r[0] == 1  # first basis element is 1
    form = spec.norm_form

    def scan(bound):
        limit = sum(abs(v) for v in form.values()) * max(1, bound) ** 4
        hits = _box_hits_numpy(form, r, p, bound, "int64" if limit < 2 ** 62 else object)
        if not hits:
            return None
        best = min(hits, key=lambda c: (max(abs(v) for v in c), c))
        assert abs(norm(NFElement(spec, best))) == p
        return best

    bound = 4
    while True:
        bound = min(bound, coord_bound)
        found = scan(bound)
        if found is not None:
            return NFElement(spec, found)
        if bound == coord_bound:
            break
        bound *= 4
    raise BoundExceeded(
        f"no element of norm +-{p} with coordinates bounded by {coord_bound}"
    )
