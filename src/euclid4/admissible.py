"""Admissible prime pairs: the five-condition checker, the deterministic
search, the surjectivity oracle, and the constructive witness;
and the generators of norm +-p of a degree-one prime (find_prime_element),
found by one lattice reduction and a walk along the unit group.

A pair of degree-one primes P1 (above p1) and P2 (above p2) is certified by
five exact facts about the unit images modulo the squared primes:

  (1) ord(eps) mod P1^2  = p1(p1-1)/g
  (2) gcd(p1(p1-1)/g, p2(p2-1)) = 1
  (3) gcd(p1(p1-1)/g, g) = 1
  (4) ord(eta) mod P1^2  = g
  (5) ord(eps) mod P2^2  = p2(p2-1)

Together these force the unit group to surject onto the full group of
coprime residues modulo P1^2 P2^2, which is the content a certificate
records.  The oracle checks the same surjectivity from its definition: it
counts the subgroup the unit images generate from one walk of each image
mod p, with no order computation or factoring, and compares it with the
group order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .elements import NFElement, _times, _value, inverse_unit, norm_solutions
from .errors import (
    BoundExceeded,
    CapExceeded,
    ConditionFailed,
    DegenerateField,
    FieldMismatch,
    NotGenerator,
    SamePrime,
    SearchExhausted,
)
from .fields import FieldSpec
from .intmath import Record, _cf_unit_search, continued_fraction_fundamental_unit
from .residues import (
    MAX_CERT_PRIME,
    DegreeOnePrime,
    degree_one_primes_above,
    has_order_mod_p2,
    reduce_mod_p2,
    split_primes,
    unit_order_mod_p2,
)
from .units import Provenance, UnitData, torsion_units, unit_data


@dataclass(frozen=True)
class AdmissibleCertificate:
    spec: FieldSpec
    units: UnitData
    P1: DegreeOnePrime
    P2: DegreeOnePrime
    ord_eps_P1: int
    ord_eta_P1: int
    ord_eps_P2: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.P1.p, self.P2.p)


class WitnessResult(Record):
    __slots__ = ("alpha", "beta", "k", "e", "f_exp", "z")

    def __init__(self, alpha: tuple[int, int], beta: tuple[int, int], k: int, e: int,
                 f_exp: int, z: NFElement):
        self._fill(alpha, beta, k, e, f_exp, z)


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
        self.variants = [units] + [
            UnitData(units.g, units.eta, z * units.epsilon, Provenance.SUPPLIED)
            for z in torsion_units(units.g, units.eta)[1:]
        ]
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
    computations above (no factoring, mult_order or has_order_mod_p2), and
    uses only pow and a dict.  Exponents up to 2 are supported (squares
    suffice for admissibility), and the moduli m1 = p1^a1 and m2 = p2^a2
    must be coprime.  The unit images must be invertible.  The oracle's
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


def construct_witness(cert: AdmissibleCertificate, x: int, y: int) -> WitnessResult:
    """A unit z with z = x mod P1^2 and z = y mod P2^2, built constructively.

    x and y are residues in [0, p1^2) and [0, p2^2), prime to p1 and p2.
    beta = eps^(p1(p1-1)/g) is trivial mod P1^2 and generates mod P2^2;
    alpha = eta beta^k eps is trivial mod P2^2 (for the right k) and
    generates mod P1^2; z = alpha^e beta^f hits the target pair.  The two
    congruences are re-verified through the reduction map on the final
    element, independently of the modular bookkeeping used to find it.
    The three logarithms, each the least exponent, are UnitWalk logs mod
    p^2; the two to base beta mod P2^2 share one walk.
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

    beta2 = UnitWalk(b2, p2, 2)
    k = beta2.log(pow(h2 * e2 % q2, -1, q2))
    if k is None:
        raise NotGenerator("beta does not generate mod P2^2")

    alpha1 = h1 * pow(b1, k, q1) % q1 * e1 % q1
    alpha2 = h2 * pow(b2, k, q2) % q2 * e2 % q2
    if alpha2 != 1:
        raise NotGenerator("alpha is not trivial mod P2^2")

    e_exp = UnitWalk(alpha1, p1, 2).log(x)
    if e_exp is None:
        raise NotGenerator("alpha does not generate mod P1^2")
    f_exp = beta2.log(y)
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


class _FieldGenerators(Record):
    """The constants of _box_hits for one field (_field_generators).

    u is the matrix of 2U (FieldSpec.norm_forms), and a box |c_i| <= b
    bounds c u c^T by b^2 u_sum.  The fundamental unit of Q(sqrt(d)) is
    (eps0[0] + eps0[1] sqrt(d)) / h, with h = 2 when d = 1 mod 4 and 1
    otherwise, and sqrt_d holds the coordinates of sqrt(d).  torsion holds
    the multiplication matrices (NFElement.mult_matrix) of eta^t for t < g,
    and steps those of the unit eps of unit_data and of its inverse.
    """

    __slots__ = ("u", "u_sum", "h", "eps0", "sqrt_d", "torsion", "steps")

    def __init__(self, u: list, u_sum: int, h: int, eps0: tuple[int, int], sqrt_d: tuple,
                 torsion: tuple, steps: tuple):
        self._fill(u, u_sum, h, eps0, sqrt_d, torsion, steps)


@lru_cache(maxsize=128)
def _field_generators(spec: FieldSpec) -> _FieldGenerators:
    d = spec.real_subfield_d
    u = spec.norm_forms[0]
    x, y, _ = continued_fraction_fundamental_unit(d)
    h = 2 if d % 4 == 1 else 1
    units = unit_data(spec)
    return _FieldGenerators(
        u=u, u_sum=sum(abs(a) for row in u for a in row), h=h,
        eps0=(2 * x + y, y) if h == 2 else (x, y),  # x + y (1 + sqrt d)/2 when h = 2
        sqrt_d=spec.sqrt_map[d],
        torsion=tuple(z.mult_matrix() for z in torsion_units(units.g, units.eta)),
        steps=(units.epsilon.mult_matrix(), inverse_unit(units.epsilon).mult_matrix()),
    )


def _prime_below(d: int, s: int, p: int) -> tuple[int, int] | None:
    """(A, B) with (A + B sqrt(d)) / h generating the prime of Q(sqrt(d))
    above p at which sqrt(d) = s mod p, where h = 2 when d = 1 mod 4 and 1
    otherwise; None when that prime is not principal.

    The continued fraction of (p0 + sqrt(d)) / (h p), with p0 = s mod p and
    p0 odd when h = 2, walks the reduced ideals equivalent to the prime
    (p, (p0 + sqrt(d)) / h); it meets norm +-p h^2 exactly when the prime
    is principal, and stops once its state repeats (_cf_unit_search).  The
    element found generates p or its conjugate; B's sign picks p.
    """
    if d % 4 == 1:
        p0 = s if s % 2 else s + p
        found = _cf_unit_search(d, p0, 2 * p, (4 * p, -4 * p))
    else:
        found = _cf_unit_search(d, s, p, (p, -p))
    if found is None:
        return None
    a, b, _ = found
    return (a, b) if (a + b * s) % p == 0 else (a, -b)


def _least_generators(prime: DegreeOnePrime, data: _FieldGenerators) -> list[tuple[int, ...]]:
    """The generators x of the prime P with x conj(x) = alpha, as
    coordinate tuples, for the first totally positive alpha among +-alpha0
    and +-alpha0 eps0 for which there are any (alpha0 generates P's prime p
    of Q(sqrt(d)), eps0 is the unit of Q(sqrt(d))); [] when P is not
    principal.

    A generator pi of P gives the totally positive generator pi conj(pi)
    of p; the other generators of P change it by the norms u conj(u) of
    units, among them eps0^2, so it is one of the four up to those.  They
    are the solutions of norm_solutions in P's basis (p, 0, 0, 0),
    (-r1, 1, 0, 0), (-r2, 0, 1, 0), (-r3, 0, 0, 1).  The first alpha tried
    is alpha whenever the unit index [E : W E+] is 2 or N(eps0) = -1;
    otherwise alpha0 and alpha0 eps0 may both be totally positive with one
    of them a norm, so each candidate is tried in turn.
    """
    spec, p = prime.field, prime.p
    r = [im % p for im in prime.basis_images]
    d = spec.real_subfield_d
    below = _prime_below(d, sum(a * b for a, b in zip(data.sqrt_d, r)) % p, p)
    if below is None:
        return []
    a0, b0 = below
    e0, f0 = data.eps0
    a1, b1 = (a0 * e0 + d * b0 * f0) // data.h, (a0 * f0 + b0 * e0) // data.h
    lattice = [[p, 0, 0, 0], [-r[1], 1, 0, 0], [-r[2], 0, 1, 0], [-r[3], 0, 0, 1]]
    for a, b in ((a0, b0), (-a0, -b0), (a1, b1), (-a1, -b1)):
        found = norm_solutions(spec, lattice, a, b)
        if found:
            return found
    return []


def _box_hits(prime: DegreeOnePrime, bound: int) -> list[tuple[int, ...]]:
    """Coordinate vectors c with |c_i| <= bound, c0 + c1 r1 + c2 r2 + c3 r3
    = 0 mod p (r the basis images mod p) and |N(c)| = p, ordered by
    sup-norm and then lexicographically.

    These are the generators of P in the box.  Every generator is
    zeta pi eps^k for a torsion unit zeta and k in Z, given one generator pi
    (_least_generators) and provided that eta and eps generate the unit
    group.  U(pi eps^k), the same for every zeta, is a convex function of k
    (a lambda^k + b lambda^-k), and the box bounds it (u_sum); so the walk
    from k = 0 goes up, and then down, while U is within that bound or
    still falling.
    """
    spec, p = prime.field, prime.p
    if prime.basis_images[0] % p != 1:
        raise DegenerateField("the first integral basis element is not 1")
    data = _field_generators(spec)
    least = _least_generators(prime, data)
    if not least:
        return []
    limit = bound * bound * data.u_sum
    pi = least[0]
    walked = [pi] if _value(data.u, pi) <= limit else []
    for step in data.steps:
        x, last = pi, _value(data.u, pi)
        while True:
            (x,) = _times([x], step)
            value = _value(data.u, x)
            if value > limit and value >= last:
                break
            if value <= limit:
                walked.append(x)
            last = value
    hits = [c for z in data.torsion for c in _times(walked, z) if max(map(abs, c)) <= bound]
    return sorted(hits, key=lambda c: (max(map(abs, c)), c))


# Largest coord_bound of find_prime_element.  The walk visits about log(b)
# units, so the cap does not guard the time: at b = 64 a call takes
# 0.14 ms at the median and 0.62 ms at most over the 488 conjugates of the
# split primes below 60 and the reference primes of the 40 fields, each
# field's constants built first and each call the median of 5 (2-core
# Xeon, Python 3.11).
MAX_COORD_BOUND = 64


def find_prime_element(prime: DegreeOnePrime, coord_bound: int) -> NFElement:
    """An element of norm +-p generating the given conjugate prime ideal.

    Returns the generator whose integral-basis coordinates come first by
    increasing sup-norm, lexicographic within a shell, among those bounded
    by coord_bound, and raises BoundExceeded when there is none.  The
    generators in the box come from one generator found by lattice
    reduction and the walk of its unit orbit (_box_hits), so BoundExceeded
    rests on eta and eps generating the unit group.  A prime above
    MAX_CERT_PRIME or a coord_bound above MAX_COORD_BOUND is CapExceeded.
    """
    if prime.p > MAX_CERT_PRIME:
        raise CapExceeded(f"prime {prime.p} exceeds the certificate cap {MAX_CERT_PRIME}")
    if coord_bound > MAX_COORD_BOUND:
        raise CapExceeded(f"coordinate bound {coord_bound} exceeds the cap {MAX_COORD_BOUND}")
    hits = _box_hits(prime, coord_bound)
    if not hits:
        raise BoundExceeded(
            f"no element of norm +-{prime.p} with coordinates bounded by {coord_bound}"
        )
    return NFElement(prime.field, hits[0])
