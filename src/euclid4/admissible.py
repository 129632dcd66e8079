"""Admissible prime pairs: the five-condition checker and the
deterministic search.

A pair of degree-one primes P1 (above p1) and P2 (above p2) is certified by
five exact facts about the unit images modulo the squared primes:

  (1) ord(eps) mod P1^2  = p1(p1-1)/g
  (2) gcd(p1(p1-1)/g, p2(p2-1)) = 1
  (3) gcd(p1(p1-1)/g, g) = 1
  (4) ord(eta) mod P1^2  = g
  (5) ord(eps) mod P2^2  = p2(p2-1)

Together these force the unit group to surject onto the full group of
coprime residues modulo P1^2 P2^2, which is the content a certificate
records.  The oracle that checks the same surjectivity from its definition
lives in surjectivity, and the constructive witness and the prime
generators in generators.  Only verify --oracle runs the oracle, and no CLI
command runs the other two, so they load on first use: the names of _LAZY
are served from here by __getattr__ (PEP 562) and then bound here.
"""

from __future__ import annotations

from math import gcd

from .errors import ConditionFailed, FieldMismatch, SamePrime, SearchExhausted
from .fields import FieldSpec
from .intmath import Record
from .residues import (
    MAX_CERT_PRIME,  # noqa: F401  (search_pair's cap; the tests read it here)
    DegreeOnePrime,
    degree_one_primes_above,
    has_order_mod_p2,
    reduce_mod_p2,
    split_primes,
    unit_order_mod_p2,
)
from .units import Provenance, UnitData, torsion_units

# The names served by __getattr__, with the module that defines each.
_LAZY = {
    "UnitWalk": "surjectivity",
    "brute_force_surjectivity": "surjectivity",
    "WitnessResult": "generators",
    "construct_witness": "generators",
    "find_prime_element": "generators",
    "MAX_COORD_BOUND": "generators",
}


def __getattr__(name):
    """A name of _LAZY, from its module, which is imported on first access;
    the name is then bound here, so that later lookups (and the benchmark
    tracer's scan of module bindings) find it.  Any other name is an
    AttributeError at once."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__package__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


class _DataclassFields:
    """The class attribute __dataclass_fields__, built on first access by
    dataclasses.make_dataclass from the class's __slots__ and then stored on
    the class, so that dataclasses.replace and dataclasses.fields work on a
    certificate while no command imports dataclasses.  It goes once ROADMAP
    item 11 calls the constructor instead of replace in
    benchmark/test_gate.py."""

    def __get__(self, instance, cls):
        from dataclasses import make_dataclass

        fields = make_dataclass(cls.__name__, cls.__slots__).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class AdmissibleCertificate(Record):
    __slots__ = ("spec", "units", "P1", "P2", "ord_eps_P1", "ord_eta_P1", "ord_eps_P2")
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, spec: FieldSpec, units: UnitData, P1: DegreeOnePrime,
                 P2: DegreeOnePrime, ord_eps_P1: int, ord_eta_P1: int, ord_eps_P2: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "P2", P2)
        object.__setattr__(self, "ord_eps_P1", ord_eps_P1)
        object.__setattr__(self, "ord_eta_P1", ord_eta_P1)
        object.__setattr__(self, "ord_eps_P2", ord_eps_P2)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.P1.p, self.P2.p)


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
