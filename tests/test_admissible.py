import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from euclid4 import admissible, generators, residues, surjectivity
from euclid4.admissible import (
    MAX_CERT_PRIME,
    MAX_COORD_BOUND,
    AdmissibleCertificate,
    UnitWalk,
    brute_force_surjectivity,
    check_conditions,
    construct_witness,
    find_prime_element,
    search_pair,
)
from euclid4.certs import certificate_to_dict, certificate_to_json, parse_certificate
from euclid4.elements import NFElement, from_power_coords, norm, one
from euclid4.errors import (
    BoundExceeded,
    CapExceeded,
    ConditionFailed,
    SamePrime,
    SearchExhausted,
)
from euclid4.fields import _forms, build_biquadratic, build_from_descriptor
from euclid4.generators import _box_hits, _field_generators, _least_generators, _prime_below
from euclid4.intmath import is_prime
from euclid4.residues import (
    DegreeOnePrime,
    degree_one_primes_above,
    reduce_mod_p2,
    split_primes,
    splits_completely,
    unit_order_mod_p2,
)
from euclid4.units import Provenance, UnitData, torsion, unit_data


def paper_units(k):
    g, eta = torsion(k)
    eps = from_power_coords(
        k, [Fraction(-1), Fraction(-1, 6), Fraction(1, 4), Fraction(-1, 24)]
    )
    return UnitData(g, eta, eps, Provenance.SUPPLIED)


def test_worked_example_conditions(gaussian_sqrt11):
    """All five conditions hold for the explicit unit at (157, 5)."""
    k = gaussian_sqrt11
    units = paper_units(k)
    P1 = degree_one_primes_above(k, 157)[0]  # the conjugate with order 6123
    hits = []
    for P2 in degree_one_primes_above(k, 5):
        try:
            hits.append(check_conditions(k, units, P1, P2))
        except ConditionFailed:
            pass
    assert hits
    cert = hits[0]
    assert isinstance(cert, AdmissibleCertificate)
    assert cert.ord_eps_P1 == 6123 == 157 * 156 // 4
    assert cert.ord_eta_P1 == 4
    assert cert.ord_eps_P2 == 20
    assert certificate_to_dict(cert)["gcds"] == [True, True]
    # integer facts behind conditions (2) and (3)
    assert gcd(6123, 20) == 1 and gcd(6123, 4) == 1
    assert 6123 == 3 * 13 * 157


def test_failure_report_names_first_condition(gaussian_sqrt11):
    k = gaussian_sqrt11
    units = paper_units(k)
    bad_P1 = degree_one_primes_above(k, 157)[1]  # order 24492 here
    P2 = degree_one_primes_above(k, 5)[0]
    with pytest.raises(ConditionFailed) as exc:
        check_conditions(k, units, bad_P1, P2)
    assert exc.value.condition == 1
    assert "24492" in str(exc.value) and "6123" in str(exc.value)


def test_same_prime_rejected(gaussian_sqrt11):
    k = gaussian_sqrt11
    units = paper_units(k)
    pr = degree_one_primes_above(k, 5)
    with pytest.raises(SamePrime):
        check_conditions(k, units, pr[0], pr[1])


def test_search_deterministic(entries):
    spec = entries["K_1"].spec
    ud = unit_data(spec)
    a = search_pair(spec, ud, 100)
    b = search_pair(spec, ud, 100)
    assert a.pair == b.pair == (29, 17)
    assert (a.P1.conjugate_index, a.P2.conjugate_index) == (
        b.P1.conjugate_index,
        b.P2.conjugate_index,
    )
    assert a.units.epsilon.coords == b.units.epsilon.coords


def test_search_conductor5_small_bound(entries):
    spec = entries["5"].spec
    cert = search_pair(spec, unit_data(spec), 50)
    assert cert.pair == (31, 11)


def test_search_exhausted(entries):
    spec = entries["K_1"].spec
    with pytest.raises(SearchExhausted) as exc:
        search_pair(spec, unit_data(spec), 3)
    assert exc.value.stats["split_primes"] == 0


def test_search_exhaustion_counts_screened_rows(entries):
    """K_33's answer is (151, 83).  Below 100 and below 150 the search
    exhausts; the rows p2 = 47 and 71, where no torsion multiple passes (5),
    are skipped unswept, and below 150 so is the row of the fourth split
    prime.  The stats carry the key set of the bound-3 search."""
    spec = entries["K_33"].spec
    units = unit_data(spec)
    with pytest.raises(SearchExhausted) as empty:
        search_pair(spec, units, 3)
    attempts = admissible.PairAttempts(spec, units)
    assert not attempts.condition5_possible(47) and not attempts.condition5_possible(71)
    assert attempts.condition5_possible(83)
    for bound, count, skipped in ((100, 3, 2), (150, 4, 3)):
        with pytest.raises(SearchExhausted) as exc:
            search_pair(spec, units, bound)
        stats = exc.value.stats
        assert stats.keys() == empty.value.stats.keys()
        assert stats["split_primes"] == count
        assert stats["rows_without_condition5"] == skipped
        assert stats["pairs_checked"] == 0


def test_search_bound_above_certificate_cap(entries):
    # verification rejects a prime above MAX_CERT_PRIME, so search must not
    # produce one
    spec = entries["K_1"].spec
    with pytest.raises(CapExceeded):
        search_pair(spec, unit_data(spec), MAX_CERT_PRIME + 1)


def full_order_attempts(spec, units, pairs):
    """The pair attempt with every order computed in full and compared with
    n1, g and p(p - 1): (outcomes, stats), each outcome None or
    (t, conjugate above p1, conjugate above p2)."""
    variants = [units.epsilon]
    for _ in range(1, units.g):
        variants.append(units.eta * variants[-1])
    g = units.g
    stats = dict.fromkeys(("no_condition5", "g_nondivisible", "gcd_failures",
                           "cond1_failures", "cond4_failures", "pairs_checked"), 0)
    orders = {}

    def orders_above(p, t):
        if (p, t) not in orders:
            orders[p, t] = [(P, unit_order_mod_p2(variants[t], P), unit_order_mod_p2(units.eta, P))
                            for P in degree_one_primes_above(spec, p)]
        return orders[p, t]

    def attempt(p1, p2):
        if (p1 * (p1 - 1)) % g:
            stats["g_nondivisible"] += 1
            return None
        n1 = p1 * (p1 - 1) // g
        if gcd(n1, g) != 1 or gcd(n1, p2 * (p2 - 1)) != 1:
            stats["gcd_failures"] += 1
            return None
        for t in range(g):
            prime1 = None
            for P, oe, oh in orders_above(p1, t):
                if oe != n1:
                    stats["cond1_failures"] += 1
                elif oh != g:
                    stats["cond4_failures"] += 1
                else:
                    prime1 = P
                    break
            if prime1 is None:
                continue
            prime2 = next((P for P, oe, _ in orders_above(p2, t) if oe == p2 * (p2 - 1)), None)
            if prime2 is None:
                stats["no_condition5"] += 1
                continue
            stats["pairs_checked"] += 1
            return t, prime1.conjugate_index, prime2.conjugate_index
        return None

    return [attempt(p1, p2) for p1, p2 in pairs], stats


def test_pair_attempts_match_full_orders(entries):
    """On every field, over every ordered pair of split primes <= 10^3, the
    order-test verdicts give the outcomes and the rejection counts of the
    full-order comparison."""
    for label, entry in entries.items():
        spec = entry.spec
        units = unit_data(spec)
        primes = [p for p in range(3, 1001, 2)
                  if is_prime(p) and spec.discriminant % p and splits_completely(spec, p)]
        pairs = [(p1, p2) for p2 in primes for p1 in primes if p1 != p2]
        want, want_stats = full_order_attempts(spec, units, pairs)
        attempts = admissible.PairAttempts(spec, units)
        got = []
        for p1, p2 in pairs:
            cert = attempts.attempt(p1, p2)
            if cert is None:
                got.append(None)
                continue
            t = attempts.variants.index(cert.units)
            got.append((t, cert.P1.conjugate_index, cert.P2.conjugate_index))
        assert got == want, label
        assert attempts.stats == want_stats, label


def test_search_matches_expected_certificates(entries):
    """search_pair at bound 10^4 gives, on all 40 fields, the pair, the
    conjugates and the certificate digest recorded for the search
    benchmark."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "data" / "expected.json"
    expected = json.loads(path.read_text())["search"]
    assert sorted(expected) == sorted(entries)
    for label, entry in entries.items():
        cert = search_pair(entry.spec, unit_data(entry.spec), 10 ** 4)
        digest = hashlib.sha256(certificate_to_json(cert, label).encode()).hexdigest()
        got = [list(cert.pair), [cert.P1.conjugate_index, cert.P2.conjugate_index], digest]
        exp = expected[label]
        assert got == [exp["pair"], exp["conjugates"], exp["certificate"]], label


def eager_search(spec, units, bound):
    """The sweep before the row screen and the lazily drawn list: every
    split prime listed up front, p2 outer and p1 inner over
    PairAttempts.attempt.  (pair, t, conjugate indices), or None."""
    primes = list(split_primes(spec, bound))
    attempts = admissible.PairAttempts(spec, units)
    for p2 in primes:
        for p1 in primes:
            if p1 == p2:
                continue
            cert = attempts.attempt(p1, p2)
            if cert is not None:
                return (cert.pair, attempts.variants.index(cert.units),
                        cert.P1.conjugate_index, cert.P2.conjugate_index)
    return None


def test_search_matches_eager_sweep(entries):
    """On all 40 fields and at four bounds, search_pair returns the pair,
    torsion multiple and conjugates of the eager sweep, or exhausts with it."""
    for label, entry in entries.items():
        spec = entry.spec
        units = unit_data(spec)
        variants = admissible.PairAttempts(spec, units).variants
        for bound in (100, 150, 1000, 10 ** 4):
            want = eager_search(spec, units, bound)
            try:
                cert = search_pair(spec, units, bound)
            except SearchExhausted as exc:
                assert want is None, (label, bound)
                assert exc.stats["split_primes"] == len(list(split_primes(spec, bound)))
                continue
            got = (cert.pair, variants.index(cert.units),
                   cert.P1.conjugate_index, cert.P2.conjugate_index)
            assert got == want, (label, bound)


def test_search_at_cap_tests_no_prime_past_the_pair(entries, monkeypatch):
    """At the cap every field still gets its frozen search certificate, and
    no prime above the larger prime of the pair is tested for splitting."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "data" / "expected.json"
    expected = json.loads(path.read_text())["search"]
    tested = []

    def counted(spec, p):
        tested.append(p)
        return splits_completely(spec, p)

    monkeypatch.setattr(residues, "splits_completely", counted)
    for label, entry in entries.items():
        units = unit_data(entry.spec)
        tested.clear()
        cert = search_pair(entry.spec, units, MAX_CERT_PRIME)
        digest = hashlib.sha256(certificate_to_json(cert, label).encode()).hexdigest()
        assert digest == expected[label]["certificate"], label
        assert tested and max(tested) <= max(cert.pair), label


def test_surjectivity_trivial_and_cap(entries):
    spec = entries["K_8"].spec
    ud = unit_data(spec)
    primes3 = degree_one_primes_above(spec, 3)
    primes59 = degree_one_primes_above(spec, 59)
    assert brute_force_surjectivity(spec, ud, primes3[0], primes59[0], 0, 0)
    with pytest.raises(CapExceeded):
        brute_force_surjectivity(spec, ud, primes3[0], primes59[0], 2, 2, cap=10)
    with pytest.raises(ValueError):
        brute_force_surjectivity(spec, ud, primes3[0], primes59[0], 3, 2)
    # (Z/46451^2)* has 2.2e9 residues, above the default cap; the walk mod
    # 46451 holds at most 46450, so a larger cap lets the count run.  The
    # group is cyclic, so <eta, eps> is onto it iff the lcm of the two
    # orders is its order.
    P = degree_one_primes_above(spec, 46451)[0]
    with pytest.raises(CapExceeded, match="above cap 10000000"):
        brute_force_surjectivity(spec, ud, P, primes3[0], 2, 0)
    orders = [unit_order_mod_p2(u, P) for u in (ud.eta, ud.epsilon)]
    assert (brute_force_surjectivity(spec, ud, P, primes3[0], 2, 0, cap=10 ** 10)
            == (lcm(*orders) == P.p * (P.p - 1)))
    assert UnitWalk(reduce_mod_p2(ud.epsilon, P), P.p, 2).order == orders[1]
    zero = UnitData(ud.g, ud.eta, NFElement(spec, (0, 0, 0, 0)), Provenance.SUPPLIED)
    with pytest.raises(ValueError, match="invertible"):
        brute_force_surjectivity(spec, zero, primes3[0], primes59[0], 2, 2)


def test_surjectivity_on_reproduced_pair(reproduction):
    report, cert = reproduction["K_8"]
    assert report.status == "Reproduced" and cert.pair == (3, 59)
    assert brute_force_surjectivity(cert.spec, cert.units, cert.P1, cert.P2, 2, 2)
    broken = UnitData(cert.units.g, cert.units.eta, one(cert.spec), Provenance.SUPPLIED)
    assert not brute_force_surjectivity(cert.spec, broken, cert.P1, cert.P2, 2, 2)


def test_witness_samples(reproduction):
    report, cert = reproduction["K_8"]
    p1, p2 = cert.pair
    q1, q2 = p1 * p1, p2 * p2

    w = construct_witness(cert, 1, 1)
    assert reduce_mod_p2(w.z, cert.P1) == 1
    assert reduce_mod_p2(w.z, cert.P2) == 1

    # hitting the generators themselves
    w = construct_witness(cert, w.alpha[0], w.beta[1])
    assert reduce_mod_p2(w.z, cert.P1) == w.alpha[0]
    assert reduce_mod_p2(w.z, cert.P2) == w.beta[1]

    rng = random.Random(21)
    for _ in range(30):
        x = rng.randrange(1, q1)
        while x % p1 == 0:
            x = rng.randrange(1, q1)
        y = rng.randrange(1, q2)
        while y % p2 == 0:
            y = rng.randrange(1, q2)
        w = construct_witness(cert, x, y)
        assert reduce_mod_p2(w.z, cert.P1) == x
        assert reduce_mod_p2(w.z, cert.P2) == y


def test_witness_validates_targets(reproduction):
    _, cert = reproduction["K_8"]
    p1, p2 = cert.pair
    with pytest.raises(ValueError):
        construct_witness(cert, p1, 1)
    for x, y in ((p1 * p1 + 1, 1), (-1, 1), (1, p2 * p2)):
        with pytest.raises(ValueError):
            construct_witness(cert, x, y)


def test_unit_walk_log_is_least_exponent():
    """UnitWalk.log returns the least exponent, as a plain loop over the
    powers does, for every unit target mod p^2; targets outside the
    subgroup generated by the base give None."""
    outside = 0
    for p in (3, 5, 7, 11, 13):
        m, order = p * p, p * (p - 1)
        for base in (2, p + 1, m - 1, 4):
            powers = {}
            cur = 1
            for x in range(order):
                powers.setdefault(cur, x)
                cur = cur * base % m
            for target in range(1, m):
                if target % p:
                    want = powers.get(target)
                    outside += want is None
                    assert UnitWalk(base, p, 2).log(target) == want, (p, base, target)
    assert outside


@pytest.mark.filterwarnings("error")
def test_find_prime_element_examples(gaussian_sqrt11):
    """Known generators; the search raises no warning."""
    k = gaussian_sqrt11
    P5 = degree_one_primes_above(k, 5)[0]
    el = find_prime_element(P5, 50)
    assert el.coords == (-2, -1, 0, 0)
    assert abs(norm(el)) == 5
    assert reduce_mod_p2(el, P5) % 5 == 0
    assert reduce_mod_p2(el, P5) % 25 != 0

    P157 = degree_one_primes_above(k, 157)[0]
    el = find_prime_element(P157, 50)
    assert el.coords == (-4, -3, 1, 1)
    assert abs(norm(el)) == 157
    assert reduce_mod_p2(el, P157) % 157 == 0
    # el generates the prime, so its square lands in the squared ideal
    assert reduce_mod_p2(el * el, P157) == 0

    with pytest.raises(BoundExceeded):
        find_prime_element(P5, 0)


def test_find_prime_element_caps(entries, gaussian_sqrt11):
    """A prime above MAX_CERT_PRIME or a bound above MAX_COORD_BOUND is
    refused before the search starts; degree_one_primes_above cannot name
    such a prime, so one is built by hand."""
    spec = entries["K_1"].spec
    with pytest.raises(CapExceeded, match="certificate cap"):
        degree_one_primes_above(spec, 100000000000000013)
    P = degree_one_primes_above(spec, next(split_primes(spec, 1000)))[0]
    big = DegreeOnePrime(P.field, 100000000000000013, P.lifted_c, P.conjugate_index,
                         P.basis_images)
    with pytest.raises(CapExceeded, match="certificate cap"):
        find_prime_element(big, 4)
    P5 = degree_one_primes_above(gaussian_sqrt11, 5)[0]
    with pytest.raises(CapExceeded, match="coordinate bound"):
        find_prime_element(P5, MAX_COORD_BOUND + 1)
    assert find_prime_element(P5, MAX_COORD_BOUND).coords == (-2, -1, 0, 0)


def test_find_prime_element_other_conjugate(gaussian_sqrt11):
    k = gaussian_sqrt11
    primes = degree_one_primes_above(k, 5)
    a = find_prime_element(primes[0], 50)
    b = find_prime_element(primes[1], 50)
    assert reduce_mod_p2(a, primes[1]) % 5 != 0
    assert reduce_mod_p2(b, primes[1]) % 5 == 0


@pytest.mark.parametrize("label, p, conj, c1_zero", [
    ("K_1", 29, 0, 2), ("K_8", 59, 0, 0), ("13", 29, 0, 0),
    ("29", 7, 0, 6),  # two hits, (0, 0, 0, +-1), on the line c1 = c2 = 0
    ("K_19", 37, 1, 2),  # hits in the plane c1 = 0 with c2 != 0
    ("K_8", 3, 0, 0), ("K_2", 5, 0, 0),  # p below the box width: c0 shifts
], ids=["K_1-29", "K_8-59", "13-29", "29-7", "K_19-37-1", "K_8-3", "K_2-5"])
def test_box_sweep_matches_exact_enumeration(entries, label, p, conj, c1_zero):
    """The unit-orbit walk finds the same hits, in the same order, as a
    plain exact enumeration of the whole box at bound 6; c1_zero of them
    lie on the plane c1 = 0."""
    spec = entries[label].spec
    prime = degree_one_primes_above(spec, p)[conj]
    r = [im % p for im in prime.basis_images]
    side = range(-6, 7)
    exact = [c for c in itertools.product(side, repeat=4)
             if sum(ci * ri for ci, ri in zip(c, r)) % p == 0
             and abs(norm(NFElement(spec, c))) == p]
    exact.sort(key=lambda c: (max(abs(v) for v in c), c))
    assert exact
    hits = _box_hits(prime, 6)
    assert hits == exact
    assert sum(c[1] == 0 for c in hits) == c1_zero
    assert set(hits) == {tuple(-v for v in c) for c in hits}


def test_tower_norm_identity(entries):
    """U^2 - d V^2 = e^2 D^4 N(c) for the forms of _forms, in exact integers
    on every registry field, for seeded coordinates far past int64 in the
    products."""
    rng = random.Random(9)
    for entry in entries.values():
        spec = entry.spec
        d, e, _, _, det, adj = spec.tower
        for _ in range(5):
            c = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(4))
            t = [sum(ci * adj[i][j] for i, ci in enumerate(c)) for j in range(4)]
            u, v = _forms(spec.tower, *t)
            assert u * u - d * v * v == e * e * det ** 4 * norm(NFElement(spec, c)), entry.label


def audit_primes():
    """(label, P1 or P2) of the 17 certificates of the audit benchmark, with
    the generators (or BoundExceeded) recorded for them."""
    data = Path(__file__).resolve().parent.parent / "benchmark" / "data"
    expected = json.loads((data / "expected.json").read_text())["audit"]
    assert len(expected) == 17
    for label, exp in expected.items():
        doc = json.loads((data / "certs" / f"{label}.json").read_text())
        spec = build_from_descriptor(doc["field"])
        for key, found in zip(("P1", "P2"), exp["prime_elements"]):
            prime = degree_one_primes_above(spec, int(doc[key]["p"]))[int(doc[key]["conjugate_index"])]
            yield label, prime, found


def test_prime_elements_match_expected():
    """find_prime_element at bound 50 gives, for P1 and P2 of the 17
    audited certificates, the generators (or BoundExceeded) recorded for
    the audit benchmark."""
    got, expected = [], []
    for label, prime, found in audit_primes():
        expected.append((label, found))
        try:
            got.append((label, [str(c) for c in find_prime_element(prime, 50).coords]))
        except BoundExceeded:
            got.append((label, "BoundExceeded"))
    assert len(got) == 34
    assert sum(found == "BoundExceeded" for _, found in got) == 2
    assert got == expected


# SHA-256 of find_prime_element(P, 50), as coordinate strings or
# "BoundExceeded", over every conjugate P of every registry reference prime
# p <= 200, in registry order; recorded from the exhaustive box sweep that
# the unit-orbit walk replaced.
PRIME_ELEMENT_DIGEST = "51e5dbac7075ce444bd81a39a9d1918dcb66b7747ea68667e75ecb01a3297e50"


def test_find_prime_element_matches_frozen_digest(entries):
    rows = []
    for entry in entries.values():
        for p in entry.expected_p1_p2:
            if p > 200:
                continue
            for prime in degree_one_primes_above(entry.spec, p):
                try:
                    found = [str(c) for c in find_prime_element(prime, 50).coords]
                except BoundExceeded:
                    found = "BoundExceeded"
                rows.append([entry.label, p, prime.conjugate_index, found])
    assert len(rows) == 312
    assert sum(row[3] == "BoundExceeded" for row in rows) == 41
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PRIME_ELEMENT_DIGEST


def test_least_generators_attain_the_bound():
    """On every audited prime P above p, each generator pi that lattice
    reduction finds has norm p and lies in P, and alpha = pi conj(pi),
    read off _forms as (U + V sqrt(d)) / (e D^2) = (A + B sqrt(d)) / h, is
    totally positive and one of +-alpha0, +-alpha0 eps0; the twisted form
    Q_alpha = A U - B d V takes the value h e D^2 p at pi.  The g torsion
    multiples of pi are found, and seeded vectors of P off that orbit lie
    strictly above h e D^2 p, as AM-GM says."""
    rng = random.Random(16)
    for label, prime, _ in audit_primes():
        spec, p = prime.field, prime.p
        d, e, _, _, det, adj = spec.tower
        data = _field_generators(spec)
        scale, h = e * det * det, data.h
        r = [im % p for im in prime.basis_images]
        s = sum(x * y for x, y in zip(spec.sqrt_map[d], r)) % p
        a0, b0 = _prime_below(d, s, p)
        e0, f0 = data.eps0
        a1, b1 = (a0 * e0 + d * b0 * f0) // h, (a0 * f0 + b0 * e0) // h
        found = _least_generators(prime, data)
        assert len(found) == unit_data(spec).g, label

        def forms(c):
            return _forms(spec.tower, *(sum(ci * adj[i][j] for i, ci in enumerate(c))
                                        for j in range(4)))

        u, v = forms(found[0])
        assert (h * u) % scale == 0 and (h * v) % scale == 0, label
        a, b = h * u // scale, h * v // scale
        assert (a, b) in {(a0, b0), (-a0, -b0), (a1, b1), (-a1, -b1)}, label
        assert a > 0 and a * a - d * b * b == p * h * h, label
        for c in found:
            assert forms(c) == (u, v), label
            assert a * u - b * d * v == h * scale * p, label
            assert norm(NFElement(spec, c)) == p and sum(x * y for x, y in zip(c, r)) % p == 0
        for _ in range(20):
            k = [rng.randint(-3, 3) for _ in range(4)]
            c = (p * k[0] - sum(x * y for x, y in zip(k[1:], r[1:])), *k[1:])
            if any(c) and c not in found:
                u, v = forms(c)
                assert a * u - b * d * v > h * scale * p, (label, c)


@pytest.mark.parametrize("shift", [-6, 6])
def test_orbit_walk_is_independent_of_its_start(monkeypatch, entries, shift):
    """Started from the generator that lattice reduction finds times
    eps^shift, the walk first crosses orbit points above the box's bound
    of U where U still falls, and finds the same hits as from the
    generator itself."""
    primes = [degree_one_primes_above(entries[label].spec, p)[0]
              for label, p in (("K_1", 29), ("13", 29), ("K_19", 37), ("5", 11))]
    expected = [_box_hits(prime, 4) for prime in primes]
    least = generators._least_generators

    def shifted(prime, data):
        found = least(prime, data)
        for _ in range(abs(shift)):
            found = generators._times(found, data.steps[shift < 0])
        return found

    monkeypatch.setattr(generators, "_least_generators", shifted)
    assert all(expected)
    assert [_box_hits(prime, 4) for prime in primes] == expected


def test_non_principal_prime_raises_bound_exceeded():
    """In Q(sqrt(-1), sqrt(10)) no element has norm 13: the prime of
    Q(sqrt(10)) below each prime above 13 is not principal, as
    x^2 - 10 y^2 = +-13 has no solution mod 5.  The continued fraction that
    looks for its generator stops at its first repeated state, so each of
    the four conjugates raises BoundExceeded at once."""
    spec = build_biquadratic(-1, 10)
    primes = degree_one_primes_above(spec, 13)
    assert len(primes) == 4
    for prime in primes:
        assert _least_generators(prime, _field_generators(spec)) == []
        with pytest.raises(BoundExceeded):
            find_prime_element(prime, MAX_COORD_BOUND)


def test_reference_pair_errata(entries):
    """The eight registry reference pairs without a certificate are not
    admissible for <eta, eps>.

    The orbit count of the unit image modulo P1^2 P2^2 over all 16
    conjugate combinations finds none onto the residue group.  The
    refutation holds for the field's full unit group only if <eta, eps> is
    all of it.  For K_29 = Q(sqrt(-19), sqrt(-67)) with (23, 47) the gcd
    condition alone already fails: 23 divides 47 - 1, so
    gcd(p1(p1-1)/g, p2(p2-1)) = 23 in either role assignment.  K_33
    (47, 167) has group order 6.0e7, but the oracle's cap bounds each
    factor (Z/p^2)* (at most 167 * 166 here), not their product.
    """
    assert gcd(23 * 22 // 2, 47 * 46) == 23
    assert gcd(47 * 46 // 2, 23 * 22) == 23

    refuted = {"K_7": (23, 31), "K_12": (11, 17), "K_26": (23, 5),
               "K_29": (23, 47), "K_31": (23, 17), "37": (7, 53), "13": (79, 29),
               "K_33": (47, 167)}
    for label, (p1, p2) in refuted.items():
        assert entries[label].expected_p1_p2 == (p1, p2)
        spec = entries[label].spec
        ud = unit_data(spec)
        combos = [(P1, P2) for P1 in degree_one_primes_above(spec, p1)
                  for P2 in degree_one_primes_above(spec, p2)]
        assert len(combos) == 16
        assert not any(brute_force_surjectivity(spec, ud, P1, P2, 2, 2) for P1, P2 in combos), label


def _closure(gens, m1, m2):
    """The subgroup of (Z/m1)* x (Z/m2)* that the residue pairs gens
    generate, as a set, by breadth-first closure from 1."""
    ident = (1 % m1, 1 % m2)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x1, x2 in frontier:
            for g1, g2 in gens:
                y = (x1 * g1 % m1, x2 * g2 % m2)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _set_closure_surjects(units, P1, P2, a1, a2):
    """The closure as a set of residue pairs: the reference the orbit count
    is compared against."""
    m1, m2 = P1.p ** a1, P2.p ** a2
    gens = [
        (reduce_mod_p2(u, P1) % m1, reduce_mod_p2(u, P2) % m2)
        for u in (units.eta, units.epsilon)
    ]

    def phi(p, a):
        return 1 if a == 0 else p ** (a - 1) * (p - 1)

    return len(_closure(gens, m1, m2)) == phi(P1.p, a1) * phi(P2.p, a2)


@pytest.mark.parametrize("label, p1, p2", [("13", 3, 29), ("K_2", 5, 17), ("16", 7, 17), ("K_8", 3, 59)])
def test_surjectivity_matches_set_closure(entries, label, p1, p2):
    """Every conjugate combination, every exponent pair in {0, 1, 2}^2, with
    the field's units, with eps replaced by 1 and with eta replaced by 1."""
    spec = entries[label].spec
    ud = unit_data(spec)
    variants = (ud, UnitData(ud.g, ud.eta, one(spec), Provenance.SUPPLIED),
                UnitData(ud.g, one(spec), ud.epsilon, Provenance.SUPPLIED))
    outcomes = set()
    for P1 in degree_one_primes_above(spec, p1):
        for P2 in degree_one_primes_above(spec, p2):
            for a1 in range(3):
                for a2 in range(3):
                    for units in variants:
                        expected = _set_closure_surjects(units, P1, P2, a1, a2)
                        assert brute_force_surjectivity(spec, units, P1, P2, a1, a2) == expected
                        outcomes.add(expected)
    assert outcomes == {True, False}


def test_surjectivity_same_prime_rejected(entries):
    spec = entries["K_8"].spec
    ud = unit_data(spec)
    P, Q = degree_one_primes_above(spec, 59)[:2]
    with pytest.raises(SamePrime):
        brute_force_surjectivity(spec, ud, P, Q, 2, 1)
    # with an exponent 0 the moduli stay coprime
    assert brute_force_surjectivity(spec, ud, P, Q, 0, 0)
    assert brute_force_surjectivity(spec, ud, P, Q, 2, 0) == _set_closure_surjects(ud, P, Q, 2, 0)


def test_surjectivity_memory_bound(entries):
    """The count over the 102,300 residues mod 31^2 11^2 holds only the two
    walks of eps mod 31 and mod 11, dicts of 3 and 10 entries; a set of
    residue pairs would take about 12 MB."""
    spec = entries["5"].spec
    cert = search_pair(spec, unit_data(spec), 50)
    assert cert.pair == (31, 11)
    tracemalloc.start()
    try:
        assert brute_force_surjectivity(spec, cert.units, cert.P1, cert.P2, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


FROZEN_CERTS = Path(__file__).resolve().parent.parent / "benchmark" / "data" / "certs"


def _frozen_certificate(label):
    doc = json.loads((FROZEN_CERTS / f"{label}.json").read_text())
    return parse_certificate(doc)[0], doc


def test_unit_walk_orders_match_stored_orders():
    """On all 40 frozen certificates, the oracle's walks of eps mod P1^2
    and P2^2 and of eta mod P1^2 give the stored orders, which
    check_conditions takes from the factored group order; each order
    returns x to 1, and the walk's log inverts x^k."""
    labels = sorted(path.stem for path in FROZEN_CERTS.glob("*.json"))
    assert len(labels) == 40
    for label in labels:
        cert, doc = _frozen_certificate(label)
        for key, unit, P in (("ord_eps_P1", cert.units.epsilon, cert.P1),
                             ("ord_eps_P2", cert.units.epsilon, cert.P2),
                             ("ord_eta_P1", cert.units.eta, cert.P1)):
            x, m = reduce_mod_p2(unit, P), P.p * P.p
            walk = UnitWalk(x, P.p, 2)
            assert walk.order == int(doc["orders"][key]), (label, key)
            assert pow(x, walk.order, m) == 1, (label, key)
            assert len(walk.steps) == walk.order // (P.p if walk.t else 1) <= P.p - 1
            for k in (0, 1, walk.order - 1, walk.order // 2 + 1):
                assert walk.log(pow(x, k, m)) == k % walk.order, (label, key, k)


@pytest.mark.parametrize("eta", [(1, 1), (3, 2), (3, 1)], ids=["eta_1", "eta_3_2", "eta_3_1"])
def test_subgroup_order_is_the_crt_on_exponents(eta):
    """The count r lcm(o1, o2) is the size of the closure of <eta, eps> in
    (Z/m1)* x (Z/m2)*, over every pair of units eps modulo 7^2 and 13 and
    modulo 5^2 and 13, with order gcds 1, 2, 3, 4 and 6.  With eta = 1
    there is one coset; with (3, 2) the count walks cosets on both sides,
    and with (3, 1) eta^j lies in <eps> only where the exponent of eps is a
    multiple of its order mod 13."""
    gcds = set()
    for p1 in (7, 5):
        m1, m2 = p1 * p1, 13
        for x1 in (x for x in range(1, m1) if gcd(x, m1) == 1):
            for x2 in range(1, m2):
                gcds.add(gcd(UnitWalk(x1, p1, 2).order, UnitWalk(x2, 13, 1).order))
                want = len(_closure([eta, (x1, x2)], m1, m2))
                got = surjectivity._subgroup_order(eta, (x1, x2), p1, 2, 13, 1)
                assert got == want, (m1, x1, x2)
    assert gcds == {1, 2, 3, 4, 6}


def test_subgroup_order_matches_closure_on_random_units():
    """Seeded random residue pairs eta and eps modulo p1^a1 and p2^a2, for
    distinct primes below 30 and every exponent pair in {0, 1, 2}^2: the
    count is the size of the closure."""
    rng = random.Random(1)
    primes = [p for p in range(2, 30) if is_prime(p)]

    def unit(m):
        return rng.choice([x for x in range(m) if gcd(x, m) == 1])

    for a1, a2 in itertools.product(range(3), repeat=2):
        for _ in range(50):
            p1, p2 = rng.sample(primes, 2)
            m1, m2 = p1 ** a1, p2 ** a2
            eta, eps = (unit(m1), unit(m2)), (unit(m1), unit(m2))
            want = len(_closure([eta, eps], m1, m2))
            assert surjectivity._subgroup_order(eta, eps, p1, a1, p2, a2) == want, (m1, m2, eta, eps)


def test_unit_walk_rejects_non_unit():
    walk = UnitWalk(5, 7, 0)
    assert (walk.order, walk.log(0)) == (1, 0)
    with pytest.raises(ValueError, match="invertible"):
        UnitWalk(6, 3, 2)


def test_surjectivity_memory_at_largest_audit_group():
    """K_5 (29, 37) has the largest group the audit workload checks,
    1,081,584 residues.  The count holds the walks of eps mod 29 and mod
    37, dicts of 7 and 36 entries, so it peaks far below the 1.2 MB that one
    byte per residue mod 29^2 37^2 would take."""
    cert, _ = _frozen_certificate("K_5")
    assert cert.pair == (29, 37)
    tracemalloc.start()
    try:
        assert brute_force_surjectivity(cert.spec, cert.units, cert.P1, cert.P2, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
