import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from euclid4 import admissible
from euclid4.admissible import (
    MAX_CERT_PRIME,
    AdmissibleCertificate,
    Conclusion,
    _box_hits,
    _dlog,
    _tower_constants,
    _tower_norm,
    brute_force_surjectivity,
    check_conditions,
    conclude_euclidean,
    construct_witness,
    find_prime_element,
    search_pair,
)
from euclid4.certs import certificate_to_dict
from euclid4.elements import NFElement, from_power_coords, norm, one
from euclid4.errors import (
    BoundExceeded,
    CapExceeded,
    ConditionFailed,
    MissingAssumption,
    SamePrime,
    SearchExhausted,
)
from euclid4.residues import degree_one_primes_above, reduce_mod_p2
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
    assert cert.conclusion == Conclusion.ADMISSIBLE_PAIR
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


def test_search_bound_above_certificate_cap(entries):
    # verification rejects a prime above MAX_CERT_PRIME, so search must not
    # produce one
    spec = entries["K_1"].spec
    with pytest.raises(CapExceeded):
        search_pair(spec, unit_data(spec), MAX_CERT_PRIME + 1)


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
    # 59^2 859^2 is above 2^31, where int64 products of residues overflow
    primes859 = degree_one_primes_above(spec, 859)
    with pytest.raises(CapExceeded, match=r"2\^31"):
        brute_force_surjectivity(spec, ud, primes59[0], primes859[0], 2, 2, cap=10 ** 10)
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


def test_dlog_is_least_exponent():
    """Baby-step giant-step returns the least exponent, as a plain loop over
    the powers does, for every unit target mod p^2; targets outside the
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
                    assert _dlog(base, target, m, order) == want, (p, base, target)
    assert outside


def test_conclude_euclidean(reproduction):
    _, cert = reproduction["K_8"]
    final = conclude_euclidean(cert, class_number_one=True)
    assert final.conclusion == Conclusion.EUCLIDEAN
    assert final.unit_rank == 1 and final.prime_count == 2
    with pytest.raises(MissingAssumption):
        conclude_euclidean(cert, class_number_one=False)
    with pytest.raises(ValueError):
        conclude_euclidean(final, class_number_one=True)
    # a degenerate single-prime "pair" is refused
    from dataclasses import replace

    with pytest.raises(SamePrime):
        conclude_euclidean(replace(cert, P2=cert.P1), class_number_one=True)


@pytest.mark.filterwarnings("error")
def test_find_prime_element_examples(gaussian_sqrt11):
    """Known generators; the mod 2^64 sweep raises no numpy overflow warning."""
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


def test_find_prime_element_other_conjugate(gaussian_sqrt11):
    k = gaussian_sqrt11
    primes = degree_one_primes_above(k, 5)
    a = find_prime_element(primes[0], 50)
    b = find_prime_element(primes[1], 50)
    assert reduce_mod_p2(a, primes[1]) % 5 != 0
    assert reduce_mod_p2(b, primes[1]) % 5 == 0


@pytest.mark.parametrize("label, p", [("K_1", 29), ("K_8", 59), ("13", 29)])
def test_box_sweep_matches_exact_enumeration(entries, label, p):
    """The mod 2^64 sweep finds the same hits, in the same order, as a plain
    exact enumeration of the whole box at bound 6."""
    spec = entries[label].spec
    prime = degree_one_primes_above(spec, p)[0]
    r = [im % p for im in prime.basis_images]
    side = range(-6, 7)
    exact = [c for c in itertools.product(side, repeat=4)
             if sum(ci * ri for ci, ri in zip(c, r)) % p == 0
             and abs(norm(NFElement(spec, c))) == p]
    exact.sort(key=lambda c: (max(abs(v) for v in c), c))
    assert exact
    assert _box_hits(prime, 6) == exact


def test_tower_norm_identity(entries):
    """U^2 - d V^2 = e^2 D^4 N(c) in exact integers on every registry field,
    for seeded coordinates far past int64 in the products."""
    rng = random.Random(9)
    for entry in entries.values():
        spec = entry.spec
        consts, scale, adj = _tower_constants(spec)
        for _ in range(5):
            c = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(4))
            t = [sum(ci * adj[i][j] for i, ci in enumerate(c)) for j in range(4)]
            assert _tower_norm(consts, *t) == scale * norm(NFElement(spec, c)), entry.label


def test_reference_pair_errata(entries):
    """Seven registry reference pairs are not admissible for <eta, eps>.

    Enumeration of the unit image modulo P1^2 P2^2 over all 16 conjugate
    combinations finds none onto the residue group.  The refutation holds
    for the field's full unit group only if <eta, eps> is all of it.  For
    K_29 = Q(sqrt(-19), sqrt(-67)) with (23, 47) the gcd condition alone
    already fails: 23 divides 47 - 1, so gcd(p1(p1-1)/g, p2(p2-1)) = 23 in
    either role assignment.  13 (79, 29), of group order 5.0e6, is below
    the oracle cap; K_33 (47, 167), of group order 6.0e7, is above it.
    """
    assert gcd(23 * 22 // 2, 47 * 46) == 23
    assert gcd(47 * 46 // 2, 23 * 22) == 23

    refuted = {"K_7": (23, 31), "K_12": (11, 17), "K_26": (23, 5),
               "K_29": (23, 47), "K_31": (23, 17), "37": (7, 53), "13": (79, 29)}
    for label, (p1, p2) in refuted.items():
        assert entries[label].expected_p1_p2 == (p1, p2)
        spec = entries[label].spec
        ud = unit_data(spec)
        combos = [(P1, P2) for P1 in degree_one_primes_above(spec, p1)
                  for P2 in degree_one_primes_above(spec, p2)]
        assert len(combos) == 16
        assert not any(brute_force_surjectivity(spec, ud, P1, P2, 2, 2) for P1, P2 in combos), label


def _set_closure_surjects(units, P1, P2, a1, a2):
    """The closure as a set of residue pairs: the reference the bytearray
    walk over CRT residues is compared against."""
    m1, m2 = P1.p ** a1, P2.p ** a2
    gens = [
        (reduce_mod_p2(u, P1) % m1, reduce_mod_p2(u, P2) % m2)
        for u in (units.eta, units.epsilon)
    ]
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

    def phi(p, a):
        return 1 if a == 0 else p ** (a - 1) * (p - 1)

    return len(seen) == phi(P1.p, a1) * phi(P2.p, a2)


@pytest.mark.parametrize("label, p1, p2", [("13", 3, 29), ("K_2", 5, 17), ("16", 7, 17), ("K_8", 3, 59)])
def test_surjectivity_matches_set_closure(entries, monkeypatch, label, p1, p2):
    """Every conjugate combination, every exponent pair in {0, 1, 2}^2, with
    the field's units, with eps replaced by 1 and with eta replaced by 1, at
    coset-walk block lengths 7, 64 and the default.  With 7, orders of eps
    divisible by 7 (fields 13 and 16) end the walk exactly on a block
    boundary."""
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
                        for block in (7, 64, admissible._BLOCK):
                            with monkeypatch.context() as m:
                                m.setattr(admissible, "_BLOCK", block)
                                got = brute_force_surjectivity(spec, units, P1, P2, a1, a2)
                            assert got == expected, block
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
    """The closure over the 102,300 residues mod 31^2 11^2 stays within one
    byte per residue plus its frontier; a set of residue pairs would take
    about 12 MB."""
    spec = entries["5"].spec
    cert = search_pair(spec, unit_data(spec), 50)
    assert cert.pair == (31, 11)
    tracemalloc.start()
    try:
        assert brute_force_surjectivity(spec, cert.units, cert.P1, cert.P2, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6
