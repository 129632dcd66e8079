"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line.  Two
criteria are expected to fail on genuinely unattainable targets: several
registry reference pairs are provably not admissible (exact enumeration),
and several reference primes have no generator within the coordinate bound
(the unit orbit of one generator); see the assertion messages for the
precise counts.
"""

import random
import time
from fractions import Fraction
from math import gcd

from euclid4.admissible import brute_force_surjectivity, construct_witness, find_prime_element
from euclid4.elements import from_power_coords, norm, one
from euclid4.errors import BoundExceeded
from euclid4.fields import quadratic_discriminant
from euclid4.intmath import squarefree_part
from euclid4.residues import degree_one_primes_above, reduce_mod_p2
from euclid4.units import Provenance, UnitData, torsion, unit_data

BIQUADRATIC = [f"K_{j}" for j in range(1, 34)]
CYCLIC = ["5", "13", "16", "29", "37", "53", "61"]


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_worked_example(gaussian_sqrt11):
    """Explicit-unit residues for Q(sqrt(-1), sqrt(11)) at (157, 5)."""
    t0 = time.monotonic()
    k = gaussian_sqrt11
    eps = from_power_coords(
        k, [Fraction(-1), Fraction(-1, 6), Fraction(1, 4), Fraction(-1, 24)]
    )

    ok_157 = False
    for prime in degree_one_primes_above(k, 157):
        r = reduce_mod_p2(eps, prime)
        p2 = 157 * 157
        if (
            pow(r, 157, p2) == 14591
            and pow(r, 39, p2) == 11776
            and pow(r, 6123, p2) == 1
        ):
            ok_157 = True
    ok_5 = any(
        pow(reduce_mod_p2(eps, prime), 10, 25) == 25 - 1
        for prime in degree_one_primes_above(k, 5)
    )
    elapsed = time.monotonic() - t0
    ok = ok_157 and ok_5 and elapsed < 1.0
    line = _report(1, ok, f"explicit-unit residues 14591/11776/1 and -1 ({elapsed:.2f}s)")
    assert ok, line


def test_criterion_2_biquadratic_rows(entries):
    """33/33 valid certificates; at least 30 rows on the reference pair."""
    from euclid4.cli import reproduce_row

    t0 = time.monotonic()
    rows = {label: reproduce_row(entries[label], bound=1000) for label in BIQUADRATIC}
    elapsed = time.monotonic() - t0
    valid = sum(1 for report, cert in rows.values() if cert is not None)
    reproduced = sum(1 for report, _ in rows.values() if report.status == "Reproduced")
    alternatives = sorted(
        label for label, (report, _) in rows.items() if report.status != "Reproduced"
    )
    ok = valid == 33 and reproduced >= 30 and elapsed < 60
    line = _report(
        2,
        ok,
        f"{valid}/33 valid, {reproduced}/33 on the reference pair "
        f"(target >= 30; non-reproducing rows {alternatives} carry reference "
        f"pairs that exact arithmetic shows are not admissible for any unit; "
        f"each obtained a searched certificate instead) ({elapsed:.1f}s)",
    )
    assert ok, line


def test_criterion_3_cyclic_rows(entries):
    """7/7 valid certificates for the cyclic conductors."""
    from euclid4.cli import reproduce_row

    t0 = time.monotonic()
    rows = {label: reproduce_row(entries[label], bound=1000) for label in CYCLIC}
    elapsed = time.monotonic() - t0
    valid = sum(1 for report, cert in rows.values() if cert is not None)
    reproduced = sum(1 for report, _ in rows.values() if report.status == "Reproduced")
    ok = valid == 7 and elapsed < 20
    line = _report(
        3, ok, f"{valid}/7 valid certificates, {reproduced}/7 on the reference pair ({elapsed:.1f}s)"
    )
    assert ok, line


def test_criterion_4_surjectivity_oracle(reproduction):
    """Definition-level enumeration confirms the produced certificates."""
    labels = ["K_8", "K_26", "K_4", "K_10", "16"]
    t0 = time.monotonic()
    ok = True
    details = []
    for label in labels:
        report, cert = reproduction[label]
        t_field = time.monotonic()
        good = brute_force_surjectivity(cert.spec, cert.units, cert.P1, cert.P2, 2, 2)
        broken = UnitData(
            cert.units.g, cert.units.eta, one(cert.spec), Provenance.SUPPLIED
        )
        bad = brute_force_surjectivity(cert.spec, broken, cert.P1, cert.P2, 2, 2)
        per_field = time.monotonic() - t_field
        ok = ok and good and not bad and per_field < 30
        details.append(f"{label}{cert.pair}")
    assert reproduction["K_8"][1].pair == (3, 59)
    elapsed = time.monotonic() - t0
    line = _report(
        4,
        ok,
        f"onto for {', '.join(details)}; never onto with the unit replaced by 1 "
        f"({elapsed:.1f}s; K_26's reference pair (23,5) is itself not "
        f"admissible, so its searched pair is certified)",
    )
    assert ok, line


def test_criterion_5_torsion_pattern(entries):
    mismatched = [
        entry.label
        for entry in entries.values()
        if torsion(entry.spec)[0] != entry.expected_g
    ]
    ok = not mismatched
    line = _report(5, ok, f"torsion orders match on all 40 fields {mismatched or ''}")
    assert ok, line


def test_criterion_6_discriminants(entries):
    bad = []
    for entry in entries.values():
        spec = entry.spec
        if spec.kind == "biquadratic":
            r3, _ = squarefree_part(spec.m * spec.n)
            want = (
                quadratic_discriminant(spec.m)
                * quadratic_discriminant(spec.n)
                * quadratic_discriminant(r3)
            )
        else:
            want = spec.conductor ** 2 * quadratic_discriminant(spec.real_subfield_d)
        if spec.discriminant != want:
            bad.append(entry.label)
    ok = not bad
    line = _report(6, ok, f"discriminant cross-checks exact on all 40 fields {bad or ''}")
    assert ok, line


def test_criterion_7_witnesses(reproduction):
    rng = random.Random(2718)
    total = 0
    for label in ("K_8", "K_26", "16"):
        _, cert = reproduction[label]
        p1, p2 = cert.pair
        q1, q2 = p1 * p1, p2 * p2
        for _ in range(100):
            x = rng.randrange(1, q1)
            while gcd(x, p1) != 1:
                x = rng.randrange(1, q1)
            y = rng.randrange(1, q2)
            while gcd(y, p2) != 1:
                y = rng.randrange(1, q2)
            w = construct_witness(cert, x, y)
            assert reduce_mod_p2(w.z, cert.P1) == x
            assert reduce_mod_p2(w.z, cert.P2) == y
            total += 1
    ok = total == 300
    line = _report(7, ok, f"{total}/300 witnesses verified through the reduction map")
    assert ok, line


def test_criterion_8_prime_elements(entries):
    """A norm +-p generator with coordinates bounded by 50 for every
    reference prime p <= 200."""
    t0 = time.monotonic()
    found, exhausted = [], []
    for entry in entries.values():
        for p in entry.expected_p1_p2:
            if p > 200:
                continue
            prime = degree_one_primes_above(entry.spec, p)[0]
            try:
                el = find_prime_element(prime, 50)
                assert abs(norm(el)) == p
                assert reduce_mod_p2(el, prime) % p == 0
                found.append((entry.label, p))
            except BoundExceeded:
                exhausted.append((entry.label, p))
    elapsed = time.monotonic() - t0
    ok = not exhausted
    line = _report(
        8,
        ok,
        f"{len(found)}/{len(found) + len(exhausted)} reference primes yield a "
        f"bounded generator; the unit orbit of a generator found by lattice "
        f"reduction has none within coordinate bound 50 for {exhausted} "
        f"(large fundamental units; assumes <eta, eps> is the unit group) "
        f"({elapsed:.1f}s)",
    )
    assert ok, line


def test_criterion_9_oracle_equivalence(oracle_agreement):
    s = oracle_agreement["splitting"]
    o = oracle_agreement["order"]
    m = oracle_agreement["minimality"]
    ok = (
        not s["mismatches"]
        and not o["mismatches"]
        and not m["mismatches"]
        and s["cases"] >= 500
        and o["cases"] >= 500
        and m["cases"] >= 100
    )
    line = _report(
        9,
        ok,
        f"splitting {s['cases']} cases, order {o['cases']} cases, unit "
        f"minimality {m['cases']} cases (skipped sweeps: {m['skipped']}), "
        f"100% agreement",
    )
    assert ok, line
