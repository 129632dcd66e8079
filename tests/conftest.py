import random

import pytest

from euclid4.cli import reproduce_row
from euclid4.fields import build_biquadratic, registry


@pytest.fixture(scope="session")
def entries():
    return {e.label: e for e in registry()}


@pytest.fixture(scope="session")
def construction_specs(entries):
    """The 40 registry fields, then the 234 biquadratic pairs with
    |m|, |n| <= 20: the fields of test_construction_matches_frozen_digest."""
    from euclid4.intmath import is_squarefree

    radicands = [r for r in range(-20, 21) if r not in (0, 1) and is_squarefree(r)]
    pairs = [(m, n) for m in radicands for n in radicands if m < n and min(m, n) < 0]
    return [e.spec for e in entries.values()] + [build_biquadratic(m, n) for m, n in pairs]


@pytest.fixture(scope="session")
def gaussian_sqrt11():
    """The worked-example field Q(sqrt(-1), sqrt(11)) (not a registry row)."""
    return build_biquadratic(-1, 11)


@pytest.fixture(scope="session")
def reproduction(entries):
    """One full reproduction run over all forty rows: label -> (report, cert)."""
    return {label: reproduce_row(entry, bound=1000) for label, entry in entries.items()}


def run_splitting_agreement(entries_map):
    """Oracle degree multisets vs production degree-one prime counts.

    Exhaustive over odd p <= 200 for every field, plus 500 seeded random
    cases with 200 < p < 1000.  Primes dividing the generator index are
    excluded: there the defining polynomial's factorization is not the
    splitting shape, so the multiset comparison would be vacuous.
    """
    from euclid4.intmath import is_prime
    from euclid4.oracles import oracle_splitting
    from euclid4.residues import degree_one_primes_above, splits_completely

    mismatches = []
    cases = 0

    def compare(spec, p, label):
        nonlocal cases
        cases += 1
        multiset = oracle_splitting(spec, p)
        ones = multiset.count(1)
        produced = len(degree_one_primes_above(spec, p))
        if ones != produced or (produced == 4) != splits_completely(spec, p):
            mismatches.append((label, p, multiset, produced))

    def usable(spec, p):
        return spec.discriminant % p != 0 and spec.index % p != 0

    small = [p for p in range(3, 201, 2) if is_prime(p)]
    for label, entry in entries_map.items():
        for p in small:
            if usable(entry.spec, p):
                compare(entry.spec, p, label)

    rng = random.Random(424242)
    big = [p for p in range(201, 1000, 2) if is_prime(p)]
    labels = sorted(entries_map)
    done = 0
    while done < 500:
        label = rng.choice(labels)
        p = rng.choice(big)
        if not usable(entries_map[label].spec, p):
            continue
        compare(entries_map[label].spec, p, label)
        done += 1
    return {"cases": cases, "mismatches": mismatches}


def run_order_agreement():
    """oracle_order vs mult_order: all odd p <= 200 with sampled units, plus
    500 seeded random cases with 200 < p < 500."""
    from euclid4.intmath import is_prime, mult_order
    from euclid4.oracles import oracle_order

    mismatches = []
    cases = 0
    rng = random.Random(99)

    def compare(u, p):
        nonlocal cases
        cases += 1
        m = p * p
        got = oracle_order(u, m)
        want = mult_order(u, m, p * (p - 1))
        if got != want:
            mismatches.append((u, p, got, want))

    for p in (q for q in range(3, 201, 2) if is_prime(q)):
        m = p * p
        samples = {2 % m, m - 1, p + 1}
        while len(samples) < min(8, p):
            u = rng.randrange(2, m)
            if u % p:
                samples.add(u)
        for u in sorted(samples):
            compare(u, p)

    big = [p for p in range(201, 500, 2) if is_prime(p)]
    done = 0
    while done < 500:
        p = rng.choice(big)
        u = rng.randrange(2, p * p)
        if u % p == 0:
            continue
        compare(u, p)
        done += 1
    return {"cases": cases, "mismatches": mismatches}


def run_unit_minimality_agreement():
    """oracle_unit_minimality vs the continued fraction unit.

    Exhaustive for squarefree d <= 50; for 50 < d <= 200 every d whose sweep
    stays under a million steps is compared (a handful of Pell monsters are
    skipped and counted).
    """
    from euclid4.intmath import continued_fraction_fundamental_unit, is_squarefree
    from euclid4.oracles import oracle_unit_minimality

    mismatches = []
    skipped = []
    cases = 0
    for d in range(2, 201):
        if not is_squarefree(d):
            continue
        try:
            got = oracle_unit_minimality(d, max_y=10 ** 6)
        except ValueError:
            if d <= 50:
                raise
            skipped.append(d)
            continue
        cases += 1
        x, y, _ = continued_fraction_fundamental_unit(d)
        if got != (x, y):
            mismatches.append((d, got, (x, y)))
    return {"cases": cases, "mismatches": mismatches, "skipped": skipped}


@pytest.fixture(scope="session")
def oracle_agreement(entries):
    return {
        "splitting": run_splitting_agreement(entries),
        "order": run_order_agreement(),
        "minimality": run_unit_minimality_agreement(),
    }
