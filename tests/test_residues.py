import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid4 import intmath, residues
from euclid4.elements import NFElement, from_power_coords, one
from euclid4.errors import CapExceeded, NotCoprime, Ramified
from euclid4.fields import build_biquadratic, build_cyclic_quartic, registry
from euclid4.intmath import (
    is_prime,
    is_squarefree,
    mult_order,
    poly_roots_mod_p,
    sqrt_mod_prime_power,
)
from euclid4.residues import (
    MAX_CERT_PRIME,
    degree_one_primes_above,
    has_order_mod_p2,
    reduce_mod_p2,
    split_primes,
    splits_completely,
    unit_order_mod_p2,
)
from euclid4.units import infinite_order_unit, torsion


def paper_unit(k):
    """The explicit infinite-order unit of Q(sqrt(-1), sqrt(11))."""
    return from_power_coords(
        k, [Fraction(-1), Fraction(-1, 6), Fraction(1, 4), Fraction(-1, 24)]
    )


def test_splitting_counts(gaussian_sqrt11):
    assert len(degree_one_primes_above(gaussian_sqrt11, 157)) == 4
    assert degree_one_primes_above(gaussian_sqrt11, 7) == []
    k5 = build_cyclic_quartic(5)
    assert len(degree_one_primes_above(k5, 11)) == 4
    assert splits_completely(gaussian_sqrt11, 157)
    assert not splits_completely(gaussian_sqrt11, 7)


def test_ramified_rejected(gaussian_sqrt11):
    with pytest.raises(Ramified):
        degree_one_primes_above(gaussian_sqrt11, 11)
    with pytest.raises(ValueError):
        degree_one_primes_above(gaussian_sqrt11, 2)


def test_prime_invariants(gaussian_sqrt11):
    for prime in degree_one_primes_above(gaussian_sqrt11, 157):
        p = prime.p
        f = gaussian_sqrt11.theta_minpoly
        assert 0 <= prime.lifted_c < p * p
        assert f.eval_mod(prime.lifted_c % p, p) == 0
        assert f.eval_mod(prime.lifted_c, p * p) == 0
        assert prime.basis_images[0] == 1


def test_reduce_is_ring_map(gaussian_sqrt11):
    prime = degree_one_primes_above(gaussian_sqrt11, 157)[2]
    p2 = 157 * 157
    rng = random.Random(3)
    assert reduce_mod_p2(one(gaussian_sqrt11), prime) == 1
    for _ in range(500):
        x = NFElement(gaussian_sqrt11, tuple(rng.randrange(-99, 100) for _ in range(4)))
        y = NFElement(gaussian_sqrt11, tuple(rng.randrange(-99, 100) for _ in range(4)))
        rx, ry = reduce_mod_p2(x, prime), reduce_mod_p2(y, prime)
        assert reduce_mod_p2(x * y, prime) == rx * ry % p2
        assert reduce_mod_p2(x + y, prime) == (rx + ry) % p2


@given(st.tuples(*[st.integers(min_value=-500, max_value=500)] * 4),
       st.tuples(*[st.integers(min_value=-500, max_value=500)] * 4))
@settings(max_examples=120, deadline=None)
def test_reduce_homomorphism_hypothesis(a, b):
    k = build_cyclic_quartic(13)
    prime = degree_one_primes_above(k, 29)[0]
    x, y = NFElement(k, a), NFElement(k, b)
    p2 = 29 * 29
    assert (
        reduce_mod_p2(x * y, prime)
        == reduce_mod_p2(x, prime) * reduce_mod_p2(y, prime) % p2
    )


def test_worked_example_residues(gaussian_sqrt11):
    """The explicit unit's powers modulo a squared prime above 157 and 5."""
    k = gaussian_sqrt11
    eps = paper_unit(k)
    p2 = 157 * 157
    matches = []
    for prime in degree_one_primes_above(k, 157):
        r = reduce_mod_p2(eps, prime)
        if pow(r, 157, p2) == 14591:
            matches.append(prime)
            assert pow(r, 39, p2) == 11776
            assert pow(r, 6123, p2) == 1
            assert unit_order_mod_p2(eps, prime) == 6123
    assert len(matches) == 1
    assert matches[0].conjugate_index == 0 and matches[0].lifted_c % 157 == 19

    hits = 0
    for prime in degree_one_primes_above(k, 5):
        r = reduce_mod_p2(eps, prime)
        if pow(r, 10, 25) == 24:  # -1 mod 25
            hits += 1
            assert unit_order_mod_p2(eps, prime) == 20
    assert hits >= 1


def test_eta_order_four(gaussian_sqrt11):
    _, eta = torsion(gaussian_sqrt11)
    for prime in degree_one_primes_above(gaussian_sqrt11, 157):
        assert unit_order_mod_p2(eta, prime) == 4


def test_order_basics(gaussian_sqrt11):
    prime = degree_one_primes_above(gaussian_sqrt11, 157)[0]
    assert unit_order_mod_p2(one(gaussian_sqrt11), prime) == 1
    with pytest.raises(NotCoprime):
        unit_order_mod_p2(157 * one(gaussian_sqrt11), prime)


def test_fermat_euler(gaussian_sqrt11):
    rng = random.Random(9)
    prime = degree_one_primes_above(gaussian_sqrt11, 5)[0]
    p2 = 5 * 5
    for _ in range(60):
        x = NFElement(gaussian_sqrt11, tuple(rng.randrange(-50, 51) for _ in range(4)))
        r = reduce_mod_p2(x, prime)
        if r % 5:
            assert pow(r, 5 * 4, p2) == 1


def test_minus_one_order_two_everywhere(entries):
    spec = entries["K_8"].spec
    minus = -one(spec)
    for prime in degree_one_primes_above(spec, 59):
        assert unit_order_mod_p2(minus, prime) == 2


def test_index_divisor_prime_via_tower(entries):
    """3 splits completely in K_8 but divides every generator index, so no
    root of a defining polynomial separates the four primes; the tower maps
    must still give four distinct ring maps."""
    spec = entries["K_8"].spec
    assert spec.index % 3 == 0
    primes = degree_one_primes_above(spec, 3)
    assert len(primes) == 4
    assert len({prime.basis_images for prime in primes}) == 4
    rng = random.Random(12)
    for prime in primes:
        assert prime.basis_images[0] == 1
        for _ in range(120):
            x = NFElement(spec, tuple(rng.randrange(-20, 21) for _ in range(4)))
            y = NFElement(spec, tuple(rng.randrange(-20, 21) for _ in range(4)))
            assert (
                reduce_mod_p2(x * y, prime)
                == reduce_mod_p2(x, prime) * reduce_mod_p2(y, prime) % 9
            )
    eps = infinite_order_unit(spec)
    assert sorted(unit_order_mod_p2(eps, prime) for prime in primes) == [6, 6, 6, 6]


def tower_model_primes(spec, p):
    """The definition of the four maps: adj(S) (1, s, t, st) / D mod p^2 for
    both signs of s and t, with theta's image the dot product with its
    coordinates, numbered by (theta image mod p, basis images)."""
    d, e, be, ce, det, adj = spec.tower
    p2 = p * p
    s0 = sqrt_mod_prime_power(d, p, 2)
    out = []
    for s in (s0, p2 - s0):
        t0 = sqrt_mod_prime_power((be + ce * s) * pow(e, -1, p2), p, 2)
        for t in (t0, p2 - t0):
            vec = (1, s, t, s * t)
            images = tuple(sum(r * v for r, v in zip(row, vec)) * pow(det, -1, p2) % p2
                           for row in adj)
            out.append((sum(c * i for c, i in zip(spec.theta_coords, images)) % p2, images))
    return sorted(out, key=lambda m: (m[0] % p, m[1]))


def test_factored_evaluator_matches_the_tower_definition(construction_specs):
    """For every split prime up to 2,000 in each of the 274 fields of
    test_construction_matches_frozen_digest, the evaluator's a + t b form
    gives the maps of the definition, in the same order.  88 of the 19,168
    primes divide the index of Z[theta] in the ring, as 3 does in K_8
    (test_index_divisor_prime_via_tower)."""
    cases = index_divisors = 0
    for spec in construction_specs:
        for p in split_primes(spec, 2000):
            primes = degree_one_primes_above(spec, p)
            assert [pr.conjugate_index for pr in primes] == [0, 1, 2, 3]
            got = [(pr.lifted_c, pr.basis_images) for pr in primes]
            assert got == tower_model_primes(spec, p), (spec.name(), p)
            cases += 1
            index_divisors += spec.index % p == 0
    assert (cases, index_divisors) == (19168, 88)


def test_root_pair_gives_the_same_primes(construction_specs, monkeypatch):
    """Started from the images (s, t) of x and y under any of the four maps,
    degree_one_primes_above returns the list it finds by itself, over the
    split primes up to 1,000 of the 274 fields; for a biquadratic field it
    then takes no square root, for a cyclic one a single one."""
    calls = []
    real = residues.sqrt_mod_prime_power
    monkeypatch.setattr(residues, "sqrt_mod_prime_power",
                        lambda *args: calls.append(args) or real(*args))
    cases = 0
    for spec in construction_specs:
        _, x, y, _ = spec.tower_rows
        for p in split_primes(spec, 1000):
            primes = degree_one_primes_above(spec, p)
            for prime in primes:
                images = prime.basis_images
                root = (sum(map(mul, x, images)), sum(map(mul, y, images)))
                calls.clear()
                assert degree_one_primes_above(spec, p, root) == primes, (spec.name(), p)
                assert len(calls) == (spec.kind == "cyclic")
                cases += 1
    assert cases == 4 * 10306


def test_non_root_pair_is_refused(gaussian_sqrt11):
    primes = degree_one_primes_above(gaussian_sqrt11, 157)
    _, x, y, _ = gaussian_sqrt11.tower_rows
    s, t = (sum(map(mul, row, primes[0].basis_images)) for row in (x, y))
    assert degree_one_primes_above(gaussian_sqrt11, 157, (s + 157 ** 2, t)) == primes
    for root in ((s + 1, t), (s, t + 1), (s + 157, t), (0, 0)):
        with pytest.raises(ValueError):
            degree_one_primes_above(gaussian_sqrt11, 157, root)


def hensel_lift(f, c, p):
    """The root mod p^2 of f above a simple root c mod p (one Newton step)."""
    c %= p
    if f.eval_mod(c, p) != 0:
        raise ValueError("c is not a root of f mod p")
    d = sum(i * a * c ** (i - 1) for i, a in enumerate(f.coeffs) if i) % p
    if d == 0:
        raise ValueError(f"f'({c}) = 0 mod {p}")
    p2 = p * p
    return (c - f.eval_mod(c, p2) * pow(d, -1, p2)) % p2


def root_model_primes(spec, p):
    """Reference maps for p coprime to the index: Hensel-lift each root of
    theta's minimal polynomial mod p and evaluate the basis at it mod p^2."""
    f, p2 = spec.theta_minpoly, p * p
    d, mat = spec.integral_basis
    out = []
    for root in poly_roots_mod_p(f, p):
        c = hensel_lift(f, root, p)
        images = tuple(
            sum(x * pow(d, -1, p2) * c ** i for i, x in enumerate(row)) % p2 for row in mat
        )
        out.append((root, c, images))
    return out


def test_models_agree_when_both_apply(gaussian_sqrt11, entries):
    """Away from the index, the tower maps are the root-model maps, in the
    same order."""
    cases = [(gaussian_sqrt11, 157), (build_cyclic_quartic(13), 29)]
    cases += [
        (entry.spec, p) for entry in entries.values() for p in entry.expected_p1_p2
        if entry.spec.index % p
    ]
    for spec, p in cases:
        got = [(pr.lifted_c % p, pr.lifted_c, pr.basis_images) for pr in degree_one_primes_above(spec, p)]
        assert got == root_model_primes(spec, p), (spec, p)


@pytest.mark.parametrize("label, p", [("K_8", 3), ("13", 3), ("29", 7), ("61", 13)])
def test_index_prime_maps_are_ring_maps_mod_p5(entries, label, p):
    """At primes dividing the index, each map O -> Z/p^2 sends 1 to 1 and
    respects every product of basis elements, so it is a ring map."""
    spec = entries[label].spec
    assert spec.index % p == 0
    primes = degree_one_primes_above(spec, p)
    assert len(primes) == 4 and len({P.basis_images for P in primes}) == 4
    pk = p * p
    for im in (P.basis_images for P in primes):
        assert im[0] == 1
        for i in range(4):
            for j in range(4):
                prod = spec.mult_table[i][j]
                assert sum(c * x for c, x in zip(prod, im)) % pk == im[i] * im[j] % pk


def odd_part(n):
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    return n


def test_tower_determinant():
    """D = det S is -16 for the prime conductors (-48 for 37 and 61, where 3
    does not split), -1 for conductor 16, and for Q(sqrt(m), sqrt(n)) its odd
    part is that of gcd(d, r) for the radicands d of x and r of y."""
    for f in (e.spec.conductor for e in registry() if e.spec.kind == "cyclic"):
        spec = build_cyclic_quartic(f)
        assert spec.tower[4] == {16: -1, 37: -48, 61: -48}.get(f, -16), f
    radicands = [r for r in range(-20, 21) if r not in (0, 1) and is_squarefree(r)]
    pairs = [(m, n) for m in radicands for n in radicands if m < n and min(m, n) < 0]
    assert len(pairs) == 234
    for m, n in pairs:
        d, e, be, ce, det, _ = build_biquadratic(m, n).tower
        assert ce == 0 and e == 1 and odd_part(det) == odd_part(math.gcd(d, be)), (m, n)


def test_split_prime_dividing_the_tower_determinant_is_skipped():
    """For conductor 101, e det(S) = -160 and 5 splits completely, but e and
    D have no inverse mod 25, so split_primes skips 5 and
    degree_one_primes_above refuses it."""
    spec = build_cyclic_quartic(101)
    _, e, _, _, det, _ = spec.tower
    assert e * det == -160 and splits_completely(spec, 5)
    assert 5 not in list(split_primes(spec, 100))
    with pytest.raises(ValueError, match="5 splits completely but divides e D = -160"):
        degree_one_primes_above(spec, 5)


def test_conductor29_index_prime(entries):
    spec = entries["29"].spec
    assert spec.index % 7 == 0 and splits_completely(spec, 7)
    primes = degree_one_primes_above(spec, 7)
    assert len(primes) == 4


def test_unit_order_factors_only_p_minus_one(entries, monkeypatch):
    # (Z/p^2)* = C_(p-1) x C_p: the order needs the factors of p - 1 only, not
    # those of p(p-1); (p - 1)/2 is prime here, so factoring p(p-1) by trial
    # division would run up to it
    p = 999959
    spec = entries["K_7"].spec
    eps = infinite_order_unit(spec)
    primes = degree_one_primes_above(spec, p)
    want = [intmath.mult_order(reduce_mod_p2(eps, P), p * p, p * (p - 1)) for P in primes]
    seen = []

    def factorize(n):
        seen.append(n)
        return real_factorize(n)

    real_factorize = intmath.factorize
    monkeypatch.setattr(intmath, "factorize", factorize)
    assert [unit_order_mod_p2(eps, P) for P in primes] == want
    assert seen and max(seen) <= p - 1


def test_split_primes_reads_the_sieve(entries, monkeypatch):
    """split_primes reads the shared sieve, growing it from empty, and makes
    no primality test; its output is the filtered walk over odd candidates,
    and degree_one_primes_above still guards outside input."""
    import euclid4.residues as residues

    def reference(spec, bound):
        return [p for p in range(3, bound + 1, 2)
                if is_prime(p) and spec.discriminant % p and splits_completely(spec, p)]

    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(residues, "is_prime", counting_is_prime)
    monkeypatch.setattr(intmath, "_odd_sieve", bytearray())
    cases = [(entry.spec, 1000) for entry in entries.values()]
    cases += [(entries[label].spec, 20000) for label in ("K_1", "13")]
    for spec, bound in cases:
        assert list(residues.split_primes(spec, bound)) == reference(spec, bound), (spec, bound)
    assert calls == []
    spec = entries["K_1"].spec
    ramified = next(p for p in range(3, 100, 2) if spec.discriminant % p == 0)
    with pytest.raises(Ramified):
        degree_one_primes_above(spec, ramified)
    with pytest.raises(ValueError):
        degree_one_primes_above(spec, 9)


def test_split_primes_cap(entries, monkeypatch):
    """A bound above MAX_CERT_PRIME raises CapExceeded before the sieve is
    touched; at the cap the sieve holds one byte per odd number and flags
    the 78,497 odd primes below 10^6."""
    import euclid4.residues as residues

    spec = entries["K_1"].spec
    monkeypatch.setattr(intmath, "_odd_sieve", bytearray())
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            residues.split_primes(spec, MAX_CERT_PRIME + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert intmath._odd_sieve == bytearray() and peak < 64 * 1024
    residues.split_primes(spec, MAX_CERT_PRIME)
    assert len(intmath._odd_sieve) == MAX_CERT_PRIME // 2 + 1
    assert intmath._odd_sieve.count(1) == 78497


def test_has_order_matches_mult_order():
    """Exhaustive over odd p <= 50, units u mod p^2 and divisors n of
    p(p - 1); n not dividing p(p - 1) is a ValueError."""
    for p in (q for q in range(3, 51, 2) if is_prime(q)):
        p2, order = p * p, p * (p - 1)
        divisors = [n for n in range(1, order + 1) if order % n == 0]
        for u in range(1, p2):
            if u % p:
                true = mult_order(u, p2, order)
                assert [has_order_mod_p2(u, p, n) for n in divisors] == [n == true for n in divisors]
        with pytest.raises(ValueError):
            has_order_mod_p2(2, p, p2)


def test_has_order_factors_only_p_minus_one(entries, monkeypatch):
    """The order test at p = 999959 factors no number above p - 1, for the
    true order of each unit image and for p(p - 1) itself."""
    import euclid4.residues as residues

    p = 999959
    spec = entries["K_7"].spec
    eps = infinite_order_unit(spec)
    images = [reduce_mod_p2(eps, P) for P in degree_one_primes_above(spec, p)]
    orders = [mult_order(u, p * p, p * (p - 1)) for u in images]
    seen = []

    def factorize(n):
        seen.append(n)
        return real_factorize(n)

    real_factorize = residues.factorize
    monkeypatch.setattr(residues, "factorize", factorize)
    for u, order in zip(images, orders):
        for n in sorted({order, p * (p - 1), p - 1}):
            assert has_order_mod_p2(u, p, n) == (n == order)
    assert seen and max(seen) <= p - 1
