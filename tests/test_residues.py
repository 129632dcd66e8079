import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid4.elements import NFElement, from_power_coords, one
from euclid4.errors import NotCoprime, Ramified
from euclid4.fields import SUPPORTED_CONDUCTORS, build_biquadratic, build_cyclic_quartic
from euclid4.intmath import hensel_lift, is_squarefree, poly_roots_mod_p
from euclid4.residues import (
    degree_one_primes_above,
    reduce_mod_p2,
    reduction_maps,
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
        assert f.eval_mod(prime.root_c.value, p) == 0
        assert f.eval_mod(prime.lifted_c.value, p * p) == 0
        assert prime.lifted_c.value % p == prime.root_c.value
        assert prime.basis_images[0] == 1


def test_reduce_is_ring_map(gaussian_sqrt11):
    prime = degree_one_primes_above(gaussian_sqrt11, 157)[2]
    p2 = 157 * 157
    rng = random.Random(3)
    assert reduce_mod_p2(one(gaussian_sqrt11), prime).value == 1
    for _ in range(500):
        x = NFElement(gaussian_sqrt11, tuple(rng.randrange(-99, 100) for _ in range(4)))
        y = NFElement(gaussian_sqrt11, tuple(rng.randrange(-99, 100) for _ in range(4)))
        rx, ry = reduce_mod_p2(x, prime).value, reduce_mod_p2(y, prime).value
        assert reduce_mod_p2(x * y, prime).value == rx * ry % p2
        assert reduce_mod_p2(x + y, prime).value == (rx + ry) % p2


@given(st.tuples(*[st.integers(min_value=-500, max_value=500)] * 4),
       st.tuples(*[st.integers(min_value=-500, max_value=500)] * 4))
@settings(max_examples=120, deadline=None)
def test_reduce_homomorphism_hypothesis(a, b):
    k = build_cyclic_quartic(13)
    prime = degree_one_primes_above(k, 29)[0]
    x, y = NFElement(k, a), NFElement(k, b)
    p2 = 29 * 29
    assert (
        reduce_mod_p2(x * y, prime).value
        == reduce_mod_p2(x, prime).value * reduce_mod_p2(y, prime).value % p2
    )


def test_worked_example_residues(gaussian_sqrt11):
    """The explicit unit's powers modulo a squared prime above 157 and 5."""
    k = gaussian_sqrt11
    eps = paper_unit(k)
    p2 = 157 * 157
    matches = []
    for prime in degree_one_primes_above(k, 157):
        r = reduce_mod_p2(eps, prime).value
        if pow(r, 157, p2) == 14591:
            matches.append(prime)
            assert pow(r, 39, p2) == 11776
            assert pow(r, 6123, p2) == 1
            assert unit_order_mod_p2(eps, prime) == 6123
    assert len(matches) == 1
    assert matches[0].conjugate_index == 0 and matches[0].root_c.value == 19

    hits = 0
    for prime in degree_one_primes_above(k, 5):
        r = reduce_mod_p2(eps, prime).value
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
        r = reduce_mod_p2(x, prime).value
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
                reduce_mod_p2(x * y, prime).value
                == reduce_mod_p2(x, prime).value * reduce_mod_p2(y, prime).value % 9
            )
    eps = infinite_order_unit(spec)
    assert sorted(unit_order_mod_p2(eps, prime) for prime in primes) == [6, 6, 6, 6]


def root_model_primes(spec, p):
    """Reference maps for p coprime to the index: Hensel-lift each root of
    theta's minimal polynomial mod p and evaluate the basis at it mod p^2."""
    f, p2 = spec.theta_minpoly, p * p
    out = []
    for root in poly_roots_mod_p(f, p):
        c = hensel_lift(f, root)
        images = tuple(
            sum(a.numerator * pow(a.denominator, -1, p2) * c.value ** i for i, a in enumerate(row)) % p2
            for row in spec.integral_basis
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
        got = [(pr.root_c, pr.lifted_c, pr.basis_images) for pr in degree_one_primes_above(spec, p)]
        assert got == root_model_primes(spec, p), (spec, p)


@pytest.mark.parametrize("label, p", [("K_8", 3), ("13", 3), ("29", 7), ("61", 13)])
def test_index_prime_maps_are_ring_maps_mod_p5(entries, label, p):
    """At primes dividing the index, each map O -> Z/p^5 sends 1 to 1 and
    respects every product of basis elements, so it is a ring map."""
    spec = entries[label].spec
    assert spec.index % p == 0
    maps = reduction_maps(spec, p, 5)
    assert len(maps) == 4 and len({images for _, images in maps}) == 4
    pk = p ** 5
    for _, im in maps:
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
    for f in SUPPORTED_CONDUCTORS:
        spec = build_cyclic_quartic(f)
        assert spec.tower[3] == {16: -1, 37: -48, 61: -48}.get(f, -16), f
    radicands = [r for r in range(-20, 21) if r not in (0, 1) and is_squarefree(r)]
    pairs = [(m, n) for m in radicands for n in radicands if m < n and min(m, n) < 0]
    assert len(pairs) == 234
    for m, n in pairs:
        d, b, c, det, _ = build_biquadratic(m, n).tower
        assert c == 0 and odd_part(det) == odd_part(math.gcd(d, int(b))), (m, n)


def test_conductor29_index_prime(entries):
    spec = entries["29"].spec
    assert spec.index % 7 == 0 and splits_completely(spec, 7)
    primes = degree_one_primes_above(spec, 7)
    assert len(primes) == 4
