import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid4.errors import CapExceeded, NonSimpleRoot, NotCoprime
from euclid4.intmath import (
    IntPoly,
    ResidueClass,
    continued_fraction_fundamental_unit,
    count_real_roots,
    factorize,
    hensel_lift,
    is_prime,
    is_squarefree,
    mult_order,
    poly_discriminant,
    poly_roots_mod_p,
    sqrt_mod_prime_power,
    squarefree_part,
)


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert is_prime(157)
    assert not is_prime(1)
    assert not is_prime(24649)  # 157^2
    assert not is_prime(561)  # Carmichael
    assert is_prime(2) and is_prime(3)
    assert not is_prime(0)


def test_is_prime_refuses_beyond_proven_bases():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to all
    # twelve bases; above 2^64 the bases prove nothing
    assert is_prime(2 ** 64 - 59)
    with pytest.raises(CapExceeded):
        is_prime(318665857834031151167461)
    with pytest.raises(CapExceeded):
        is_prime(2 ** 64)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=300)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_prime(n)


def test_factorize_examples():
    assert factorize(156) == {2: 2, 3: 1, 13: 1}
    assert factorize(1) == {}
    assert factorize(20) == {2: 2, 5: 1}


@given(st.integers(min_value=1, max_value=10 ** 7))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p ** e
    assert prod == n
    assert list(fac) == sorted(fac)


def test_squarefree_part():
    assert squarefree_part(44) == (11, 2)
    assert squarefree_part(-11) == (-11, 1)
    assert squarefree_part(-12) == (-3, 2)
    assert is_squarefree(-1) and is_squarefree(2) and not is_squarefree(4)


def test_poly_roots_examples():
    x2p1 = IntPoly((1, 0, 1))
    assert [r.value for r in poly_roots_mod_p(x2p1, 5)] == [2, 3]
    assert poly_roots_mod_p(x2p1, 7) == []
    quartic = IntPoly((144, 0, -20, 0, 1))
    roots = [r.value for r in poly_roots_mod_p(quartic, 157)]
    assert roots == [19, 75, 82, 138]
    brute = [c for c in range(157) if (c ** 4 - 20 * c ** 2 + 144) % 157 == 0]
    assert roots == brute


def test_sqrt_mod_prime_power_matches_scan():
    # every prime below 200, including p = 1 mod 8 where Tonelli-Shanks
    # needs several rounds
    for p in (q for q in range(3, 200, 2) if is_prime(q)):
        for a in range(1, p):
            small = [x for x in range((p + 1) // 2) if x * x % p == a]
            got = sqrt_mod_prime_power(a, p, 1)
            assert got == (small[0] if small else None), (a, p)


def test_sqrt_mod_prime_power_lifts():
    rng = random.Random(5)
    for p in (3, 5, 17, 41, 97, 257, 65537, 1000000007):
        for k in (1, 2, 3, 7):
            pk = p ** k
            for _ in range(20):
                x = rng.randrange(1, pk)
                if x % p == 0:
                    continue
                r = sqrt_mod_prime_power(x * x, p, k)
                assert r * r % pk == x * x % pk
                assert r % p <= (p - 1) // 2
                assert r in (x, pk - x)
    assert sqrt_mod_prime_power(3, 7, 4) is None
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(14, 7, 2)


def test_hensel_examples():
    lifted = hensel_lift(IntPoly((1, 0, 1)), ResidueClass(2, 5))
    assert (lifted.value, lifted.modulus) == (7, 25)
    # x^2 - 11 at c=2 mod 7: f(2) = -7, f'(2) = 4, lift is 16 (16^2-11 = 5*49)
    lifted = hensel_lift(IntPoly((-11, 0, 1)), ResidueClass(2, 7))
    assert (lifted.value, lifted.modulus) == (16, 49)
    assert (16 * 16 - 11) % 49 == 0
    lifted = hensel_lift(IntPoly((-3, 1)), ResidueClass(3, 5))
    assert (lifted.value, lifted.modulus) == (3, 25)


def test_hensel_non_simple_root():
    with pytest.raises(NonSimpleRoot):
        hensel_lift(IntPoly((0, 0, 1)), ResidueClass(0, 5))


def test_hensel_random_property():
    rng = random.Random(2024)
    primes = [5, 7, 11, 13, 17, 19, 23]
    done = 0
    while done < 1000:
        p = rng.choice(primes)
        f = IntPoly(tuple(rng.randrange(-20, 21) for _ in range(4)) + (1,))
        fp = f.derivative()
        simple = [c for c in range(p)
                  if f.eval_mod(c, p) == 0 and fp.eval_mod(c, p) != 0]
        if not simple:
            continue
        c = rng.choice(simple)
        lifted = hensel_lift(f, ResidueClass(c, p))
        assert lifted.value % p == c
        assert f.eval_mod(lifted.value, p * p) == 0
        done += 1


def test_mult_order_examples():
    assert mult_order(ResidueClass(24, 25), 20) == 2
    assert mult_order(ResidueClass(1, 25), 20) == 1
    with pytest.raises(NotCoprime):
        mult_order(ResidueClass(10, 25), 20)


def test_mult_order_properties():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([5, 7, 11, 13, 17, 19, 101, 157])
        m = p * p
        u = rng.randrange(1, m)
        while u % p == 0:
            u = rng.randrange(1, m)
        order = mult_order(ResidueClass(u, m), p * (p - 1))
        assert p * (p - 1) % order == 0
        assert pow(u, order, m) == 1
        for q in factorize(order):
            assert pow(u, order // q, m) != 1


def test_fundamental_unit_examples():
    assert continued_fraction_fundamental_unit(11) == (10, 3, 1)
    assert continued_fraction_fundamental_unit(5) == (0, 1, -1)
    assert continued_fraction_fundamental_unit(2) == (1, 1, -1)
    assert continued_fraction_fundamental_unit(13) == (1, 1, -1)
    assert continued_fraction_fundamental_unit(37) == (5, 2, -1)


def test_fundamental_unit_is_a_unit():
    for d in (11, 19, 22, 29, 38, 43, 86, 129, 209, 1141, 10921):
        x, y, sign = continued_fraction_fundamental_unit(d)
        if d % 4 == 1:
            big_x, big_y = 2 * x + y, y
            assert big_x * big_x - d * big_y * big_y == 4 * sign
        else:
            assert x * x - d * y * y == sign


def test_poly_discriminant():
    assert poly_discriminant(IntPoly((144, 0, -20, 0, 1))) == 71368704
    assert poly_discriminant(IntPoly((1, 1, 1, 1, 1))) == 125
    assert poly_discriminant(IntPoly((2, 0, 4, 0, 1))) == 2048


def test_count_real_roots():
    assert count_real_roots(IntPoly((-2, 0, 1))) == 2
    assert count_real_roots(IntPoly((1, 0, 1))) == 0
    assert count_real_roots(IntPoly((144, 0, -20, 0, 1))) == 0
    assert count_real_roots(IntPoly((-4, 0, 3, 0, 1))) == 2


def test_residue_class_normalization():
    assert ResidueClass(-1, 25).value == 24
    assert int(ResidueClass(7, 25)) == 7
    with pytest.raises(ValueError):
        ResidueClass(1, 0)
