import json
import random
import signal
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid4 import intmath
from euclid4.errors import CapExceeded, NotCoprime
from euclid4.intmath import (
    MAX_CERT_PRIME,
    MAX_CF_BITS,
    IntPoly,
    _cf_unit_search,
    continued_fraction_fundamental_unit,
    factorize,
    is_prime,
    is_squarefree,
    mult_order,
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


def test_is_prime_refuses_beyond_the_certificate_cap():
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the
    # first twelve prime bases, is refused like any n above the cap, prime
    # or not, even or odd
    for n in (318665857834031151167461, 2 ** 64 - 59, 2 ** 64, 1000003, 1000004):
        with pytest.raises(CapExceeded, match="certificate cap"):
            is_prime(n)


def test_is_prime_at_the_cap():
    """999,983 is the largest prime under the cap; the cap itself is not
    prime."""
    assert is_prime(999983)
    assert not any(is_prime(n) for n in range(999984, MAX_CERT_PRIME + 1))


@pytest.mark.parametrize("n", [MAX_CERT_PRIME + 1, MAX_CERT_PRIME + 2])
def test_is_prime_cap_leaves_the_sieve_empty(n, monkeypatch):
    """Just above the cap, odd or even, is_prime raises CapExceeded before
    the shared sieve grows, as split_primes does."""
    monkeypatch.setattr(intmath, "_odd_sieve", bytearray())
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="certificate cap"):
            is_prime(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert intmath._odd_sieve == bytearray() and peak < 64 * 1024


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
        assert is_prime(p) if p <= MAX_CERT_PRIME else trial_division_prime(p)
        prod *= p ** e
    assert prod == n
    assert list(fac) == sorted(fac)


def test_squarefree_part():
    assert squarefree_part(44) == (11, 2)
    assert squarefree_part(-11) == (-11, 1)
    assert squarefree_part(-12) == (-3, 2)
    assert is_squarefree(-1) and is_squarefree(2) and not is_squarefree(4)


@pytest.mark.parametrize("coeffs", [(0.5, 1), (Fraction(7, 2), 0, 1), ("3", 1)],
                         ids=["float", "fraction", "string"])
def test_intpoly_refuses_non_integer_coefficients(coeffs):
    """A coefficient that is not an integer raises TypeError; int() would
    have truncated 0.5 and 7/2 and parsed "3"."""
    with pytest.raises(TypeError):
        IntPoly(coeffs)


def test_registry_minimal_polynomials_are_unchanged(entries):
    """The 40 registry minimal polynomials are integer tuples, and are the
    ones the frozen certificates state."""
    certs = Path(__file__).resolve().parent.parent / "benchmark" / "data" / "certs"
    assert len(entries) == 40
    for label, entry in entries.items():
        coeffs = entry.spec.theta_minpoly.coeffs
        assert all(type(c) is int for c in coeffs) and coeffs[-1] == 1, label
        stated = json.loads((certs / f"{label}.json").read_text())["field"]["minpoly"]
        assert [str(c) for c in coeffs] == stated, label
        assert IntPoly(coeffs + (0,)) == entry.spec.theta_minpoly


def test_poly_roots_examples():
    x2p1 = IntPoly((1, 0, 1))
    assert poly_roots_mod_p(x2p1, 5) == [2, 3]
    assert poly_roots_mod_p(x2p1, 7) == []
    quartic = IntPoly((144, 0, -20, 0, 1))
    roots = poly_roots_mod_p(quartic, 157)
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


def test_sqrt_mod_prime_power_scans_only_when_needed(monkeypatch):
    """For p = 3 mod 4 the root is r^((p+1)/4) at once: the one Legendre
    symbol is the residuosity test of a, and no non-residue is looked for."""
    calls = []
    real = intmath.legendre
    monkeypatch.setattr(intmath, "legendre", lambda a, p: calls.append(p) or real(a, p))
    for p in (3, 7, 11, 19, 23, 43, 10007, 1000003):
        for x in (1, 2, 5, 8, p - 1):
            calls.clear()
            assert sqrt_mod_prime_power(x * x, p, 2) in (x, p * p - x)
            assert calls == [p], (x, p)
    # p = 1 mod 4: a square whose Tonelli-Shanks t is not 1 still scans
    calls.clear()
    assert sqrt_mod_prime_power(2, 17, 1) == 6
    assert len(calls) > 1


def test_mult_order_examples():
    assert mult_order(24, 25, 20) == 2
    assert mult_order(1, 25, 20) == 1
    with pytest.raises(NotCoprime):
        mult_order(10, 25, 20)


def test_mult_order_properties():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([5, 7, 11, 13, 17, 19, 101, 157])
        m = p * p
        u = rng.randrange(1, m)
        while u % p == 0:
            u = rng.randrange(1, m)
        order = mult_order(u, m, p * (p - 1))
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


def test_continued_fraction_is_capped_by_size():
    """d = 10^10 + 19, a prime = 3 mod 4, has a fundamental unit far past
    MAX_CF_BITS bits: the walk stops with CapExceeded naming d and the cap
    after about 9,600 steps, within a one-second budget enforced by SIGALRM
    in this process."""
    def overrun(signum, frame):
        raise TimeoutError("the continued fraction ran past its budget")

    d = 10 ** 10 + 19
    assert trial_division_prime(d) and d % 4 == 3
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(CapExceeded, match=rf"{d}\b.*\b{MAX_CF_BITS} bits"):
            continued_fraction_fundamental_unit(d)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_continued_fraction_without_a_target_ends_after_one_period():
    """A walk that meets no target returns None one period after its first
    reduced state.  For d = 100,000,007 the fundamental unit's b has 11,058
    bits, so the walk must stop within about one period to stay below
    MAX_CF_BITS; it does from both starts, sqrt(d) and (1 + sqrt(d))/2."""
    d = 100_000_007
    _, b, _ = continued_fraction_fundamental_unit(d)
    assert b.bit_length() == 11_058 and 2 * b.bit_length() > MAX_CF_BITS
    assert _cf_unit_search(d, 0, 1, ()) is None
    assert _cf_unit_search(d, 1, 2, ()) is None


def test_residue_arguments_are_normalized():
    # residues are plain ints; representatives outside [0, m) are reduced
    assert mult_order(-1, 25, 20) == mult_order(24, 25, 20) == 2
    with pytest.raises(ValueError):
        mult_order(2, 25, 7)
