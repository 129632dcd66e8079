import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid4.elements import (
    NFElement,
    _value,
    from_power_coords,
    inverse_unit,
    norm,
    one,
    sqrt_radicand,
    trace,
    zero,
)
from euclid4.errors import DegenerateField, FieldMismatch, NotAUnit
from euclid4.fields import build_biquadratic, build_cyclic_quartic
from euclid4.generators import _times
from euclid4.linalg import det_int

coords_strategy = st.tuples(*[st.integers(min_value=-40, max_value=40)] * 4)


@pytest.fixture(scope="module")
def sample_fields():
    return [build_biquadratic(-1, 11), build_biquadratic(-2, -11), build_cyclic_quartic(13)]


def test_identities(gaussian_sqrt11):
    k = gaussian_sqrt11
    x = NFElement(k, (3, -2, 5, 7))
    assert (x + zero(k)).coords == x.coords
    assert (x - x).coords == (0, 0, 0, 0)
    assert (one(k) + one(k)).coords == (2, 0, 0, 0)
    assert (-(-x)).coords == x.coords


@given(coords_strategy, coords_strategy, coords_strategy)
@settings(max_examples=150, deadline=None)
def test_ring_axioms_hypothesis(a, b, c):
    k = build_biquadratic(-1, 11)
    x, y, z = NFElement(k, a), NFElement(k, b), NFElement(k, c)
    assert ((x * y) * z).coords == (x * (y * z)).coords
    assert (x * (y + z)).coords == (x * y + x * z).coords
    assert (x * y).coords == (y * x).coords


def test_ring_axioms_random(sample_fields):
    rng = random.Random(5)
    for k in sample_fields:
        for _ in range(340):
            x, y, z = (
                NFElement(k, tuple(rng.randrange(-100, 101) for _ in range(4)))
                for _ in range(3)
            )
            assert ((x * y) * z).coords == (x * (y * z)).coords
            assert (x * (y + z)).coords == (x * y + x * z).coords
            assert (x * y).coords == (y * x).coords


def test_norm_multiplicative_trace_additive(sample_fields):
    rng = random.Random(6)
    for k in sample_fields:
        for _ in range(340):
            x = NFElement(k, tuple(rng.randrange(-60, 61) for _ in range(4)))
            y = NFElement(k, tuple(rng.randrange(-60, 61) for _ in range(4)))
            assert norm(x * y) == norm(x) * norm(y)
            assert trace(x + y) == trace(x) + trace(y)


def test_norm_matches_the_multiplication_determinant(entries):
    """norm, from the tower forms, equals the determinant of the
    multiplication matrix on every registry field, for seeded coordinates
    small, past int64 and past 2^200."""
    rng = random.Random(29)
    for entry in entries.values():
        for size in (50, 2 ** 70, 2 ** 210):
            x = NFElement(entry.spec, tuple(rng.randint(-size, size) for _ in range(4)))
            assert norm(x) == det_int(x.mult_matrix()), entry.label


def test_norm_refuses_an_inexact_quotient(gaussian_sqrt11):
    """A tower whose D does not fit the norm forms leaves a remainder, which
    norm reports instead of rounding."""
    k = copy.copy(gaussian_sqrt11)
    d, e, be, ce, det, adj = k.tower
    k.norm_forms  # cached on the copy with the true tower
    vars(k)["tower"] = (d, e, be, ce, 2 * det, adj)
    with pytest.raises(DegenerateField):
        norm(NFElement(k, (1, 1, 0, 0)))


def test_value_matches_the_double_sum():
    """_value, which reads the upper triangle and doubles the cross terms,
    equals sum_ij c_i G_ij c_j on seeded symmetric matrices, with entries
    small and past 2^200."""
    rng = random.Random(27)
    for trial in range(300):
        size = 2 ** 210 if trial % 2 else 9
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                g[i][j] = g[j][i] = rng.randint(-size, size)
        c = tuple(rng.randint(-size, size) for _ in range(4))
        assert _value(g, c) == sum(c[i] * g[i][j] * c[j] for i in range(4) for j in range(4))


def test_times_matches_the_row_by_column_product():
    """_times(rows, basis) is the matrix product rows basis, row by column,
    with entries small and past 2^200."""
    rng = random.Random(28)
    for trial in range(300):
        size = 2 ** 210 if trial % 2 else 9
        basis = [[rng.randint(-size, size) for _ in range(4)] for _ in range(4)]
        rows = [tuple(rng.randint(-size, size) for _ in range(4)) for _ in range(trial % 4)]
        assert _times(rows, basis) == [
            tuple(sum(r[k] * basis[k][j] for k in range(4)) for j in range(4)) for r in rows]


def test_norm_trace_basics(gaussian_sqrt11):
    k = gaussian_sqrt11
    assert norm(one(k)) == 1
    assert trace(one(k)) == 4
    s11 = sqrt_radicand(k, 11)
    unit = 10 * one(k) + 3 * s11
    assert norm(unit) == 1


def test_torsion_square(gaussian_sqrt11):
    k = gaussian_sqrt11
    minus_one = -one(k)
    assert (minus_one * minus_one).coords == (1, 0, 0, 0)


def test_sqrt_product_is_sqrt_of_product(gaussian_sqrt11):
    k = gaussian_sqrt11
    a = sqrt_radicand(k, -1)
    b = sqrt_radicand(k, 11)
    ab = a * b
    assert (ab * ab).coords == (-11, 0, 0, 0)


def test_inverse_unit(gaussian_sqrt11):
    k = gaussian_sqrt11
    assert inverse_unit(one(k)).coords == (1, 0, 0, 0)
    assert inverse_unit(-one(k)).coords == (-1, 0, 0, 0)
    unit = 10 * one(k) + 3 * sqrt_radicand(k, 11)
    assert (inverse_unit(unit) * unit).coords == (1, 0, 0, 0)
    with pytest.raises(NotAUnit):
        inverse_unit(2 * one(k))


def test_inverse_unit_all_registry(entries):
    from euclid4.units import infinite_order_unit

    for entry in entries.values():
        eps = infinite_order_unit(entry.spec)
        assert (inverse_unit(eps) * eps).coords == (1, 0, 0, 0)


def test_pow(gaussian_sqrt11):
    k = gaussian_sqrt11
    x = NFElement(k, (1, 2, 3, 4))
    assert (x ** 0).coords == (1, 0, 0, 0)
    assert (x ** 3).coords == (x * x * x).coords
    with pytest.raises(ValueError):
        x ** -1
    # (10 + 3 sqrt11)^2 = 199 + 60 sqrt11
    s11 = sqrt_radicand(k, 11)
    unit = 10 * one(k) + 3 * s11
    assert (unit ** 2).coords == (199 * one(k) + 60 * s11).coords


def test_field_mismatch(gaussian_sqrt11):
    other = build_biquadratic(-2, -11)
    with pytest.raises(FieldMismatch):
        one(gaussian_sqrt11) + one(other)


def test_from_power_coords(gaussian_sqrt11):
    k = gaussian_sqrt11
    # theta/2 is integral here, theta/3 is not
    assert from_power_coords(k, [0, Fraction(1, 2), 0, 0])
    with pytest.raises(ValueError):
        from_power_coords(k, [0, Fraction(1, 3), 0, 0])
