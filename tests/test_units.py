import pytest

from euclid4.errors import CapExceeded
from euclid4.elements import NFElement, inverse_unit, norm, one, sqrt_radicand
from euclid4.fields import build_biquadratic, build_cyclic_quartic
from euclid4.units import (
    Provenance,
    UnitData,
    _half_sum,
    has_infinite_order,
    infinite_order_unit,
    sqrt_in_ring,
    torsion,
    unit_data,
    verify_unit_data,
)


def test_torsion_examples(gaussian_sqrt11):
    g, eta = torsion(gaussian_sqrt11)
    assert g == 4
    # eta = -a where a^2 = -1
    a = sqrt_radicand(gaussian_sqrt11, -1)
    assert eta.coords == (-a).coords

    g6, _ = torsion(build_biquadratic(-3, 41))
    assert g6 == 6

    g8, _ = torsion(build_biquadratic(-1, 2))
    assert g8 == 8
    g12, _ = torsion(build_biquadratic(-1, -3))
    assert g12 == 12

    g2, eta2 = torsion(build_cyclic_quartic(13))
    assert g2 == 2 and eta2.coords == (-1, 0, 0, 0)

    g10, eta10 = torsion(build_cyclic_quartic(5))
    assert g10 == 10
    assert (eta10 ** 10).coords == (1, 0, 0, 0)
    assert (eta10 ** 5).coords != (1, 0, 0, 0)


def test_torsion_pattern_all_forty(entries):
    for entry in entries.values():
        g, eta = torsion(entry.spec)
        assert g == entry.expected_g, entry.label
        assert (eta ** g).coords == (1, 0, 0, 0)


def test_infinite_order_unit_examples(gaussian_sqrt11):
    eps = infinite_order_unit(gaussian_sqrt11)
    expect = 10 * one(gaussian_sqrt11) + 3 * sqrt_radicand(gaussian_sqrt11, 11)
    assert eps.coords == expect.coords

    k5 = build_cyclic_quartic(5)
    phi = infinite_order_unit(k5)
    # the golden ratio satisfies x^2 = x + 1
    assert (phi * phi).coords == (phi + one(k5)).coords

    k29 = build_biquadratic(-2, 29)
    eps29 = infinite_order_unit(k29)
    # (5 + sqrt29)/2 satisfies x^2 = 5x + 1
    assert (eps29 * eps29).coords == (5 * eps29 + one(k29)).coords


def test_units_are_units(entries):
    for entry in entries.values():
        ud = unit_data(entry.spec)
        assert norm(ud.eta) in (1, -1)
        assert norm(ud.epsilon) in (1, -1)
        assert has_infinite_order(ud.epsilon, ud.g, ud.eta)
        torsion_unit = one(entry.spec)
        for _ in range(ud.g):
            assert not has_infinite_order(torsion_unit, ud.g, ud.eta)
            torsion_unit = torsion_unit * ud.eta


def test_small_powers_never_one(entries):
    # infinite order certified by comparison with the torsion units; spot
    # check small powers directly on fields with small units
    for label in ("K_1", "K_7", "K_20", "5", "16"):
        eps = unit_data(entries[label].spec).epsilon
        acc = one(entries[label].spec)
        for _ in range(240):
            acc = acc * eps
            assert acc.coords != (1, 0, 0, 0)


def test_verify_unit_data_examples(gaussian_sqrt11):
    k = gaussian_sqrt11
    eps = infinite_order_unit(k)
    g, eta = torsion(k)
    assert verify_unit_data(UnitData(4, eta, eps, Provenance.REAL_QUADRATIC_SUBFIELD))
    # wrong torsion order: field contains i so g = 2 is rejected
    assert not verify_unit_data(
        UnitData(2, -one(k), eps, Provenance.REAL_QUADRATIC_SUBFIELD)
    )
    # eta of order 1 is not a generator of anything
    assert not verify_unit_data(UnitData(2, one(k), eps, Provenance.SUPPLIED))
    # torsion element in place of epsilon
    assert not verify_unit_data(UnitData(4, eta, eta, Provenance.SUPPLIED))


def test_sqrt_in_ring_finds_roots(entries):
    # the canonical unit of K_8 is an exact square root of a torsion multiple
    # of the embedded subfield unit
    spec = entries["K_8"].spec
    ud = unit_data(spec)
    assert ud.provenance == Provenance.SUPPLIED
    base = infinite_order_unit(spec)
    g, eta = torsion(spec)
    square = ud.epsilon * ud.epsilon
    hits = []
    for b in (base, inverse_unit(base)):
        t_power = one(spec)
        for _ in range(g):
            if (t_power * b).coords == square.coords:
                hits.append(True)
            t_power = t_power * eta
    assert hits


def test_sqrt_in_ring_negative_case(gaussian_sqrt11):
    # 2 is not a square in this ring
    assert sqrt_in_ring(gaussian_sqrt11, 2 * one(gaussian_sqrt11)) is None
    got = sqrt_in_ring(gaussian_sqrt11, 4 * one(gaussian_sqrt11))
    assert got is not None and (got * got).coords == (4, 0, 0, 0)


def test_sqrt_in_ring_refuses_an_unproven_verdict(gaussian_sqrt11):
    """46 is not a square here, but no quadratic character at the first
    three split primes shows it, so the four lifts find no root and prove
    nothing: the call raises CapExceeded instead of answering None."""
    with pytest.raises(CapExceeded):
        sqrt_in_ring(gaussian_sqrt11, 46 * one(gaussian_sqrt11))


def test_paper_style_unit_relation(gaussian_sqrt11):
    """The explicit unit ((b-3)(a-1))/2 squares to eta / eps_subfield."""
    from euclid4.elements import from_power_coords
    from fractions import Fraction

    k = gaussian_sqrt11
    explicit = from_power_coords(
        k, [Fraction(-1), Fraction(-1, 6), Fraction(1, 4), Fraction(-1, 24)]
    )
    assert norm(explicit) == 1
    g, eta = torsion(k)
    eps = infinite_order_unit(k)
    assert (explicit * explicit).coords == (eta * inverse_unit(eps)).coords


def test_one_extraction_round_suffices(entries):
    # [E : W E+] <= 2 for a CM field: once unit_data has extracted a root, no
    # torsion multiple of its epsilon is a square again
    supplied = 0
    for entry in entries.values():
        spec = entry.spec
        ud = unit_data(spec)
        t_power = one(spec)
        for _ in range(ud.g):
            assert sqrt_in_ring(spec, t_power * ud.epsilon) is None, entry.label
            t_power = t_power * ud.eta
        supplied += ud.provenance == Provenance.SUPPLIED
    assert supplied == 24


def test_half_sum_requires_integral_half(gaussian_sqrt11):
    k = gaussian_sqrt11
    # 2 + 2 sqrt(-1) halves to 1 + sqrt(-1); 1 + sqrt(-1) has no integral half
    i = sqrt_radicand(k, -1)
    assert _half_sum(k, 2, 2 * i).coords == (one(k) + i).coords
    with pytest.raises(ValueError):
        _half_sum(k, 1, i)
