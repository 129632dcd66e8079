import random
import sys
from math import isqrt

import pytest

from euclid4 import linalg, units
from euclid4.errors import Euclid4Error, NotAUnit
from euclid4.elements import NFElement, _value, inverse_unit, norm, one, sqrt_radicand
from euclid4.intmath import factorize, is_squarefree
from euclid4.fields import build_biquadratic, build_cyclic_quartic
from euclid4.generators import norm_solutions
from euclid4.intmath import continued_fraction_fundamental_unit
from euclid4.units import (
    Provenance,
    UnitData,
    _half_sum,
    has_infinite_order,
    infinite_order_unit,
    sqrt_in_ring,
    torsion,
    torsion_units,
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


@pytest.fixture(scope="module")
def every_torsion_order(entries):
    """name -> unit data: the 40 fields (g = 2, 4, 6 and 10), with
    Q(i, sqrt(2)) (g = 8) and Q(i, sqrt(-3)) (g = 12)."""
    specs = [e.spec for e in entries.values()] + [build_biquadratic(-1, 2), build_biquadratic(-1, -3)]
    data = {spec.name(): unit_data(spec) for spec in specs}
    assert {ud.g for ud in data.values()} == {2, 4, 6, 8, 10, 12}
    return data


def test_eta_of_a_smaller_order_is_refused(every_torsion_order):
    """For each prime q | g, eta^q has order g/q; stated as a generator of
    order g it is refused."""
    for name, ud in every_torsion_order.items():
        assert verify_unit_data(ud), name
        for q in factorize(ud.g):
            assert torsion_units(ud.g, ud.eta ** q) is None
            assert not verify_unit_data(UnitData(ud.g, ud.eta ** q, ud.epsilon, ud.provenance)), (
                name, q)


def test_torsion_unit_as_epsilon_is_refused(every_torsion_order):
    for name, ud in every_torsion_order.items():
        for z in torsion_units(ud.g, ud.eta):
            assert not verify_unit_data(UnitData(ud.g, ud.eta, z, ud.provenance)), name


def test_verify_unit_data_walks_each_generator_once(every_torsion_order, monkeypatch):
    """At most g NFElement products per call, all of them the walk of the
    stated eta: the field's own g is read off its radicands or conductor,
    so its generator is neither built nor walked.  The walk multiplies
    NFElements, so a count of NFElement.__mul__ (elements.mul in a traced
    run) sees it.  Once g is wrong the stated eta is not walked at all."""
    calls = 0
    real_mul = NFElement.__mul__

    def counted(x, y):
        nonlocal calls
        calls += 1
        return real_mul(x, y)

    monkeypatch.setattr(NFElement, "__mul__", counted)
    for name, ud in every_torsion_order.items():
        calls = 0
        assert verify_unit_data(ud)
        # g - 1 products per walk
        assert calls == ud.g - 1, name
        for eta in (ud.epsilon, one(ud.eta.field), ud.eta * ud.eta):
            calls = 0
            assert not verify_unit_data(UnitData(ud.g, eta, ud.epsilon, ud.provenance))
            assert calls <= ud.g, name
        calls = 0
        assert not verify_unit_data(UnitData(10 ** 6, ud.eta, ud.epsilon, ud.provenance))
        assert calls == 0, name


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
    """In Q(sqrt(-1), sqrt(11)) (g = 4), -1 = i^2 has the roots +-i, while
    eta = -i (a root would be a primitive 8th root of unity), eps0 (t = 0)
    and eta^2 eps0 = -eps0 have none."""
    k = gaussian_sqrt11
    _, eta = torsion(k)
    eps0 = infinite_order_unit(k)
    i = sqrt_radicand(k, -1)
    assert sqrt_in_ring(k, -one(k)).coords in {i.coords, (-i).coords}
    for v in (eta, eps0, -eps0):
        assert sqrt_in_ring(k, v) is None
    w = sqrt_in_ring(k, eta * eps0)
    assert (w * w).coords == (eta * eps0).coords


def _lattice_roots(spec, v):
    """The roots of a unit v by their definition: the solutions x of
    x conj(x) = alpha in the whole ring (norm_solutions over the identity
    lattice) with x x = v, alpha the totally positive root of v conj(v)."""
    d, e, _, _, det, _ = spec.tower
    gu, gv = spec.norm_forms
    u2, v2, s2 = _value(gu, v.coords), _value(gv, v.coords), 2 * e * det * det
    h = 2 if d % 4 == 1 else 1
    squares = ((h * h * (u2 + s2), 2 * s2), (h * h * (u2 - s2), 2 * d * s2))
    a, b = (isqrt(num // den) for num, den in squares)
    if any(num != den * r * r for (num, den), r in zip(squares, (a, b))):
        return []
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    return [x for x in norm_solutions(spec, identity, a, b if v2 >= 0 else -b)
            if (NFElement(spec, x) * NFElement(spec, x)).coords == v.coords]


def _random_imaginary_biquadratic(count, seed, bound=10 ** 4):
    """count seeded random imaginary biquadratic fields, |m|, |n| <= bound,
    each with its torsion and eps0; draws that raise a package error are
    skipped."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        m, n = -rng.randint(1, bound), rng.choice((-1, 1)) * rng.randint(2, bound)
        if m == n or not (is_squarefree(m) and is_squarefree(n)):
            continue
        try:
            spec = build_biquadratic(m, n)
            found.append((spec, torsion(spec), infinite_order_unit(spec)))
        except Euclid4Error:
            continue
    return found


def test_sqrt_in_ring_matches_the_lattice_definition(entries, monkeypatch):
    """On every torsion unit z times eps0, eps0^2 and 1, in the 40 fields
    and 100 seeded random imaginary biquadratic ones, the closed form and
    the lattice definition agree on None and on the root up to sign.  The
    cases reach the branch z = 0 (a root w = c y, tower coordinates
    T0 = T1 = 0) and the root q x of _sqrt_in_f."""
    roots_of_f = []
    real_sqrt = units._sqrt_in_f

    def spied(*args):
        roots_of_f.append(real_sqrt(*args))
        return roots_of_f[-1]

    monkeypatch.setattr(units, "_sqrt_in_f", spied)
    fields = [(e.spec, torsion(e.spec), infinite_order_unit(e.spec)) for e in entries.values()]
    fields += _random_imaginary_biquadratic(100, seed=29)
    cases = with_root = pure_y = 0
    for spec, (g, eta), eps0 in fields:
        for z in torsion_units(g, eta):
            for v in (z * eps0, z * eps0 * eps0, z):
                w, want = sqrt_in_ring(spec, v), _lattice_roots(spec, v)
                cases += 1
                if w is None:
                    assert want == [], (spec, v)
                    continue
                assert {x.coords for x in (w, -w)} == set(want), (spec, v)
                with_root += 1
                adj = spec.tower[5]
                pure_y += not any(sum(c * r[j] for c, r in zip(w.coords, adj)) for j in (0, 1))
    assert cases == 3 * sum(g for _, (g, _), _ in fields) and with_root > 0
    assert pure_y > 0
    assert any(r is not None and r[0] == 0 for r in roots_of_f)


def test_sqrt_in_ring_needs_no_lattice_code(entries, monkeypatch):
    """With every public linalg function raising, at every module binding,
    the 40 canonical units are still found: the root takes no LLL, box
    search or determinant."""
    expected = {label: unit_data(e.spec) for label, e in entries.items()}
    for e in entries.values():
        e.spec.tower_rows  # the fields are built before linalg goes

    def refuse(*args):
        raise AssertionError("linalg was called")

    public = {name: getattr(linalg, name) for name in dir(linalg)
              if not name.startswith("_") and callable(getattr(linalg, name))
              and getattr(getattr(linalg, name), "__module__", None) == linalg.__name__}
    assert public
    for module in [m for name, m in sys.modules.items() if name.startswith("euclid4")]:
        for name, fn in public.items():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, refuse)
    k1 = expected["K_1"]
    with pytest.raises(AssertionError, match="linalg"):
        _lattice_roots(k1.eta.field, k1.epsilon * k1.epsilon)
    for label, e in entries.items():
        ud = expected[label]
        eps0 = infinite_order_unit(e.spec)
        assert units.strongest_unit(e.spec, ud.eta, eps0).coords == ud.epsilon.coords, label


def test_sqrt_in_ring_rejects_non_units(gaussian_sqrt11):
    """A non-unit raises NotAUnit, squares (4, 25 and (2 + i)^2) and
    non-squares (2 and 46) alike."""
    k = gaussian_sqrt11
    two_plus_i = 2 * one(k) + sqrt_radicand(k, -1)
    for v in (2 * one(k), 4 * one(k), 25 * one(k), 46 * one(k), two_plus_i * two_plus_i):
        with pytest.raises(NotAUnit):
            sqrt_in_ring(k, v)


@pytest.mark.parametrize("label", ["K_1", "K_8", "5", "16"])
def test_sqrt_in_ring_exact_on_seeded_units(entries, label):
    """For seeded units u = eta^a eps^b, |b| <= 3, of fields with h = 2
    (K_1 and 5, d = 13 and 5) and h = 1 (K_8 and 16, d = 22 and 2), the root
    of u u is +-u, and u has none when b is odd (E = <eta> x <eps>)."""
    spec = entries[label].spec
    ud = unit_data(spec)
    rng = random.Random(17)
    powers = {0: one(spec), 1: ud.epsilon, -1: inverse_unit(ud.epsilon)}
    for b in (2, 3):
        powers[b], powers[-b] = powers[b - 1] * ud.epsilon, powers[1 - b] * powers[-1]
    for _ in range(12):
        a, b = rng.randrange(ud.g), rng.randint(-3, 3)
        u = ud.eta ** a * powers[b]
        root = sqrt_in_ring(spec, u * u)
        assert root is not None and root.coords in {u.coords, (-u).coords}, (a, b)
        if b % 2:
            assert sqrt_in_ring(spec, u) is None, (a, b)


def test_unit_index_from_the_norm_of_eps0(entries):
    """Over the 40 fields no eta^t eps0 with even t has a root, and the odd
    t have one exactly for the 24 fields whose unit is Supplied: those
    whose eps0 has norm +1 in the real subfield.  The other 16 have
    N(eps0) = -1, which rules out a root outright."""
    supplied = 0
    for entry in entries.values():
        spec = entry.spec
        ud = unit_data(spec)
        eps0 = infinite_order_unit(spec)
        positive = continued_fraction_fundamental_unit(spec.real_subfield_d)[2] == 1
        assert positive == (ud.provenance == Provenance.SUPPLIED), entry.label
        supplied += positive
        for t, z in enumerate(torsion_units(ud.g, ud.eta)):
            assert (sqrt_in_ring(spec, z * eps0) is not None) == (positive and t % 2 == 1), (entry.label, t)
    assert supplied == 24


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
