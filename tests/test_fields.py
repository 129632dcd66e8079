import hashlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import euclid4
from euclid4 import fields
from euclid4.elements import NFElement, trace
from euclid4.errors import (
    CapExceeded,
    DegenerateField,
    NotImaginary,
    UnknownLabel,
    UnsupportedConductor,
)
from euclid4.fields import (
    FieldSpec,
    _finish,
    _power_basis,
    _power_table,
    _tower_table,
    _two_squares,
    _validate_spec,
    basis_mul,
    build_biquadratic,
    build_cyclic_quartic,
    field_descriptor,
    integral_basis_closure_check,
    quadratic_discriminant,
    registry,
    registry_entry,
)
from euclid4.intmath import is_prime, is_squarefree, squarefree_part
from euclid4.linalg import det_int


def replace(spec, **changes):
    """A copy of spec with the named fields changed, made by the
    FieldSpec constructor."""
    fields_ = {name: getattr(spec, name) for name in inspect.signature(FieldSpec).parameters}
    return FieldSpec(**{**fields_, **changes})


def test_gaussian_sqrt11(gaussian_sqrt11):
    k = gaussian_sqrt11
    assert k.theta_minpoly.coeffs == (144, 0, -20, 0, 1)
    assert k.discriminant == 1936
    assert k.index == 192
    assert k.real_subfield_d == 11
    assert set(k.sqrt_map) == {-1, 11, -11}


def test_build_errors():
    with pytest.raises(DegenerateField):
        build_biquadratic(-1, -1)
    with pytest.raises(DegenerateField):
        build_biquadratic(4, -1)
    with pytest.raises(DegenerateField):
        build_biquadratic(0, 5)
    with pytest.raises(NotImaginary):
        build_biquadratic(2, 3)
    with pytest.raises(CapExceeded):
        build_biquadratic(-1, 10 ** 12 + 39)
    # m and n are below the cap, k = mn / gcd(m, n)^2 is not
    with pytest.raises(CapExceeded, match="third radicand"):
        build_biquadratic(-599688520149, -567536985833)
    with pytest.raises(UnsupportedConductor):
        build_cyclic_quartic(7)


def test_torsion_six_field():
    k = build_biquadratic(-3, 41)
    assert k.real_subfield_d == 41
    assert -3 in k.sqrt_map


def test_cyclic_examples():
    k5 = build_cyclic_quartic(5)
    assert k5.theta_minpoly.coeffs == (1, 1, 1, 1, 1)
    assert k5.discriminant == 125
    k16 = build_cyclic_quartic(16)
    assert k16.theta_minpoly.coeffs == (2, 0, 4, 0, 1)
    assert k16.discriminant == 2048
    assert k16.real_subfield_d == 2
    k13 = build_cyclic_quartic(13)
    assert k13.discriminant == 2197
    assert k13.real_subfield_d == 13


def test_registry_shape():
    entries = registry()
    assert len(entries) == 40
    labels = [e.label for e in entries]
    assert len(set(labels)) == 40
    k5 = registry_entry("K_5")
    assert (k5.spec.m, k5.spec.n) == (-1, 67)
    assert k5.expected_p1_p2 == (29, 37)
    c29 = registry_entry("29")
    assert c29.expected_p1_p2 == (7, 53)
    assert sum(1 for e in entries if e.expected_g == 6) == 5
    with pytest.raises(UnknownLabel):
        registry_entry("K_99")


def test_discriminant_formulas(entries):
    sympy = pytest.importorskip("sympy")
    for entry in entries.values():
        spec = entry.spec
        if spec.kind == "biquadratic":
            r3, _ = squarefree_part(spec.m * spec.n)
            product = (
                quadratic_discriminant(spec.m)
                * quadratic_discriminant(spec.n)
                * quadratic_discriminant(r3)
            )
            assert spec.discriminant == product
        else:
            assert spec.discriminant == spec.conductor ** 2 * quadratic_discriminant(
                spec.real_subfield_d
            )
        # index relation against sympy's discriminant of the defining polynomial
        f = sympy.Poly(list(reversed(spec.theta_minpoly.coeffs)), sympy.Symbol("x"))
        assert sympy.discriminant(f) == spec.discriminant * spec.index ** 2
        # and the trace form of the basis through NFElement arithmetic;
        # construction checks the same determinant from the table directly
        basis = [NFElement(spec, tuple(int(i == j) for j in range(4))) for i in range(4)]
        gram = [[trace(x * y) for y in basis] for x in basis]
        assert det_int(gram) == spec.discriminant, entry.label


def test_all_fields_pass_closure_check(entries):
    for entry in entries.values():
        assert integral_basis_closure_check(entry.spec), entry.label


def test_closed_form_bases_beyond_registry():
    # every imaginary Q(sqrt(m), sqrt(n)) with |m|, |n| <= 20: all four
    # residue patterns of the radicands mod 4, and shared factors
    radicands = [r for r in range(-20, 21) if r not in (0, 1) and is_squarefree(r)]
    pairs = [(m, n) for m in radicands for n in radicands if m < n and min(m, n) < 0]
    assert len(pairs) == 234
    for m, n in pairs:
        assert integral_basis_closure_check(build_biquadratic(m, n)), (m, n)


def test_power_basis_alone_fails_closure_check(gaussian_sqrt11):
    # Z[theta] is closed, so only the trace form tells it from the maximal
    # order: its determinant is disc(f) = 1936 * 192^2, not 1936
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    fake = replace(gaussian_sqrt11, integral_basis=(1, ident))
    basis = [NFElement(fake, tuple(int(i == j) for j in range(4))) for i in range(4)]
    assert det_int([[trace(x * y) for y in basis] for x in basis]) == 71368704
    assert not integral_basis_closure_check(fake)
    with pytest.raises(DegenerateField):
        _validate_spec(fake)


def test_singular_basis_fails_closure_check(gaussian_sqrt11):
    d, rows = gaussian_sqrt11.integral_basis
    rows = list(rows)
    rows[3] = tuple(2 * x for x in rows[2])
    fake = replace(gaussian_sqrt11, integral_basis=(d, tuple(rows)))
    with pytest.raises(ValueError):
        fake.coords_from_power((1, 0, 0, 0))
    assert not integral_basis_closure_check(fake)
    with pytest.raises(DegenerateField):
        _validate_spec(fake)


def test_real_field_is_rejected_by_the_tower():
    # Q(sqrt 2, sqrt 3) with its maximal order 1, sqrt 2, sqrt 3,
    # (sqrt 2 + sqrt 6)/2, through the shared build path that
    # build_biquadratic refuses to enter for two positive radicands
    one = (1, 0, 0, 0)
    minpoly, to_power = _power_basis(((0, 1, 1, 0), 1), _tower_table(2, 3, 0))
    sqrt2, sqrt3 = to_power((0, 1, 0, 0)), to_power((0, 0, 1, 0))
    generators = [to_power(one), sqrt2, sqrt3, to_power((0, 0, 0, 1)), to_power((0, 1, 0, 1), 2)]
    with pytest.raises(NotImaginary):
        _finish("biquadratic", 2, 3, None, minpoly, generators, target=8 * 12 * 24, real_d=2,
                sqrt_power=[(2, sqrt2), (3, sqrt3)], tower_y=sqrt3)


def test_complex_x_is_rejected_by_the_tower(gaussian_sqrt11):
    # y = sqrt(-11) has y^2 < 0, but x = sqrt(-1) is not real
    with pytest.raises(NotImaginary):
        _validate_spec(replace(gaussian_sqrt11, real_subfield_d=-1))


def test_tower_checks_survive_optimized_python():
    code = (
        "from euclid4.errors import NotImaginary\n"
        "from euclid4.fields import FieldSpec, _validate_spec, build_biquadratic\n"
        "s = build_biquadratic(-1, 11)\n"
        "fake = FieldSpec(s.kind, s.m, s.n, s.conductor, s.theta_minpoly, s.integral_basis,\n"
        "                 s.discriminant, -1, s.sqrt_power, s.tower_y)\n"
        "try:\n"
        "    _validate_spec(fake)\n"
        "except NotImaginary:\n"
        "    print('rejected')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(euclid4.__file__))}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def test_tower_with_dependent_y_is_degenerate(gaussian_sqrt11):
    # y = sqrt(11) = x makes det S = 0
    fake = replace(gaussian_sqrt11, tower_y=dict(gaussian_sqrt11.sqrt_power)[11])
    with pytest.raises(DegenerateField):
        fake.tower


def rational_json(nums, den=1):
    return [str(Fraction(x, den)) for x in nums]


def construction_json(spec):
    """Everything construction stores or derives, rationals as reduced a/b."""
    d, e, be, ce, det, adj = spec.tower
    return {
        "descriptor": field_descriptor(spec),
        "sqrt_power": [[r, rational_json(*vec)] for r, vec in spec.sqrt_power],
        "tower_y": rational_json(*spec.tower_y),
        "mult_table": [[list(c) for c in row] for row in spec.mult_table],
        "tower": [d, str(Fraction(be, e)), str(Fraction(ce, e)), det, [list(r) for r in adj]],
        "index": spec.index,
    }


# SHA-256 of the construction data of the 40 registry fields and the 234
# biquadratic pairs with |m|, |n| <= 20, as built by the Fraction-based
# construction that the integer build path replaced.
CONSTRUCTION_DIGEST = "615a73838ea6fabe45983886e224f5533e9d744363a19504a0fb192a0aab4a07"


def test_construction_matches_frozen_digest(construction_specs):
    assert len(construction_specs) == 274
    blob = json.dumps([construction_json(s) for s in construction_specs], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CONSTRUCTION_DIGEST


def test_norm_forms_are_symmetric(construction_specs):
    """elements._value reads only the upper triangle of a Gram matrix, so
    both norm forms must be symmetric, on every field of the digest above."""
    for spec in construction_specs:
        for gram in spec.norm_forms:
            assert all(gram[i][j] == gram[j][i] for i in range(4) for j in range(i)), spec.name()


# SHA-256 of the construction data of every other imaginary biquadratic
# pair (m, n) of distinct squarefree radicands with |m|, |n| <= 60, in both
# orders (m > n gives theta a power matrix of negative determinant), as built
# by the Gram-matrix construction that the 4 x 4 inverse replaced.
WIDE_CONSTRUCTION_DIGEST = "0d39c8a536a9df4e26bbb898b20819f09c5aded9c707b8f8641c027f0f55d562"


def test_construction_matches_wide_frozen_digest():
    small = [r for r in range(-20, 21) if r not in (0, 1) and is_squarefree(r)]
    done = {(m, n) for m in small for n in small if m < n and min(m, n) < 0}
    radicands = [r for r in range(-60, 61) if r not in (0, 1) and is_squarefree(r)]
    pairs = [(m, n) for m in radicands for n in radicands
             if m != n and min(m, n) < 0 and (m, n) not in done]
    assert len(pairs) == 3762
    # m > n, and both radicands 2 mod 4
    assert (6, -2) in pairs and (-2, -58) in pairs
    blob = json.dumps([construction_json(build_biquadratic(m, n)) for m, n in pairs],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == WIDE_CONSTRUCTION_DIGEST


def test_cyclotomic_power_basis_is_maximal():
    # Z[zeta_5] is the maximal order: the conductor-5 basis is the power basis
    k5 = build_cyclic_quartic(5)
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert k5.integral_basis == (1, ident)
    assert integral_basis_closure_check(k5)


def test_basis_contains_one_and_theta(entries):
    """The basis (D, M) starts with 1 = M[0] / D, and D is the least
    common denominator of its rows."""
    for entry in entries.values():
        spec = entry.spec
        d, mat = spec.integral_basis
        assert mat[0] == (d, 0, 0, 0)
        assert gcd(d, *(x for row in mat for x in row)) == 1
        assert all(isinstance(c, int) for c in spec.theta_coords)


def test_minpoly_annihilates_theta(entries):
    from euclid4.elements import one, theta, zero

    for entry in entries.values():
        spec = entry.spec
        th = theta(spec)
        acc = zero(spec)
        power = one(spec)
        for coef in spec.theta_minpoly.coeffs:
            acc = acc + coef * power
            power = power * th
        assert acc.is_zero(), entry.label


def test_sqrt_embeddings_square_correctly(entries):
    from euclid4.elements import sqrt_radicand

    for entry in entries.values():
        spec = entry.spec
        for d in spec.sqrt_map:
            s = sqrt_radicand(spec, d)
            assert (s * s).coords == (d, 0, 0, 0)


def test_fields_totally_imaginary(entries):
    sympy = pytest.importorskip("sympy")
    for entry in entries.values():
        f = sympy.Poly(list(reversed(entry.spec.theta_minpoly.coeffs)), sympy.Symbol("x"))
        assert f.count_roots() == 0, entry.label


def test_descriptor_roundtrip(gaussian_sqrt11):
    from euclid4.fields import build_from_descriptor

    desc = field_descriptor(gaussian_sqrt11)
    assert desc["kind"] == "biquadratic"
    assert desc["discriminant"] == "1936"
    rebuilt = build_from_descriptor(desc)
    assert rebuilt == gaussian_sqrt11


def test_construction_is_deterministic():
    """A build past the memo equals the memoized one."""
    for build, fresh_build, args in ((build_biquadratic, build_biquadratic.__wrapped__, (-1, 19)),
                                     (build_cyclic_quartic, build_cyclic_quartic.__wrapped__, (29,))):
        fresh = fresh_build(*args)
        assert fresh is not build(*args) and fresh == build(*args)


def test_hash_is_cached_per_object():
    """Two equal specs that are distinct objects hash equal (the builders
    are memoized, so the distinct one comes from the constructor); the
    hash is computed once per object, and a copy gets a hash of its own
    instead of its source's."""
    a = build_biquadratic(-1, 19)
    b = replace(a)
    assert a is not b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.__dict__["_hash"] == hash(a)
    same = replace(a)
    assert "_hash" not in same.__dict__ and same == a and hash(same) == hash(a)
    other = replace(a, discriminant=a.discriminant * 4)
    assert other != a and hash(other) != hash(a)
    d, mat = other.integral_basis
    assert hash(replace(b, integral_basis=(d, mat[::-1]))) != hash(b)



def test_builders_are_memoized(entries):
    """Every route to a registry field reaches the registry's own FieldSpec:
    the builders return one object per field and process, however many
    other fields the session has built by now."""
    for label, entry in entries.items():
        spec = entry.spec
        assert fields.build_from_descriptor(field_descriptor(spec)) is spec, label
        again = (build_biquadratic(spec.m, spec.n) if spec.kind == "biquadratic"
                 else build_cyclic_quartic(spec.conductor))
        assert again is spec, label


def test_registry_fields_outlive_the_lru(entries):
    """300 other biquadratic builds, more than the LRU of 128 keeps, do not
    evict a registry field."""
    spec = entries["K_1"].spec
    rows = {(e.spec.m, e.spec.n) for e in entries.values() if e.spec.kind == "biquadratic"}
    radicands = [r for r in range(-60, 61) if r not in (0, 1) and is_squarefree(r)]
    others = [(m, n) for m in radicands for n in radicands
              if m < n and m < 0 and (m, n) not in rows][:300]
    assert len(others) == 300
    for m, n in others:
        build_biquadratic(m, n)
    assert fields.build_from_descriptor(field_descriptor(spec)) is spec


def test_registry_cyclic_fields_outlive_the_lru(entries):
    """The 168 primes = 5 (mod 8) below 5,000, 162 of them outside the
    registry and so more than the LRU of 128 keeps, do not evict a registry
    conductor's field."""
    spec = entries["13"].spec
    conductors = [f for f in range(5, 5000, 8) if is_prime(f)]
    assert len(conductors) == 168
    for f in conductors:
        build_cyclic_quartic(f)
    assert build_cyclic_quartic(13) is spec
    assert fields.build_from_descriptor(field_descriptor(spec)) is spec


@pytest.mark.parametrize("f", [7, 17, 41, 21, 25, 1, -3])
def test_conductor_outside_the_rule_is_unsupported(f):
    """Only 16 and the primes = 5 (mod 8) are conductors: a prime = 1
    (mod 8) gives a real field and a composite one another closed form."""
    with pytest.raises(UnsupportedConductor):
        build_cyclic_quartic(f)


def test_conductor_above_the_sieve_cap_is_refused():
    assert 1_000_037 % 8 == 5
    with pytest.raises(CapExceeded):
        build_cyclic_quartic(1_000_037)


def test_stored_rationals_are_in_lowest_terms(entries):
    """sqrt_power and tower_y are compared raw by FieldSpec.__eq__, so each
    is stored as (nums, den) in lowest terms with den > 0."""
    specs = [e.spec for e in entries.values()]
    specs += [build_cyclic_quartic(f) for f in (101, 109, 149, 157, 181, 2909)]
    specs += [build_biquadratic(m, n) for m, n in ((-1, 11), (-6, 10), (-5, 15), (-2, 3))]
    for spec in specs:
        for nums, den in [vec for _, vec in spec.sqrt_power] + [spec.tower_y]:
            assert den > 0 and gcd(den, *nums) == 1, spec.name()
    assert build_cyclic_quartic(13).sqrt_power == ((13, ((9, 2, 0, -2), 3)),)


@pytest.mark.parametrize("build, args, error", [
    (build_biquadratic, (2, 3), NotImaginary),
    (build_biquadratic, (-1, 10 ** 12 + 39), CapExceeded),
    (build_biquadratic, (-1, 4), DegenerateField),
    (build_cyclic_quartic, (7,), UnsupportedConductor),
    # keyed by type: a float radicand is refused even after the int builds
    (build_biquadratic, (-1.0, 13), TypeError),
    (build_cyclic_quartic, (21,), UnsupportedConductor),
])
def test_refused_builds_raise_on_every_call(build, args, error):
    build_biquadratic(-1, 13)
    for _ in range(2):
        with pytest.raises(error):
            build(*args)


def test_cached_tables_are_immutable():
    """One FieldSpec serves every caller, so what it caches is read-only."""
    spec = build_biquadratic(-7, 13)
    _, mat, adj, _ = spec._basis_matrix
    gu = spec.norm_forms[0]
    for table in (spec.mult_table, spec.mult_table[1], mat, adj, spec.tower[5], gu, gu[2]):
        with pytest.raises(TypeError):
            table[0] = 0


def test_equality_is_identity_first_then_by_field(gaussian_sqrt11):
    """A spec equals itself without reading a field: an instance with no
    fields set compares equal to itself.  A copy made by the constructor
    equals its source, and a copy with another discriminant does not."""
    bare = object.__new__(FieldSpec)
    assert bare == bare
    a = gaussian_sqrt11
    copy = replace(a)
    assert copy is not a and copy == a and a == copy
    assert replace(a, discriminant=a.discriminant * 4) != a
    assert a != field_descriptor(a)


def _cyclo_reduce(vec, f):
    """Canonical representative modulo the f-th cyclotomic polynomial, f
    prime or 16."""
    v = list(vec)
    if f == 16:
        return [v[j] - v[8 + j] for j in range(8)] + [0] * 8
    c = v[f - 1]
    return [x - c for x in v[: f - 1]] + [0]


def _cyclo_mul(u, v, f):
    """Product in Z[zeta_f] of two exponent-indexed coordinate vectors."""
    out = [0] * f
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[(i + j) % f] += a * b
    return _cyclo_reduce(out, f)


def _cyclo_combination(coeffs, vectors):
    return [sum(c * v[e] for c, v in zip(coeffs, vectors)) for e in range(len(vectors[0]))]


# f = a^2 + 4 b^2 with b > 0 and a = 3 (mod 4), for each prime conductor
TWO_SQUARES = {5: (-1, 1), 13: (3, 1), 29: (-5, 1), 37: (-1, 3), 53: (7, 1), 61: (-5, 3)}


@pytest.mark.parametrize("f", sorted(TWO_SQUARES))
def test_prime_conductor_tower_matches_products_in_the_cyclotomic_field(f):
    # the closed form that build_cyclic_quartic builds, checked in Z[zeta_f]:
    # with x the Gauss sum and y = 2 (eta_0 - eta_2), y^2 = 2a x - 2f, and
    # the periods are (-1 + x +- y)/4 and (-2b - 2b x +- (a + x) y)/8b
    a, b = TWO_SQUARES[f]
    assert _two_squares(f) == (a, b)
    g = next(g for g in range(2, f) if len({pow(g, k, f) for k in range(f - 1)}) == f - 1)
    subgroup = {pow(g, 4 * k, f) for k in range((f - 1) // 4)}
    periods = []
    for t in range(4):
        vec = [0] * f
        for h in subgroup:
            vec[pow(g, t, f) * h % f] += 1
        periods.append(_cyclo_reduce(vec, f))
    one = _cyclo_reduce([1] + [0] * (f - 1), f)
    residues = {r * r % f for r in range(1, f)}
    x = _cyclo_reduce([0] + [1 if r in residues else -1 for r in range(1, f)], f)
    y = _cyclo_combination((2, -2), [periods[0], periods[2]])
    assert _cyclo_mul(x, x, f) == _cyclo_combination([f], [one])
    assert _cyclo_mul(y, y, f) == _cyclo_combination((2 * a, -2 * f), [x, one])

    def scaled(k, *pair):
        return sorted(_cyclo_combination([k], [p]) for p in pair)

    basis = [one, x, y, _cyclo_mul(x, y, f)]
    assert scaled(4, periods[0], periods[2]) == sorted(
        _cyclo_combination((-1, 1, s, 0), basis) for s in (1, -1))
    assert scaled(8 * b, periods[1], periods[3]) == sorted(
        _cyclo_combination((-2 * b, -2 * b, s * a, s), basis) for s in (1, -1))
    # the spec's tower element is eta_0 - eta_2 = y/2, whose square is
    # (-f + a x)/2
    d, e, be, ce, _, _ = build_cyclic_quartic(f).tower
    assert (d, Fraction(be, e), Fraction(ce, e)) == (f, Fraction(-f, 2), Fraction(a, 2))


def test_conductor_16_tower_matches_products_in_the_cyclotomic_field():
    # y = zeta - zeta^-1 squares to sqrt(2) - 2 with sqrt(2) = zeta^2 + zeta^-2,
    # and the tower table is the product of 1, x = sqrt(2), y, xy in Z[zeta_16]
    def ambient(*exponents):
        vec = [0] * 16
        for e in exponents:
            vec[e] += 1
        return _cyclo_reduce(vec, 16)

    one, x = ambient(0), ambient(2, 14)
    y = _cyclo_combination((1, -1), [ambient(1), ambient(15)])
    assert _cyclo_mul(x, x, 16) == _cyclo_combination([2], [one])
    assert _cyclo_mul(y, y, 16) == _cyclo_combination((1, -2), [x, one])
    basis = [one, x, y, _cyclo_mul(x, y, 16)]
    for i in range(4):
        for j in range(4):
            assert _cyclo_mul(basis[i], basis[j], 16) == _cyclo_combination(
                _tower_table(2, -2, 1)[i][j], basis), (i, j)


def _poly_rem(num, den):
    """Remainder of num by the monic den, both coefficient lists from the
    constant term up, by long division."""
    num = list(num)
    while len(num) >= len(den):
        top = num.pop()
        shift = len(num) - (len(den) - 1)
        for k, c in enumerate(den[:-1]):
            num[shift + k] -= top * c
    return num + [0] * (len(den) - 1 - len(num))


def test_power_table_holds_the_reduced_powers_of_theta(entries):
    for entry in entries.values():
        f = entry.spec.theta_minpoly
        table = _power_table(f)
        for i in range(4):
            for j in range(4):
                theta_ij = [0] * (i + j) + [1]
                assert list(table[i][j]) == _poly_rem(theta_ij, f.coeffs), (entry.label, i, j)


def _biquadratic_product(u, v, m, n):
    """(u0 + u1 A + u2 B + u3 AB)(v0 + v1 A + v2 B + v3 AB) with A = sqrt(m)
    and B = sqrt(n), written out."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return [
        u0 * v0 + m * u1 * v1 + n * u2 * v2 + m * n * u3 * v3,
        u0 * v1 + u1 * v0 + n * (u2 * v3 + u3 * v2),
        u0 * v2 + u2 * v0 + m * (u1 * v3 + u3 * v1),
        u0 * v3 + u3 * v0 + u1 * v2 + u2 * v1,
    ]


@pytest.mark.parametrize("m, n", [(2, 3), (-1, 13), (-7, -163), (-2, 29), (6, -10)])
def test_tower_table_is_the_biquadratic_product(m, n):
    table = _tower_table(m, n, 0)
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for i in range(4):
        for j in range(4):
            assert list(table[i][j]) == _biquadratic_product(unit[i], unit[j], m, n), (i, j)
    u, v = (3, -1, 4, 1), (-5, 9, 2, -6)
    assert basis_mul(table, u, v) == _biquadratic_product(u, v, m, n)
