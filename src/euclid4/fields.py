"""Construction of the imaginary Galois quartic fields.

Two families are supported: imaginary biquadratic fields Q(sqrt(m), sqrt(n))
and the class-number-one imaginary cyclic quartic fields of conductor
5, 13, 16, 29, 37, 53 or 61.

A field is represented by a monic quartic defining polynomial for a primitive
integral generator theta together with an exact integral basis written over
the power basis 1, theta, theta^2, theta^3.  The basis is written down in
closed form.  For Q(sqrt(m), sqrt(n)) with third radicand k = mn/gcd(m, n)^2
it is the classical one (K. S. Williams, Integers of biquadratic fields,
Canad. Math. Bull. 13 (1970)): the products of subsets of
{w_m, w_n, w_k}, with w_r = (1 + sqrt(r))/2 for r = 1 (mod 4) and sqrt(r)
otherwise, and (sqrt(a) + sqrt(b))/2 when two radicands a, b are 2 (mod 4).
For the supported cyclic conductors the span of the Gauss periods (the power
basis for conductor 16) is already maximal.  The generators are reduced to a
Hermite normal form, and maximality is certified, not assumed: the basis
must be closed under multiplication and its discriminant det(B)^2 disc(f)
must equal the conductor-discriminant product over the quadratic subfields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm

from .errors import (
    CapExceeded,
    DegenerateField,
    NotImaginary,
    UnknownLabel,
    UnsupportedConductor,
)
from .intmath import IntPoly, count_real_roots, factorize, is_squarefree, legendre, poly_discriminant
from .linalg import adjugate_int, det_int, hnf_rows

# Radicands are tested for squarefreeness by trial division, which takes
# about 0.075 s at 10**12 and grows with the square root beyond it; larger
# radicands are refused before any factoring so that no input runs unbounded.
MAX_RADICAND = 10 ** 12


def quadratic_discriminant(r: int) -> int:
    """Discriminant of Q(sqrt(r)) for squarefree r."""
    return r if r % 4 == 1 else 4 * r


# ---------------------------------------------------------------------------
# power-basis arithmetic helpers


def _reduction_rows(minpoly: IntPoly):
    """Power-basis coordinates of theta^4, theta^5, theta^6."""
    c = minpoly.coeffs
    assert len(c) == 5 and c[4] == 1
    t4 = [-c[k] for k in range(4)]
    rows = [t4]
    for _ in range(2):
        prev = rows[-1]
        nxt = [0] + prev[:3]
        nxt = [nxt[k] + prev[3] * t4[k] for k in range(4)]
        rows.append(nxt)
    return rows


def _poly_mul_mod(u, v, red):
    """Product of two power-coordinate vectors modulo the defining polynomial."""
    full = [0] * 7
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b != 0:
                full[i + j] += a * b
    out = full[:4]
    for k in range(4, 7):
        if full[k] != 0:
            r = red[k - 4]
            for t in range(4):
                out[t] += full[k] * r[t]
    return out


def _scaled(rows):
    """(d, d * rows) with d the least common denominator of the entries."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[int(x * d) for x in row] for row in rows]


def _canonical_basis(generators):
    """HNF-canonical basis of the Z-span of generators (power coordinates):
    b0 = 1, pivots on ascending powers, positive."""
    d, mat = _scaled(generators)
    out = tuple(tuple(Fraction(x, d) for x in row) for row in hnf_rows(mat))
    assert out[0] == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    return out


def basis_mul(table, x, y):
    """Product of two coordinate vectors over a basis with structure
    constants table (table[i][j] holds the coordinates of b_i * b_j)."""
    out = [0, 0, 0, 0]
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            if b == 0:
                continue
            f = a * b
            cij = table[i][j]
            for k in range(4):
                out[k] += f * cij[k]
    return out


# ---------------------------------------------------------------------------
# the field object


@dataclass(frozen=True)
class FieldSpec:
    """An imaginary Galois quartic field with an exact integral basis.

    integral_basis rows are coordinates over the power basis of theta.  They
    are held once more as the integer matrix M = D * integral_basis, with D
    the least common denominator, together with adj(M) and det(M): the
    inverse basis matrix is D adj(M) / det(M), so every change of
    coordinates is integer arithmetic ending in one exact division.
    sqrt_power pairs each embedded squarefree radicand d with the power-basis
    coordinates of an element squaring to d, and sqrt_map gives the integer
    coordinates of that element over the integral basis.  tower_y holds the
    power coordinates of an integral y with K = Q(x, y), where
    x = sqrt(real_subfield_d) and y^2 lies in Q(x) (see tower).
    """

    kind: str  # "biquadratic" | "cyclic"
    m: int | None
    n: int | None
    conductor: int | None
    theta_minpoly: IntPoly
    integral_basis: tuple
    discriminant: int
    index: int
    real_subfield_d: int
    sqrt_power: tuple
    tower_y: tuple

    @cached_property
    def _red(self):
        return _reduction_rows(self.theta_minpoly)

    @cached_property
    def _basis_matrix(self):
        """(D, M, adj(M), det(M)) with M = D * integral_basis integral."""
        d, mat = _scaled(self.integral_basis)
        return d, mat, adjugate_int(mat), det_int(mat)

    def _coords(self, vec, den):
        """Basis coordinates of the power-coordinate vector vec / den, with vec
        integral: D vec adj(M) / (den det(M)).  Raises ValueError when they are
        not all integers."""
        d, _, adj, det = self._basis_matrix
        q = den * det
        nums = [d * sum(v * adj[t][k] for t, v in enumerate(vec) if v) for k in range(4)]
        if any(x % q for x in nums):
            raise ValueError("element is not integral")
        return tuple(x // q for x in nums)

    @cached_property
    def mult_table(self):
        """table[i][j] holds the coordinates of b_i * b_j, from the products
        M_i M_j of integer basis rows reduced modulo the defining polynomial.

        Raises ValueError when the basis is not closed under multiplication.
        """
        d, mat, _, _ = self._basis_matrix
        return [
            [self._coords(_poly_mul_mod(mat[i], mat[j], self._red), d * d) for j in range(4)]
            for i in range(4)
        ]

    @cached_property
    def theta_coords(self):
        return self.coords_from_power((0, 1, 0, 0))

    @cached_property
    def sqrt_map(self):
        return {d: self.coords_from_power(vec) for d, vec in self.sqrt_power}

    @cached_property
    def tower(self):
        """(d, B, C, D, adj(S)) presenting K as the tower Q(x, y).

        x^2 = d and y^2 = B + C x with B, C rational.  The rows of S are the
        integral-basis coordinates of 1, x, y, xy and D = det S, so the basis
        is adj(S) (1, x, y, xy) / D.  Every odd prime dividing D is certified
        to be ramified or not to split completely, so D is a unit modulo
        every odd completely split prime.
        """
        from .residues import splits_completely

        table = self.mult_table
        d = self.real_subfield_d
        x = self.sqrt_map[d]
        y = self.coords_from_power(self.tower_y)
        y2 = basis_mul(table, y, y)
        j = next(i for i in (1, 2, 3) if x[i])
        c = Fraction(y2[j], x[j])
        b = y2[0] - c * x[0]
        assert [b * (i == 0) + c * xi for i, xi in enumerate(x)] == y2, "y^2 is not in Q(x)"
        rows = [[1, 0, 0, 0], list(x), list(y), basis_mul(table, x, y)]
        det = det_int(rows)
        rest = abs(det)
        while (g := gcd(rest, 2 * self.discriminant)) > 1:
            rest //= g
        assert not any(splits_completely(self, q) for q in factorize(rest)), det
        return d, b, c, det, adjugate_int(rows)

    def coords_from_power(self, power_vec):
        """Integral-basis coordinates of an element given in power coordinates.

        Raises ValueError when the element is not integral over the basis.
        """
        den, (vec,) = _scaled([power_vec])
        return self._coords(vec, den)

    def name(self) -> str:
        if self.kind == "biquadratic":
            return f"Q(sqrt({self.m}), sqrt({self.n}))"
        return f"cyclic quartic field of conductor {self.conductor}"

    def __repr__(self):
        return f"FieldSpec({self.name()})"


def integral_basis_closure_check(spec: FieldSpec) -> bool:
    """True iff the stored basis spans the claimed maximal order.

    All 16 pairwise products of basis elements must have integer coordinates
    over the basis, 1 must be an integral combination, and the module
    discriminant must equal the field discriminant (so a closed but
    non-maximal order, such as a bare power basis, is rejected).
    """
    try:
        spec.mult_table
        spec.coords_from_power((1, 0, 0, 0))
    except ValueError:
        return False
    # det(B)^2 disc(f) with B = M / D
    d, _, _, det = spec._basis_matrix
    return det ** 2 * poly_discriminant(spec.theta_minpoly) == spec.discriminant * d ** 8


def _validate_spec(spec: FieldSpec):
    assert spec.theta_minpoly.degree == 4 and spec.theta_minpoly.coeffs[4] == 1
    assert count_real_roots(spec.theta_minpoly) == 0, "field is not totally imaginary"
    poly_d = poly_discriminant(spec.theta_minpoly)
    assert poly_d == spec.discriminant * spec.index ** 2
    assert integral_basis_closure_check(spec)
    # each stored square root squares to d * 1
    for d, coords in spec.sqrt_map.items():
        assert basis_mul(spec.mult_table, coords, coords) == [d, 0, 0, 0]


# ---------------------------------------------------------------------------
# the shared build path


def _power_basis(one, theta, mul):
    """Minimal polynomial of theta and the map to power coordinates, from
    theta^0..theta^4 computed in an ambient Q-algebra with product mul.

    The columns of T are theta^0..theta^3 in ambient coordinates (T is
    square for the biquadratic algebra, tall for the cyclotomic one), and
    the power coordinates of v are x = adj(G) T^t v / det(G) with the integer
    Gram matrix G = T^t T, inverted once.  to_power raises ValueError when
    T x = v fails, that is when v is not in the span of the theta powers.
    """
    powers = [one]
    for _ in range(4):
        powers.append(mul(powers[-1], theta))
    cols = powers[:4]
    gram = [[sum(a * b for a, b in zip(u, w)) for w in cols] for u in cols]
    adj, det = adjugate_int(gram), det_int(gram)

    def to_power(vec):
        den, (ints,) = _scaled([vec])
        tv = [sum(a * b for a, b in zip(u, ints)) for u in cols]
        nums = [sum(a * b for a, b in zip(row, tv)) for row in adj]
        # T x = v, with x = nums / (den det) and v = ints / den
        if any(sum(n * col[i] for n, col in zip(nums, cols)) != det * v
               for i, v in enumerate(ints)):
            raise ValueError("vector is not in the span of the theta powers")
        return tuple(Fraction(n, den * det) for n in nums)

    minpoly = IntPoly(tuple(int(-c) for c in to_power(powers[4])) + (1,))

    return minpoly, to_power


def _finish(kind, m, n, conductor, minpoly, generators, target, real_d, sqrt_power, tower_y):
    """Canonical basis, index and validation, shared by both families;
    generators, sqrt_power and tower_y are in power coordinates."""
    spec = FieldSpec(
        kind=kind,
        m=m,
        n=n,
        conductor=conductor,
        theta_minpoly=minpoly,
        integral_basis=_canonical_basis(generators),
        discriminant=target,
        index=isqrt(poly_discriminant(minpoly) // target),
        real_subfield_d=real_d,
        sqrt_power=tuple(sorted(sqrt_power)),
        tower_y=tuple(tower_y),
    )
    _validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# biquadratic construction


def _bi_mul(u, v, m, n):
    """Multiplication in the 4-dimensional algebra Q<1, A, B, AB>."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return [
        u0 * v0 + m * u1 * v1 + n * u2 * v2 + m * n * u3 * v3,
        u0 * v1 + u1 * v0 + n * (u2 * v3 + u3 * v2),
        u0 * v2 + u2 * v0 + m * (u1 * v3 + u3 * v1),
        u0 * v3 + u3 * v0 + u1 * v2 + u2 * v1,
    ]


def build_biquadratic(m: int, n: int) -> FieldSpec:
    """The imaginary biquadratic field Q(sqrt(m), sqrt(n)), theta = sqrt(m)+sqrt(n)."""
    if max(abs(m), abs(n)) > MAX_RADICAND:
        raise CapExceeded(f"({m}, {n}): radicands above {MAX_RADICAND} are not supported")
    if m in (0, 1) or n in (0, 1) or not (is_squarefree(m) and is_squarefree(n)):
        raise DegenerateField(f"({m}, {n}): radicands must be squarefree and != 0, 1")
    if m == n:
        raise DegenerateField(f"({m}, {n}): equal radicands give a quadratic field")
    if m > 0 and n > 0:
        raise NotImaginary(f"({m}, {n}): all three quadratic subfields are real")

    # m, n squarefree: mn = h^2 k with h = gcd(m, n) and k squarefree
    h = gcd(m, n)
    k = (m // h) * (n // h)
    radicands = (m, n, k)

    def mul(u, v):
        return _bi_mul(u, v, m, n)

    one = (1, 0, 0, 0)
    minpoly, to_power = _power_basis(one, (0, 1, 1, 0), mul)
    assert minpoly.coeffs == ((m - n) ** 2, 0, -2 * (m + n), 0, 1)

    sqrt_amb = {m: (0, 1, 0, 0), n: (0, 0, 1, 0), k: (0, 0, 0, Fraction(1, h))}
    generators = [one]
    for r in radicands:
        w = sqrt_amb[r]
        if r % 4 == 1:
            w = [Fraction(o + x, 2) for o, x in zip(one, w)]
        generators += [mul(g, w) for g in generators]
    even = [r for r in radicands if r % 4 == 2]
    if len(even) == 2:
        generators.append([Fraction(x + y, 2) for x, y in zip(*(sqrt_amb[r] for r in even))])

    return _finish(
        "biquadratic", m, n, None, minpoly,
        [to_power(g) for g in generators],
        target=quadratic_discriminant(m) * quadratic_discriminant(n) * quadratic_discriminant(k),
        real_d=next(r for r in radicands if r > 0),
        sqrt_power=[(d, to_power(vec)) for d, vec in sqrt_amb.items()],
        tower_y=to_power(sqrt_amb[min(radicands)]),
    )


# ---------------------------------------------------------------------------
# cyclic quartic construction

SUPPORTED_CONDUCTORS = (5, 13, 16, 29, 37, 53, 61)


def _primitive_root(f: int) -> int:
    phi = f - 1
    qs = list(factorize(phi))
    for g in range(2, f):
        if all(pow(g, phi // q, f) != 1 for q in qs):
            return g
    raise AssertionError


def _cyclo_reduce(vec, f):
    """Canonical representative modulo the f-th cyclotomic polynomial."""
    v = list(vec)
    if f == 16:
        return [v[j] - v[8 + j] for j in range(8)] + [0] * 8
    c = v[f - 1]
    return [x - c for x in v[: f - 1]] + [0]


def _cyclo_mul(u, v, f):
    out = [0] * f
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b != 0:
                out[(i + j) % f] += a * b
    return _cyclo_reduce(out, f)


def build_cyclic_quartic(f: int) -> FieldSpec:
    """The imaginary cyclic quartic field inside Q(zeta_f).

    theta is the Gauss period over the index-4 subgroup H of (Z/f)* with
    cyclic quotient and -1 not in H; for the supported conductors that
    subgroup is unique.
    """
    if f not in SUPPORTED_CONDUCTORS:
        raise UnsupportedConductor(f"conductor {f} is not in {SUPPORTED_CONDUCTORS}")

    if f == 16:
        subgroup = [1, 7]
        gamma = 3
    else:
        g0 = _primitive_root(f)
        subgroup = sorted(pow(g0, 4 * k, f) for k in range((f - 1) // 4))
        gamma = g0
    assert (f - 1) % f not in subgroup  # -1 gives the imaginary choice

    def period(j):
        vec = [0] * f
        mult = pow(gamma, j, f)
        for h in subgroup:
            vec[(mult * h) % f] += 1
        return _cyclo_reduce(vec, f)

    periods = [period(j) for j in range(4)]
    one = _cyclo_reduce([1] + [0] * (f - 1), f)
    minpoly, to_power = _power_basis(one, periods[0], lambda u, v: _cyclo_mul(u, v, f))

    # y = theta for conductor 16 (theta^2 = sqrt(2) - 2), else eta_0 - eta_2
    if f == 16:
        generators = [[Fraction(1 if t == i else 0) for t in range(4)] for i in range(4)]
        real_d = 2
        sqrt_vec = _cyclo_reduce(
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0], 16
        )
        tower_y = generators[1]
    else:
        generators = [to_power(p) for p in periods]
        real_d = f
        sqrt_vec = _cyclo_reduce([0] + [legendre(a, f) for a in range(1, f)], f)
        tower_y = [a - b for a, b in zip(generators[0], generators[2])]

    return _finish(
        "cyclic", None, None, f, minpoly, generators,
        target=f * f * quadratic_discriminant(real_d),
        real_d=real_d,
        sqrt_power=[(real_d, to_power(sqrt_vec))],
        tower_y=tower_y,
    )


# ---------------------------------------------------------------------------
# registry of the forty class-number-one fields


@dataclass(frozen=True)
class FieldRegistryEntry:
    label: str
    spec: FieldSpec
    expected_g: int
    expected_p1_p2: tuple[int, int]


_BIQUADRATIC_TABLE = (
    ("K_1", -1, 13, 29, 17),
    ("K_2", -1, 19, 5, 73),
    ("K_3", -1, 37, 149, 53),
    ("K_4", -1, 43, 13, 17),
    ("K_5", -1, 67, 29, 37),
    ("K_6", -1, 163, 53, 173),
    ("K_7", 2, -11, 23, 31),
    ("K_8", -2, -11, 3, 59),
    ("K_9", -2, -7, 11, 43),
    ("K_10", -2, -19, 11, 17),
    ("K_11", -2, 29, 59, 83),
    ("K_12", -2, -43, 11, 17),
    ("K_13", -2, -67, 19, 17),
    ("K_14", -3, 41, 31, 73),
    ("K_15", -3, -43, 31, 79),
    ("K_16", -3, -67, 439, 19),
    ("K_17", -3, 89, 607, 97),
    ("K_18", -3, -163, 43, 61),
    ("K_19", -7, -11, 23, 37),
    ("K_20", -7, 13, 23, 29),
    ("K_21", -7, -19, 11, 137),
    ("K_22", -7, -43, 11, 53),
    ("K_23", -7, 61, 107, 137),
    ("K_24", -7, -163, 43, 179),
    ("K_25", -11, 17, 47, 59),
    ("K_26", -11, -19, 23, 5),
    ("K_27", -11, -67, 47, 59),
    ("K_28", -11, -163, 199, 53),
    ("K_29", -19, -67, 23, 47),
    ("K_30", -19, -163, 43, 47),
    ("K_31", -43, -67, 23, 17),
    ("K_32", -43, -163, 47, 53),
    ("K_33", -67, -163, 47, 167),
)

_CYCLIC_TABLE = (
    ("5", 5, 11, 31),
    ("13", 13, 79, 29),
    ("16", 16, 23, 17),
    ("29", 29, 7, 53),
    ("37", 37, 7, 53),
    ("53", 53, 107, 89),
    ("61", 61, 47, 73),
)


def _expected_torsion(label: str, conductor: int | None) -> int:
    if conductor is not None:
        return 10 if conductor == 5 else 2
    j = int(label.split("_")[1])
    if j <= 6:
        return 4
    if 14 <= j <= 18:
        return 6
    return 2


@lru_cache(maxsize=1)
def _registry_tuple():
    entries = []
    for label, m, n, p1, p2 in _BIQUADRATIC_TABLE:
        spec = build_biquadratic(m, n)
        entries.append(
            FieldRegistryEntry(label, spec, _expected_torsion(label, None), (p1, p2))
        )
    for label, f, p1, p2 in _CYCLIC_TABLE:
        spec = build_cyclic_quartic(f)
        entries.append(
            FieldRegistryEntry(label, spec, _expected_torsion(label, f), (p1, p2))
        )
    return tuple(entries)


def registry() -> list[FieldRegistryEntry]:
    """All forty class-number-one fields with their reference prime pairs."""
    return list(_registry_tuple())


def registry_entry(label: str) -> FieldRegistryEntry:
    for entry in _registry_tuple():
        if entry.label == label:
            return entry
    raise UnknownLabel(f"no registry entry named {label!r}")


# ---------------------------------------------------------------------------
# serialization


def field_descriptor(spec: FieldSpec) -> dict:
    """JSON-ready descriptor; every integer rendered as a decimal string."""
    desc = {
        "kind": spec.kind,
        "minpoly": [str(c) for c in spec.theta_minpoly.coeffs],
        "basis": [
            [f"{f.numerator}/{f.denominator}" for f in row]
            for row in spec.integral_basis
        ],
        "discriminant": str(spec.discriminant),
        "index": str(spec.index),
        "real_subfield_d": str(spec.real_subfield_d),
    }
    if spec.kind == "biquadratic":
        desc["m"] = str(spec.m)
        desc["n"] = str(spec.n)
    else:
        desc["conductor"] = str(spec.conductor)
    return desc


def build_from_descriptor(desc: dict) -> FieldSpec:
    """Rebuild the field named by a descriptor (construction is recomputed)."""
    if desc["kind"] == "biquadratic":
        return build_biquadratic(int(desc["m"]), int(desc["n"]))
    if desc["kind"] == "cyclic":
        return build_cyclic_quartic(int(desc["conductor"]))
    raise UnknownLabel(f"unknown field kind {desc['kind']!r}")
