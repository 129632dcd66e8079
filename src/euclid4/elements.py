"""Exact ring arithmetic for algebraic integers over a field's integral basis.

An element is an integer coordinate vector; integrality is therefore a
representation invariant, which keeps every residue computation
denominator-free.  norm_solutions solves x conj(x) = alpha in a lattice of
the ring; it serves the prime generators (admissible._least_generators).
The square roots of units are written in closed form (units.sqrt_in_ring).
"""

from __future__ import annotations

from operator import mul

from .errors import DegenerateField, FieldMismatch, NotAUnit
from .fields import UNIT_VECTORS, FieldSpec, basis_mul
from .intmath import Record
from .linalg import adjugate_int, box_vectors, lll_reduce


class NFElement(Record):
    __slots__ = ("field", "coords")

    def __init__(self, field: FieldSpec, coords: tuple[int, int, int, int]):
        # coordinates are ints: ring operations make them, and certificate
        # parsing converts them (certs._as_int); basis_mul returns a list
        coords = tuple(coords)
        if len(coords) != 4:
            raise FieldMismatch(f"{len(coords)} coordinates for a quartic field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    # written out, not Record's loop over the slots, for the hot loops
    def __eq__(self, other):
        if other.__class__ is not NFElement:
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def _check(self, other: "NFElement"):
        if self.field != other.field:
            raise FieldMismatch("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return NFElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return NFElement(self.field, tuple(other * a for a in self.coords))
        self._check(other)
        return NFElement(self.field, basis_mul(self.field.mult_table, self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent; invert explicitly first")
        result = one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def mult_matrix(self):
        """Matrix of multiplication by self over the integral basis (rows act):
        row j holds the coordinates of self b_j."""
        table = self.field.mult_table
        return [basis_mul(table, self.coords, e) for e in UNIT_VECTORS]

    def __repr__(self):
        return f"NFElement{self.coords} in {self.field.name()}"


def zero(field: FieldSpec) -> NFElement:
    return NFElement(field, (0, 0, 0, 0))


def one(field: FieldSpec) -> NFElement:
    return NFElement(field, (1, 0, 0, 0))


def theta(field: FieldSpec) -> NFElement:
    return NFElement(field, field.theta_coords)


def from_power_coords(field: FieldSpec, power_vec) -> NFElement:
    """Element from rational power-basis coordinates; must be integral."""
    return NFElement(field, field.coords_from_power(list(power_vec)))


def sqrt_radicand(field: FieldSpec, d: int) -> NFElement:
    """The stored square root of an embedded radicand d."""
    return NFElement(field, field.sqrt_map[d])


def trace(x: NFElement) -> int:
    m = x.mult_matrix()
    return sum(m[i][i] for i in range(4))


def norm(x: NFElement) -> int:
    """N(x) = (U'^2 - d V'^2) / (4 e^2 D^4), where U' and V' are the values
    at x of the forms of FieldSpec.norm_forms: x conj(x) = (U + V sqrt(d))
    / (e D^2) with U' = 2U and V' = 2V, and U^2 - d V^2 = e^2 D^4 N(x)
    (fields._forms).  A remainder means the field's tower data are wrong,
    and raises DegenerateField."""
    spec = x.field
    d, e, _, _, det, _ = spec.tower
    gu, gv = spec.norm_forms
    u, v = _value(gu, x.coords), _value(gv, x.coords)
    n, rest = divmod(u * u - d * v * v, 4 * (e * det * det) ** 2)
    if rest:
        raise DegenerateField(f"{spec.name()}: U^2 - d V^2 is not a multiple of 4 e^2 D^4")
    return n


def inverse_unit(x: NFElement) -> NFElement:
    """Inverse of a unit: y M = e0 for the multiplication matrix M (row j
    holds the coordinates of x b_j), so y is row 0 of adj(M) / det(M), and
    det(M) = N(x) = +-1 is its own inverse."""
    n = norm(x)
    if n not in (1, -1):
        raise NotAUnit(f"norm {n} is not +-1")
    y = NFElement(x.field, tuple(n * c for c in adjugate_int(x.mult_matrix())[0]))
    if (x * y).coords != (1, 0, 0, 0):
        raise NotAUnit("the adjugate row is not an inverse")
    return y


def _value(gram, c):
    """c gram c^T for a symmetric 4 x 4 gram: only its upper triangle is
    read, and each cross term is counted twice."""
    c0, c1, c2, c3 = c
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = gram
    return (c0 * (g00 * c0 + 2 * (g01 * c1 + g02 * c2 + g03 * c3))
            + c1 * (g11 * c1 + 2 * (g12 * c2 + g13 * c3))
            + c2 * (g22 * c2 + 2 * g23 * c3) + g33 * c3 * c3)


def _times(rows, basis):
    """The vectors whose coordinates over the 4 x 4 basis rows are the
    rows: rows basis, as tuples."""
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = basis
    return [(c0 * b00 + c1 * b10 + c2 * b20 + c3 * b30,
             c0 * b01 + c1 * b11 + c2 * b21 + c3 * b31,
             c0 * b02 + c1 * b12 + c2 * b22 + c3 * b32,
             c0 * b03 + c1 * b13 + c2 * b23 + c3 * b33) for c0, c1, c2, c3 in rows]


def _congruent(gram, rows):
    """rows gram rows^T: the Gram matrix of the rows under gram."""
    return [[sum(map(mul, a, b)) for b in rows] for a in _times(rows, gram)]


def norm_solutions(spec: FieldSpec, lattice, a: int, b: int) -> list[tuple[int, ...]]:
    """Every x of the lattice (rows: the coordinates of a basis) with
    x conj(x) = alpha = (a + b sqrt(d)) / h, as coordinate tuples, where
    d = real_subfield_d and h = 2 when d = 1 mod 4, else 1; [] unless alpha
    is totally positive.

    x conj(x) = (U + V sqrt(d)) / (e D^2) (FieldSpec.norm_forms), and the
    form Q = a U - b d V = (h e D^2 / 2) Tr(alpha' x conj(x)) has
    Q(x) >= h e D^2 sqrt(N(alpha) N(x)) by AM-GM over the two real
    embeddings, with equality where x conj(x) = alpha.  So LLL reduction
    under 2Q (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7) and the box 2Q(y) <= 2 h e D^2 N(alpha) find every
    solution, each checked exactly; when |N(x)| >= N(alpha) on the lattice
    (a prime of norm N(alpha)), every nonzero y of the box is one.
    """
    d, e, _, _, det, _ = spec.tower
    h = 2 if d % 4 == 1 else 1
    if a <= 0 or a * a <= d * b * b:
        return []
    gu, gv = spec.norm_forms
    scale = e * det * det
    form = [[a * x - b * d * y for x, y in zip(ru, rv)] for ru, rv in zip(gu, gv)]
    basis = _times(lll_reduce(_congruent(form, lattice)), lattice)
    bound = 2 * scale * (a * a - d * b * b) // h
    found = _times([y for y in box_vectors(_congruent(form, basis), bound) if any(y)], basis)
    return [x for x in found
            if h * _value(gu, x) == 2 * scale * a and h * _value(gv, x) == 2 * scale * b]
