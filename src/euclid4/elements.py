"""Exact ring arithmetic for algebraic integers over a field's integral basis.

An element is an integer coordinate vector; integrality is therefore a
representation invariant, which keeps every residue computation
denominator-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, NotAUnit
from .fields import FieldSpec, basis_mul
from .linalg import adjugate_int, det_int


@dataclass(frozen=True)
class NFElement:
    field: FieldSpec
    coords: tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) != 4:
            raise FieldMismatch(f"{len(self.coords)} coordinates for a quartic field")

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
        """Matrix of multiplication by self over the integral basis (rows act)."""
        table = self.field.mult_table
        return [
            [sum(self.coords[i] * table[i][j][k] for i in range(4)) for k in range(4)]
            for j in range(4)
        ]

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
    return det_int(x.mult_matrix())


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
