"""Construction of the imaginary Galois quartic fields.

Two families are supported: imaginary biquadratic fields Q(sqrt(m), sqrt(n))
and imaginary cyclic quartic fields of conductor 16 or a prime = 5 (mod 8).

A field is represented by a monic quartic defining polynomial for a primitive
integral generator theta together with an exact integral basis written over
the power basis 1, theta, theta^2, theta^3.  The basis is written down in
closed form.  For Q(sqrt(m), sqrt(n)) with third radicand k = mn/gcd(m, n)^2
it is the classical one (K. S. Williams, Integers of biquadratic fields,
Canad. Math. Bull. 13 (1970)): the products of subsets of
{w_m, w_n, w_k}, with w_r = (1 + sqrt(r))/2 for r = 1 (mod 4) and sqrt(r)
otherwise, and (sqrt(a) + sqrt(b))/2 when two radicands a, b are 2 (mod 4).
For a prime cyclic conductor it is the span of the four Gauss periods, and
for conductor 16 the power basis.  The generators are reduced to a
Hermite normal form, and maximality is certified, not assumed: the basis
must be closed under multiplication and its discriminant, the determinant of
the trace form Tr(b_i b_j) read off the multiplication table (Cohen, A Course
in Computational Algebraic Number Theory, ch. 4), must equal the
conductor-discriminant product over the quadratic subfields.  The field is
certified totally imaginary from its tower Q(x, y): y^2 is negative at both
real values of x = sqrt(d).  Every check raises a typed error, so none is
lost under python -O.

Every field is built in one ambient Q-algebra, the tower Q<1, x, y, xy>
with x^2 = d and y^2 = B + C x (_tower_table): B = n and C = 0 with
x = sqrt(m) and y = sqrt(n) for Q(sqrt(m), sqrt(n)); B = -2f and C = 2a for
a prime conductor f = a^2 + 4 b^2, with x the Gauss sum sqrt(f) and y twice
a difference of two Gauss periods, so that every period is written in
closed form over x and y; and B = -2, C = 1 with x = sqrt(2) for conductor
16.  The power basis of theta is a structure table too (_power_table), and
basis_mul is the one product over them all.  The square matrix of
theta^0..theta^3 in the ambient is inverted once by its adjugate.

Construction is integer arithmetic.  A rational vector is carried as
(nums, den), integer numerators over one positive denominator, from the
ambient generators through their power coordinates to the Hermite normal
form.  The stored integral basis is (D, M) too: the integer matrix M over
its least common denominator D, which the field descriptor renders as
reduced fractions.

Both builders share one memo (_memoized), so a field is built and certified
once per process: the registry, a certificate's descriptor and every other
caller of build_biquadratic(m, n) or build_cyclic_quartic(f) share one
FieldSpec, and what a spec caches is held in tuples, not lists.  The
registry's fields are never evicted, and any other goes into an LRU of 128.
The memo is keyed by argument type too, so -1.0 is still refused after -1
has built, and a refused input raises on every call, as lru_cache keeps no
exception.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, wraps
from math import gcd, isqrt, lcm
from operator import attrgetter

from .errors import (
    CapExceeded,
    DegenerateField,
    NotImaginary,
    UnknownLabel,
    UnsupportedConductor,
)
from .intmath import IntPoly, Record, is_prime, is_squarefree
from .linalg import adjugate_int, det_int, hnf_rows

# Radicands are tested for squarefreeness by trial division, which takes
# about 0.075 s at 10**12 and grows with the square root beyond it; larger
# radicands, the third radicand mn / gcd(m, n)^2 of a biquadratic field
# included, are refused before they are factored so that no input runs
# unbounded.
# A radicand below the cap can still have a fundamental unit too large to
# write down: the continued fraction that finds it stops with CapExceeded
# once a convergent passes intmath.MAX_CF_BITS bits.
MAX_RADICAND = 10 ** 12


def quadratic_discriminant(r: int) -> int:
    """Discriminant of Q(sqrt(r)) for squarefree r."""
    return r if r % 4 == 1 else 4 * r


# ---------------------------------------------------------------------------
# structure tables and the one product over them

UNIT_VECTORS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _tower_table(d, b, c):
    """Structure constants of Q<1, x, y, xy> with x^2 = d and y^2 = b + c x:
    table[i][j] holds the coordinates of the product of basis elements i
    and j."""
    one, x, y, xy = UNIT_VECTORS
    dy, y2, xy2 = (0, 0, d, 0), (b, c, 0, 0), (c * d, b, 0, 0)
    return (
        (one, x, y, xy),
        (x, (d, 0, 0, 0), xy, dy),
        (y, xy, y2, xy2),
        (xy, dy, xy2, (d * b, d * c, 0, 0)),
    )


def _power_table(minpoly: IntPoly):
    """Structure constants of the power basis 1, theta, theta^2, theta^3:
    table[i][j] holds the coordinates of theta^(i+j), reduced by the monic
    quartic minpoly (theta^4 = -c0 - c1 theta - c2 theta^2 - c3 theta^3)."""
    c = minpoly.coeffs
    powers = list(UNIT_VECTORS)
    for _ in range(3):
        *low, top = powers[-1]
        powers.append(tuple(s - top * ck for s, ck in zip((0, *low), c)))
    return [[powers[i + j] for j in range(4)] for i in range(4)]


def _canonical_basis(generators):
    """HNF-canonical basis of the Z-span of generators, given as (nums, den)
    power-coordinate vectors: b0 = 1, pivots on ascending powers, positive.
    All are scaled once to the common denominator; the result is (D, M),
    the rows M over their least common denominator D."""
    d = lcm(*(den for _, den in generators))
    rows = hnf_rows([[x * (d // den) for x in nums] for nums, den in generators])
    g = gcd(d, *(x for row in rows for x in row))
    d, mat = d // g, tuple(tuple(x // g for x in row) for row in rows)
    if mat[0] != (d, 0, 0, 0):
        raise DegenerateField("the canonical basis does not start with 1")
    return d, mat


def basis_mul(table, x, y):
    """Product of two coordinate vectors over a basis with structure
    constants table (table[i][j] holds the coordinates of b_i * b_j)."""
    o0 = o1 = o2 = o3 = 0
    for a, row in zip(x, table):
        if a == 0:
            continue
        for b, (c0, c1, c2, c3) in zip(y, row):
            if b == 0:
                continue
            f = a * b
            o0 += f * c0
            o1 += f * c1
            o2 += f * c2
            o3 += f * c3
    return [o0, o1, o2, o3]


def _forms(tower, t0, t1, t2, t3):
    """(U, V) with e (a^2 - b^2 y^2) = U + V x for a = t0 + t1 x and
    b = t2 + t3 x, two quadratic forms in t; tower is FieldSpec.tower.

    Complex conjugation fixes x and sends y to -y, so for z =
    (a + b y) / D the real element z conj(z) is (U + V x) / (e D^2).
    Hence U^2 - d V^2 = e^2 D^4 N(z), and U, e D^2 / 4 times the sum
    of |z|^2 over the four embeddings, is positive definite."""
    d, e, be, ce, _, _ = tower
    b0 = t2 * t2 + d * (t3 * t3)
    b1 = 2 * t2 * t3
    return (e * (t0 * t0 + d * (t1 * t1)) - be * b0 - d * ce * b1,
            e * (2 * t0 * t1) - ce * b0 - be * b1)


# ---------------------------------------------------------------------------
# the field object


class FieldSpec:
    """An imaginary Galois quartic field with an exact integral basis.

    kind is "biquadratic" or "cyclic".  integral_basis is (D, M): the rows
    of M / D are the basis elements' coordinates over the power basis of
    theta, with D > 0 their least common denominator.  _basis_matrix adds
    adj(M) and det(M): the inverse basis matrix is D adj(M) / det(M), so
    every change of coordinates is integer arithmetic ending in one exact
    division.
    sqrt_power pairs each embedded squarefree radicand d with the power-basis
    coordinates (nums, den) of an element squaring to d, and sqrt_map gives
    the integer coordinates of that element over the integral basis.
    tower_y holds the power coordinates (nums, den) of an integral y with
    K = Q(x, y), where x = sqrt(real_subfield_d) and y^2 lies in Q(x) (see
    tower).  A spec is immutable; its fields share __dict__ with the
    cached_property values, so a pickled copy carries the cached tables.
    """

    def __init__(self, kind: str, m: int | None, n: int | None, conductor: int | None,
                 theta_minpoly: IntPoly, integral_basis: tuple, discriminant: int,
                 real_subfield_d: int, sqrt_power: tuple, tower_y: tuple):
        vars(self).update(
            kind=kind, m=m, n=n, conductor=conductor, theta_minpoly=theta_minpoly,
            integral_basis=integral_basis, discriminant=discriminant,
            real_subfield_d=real_subfield_d, sqrt_power=sqrt_power, tower_y=tower_y)

    __setattr__ = __delattr__ = Record.__setattr__

    @cached_property
    def _basis_matrix(self):
        """(D, M, adj(M), det(M)) with integral_basis = (D, M)."""
        d, mat = self.integral_basis
        return (d, mat, *_adjugate_det(mat))

    @cached_property
    def index(self):
        """[O : Z[theta]] = 1 / |det B| = D^4 / |det M|.  Raises
        DegenerateField unless it is an integer, that is unless the powers
        of theta lie in the span of the basis."""
        d, _, _, det = self._basis_matrix
        if det == 0 or d ** 4 % det:
            raise DegenerateField(f"{self.name()}: Z[theta] is not inside the basis span")
        return d ** 4 // abs(det)

    def _coords(self, vec, den):
        """Basis coordinates of the power-coordinate vector vec / den, with vec
        integral: D vec adj(M) / (den det(M)).  Raises ValueError when they are
        not all integers or the basis is singular."""
        d, _, adj, det = self._basis_matrix
        if det == 0:
            raise ValueError("basis matrix is singular")
        q = den * det
        v0, v1, v2, v3 = vec
        nums = [d * (v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3) for a0, a1, a2, a3 in zip(*adj)]
        if any(x % q for x in nums):
            raise ValueError("element is not integral")
        return tuple(x // q for x in nums)

    @cached_property
    def mult_table(self):
        """table[i][j] holds the coordinates of b_i * b_j, from the products
        M_i M_j of integer basis rows over the power table of the defining
        polynomial.  The product commutes, so the ten with i <= j are
        computed and mirrored.

        Raises ValueError when the basis is not closed under multiplication.
        """
        d, mat, _, _ = self._basis_matrix
        power = _power_table(self.theta_minpoly)
        table = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                table[i][j] = table[j][i] = self._coords(
                    basis_mul(power, mat[i], mat[j]), d * d)
        return tuple(map(tuple, table))

    @cached_property
    def theta_coords(self):
        return self.coords_from_power((0, 1, 0, 0))

    @cached_property
    def sqrt_map(self):
        return {d: self._coords(*vec) for d, vec in self.sqrt_power}

    @cached_property
    def tower_rows(self):
        """S of tower: the integral-basis coordinates of 1, x, y and xy, as
        rows, so an element with tower coordinates W is W S."""
        x = self.sqrt_map[self.real_subfield_d]
        y = self._coords(*self.tower_y)
        return (1, 0, 0, 0), x, y, tuple(basis_mul(self.mult_table, x, y))

    @cached_property
    def tower(self):
        """(d, e, Be, Ce, D, adj(S)) presenting K as the tower Q(x, y).

        x^2 = d and e y^2 = Be + Ce x with integers e > 0, Be, Ce, where e is
        the least one that clears the denominators.  The rows of S are the
        integral-basis coordinates of 1, x, y, xy (tower_rows) and D = det S,
        so the basis is adj(S) (1, x, y, xy) / D.  Raises DegenerateField
        when y^2 is not in Q(x) or when D = 0.
        """
        d = self.real_subfield_d
        rows = self.tower_rows
        _, x, y, _ = rows
        y2 = basis_mul(self.mult_table, y, y)
        j = next(i for i in (1, 2, 3) if x[i])
        # C = y2[j] / x[j] = ce / e in lowest terms, and B = y2[0] - C x[0]
        g = gcd(y2[j], x[j]) if x[j] > 0 else -gcd(y2[j], x[j])
        e, ce = x[j] // g, y2[j] // g
        be = e * y2[0] - ce * x[0]
        if [be * (i == 0) + ce * xi for i, xi in enumerate(x)] != [e * v for v in y2]:
            raise DegenerateField(f"{self.name()}: y^2 is not in Q(sqrt({d}))")
        adj, det = _adjugate_det(rows)
        if det == 0:
            raise DegenerateField(f"{self.name()}: 1, x, y, xy are linearly dependent")
        return d, e, be, ce, det, adj

    @cached_property
    def norm_forms(self):
        """The forms U and V of _forms in the integral-basis coordinates c
        of an element, whose tower coordinates are T = c adj(S): a pair of
        symmetric 4 x 4 integer matrices G with c G c^T = 2 q(c adj), by
        polarization G[i][j] = q(adj[i] + adj[j]) - q(adj[i]) - q(adj[j]),
        which is 2 q(adj[i]) on the diagonal."""
        tower, adj = self.tower, self.tower[5]
        q = [_forms(tower, *row) for row in adj]
        gram = ([[0] * 4 for _ in range(4)], [[0] * 4 for _ in range(4)])
        for i in range(4):
            for j in range(i, 4):
                both = _forms(tower, *(a + b for a, b in zip(adj[i], adj[j])))
                for g, qij, qi, qj in zip(gram, both, q[i], q[j]):
                    g[i][j] = g[j][i] = qij - qi - qj
        return tuple(tuple(map(tuple, g)) for g in gram)

    @cached_property
    def _hash(self):
        # once per object, not per lru_cache lookup; ints hash alike in
        # every process, so a pickled copy stays valid
        return hash((self.discriminant, self.integral_basis))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # identity first: elements and primes of one field share its spec,
        # and the field-by-field compare costs about 40 times more
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _spec_values(self) == _spec_values(other)

    def coords_from_power(self, power_vec):
        """Integral-basis coordinates of an element given in power coordinates.

        The entries may be ints or Fractions.  Raises ValueError when the
        element is not integral over the basis.
        """
        den = lcm(*(x.denominator for x in power_vec))
        return self._coords([x.numerator * (den // x.denominator) for x in power_vec], den)

    def name(self) -> str:
        if self.kind == "biquadratic":
            return f"Q(sqrt({self.m}), sqrt({self.n}))"
        return f"cyclic quartic field of conductor {self.conductor}"

    def __repr__(self):
        return f"FieldSpec({self.name()})"


_spec_values = attrgetter("kind", "m", "n", "conductor", "theta_minpoly", "integral_basis",
                          "discriminant", "real_subfield_d", "sqrt_power", "tower_y")


def splits_completely(spec: FieldSpec, p: int) -> bool:
    """Cheap arithmetic splitting test; p must be an odd unramified prime,
    which the caller has checked."""
    if spec.kind == "biquadratic":
        # the third radicand is k = mn / gcd(m, n)^2, so (k|p) = (m|p)(n|p)
        # for p prime to mn, and two Legendre symbols decide
        half = (p - 1) // 2
        return pow(spec.m, half, p) == 1 and pow(spec.n, half, p) == 1
    f = spec.conductor
    if f == 16:
        return p % 16 in (1, 7)
    return pow(p, (f - 1) // 4, f) == 1


def integral_basis_closure_check(spec: FieldSpec) -> bool:
    """True iff the stored basis spans the claimed maximal order.

    All 16 pairwise products of basis elements must have integer coordinates
    over the basis, 1 must be an integral combination, and the module
    discriminant det(Tr(b_i b_j)) must equal the field discriminant (so a
    closed but non-maximal order, such as a bare power basis, is rejected).
    Tr(b_k) is the trace of multiplication by b_k, the sum over i of the
    b_i-coordinate of b_k b_i.
    """
    try:
        table = spec.mult_table
        spec._coords((1, 0, 0, 0), 1)
    except ValueError:
        return False
    traces = [sum(table[k][i][i] for i in range(4)) for k in range(4)]
    gram = [[sum(c * t for c, t in zip(table[i][j], traces)) for j in range(4)]
            for i in range(4)]
    return det_int(gram) == spec.discriminant


def _validate_spec(spec: FieldSpec):
    """Certify spec, raising DegenerateField or NotImaginary on a failed check."""
    c = spec.theta_minpoly.coeffs
    if len(c) != 5 or c[4] != 1:
        raise DegenerateField(f"{spec.name()}: the defining polynomial is not a monic quartic")
    if not integral_basis_closure_check(spec):
        raise DegenerateField(f"{spec.name()}: the basis does not span the maximal order")
    spec.index  # raises DegenerateField unless D^4 / |det M| is an integer
    for d, coords in spec.sqrt_map.items():
        if basis_mul(spec.mult_table, coords, coords) != [d, 0, 0, 0]:
            raise DegenerateField(f"{spec.name()}: the stored sqrt({d}) does not square to {d}")
    # K = Q(x, y) with e y^2 = Be + Ce x is totally imaginary iff x is real
    # and Be +- Ce sqrt(d) < 0 for both signs
    d, _, be, ce, _, _ = spec.tower
    if not (d > 0 and be < 0 and be * be > ce * ce * d):
        raise NotImaginary(f"{spec.name()} has a real embedding")


# ---------------------------------------------------------------------------
# the shared build path


def _adjugate_det(rows):
    """adj(A), as a tuple of rows, and det(A) of a 4 x 4 integer matrix A,
    with det(A) read off adj(A) A = det(A) I at the top-left entry."""
    adj = tuple(map(tuple, adjugate_int(rows)))
    return adj, sum(a * r[0] for a, r in zip(adj[0], rows))


def _power_basis(theta, table):
    """Minimal polynomial of theta = vec / s, given as (vec, s), and the map
    to power coordinates, from the integer powers vec^0..vec^4 computed in a
    4-dimensional ambient Q-algebra with structure constants table, whose
    first basis element is 1.

    Rational vectors are (nums, den): integer numerators over one positive
    denominator.  The columns of the square matrix T are vec^0..vec^3 in
    ambient coordinates, inverted once: as theta^k = vec^k / s^k, the k-th
    power coordinate of v is s^k (adj(T) v)_k / det(T), so to_power(ints,
    den) returns (adj'(T) ints, den |det(T)|) in lowest terms, where row k
    of adj'(T) is row k of adj(T) times s^k and the sign of det(T).
    Raises DegenerateField when det(T) = 0, that is when theta does not
    generate the ambient algebra.
    """
    vec, scale = theta
    powers = [UNIT_VECTORS[0]]
    for _ in range(4):
        powers.append(basis_mul(table, powers[-1], vec))
    adj, det = _adjugate_det(list(zip(*powers[:4])))
    if det == 0:
        raise DegenerateField("theta does not generate the ambient algebra")
    sign = 1 if det > 0 else -1
    adj, det = [[sign * scale ** k * a for a in row] for k, row in enumerate(adj)], abs(det)

    def to_power(ints, den=1):
        v0, v1, v2, v3 = ints
        nums = [a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3 for a0, a1, a2, a3 in adj]
        g = gcd(den * det, *nums)
        return tuple(x // g for x in nums), den * det // g

    nums, den = to_power(powers[4], scale ** 4)
    if any(c % den for c in nums):
        raise DegenerateField("theta is not integral")
    minpoly = IntPoly(tuple(-c // den for c in nums) + (1,))

    return minpoly, to_power


def _finish(kind, m, n, conductor, minpoly, generators, target, real_d, sqrt_power, tower_y):
    """Canonical basis and validation, shared by both families; generators,
    sqrt_power and tower_y are (nums, den) power coordinates."""
    spec = FieldSpec(
        kind=kind,
        m=m,
        n=n,
        conductor=conductor,
        theta_minpoly=minpoly,
        integral_basis=_canonical_basis(generators),
        discriminant=target,
        real_subfield_d=real_d,
        sqrt_power=tuple(sorted(sqrt_power)),
        tower_y=tower_y,
    )
    _validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# biquadratic construction


def _memoized(build):
    """The builders' one memo: a registry row's arguments (_REGISTRY_ARGS)
    are kept for the process and any others in an LRU of 128, so no number
    of other builds evicts a registry field; __wrapped__ is the raw build."""
    pinned = lru_cache(maxsize=None, typed=True)(build)
    other = lru_cache(maxsize=128, typed=True)(build)

    @wraps(build)
    def memo(*args):
        return (pinned if args in _REGISTRY_ARGS else other)(*args)

    return memo


@_memoized
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
    if abs(k) > MAX_RADICAND:
        raise CapExceeded(f"({m}, {n}): the third radicand {k} is above {MAX_RADICAND}")
    radicands = (m, n, k)

    # the ambient Q<1, A, B, AB> with A^2 = m and B^2 = n
    table = _tower_table(m, n, 0)
    one = (1, 0, 0, 0)
    minpoly, to_power = _power_basis(((0, 1, 1, 0), 1), table)
    if minpoly.coeffs != ((m - n) ** 2, 0, -2 * (m + n), 0, 1):
        raise DegenerateField(f"({m}, {n}): theta has the wrong minimal polynomial")

    # ambient vectors as (vec, den): sqrt(k) = AB / h
    sqrt_amb = {m: ((0, 1, 0, 0), 1), n: ((0, 0, 1, 0), 1), k: ((0, 0, 0, 1), h)}
    generators = [(one, 1)]
    for r in radicands:
        v, dv = sqrt_amb[r]
        if r % 4 == 1:  # (1 + sqrt(r)) / 2
            v, dv = [dv * o + x for o, x in zip(one, v)], 2 * dv
        generators += [(basis_mul(table, g, v), dg * dv) for g, dg in generators]
    even = [r for r in radicands if r % 4 == 2]
    if len(even) == 2:  # (sqrt(a) + sqrt(b)) / 2
        (u, du), (v, dv) = (sqrt_amb[r] for r in even)
        generators.append(([a * dv + b * du for a, b in zip(u, v)], 2 * du * dv))

    return _finish(
        "biquadratic", m, n, None, minpoly,
        [to_power(*g) for g in generators],
        target=quadratic_discriminant(m) * quadratic_discriminant(n) * quadratic_discriminant(k),
        real_d=next(r for r in radicands if r > 0),
        sqrt_power=[(d, to_power(*vec)) for d, vec in sqrt_amb.items()],
        tower_y=to_power(*sqrt_amb[min(radicands)]),
    )


# ---------------------------------------------------------------------------
# cyclic quartic construction


def _two_squares(f: int):
    """(a, b) with f = a^2 + 4 b^2, b > 0 and a = 3 (mod 4), for a prime
    f = 1 (mod 4), where the representation is unique."""
    for b in range(1, isqrt(f // 4) + 1):
        a = isqrt(f - 4 * b * b)
        if a * a + 4 * b * b == f:
            return (a if a % 4 == 3 else -a), b


@_memoized
def build_cyclic_quartic(f: int) -> FieldSpec:
    """The imaginary cyclic quartic field inside Q(zeta_f), in the tower
    1, x, y, xy of _tower_table; any f but 16 and the primes = 5 (mod 8) is
    UnsupportedConductor (f = 1 (mod 8) gives a real field), and a prime
    above MAX_CERT_PRIME is CapExceeded.

    For a prime conductor f = a^2 + 4 b^2 (_two_squares), x = sqrt(f) is the
    quadratic Gauss sum eta_0 - eta_1 + eta_2 - eta_3 of the Gauss periods
    eta_t, and y = 2 (eta_0 - eta_2) has y^2 = 2a x - 2f (Berndt, Evans and
    Williams, Gauss and Jacobi Sums, ch. 4; Hudson and Williams, Rocky
    Mountain J. Math. 20 (1990)).  Then theta = eta_0 = (-1 + x + y)/4, the
    periods (-1 + x +- y)/4 and (-2b - 2b x +- (a + x) y)/8b generate the
    maximal order, and the tower's y is eta_0 - eta_2 = y/2.  For conductor
    16, x = sqrt(2) = zeta^2 + zeta^-2 and theta = y = zeta - zeta^-1 with
    y^2 = x - 2, whose powers generate the maximal order.
    """
    if f != 16 and (f % 8 != 5 or not is_prime(f)):
        raise UnsupportedConductor(f"conductor {f} is neither 16 nor a prime = 5 (mod 8)")

    _, x, y, _ = UNIT_VECTORS
    if f == 16:
        real_d, table, theta, y_den = 2, _tower_table(2, -2, 1), (y, 1), 1
        generators = [(u, 1) for u in UNIT_VECTORS]
    else:
        a, b = _two_squares(f)
        real_d, table, theta, y_den = f, _tower_table(f, -2 * f, 2 * a), ((-1, 1, 1, 0), 4), 2
        generators = [((-1, 1, s, 0), 4) for s in (1, -1)]
        generators += [((-2 * b, -2 * b, s * a, s), 8 * b) for s in (1, -1)]
    minpoly, to_power = _power_basis(theta, table)

    return _finish(
        "cyclic", None, None, f, minpoly, [to_power(*g) for g in generators],
        target=f * f * quadratic_discriminant(real_d),
        real_d=real_d,
        sqrt_power=[(real_d, to_power(x))],
        tower_y=to_power(y, y_den),
    )


# ---------------------------------------------------------------------------
# registry of the forty class-number-one fields


class FieldRegistryEntry(Record):
    __slots__ = ("label", "spec", "expected_g", "expected_p1_p2")

    def __init__(self, label: str, spec: FieldSpec, expected_g: int,
                 expected_p1_p2: tuple[int, int]):
        self._fill(label, spec, expected_g, expected_p1_p2)


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

# (m, n) or (f): the arguments between a row's label and its prime pair
_REGISTRY_ARGS = frozenset(row[1:-2] for row in _BIQUADRATIC_TABLE + _CYCLIC_TABLE)


def registry_label(spec: FieldSpec) -> str | None:
    """The label of the registry row of spec's field, read off the reference
    tables without building the registry; None for a field outside it."""
    if spec.kind == "biquadratic":
        return next((row[0] for row in _BIQUADRATIC_TABLE if row[1:3] == (spec.m, spec.n)), None)
    return next((row[0] for row in _CYCLIC_TABLE if row[1] == spec.conductor), None)


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
    d, mat = spec.integral_basis
    desc = {
        "kind": spec.kind,
        "minpoly": [str(c) for c in spec.theta_minpoly.coeffs],
        "basis": [[f"{x // g}/{d // g}" for x in row for g in (gcd(x, d),)] for row in mat],
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
    """The field named by a descriptor's (m, n) or conductor, from the
    memoized builders.  No other entry is read, so a caller that relies on
    them compares the descriptor with field_descriptor of the result."""
    if desc["kind"] == "biquadratic":
        return build_biquadratic(int(desc["m"]), int(desc["n"]))
    if desc["kind"] == "cyclic":
        return build_cyclic_quartic(int(desc["conductor"]))
    raise UnknownLabel(f"unknown field kind {desc['kind']!r}")
