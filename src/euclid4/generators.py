"""The constructive witness of a certificate, and the generators of norm
+-p of a degree-one prime (find_prime_element), found by one lattice
reduction and a walk along the unit group.

norm_solutions solves x conj(x) = alpha in a lattice of the ring, in a
reduction step (_reduced) and an exhaustive box step (_box_solutions).  For
the generators of a prime (_least_generators) the first vector of the
reduced basis, checked exactly, is the generator pi, and the box is only
the fallback.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul

from .admissible import AdmissibleCertificate
from .elements import NFElement, _value, inverse_unit
from .errors import BoundExceeded, CapExceeded, DegenerateField, NotGenerator
from .fields import FieldSpec
from .intmath import Record, _cf_unit_search, continued_fraction_fundamental_unit
from .linalg import box_vectors, lll_reduce
from .residues import MAX_CERT_PRIME, DegreeOnePrime, reduce_mod_p2
from .surjectivity import UnitWalk
from .units import torsion_units, unit_data


class WitnessResult(Record):
    __slots__ = ("alpha", "beta", "k", "e", "f_exp", "z")

    def __init__(self, alpha: tuple[int, int], beta: tuple[int, int], k: int, e: int,
                 f_exp: int, z: NFElement):
        self._fill(alpha, beta, k, e, f_exp, z)


def construct_witness(cert: AdmissibleCertificate, x: int, y: int) -> WitnessResult:
    """A unit z with z = x mod P1^2 and z = y mod P2^2, built constructively.

    x and y are residues in [0, p1^2) and [0, p2^2), prime to p1 and p2.
    beta = eps^(p1(p1-1)/g) is trivial mod P1^2 and generates mod P2^2;
    alpha = eta beta^k eps is trivial mod P2^2 (for the right k) and
    generates mod P1^2; z = alpha^e beta^f hits the target pair.  The two
    congruences are re-verified through the reduction map on the final
    element, independently of the modular bookkeeping used to find it.
    The three logarithms, each the least exponent, are UnitWalk logs mod
    p^2; the two to base beta mod P2^2 share one walk.
    """
    p1, p2 = cert.P1.p, cert.P2.p
    q1, q2 = p1 * p1, p2 * p2
    if not (0 <= x < q1 and 0 <= y < q2):
        raise ValueError("targets must be residues mod p1^2 and p2^2")
    if gcd(x, p1) != 1 or gcd(y, p2) != 1:
        raise ValueError("targets must be coprime residues")

    g = cert.units.g
    n1 = cert.ord_eps_P1
    ord2 = p2 * (p2 - 1)
    e1 = reduce_mod_p2(cert.units.epsilon, cert.P1)
    e2 = reduce_mod_p2(cert.units.epsilon, cert.P2)
    h1 = reduce_mod_p2(cert.units.eta, cert.P1)
    h2 = reduce_mod_p2(cert.units.eta, cert.P2)

    b1 = pow(e1, n1, q1)
    b2 = pow(e2, n1, q2)
    if b1 != 1:
        raise NotGenerator("beta is not trivial mod P1^2; certificate corrupt")

    beta2 = UnitWalk(b2, p2, 2)
    k = beta2.log(pow(h2 * e2 % q2, -1, q2))
    if k is None:
        raise NotGenerator("beta does not generate mod P2^2")

    alpha1 = h1 * pow(b1, k, q1) % q1 * e1 % q1
    alpha2 = h2 * pow(b2, k, q2) % q2 * e2 % q2
    if alpha2 != 1:
        raise NotGenerator("alpha is not trivial mod P2^2")

    e_exp = UnitWalk(alpha1, p1, 2).log(x)
    if e_exp is None:
        raise NotGenerator("alpha does not generate mod P1^2")
    f_exp = beta2.log(y)
    if f_exp is None:
        raise NotGenerator("beta does not generate mod P2^2")

    # z = alpha^e beta^f = eta^e eps^((k n1 + 1) e + n1 f); reduce the
    # exponents by the orders so the exact element stays small.
    eps_exp = ((k * n1 + 1) * e_exp + n1 * f_exp)
    m = n1 * ord2 // gcd(n1, ord2)
    z = (cert.units.eta ** (e_exp % g)) * (cert.units.epsilon ** (eps_exp % m))

    if reduce_mod_p2(z, cert.P1) != x or reduce_mod_p2(z, cert.P2) != y:
        raise NotGenerator("witness failed re-verification")
    return WitnessResult(alpha=(alpha1, alpha2), beta=(b1, b2), k=k, e=e_exp, f_exp=f_exp, z=z)


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


def _prime_congruent(form, lattice):
    """_congruent(form, lattice) in closed form for the lattice of a prime,
    (-r1, 1, 0, 0), (-r2, 0, 1, 0), (-r3, 0, 0, 1), (p, 0, 0, 0): with
    w_i = f_i0 - r_i f_00 its entries are f_ij - r_i f_0j - r_j w_i, p w_i
    and p^2 f_00 (i, j = 1, 2, 3)."""
    r = (0, -lattice[0][0], -lattice[1][0], -lattice[2][0])
    p, f0 = lattice[3][0], form[0]
    w = [0] + [form[i][0] - r[i] * f0[0] for i in (1, 2, 3)]
    gram = [[form[i][j] - r[i] * f0[j] - r[j] * w[i] for j in (1, 2, 3)] + [p * w[i]]
            for i in (1, 2, 3)]
    gram.append([p * w[1], p * w[2], p * w[3], p * p * f0[0]])
    return gram


def _reduced(spec: FieldSpec, lattice, a: int, b: int, congruent=_congruent):
    """The reduction step of norm_solutions: None unless alpha is totally
    positive, else (form, basis, bound, solves), with form the matrix of 2Q,
    basis the lattice's rows LLL-reduced under it (congruent(form, lattice)
    its Gram matrix), bound the box's bound on 2Q and solves(x) whether
    x conj(x) = alpha, exactly."""
    d, e, _, _, det, _ = spec.tower
    h = 2 if d % 4 == 1 else 1
    if a <= 0 or a * a <= d * b * b:
        return None
    gu, gv = spec.norm_forms
    scale = 2 * e * det * det
    form = [[a * x - b * d * y for x, y in zip(ru, rv)] for ru, rv in zip(gu, gv)]
    basis = _times(lll_reduce(congruent(form, lattice)), lattice)

    def solves(x):
        return h * _value(gu, x) == scale * a and h * _value(gv, x) == scale * b

    return form, basis, scale * (a * a - d * b * b) // h, solves


def _box_solutions(form, basis, bound, solves) -> list[tuple[int, ...]]:
    """The box step of norm_solutions: every x = y basis with
    y (basis form basis^T) y^T <= bound, y != 0, that solves."""
    found = _times([y for y in box_vectors(_congruent(form, basis), bound) if any(y)], basis)
    return [x for x in found if solves(x)]


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
    Alg. 2.6.7; _reduced) and the box 2Q(y) <= 2 h e D^2 N(alpha)
    (_box_solutions) find every solution, each checked exactly; when
    |N(x)| >= N(alpha) on the lattice (a prime of norm N(alpha)), every
    nonzero y of the box is one.  _least_generators runs the two steps
    apart: in a prime's lattice the first reduced vector is mostly a
    solution already, and the box is its fallback.
    """
    reduced = _reduced(spec, lattice, a, b)
    return _box_solutions(*reduced) if reduced else []


class _FieldGenerators(Record):
    """The constants of _box_hits for one field (_field_generators).

    u is the matrix of 2U (FieldSpec.norm_forms), and a box |c_i| <= b
    bounds c u c^T by b^2 u_sum.  The fundamental unit of Q(sqrt(d)) is
    (eps0[0] + eps0[1] sqrt(d)) / h, with h = 2 when d = 1 mod 4 and 1
    otherwise, and sqrt_d holds the coordinates of sqrt(d).  torsion holds
    the multiplication matrices (NFElement.mult_matrix) of eta^t for t < g,
    and steps those of the unit eps of unit_data and of its inverse.
    """

    __slots__ = ("u", "u_sum", "h", "eps0", "sqrt_d", "torsion", "steps")

    def __init__(self, u: list, u_sum: int, h: int, eps0: tuple[int, int], sqrt_d: tuple,
                 torsion: tuple, steps: tuple):
        self._fill(u, u_sum, h, eps0, sqrt_d, torsion, steps)


@lru_cache(maxsize=128)
def _field_generators(spec: FieldSpec) -> _FieldGenerators:
    d = spec.real_subfield_d
    u = spec.norm_forms[0]
    x, y, _ = continued_fraction_fundamental_unit(d)
    h = 2 if d % 4 == 1 else 1
    units = unit_data(spec)
    return _FieldGenerators(
        u=u, u_sum=sum(abs(a) for row in u for a in row), h=h,
        eps0=(2 * x + y, y) if h == 2 else (x, y),  # x + y (1 + sqrt d)/2 when h = 2
        sqrt_d=spec.sqrt_map[d],
        torsion=tuple(z.mult_matrix() for z in torsion_units(units.g, units.eta)),
        steps=(units.epsilon.mult_matrix(), inverse_unit(units.epsilon).mult_matrix()),
    )


def _prime_below(d: int, s: int, p: int) -> tuple[int, int] | None:
    """(A, B) with (A + B sqrt(d)) / h generating the prime of Q(sqrt(d))
    above p at which sqrt(d) = s mod p, where h = 2 when d = 1 mod 4 and 1
    otherwise; None when that prime is not principal.

    The continued fraction of (p0 + sqrt(d)) / (h p), with p0 = s mod p and
    p0 odd when h = 2, walks the reduced ideals equivalent to the prime
    (p, (p0 + sqrt(d)) / h); it meets norm +-p h^2 exactly when the prime
    is principal, and stops once its state repeats (_cf_unit_search).  The
    element found generates p or its conjugate; B's sign picks p.
    """
    if d % 4 == 1:
        p0 = s if s % 2 else s + p
        found = _cf_unit_search(d, p0, 2 * p, (4 * p, -4 * p))
    else:
        found = _cf_unit_search(d, s, p, (p, -p))
    if found is None:
        return None
    a, b, _ = found
    return (a, b) if (a + b * s) % p == 0 else (a, -b)


def _least_generators(prime: DegreeOnePrime, data: _FieldGenerators) -> list[tuple[int, ...]]:
    """The generators x of the prime P with x conj(x) = alpha, as
    coordinate tuples, for the first totally positive alpha among +-alpha0
    and +-alpha0 eps0 for which there are any (alpha0 generates P's prime p
    of Q(sqrt(d)), eps0 is the unit of Q(sqrt(d))); [] when P is not
    principal.

    A generator pi of P gives the totally positive generator pi conj(pi)
    of p; the other generators of P change it by the norms u conj(u) of
    units, among them eps0^2, so it is one of the four up to those.  They
    are the solutions of norm_solutions in P's basis (-r1, 1, 0, 0),
    (-r2, 0, 1, 0), (-r3, 0, 0, 1), (p, 0, 0, 0), in that order, which LLL
    reduces in fewer swaps than with (p, 0, 0, 0) first.  The first alpha
    tried is alpha whenever the unit index [E : W E+] is 2 or
    N(eps0) = -1; otherwise alpha0 and alpha0 eps0 may both be totally
    positive with one of them a norm, so each candidate is tried in turn.

    The first reduced vector x is checked exactly, and when it solves, the
    solutions are its g torsion multiples: |N(x)| = p = N(P), so (x) = P,
    and any other solution is u x with u conj(u) = 1, a root of unity.
    Otherwise the box of norm_solutions, which is exhaustive, decides (LLL
    with delta = 3/4 does not promise the shortest vector); on the 6,120
    conjugates of the split primes below 1,000 of the 40 fields it is never
    needed.
    """
    spec, p = prime.field, prime.p
    r = [im % p for im in prime.basis_images]
    d = spec.real_subfield_d
    below = _prime_below(d, sum(a * b for a, b in zip(data.sqrt_d, r)) % p, p)
    if below is None:
        return []
    a0, b0 = below
    e0, f0 = data.eps0
    a1, b1 = (a0 * e0 + d * b0 * f0) // data.h, (a0 * f0 + b0 * e0) // data.h
    lattice = [[-r[1], 1, 0, 0], [-r[2], 0, 1, 0], [-r[3], 0, 0, 1], [p, 0, 0, 0]]
    for a, b in ((a0, b0), (-a0, -b0), (a1, b1), (-a1, -b1)):
        reduced = _reduced(spec, lattice, a, b, _prime_congruent)
        if reduced is None:
            continue
        _, basis, _, solves = reduced
        if solves(basis[0]):
            return [c for z in data.torsion for c in _times(basis[:1], z)]
        found = _box_solutions(*reduced)
        if found:
            return found
    return []


def _box_hits(prime: DegreeOnePrime, bound: int) -> list[tuple[int, ...]]:
    """Coordinate vectors c with |c_i| <= bound, c0 + c1 r1 + c2 r2 + c3 r3
    = 0 mod p (r the basis images mod p) and |N(c)| = p, ordered by
    sup-norm and then lexicographically.

    These are the generators of P in the box.  Every generator is
    zeta pi eps^k for a torsion unit zeta and k in Z, given one generator pi
    (_least_generators) and provided that eta and eps generate the unit
    group.  U(pi eps^k), the same for every zeta, is a convex function of k
    (a lambda^k + b lambda^-k), and the box bounds it (u_sum); so the walk
    from k = 0 goes up, and then down, while U is within that bound or
    still falling.
    """
    spec, p = prime.field, prime.p
    if prime.basis_images[0] % p != 1:
        raise DegenerateField("the first integral basis element is not 1")
    data = _field_generators(spec)
    least = _least_generators(prime, data)
    if not least:
        return []
    limit = bound * bound * data.u_sum
    pi = least[0]
    walked = [pi] if _value(data.u, pi) <= limit else []
    for step in data.steps:
        x, last = pi, _value(data.u, pi)
        while True:
            (x,) = _times([x], step)
            value = _value(data.u, x)
            if value > limit and value >= last:
                break
            if value <= limit:
                walked.append(x)
            last = value
    hits = [c for z in data.torsion for c in _times(walked, z) if max(map(abs, c)) <= bound]
    return sorted(hits, key=lambda c: (max(map(abs, c)), c))


# Largest coord_bound of find_prime_element.  The walk visits about log(b)
# units, so the cap does not guard the time: at b = 64 a call takes
# 0.25 ms at the median and 1.6 ms at most over the 488 conjugates of the
# split primes below 60 and the reference primes of the 40 fields, each
# field's constants built first and each call the median of 5 (2-core
# Xeon, Python 3.11; the box search for every prime read 0.35 and 1.8 ms
# in the same alternated runs).
MAX_COORD_BOUND = 64


def find_prime_element(prime: DegreeOnePrime, coord_bound: int) -> NFElement:
    """An element of norm +-p generating the given conjugate prime ideal.

    Returns the generator whose integral-basis coordinates come first by
    increasing sup-norm, lexicographic within a shell, among those bounded
    by coord_bound, and raises BoundExceeded when there is none.  The
    generators in the box come from one generator found by lattice
    reduction and the walk of its unit orbit (_box_hits), so BoundExceeded
    rests on eta and eps generating the unit group.  A prime above
    MAX_CERT_PRIME or a coord_bound above MAX_COORD_BOUND is CapExceeded.
    """
    if prime.p > MAX_CERT_PRIME:
        raise CapExceeded(f"prime {prime.p} exceeds the certificate cap {MAX_CERT_PRIME}")
    if coord_bound > MAX_COORD_BOUND:
        raise CapExceeded(f"coordinate bound {coord_bound} exceeds the cap {MAX_COORD_BOUND}")
    hits = _box_hits(prime, coord_bound)
    if not hits:
        raise BoundExceeded(
            f"no element of norm +-{prime.p} with coordinates bounded by {coord_bound}"
        )
    return NFElement(prime.field, hits[0])
