"""Degree-one unramified prime machinery.

For an unramified prime p of residue degree one, reduction modulo the square
of a prime ideal above p is a ring map onto Z/p^2.  Two constructions are
used:

* root model (p coprime to the generator index): each simple root c of the
  defining polynomial mod p lifts to a root mod p^2, and evaluation of the
  integral basis at the lifted root yields the map;

* idempotent model (p divides the index): the quotient O/pO is decomposed
  into its residue fields by splitting primitive idempotents, each idempotent
  is Newton-lifted mod p^2, and the map is read off the rank-one component.
  This handles the finitely many primes where no choice of generator is
  separable (3 splitting completely is the classic case) as well as the
  index primes of the chosen generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .elements import NFElement
from .errors import NotCoprime, Ramified
from .fields import FieldSpec, basis_mul
from .intmath import IntPoly, ResidueClass, is_prime, legendre, mult_order, poly_roots_mod_p


@dataclass(frozen=True)
class DegreeOnePrime:
    """A prime ideal of residue degree one above p, with its mod-p^2 data.

    basis_images are the images of the four integral basis elements under the
    reduction map O -> Z/p^2; they determine the map completely and stay
    meaningful even when p divides the generator index.
    """

    field: FieldSpec
    p: int
    root_c: ResidueClass
    lifted_c: ResidueClass
    conjugate_index: int
    basis_images: tuple[int, int, int, int]

    def __repr__(self):
        return f"DegreeOnePrime(p={self.p}, root={self.root_c.value}, conj={self.conjugate_index})"


def _validate_p(spec: FieldSpec, p: int):
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if spec.discriminant % p == 0:
        raise Ramified(f"{p} divides the field discriminant")


def splits_completely(spec: FieldSpec, p: int) -> bool:
    """Cheap arithmetic splitting test for an odd unramified prime."""
    _validate_p(spec, p)
    if spec.kind == "biquadratic":
        return all(legendre(d, p) == 1 for d in spec.sqrt_map)
    f = spec.conductor
    if f == 16:
        return p % 16 in (1, 7)
    return pow(p, (f - 1) // 4, f) == 1


def split_primes(spec: FieldSpec, bound: int):
    """The odd unramified primes up to bound that split completely, ascending."""
    for p in range(3, bound + 1, 2):
        if is_prime(p) and spec.discriminant % p and splits_completely(spec, p):
            yield p


def lifted_basis_images(spec: FieldSpec, q: int, k: int) -> list[tuple[int, list[int]]]:
    """The four degree-one maps O -> Z/q^k for a split prime q coprime to the
    generator index, one per root of the defining polynomial mod q, ascending.

    Each root is Newton-lifted to q^k; the map is given by that lifted root
    and the images of the integral basis under theta -> root.
    """
    f = spec.theta_minpoly
    fp = f.derivative()
    qk = q ** k
    out = []
    for root in poly_roots_mod_p(f, q):
        c, cur = root.value, q
        while cur < qk:
            cur = min(cur * cur, qk)
            c = (c - f.eval_mod(c, cur) * pow(fp.eval_mod(c, cur), -1, cur)) % cur
        images = []
        for row in spec.integral_basis:
            acc = 0
            for coef in reversed(row):
                acc = (acc * c + coef.numerator * pow(coef.denominator, -1, qk)) % qk
            images.append(acc)
        out.append((c, images))
    return out


def _root_model_primes(spec: FieldSpec, p: int) -> list[DegreeOnePrime]:
    return [
        DegreeOnePrime(
            spec, p, ResidueClass(c % p, p), ResidueClass(c, p * p), idx, tuple(images)
        )
        for idx, (c, images) in enumerate(lifted_basis_images(spec, p, 2))
    ]


def _idempotent_model_primes(spec: FieldSpec, p: int) -> list[DegreeOnePrime]:
    p2 = p * p
    table = spec.mult_table

    def mul_mod(x, y, m):
        return [v % m for v in basis_mul(table, x, y)]

    one_v = [1, 0, 0, 0]

    def min_dependency(vectors):
        """Length of the first linear dependency among successive vectors."""
        from .linalg import nullspace_mod_p

        for size in range(1, len(vectors) + 1):
            rows = [[vectors[j][i] for j in range(size + 1)] for i in range(4)]
            if size + 1 > len(vectors):
                break
            ns = nullspace_mod_p(rows, p)
            normalized = [v for v in ns if v[size] % p != 0]
            if normalized:
                v = normalized[0]
                inv = pow(v[size], -1, p)
                return [(c * inv) % p for c in v]
        return None

    def split(e):
        """Refine the idempotent e into primitive idempotents of O/pO."""
        stack, primitive = [e], []
        while stack:
            cur = stack.pop()
            refined = False
            for gen_idx in range(4):
                v = [0, 0, 0, 0]
                v[gen_idx] = 1
                w = mul_mod(cur, v, p)
                # minimal polynomial of w inside the component algebra cur*A
                pows = [cur]
                for _ in range(4):
                    pows.append(mul_mod(pows[-1], w, p))
                rel = min_dependency(pows)
                assert rel is not None
                deg = len(rel) - 1
                if deg <= 1:
                    continue
                # roots of the (squarefree, split) minimal polynomial
                roots = [r.value for r in poly_roots_mod_p(IntPoly(rel), p)]
                if len(roots) <= 1:
                    continue
                for lam in roots:
                    proj = cur
                    scale = 1
                    for mu in roots:
                        if mu == lam:
                            continue
                        term = [(x - mu * y) % p for x, y in zip(w, cur)]
                        proj = mul_mod(proj, term, p)
                        scale = scale * (lam - mu) % p
                    inv = pow(scale, -1, p)
                    proj = [(x * inv) % p for x in proj]
                    stack.append(proj)
                refined = True
                break
            if not refined:
                primitive.append(cur)
        return primitive

    idems = split(one_v)
    if len(idems) != 4:
        return []

    out = []
    theta_c = spec.theta_coords
    for e in idems:
        # Newton lift: e -> 3e^2 - 2e^3 is idempotent mod p^2
        e2 = mul_mod(e, e, p2)
        e3 = mul_mod(e2, e, p2)
        lift = [(3 * a - 2 * b) % p2 for a, b in zip(e2, e3)]
        check = mul_mod(lift, lift, p2)
        assert check == lift, "idempotent lift failed"
        pivot = next(j for j in range(4) if lift[j] % p != 0)
        inv_piv = pow(lift[pivot], -1, p2)
        images = []
        for i in range(4):
            b = [0, 0, 0, 0]
            b[i] = 1
            prod = mul_mod(b, lift, p2)
            t = prod[pivot] * inv_piv % p2
            assert prod == [(t * x) % p2 for x in lift], "component is not rank one"
            images.append(t)
        assert images[0] == 1
        lam2 = sum(theta_c[i] * images[i] for i in range(4)) % p2
        out.append((lam2, tuple(images)))

    out.sort(key=lambda pair: (pair[0] % p, pair[1]))
    return [
        DegreeOnePrime(
            spec, p, ResidueClass(lam2 % p, p), ResidueClass(lam2, p2), idx, images
        )
        for idx, (lam2, images) in enumerate(out)
    ]


def degree_one_primes_above(spec: FieldSpec, p: int) -> list[DegreeOnePrime]:
    """All primes of residue degree one above p (0 or 4 for these Galois fields).

    Raises Ramified when p divides the field discriminant.
    """
    _validate_p(spec, p)
    if spec.index % p != 0:
        return _root_model_primes(spec, p)
    return _idempotent_model_primes(spec, p)


def reduce_mod_p2(x: NFElement, prime: DegreeOnePrime) -> ResidueClass:
    """Image of x under the reduction map O -> Z/p^2 attached to the prime."""
    if x.field != prime.field:
        raise ValueError("element does not belong to the prime's field")
    p2 = prime.p * prime.p
    val = sum(c * im for c, im in zip(x.coords, prime.basis_images)) % p2
    return ResidueClass(val, p2)


def unit_order_mod_p2(x: NFElement, prime: DegreeOnePrime) -> int:
    """Multiplicative order of x modulo the squared prime ideal.

    Valid because reduction identifies (O/pi^2)* with (Z/p^2)*, a cyclic
    group of order p(p-1).
    """
    u = reduce_mod_p2(x, prime)
    if gcd(u.value, prime.p) != 1:
        raise NotCoprime(f"element reduces to a non-unit mod {prime.p}^2")
    return mult_order(u, prime.p * (prime.p - 1))
