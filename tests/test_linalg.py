import itertools
import random
from fractions import Fraction
from math import isqrt

from euclid4.linalg import adjugate_int, box_vectors, det_int, lll_reduce


def cofactor_adjugate(mat):
    """adj(A)[i][j] = (-1)^(i+j) times the minor of A without row j and column i."""

    def minor3(rows):
        (a, b, c), (d, e, f), (g, h, k) = rows
        return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)

    def cofactor(i, j):
        rows = [[x for col, x in enumerate(row) if col != j] for r, row in enumerate(mat) if r != i]
        return (-1) ** (i + j) * minor3(rows)

    return [[cofactor(j, i) for j in range(4)] for i in range(4)]


def random_matrices(rng, count):
    """Small entries, 100-digit entries, and singular matrices (a row that is
    a combination of two others, or a zero column)."""
    for trial in range(count):
        size = 10 ** 100 if trial % 4 == 0 else 9
        mat = [[rng.randint(-size, size) for _ in range(4)] for _ in range(4)]
        if trial % 5 == 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            mat[3] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
        elif trial % 5 == 2:
            col = rng.randrange(4)
            for row in mat:
                row[col] = 0
        yield mat


def test_adjugate_matches_cofactor_expansion():
    rng = random.Random(4)
    singular = 0
    for mat in random_matrices(rng, 2000):
        adj = adjugate_int(mat)
        assert adj == cofactor_adjugate(mat), mat
        det = det_int(mat)
        singular += det == 0
        for i in range(4):
            for j in range(4):
                assert sum(adj[i][k] * mat[k][j] for k in range(4)) == det * (i == j), mat
    assert singular >= 800


def gram_of(rows, gram):
    """rows gram rows^T."""
    return [[sum(a * g * b for a, grow in zip(x, gram) for g, b in zip(grow, y)) for y in rows]
            for x in rows]


def nonsingular(rng, size):
    while True:
        mat = [[rng.randint(-size, size) for _ in range(4)] for _ in range(4)]
        if det_int(mat):
            return mat


def test_lll_reduce_gives_a_reduced_basis():
    """For seeded lattices B B^T with entries up to 10^8, H is unimodular and
    the basis H B is LLL-reduced with delta = 3/4, checked through the
    Gram-Schmidt data of H G H^T computed in rationals: lam[k][j] = d_j mu[k][j]
    is an integer with |2 lam| <= d_j (d_j the Gram determinant of the
    first j vectors), and the Lovasz condition holds at every k."""
    rng = random.Random(16)
    for _ in range(300):
        basis = nonsingular(rng, 10 ** rng.randint(1, 8))
        gram = gram_of(basis, [[int(i == j) for j in range(4)] for i in range(4)])
        h = lll_reduce(gram)
        assert abs(det_int(h)) == 1
        reduced = gram_of(h, gram)
        d = [1] + [det_int([row[:j] for row in reduced[:j]]) for j in range(1, 5)]
        mu = [[Fraction(0)] * 4 for _ in range(4)]
        star = []  # |b_k*|^2 = d_k / d_(k-1)
        for k in range(4):
            for j in range(k):
                mu[k][j] = (reduced[k][j] - sum(mu[j][i] * mu[k][i] * star[i] for i in range(j))) / star[j]
                lam = d[j + 1] * mu[k][j]
                assert lam.denominator == 1 and abs(2 * lam) <= d[j + 1]
            star.append(Fraction(d[k + 1], d[k]))
            if k:
                assert star[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * star[k - 1]


def test_box_vectors_match_brute_force():
    """box_vectors(B B^T, bound) lists exactly the y with |y B|^2 <= bound:
    each integer z with |z|^2 <= bound gives y = z adj(B) / det(B), kept
    when it is integral."""
    rng = random.Random(17)
    found = 0
    for _ in range(25):
        basis = nonsingular(rng, 3)
        det, adj = det_int(basis), adjugate_int(basis)
        bound = rng.randint(0, 20)
        r = isqrt(bound)
        brute = []
        for z in itertools.product(range(-r, r + 1), repeat=4):
            if sum(v * v for v in z) <= bound:
                y = [sum(z[i] * adj[i][j] for i in range(4)) for j in range(4)]
                if all(v % det == 0 for v in y):
                    brute.append(tuple(v // det for v in y))
        got = box_vectors(gram_of(basis, [[int(i == j) for j in range(4)] for i in range(4)]), bound)
        assert got == sorted(brute)
        found += len(got)
    assert found > 100
