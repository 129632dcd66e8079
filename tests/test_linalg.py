import random

from euclid4.linalg import adjugate_int, det_int


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
