"""Exact linear algebra over the integers.

Integer matrices only: a determinant, the 4x4 adjugate in closed form that
serves as the package's one matrix inverse (A^-1 = adj(A) / det(A), with the
division left to the caller as an exact-divisibility test or a modular
inverse), a Hermite normal form, and integral LLL reduction of a Gram matrix
with the enumeration of its short vectors.  Everything is dense and tiny,
so interpreter overhead, not arithmetic, sets the cost: the 4x4 kernels on
the lattice paths (the adjugate, box_vectors) are written out one
coordinate at a time, and the rest keeps the generic form.
"""

from __future__ import annotations

from math import isqrt


def det_int(mat):
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(mat)
    m = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def adjugate_int(mat):
    """Adjugate of a 4x4 integer matrix: adj(A) A = det(A) I.

    Laplace expansion along the top and bottom row pairs: every cofactor is
    a combination of the six 2x2 minors s of rows 0, 1 and the six minors c
    of rows 2, 3 (minor index ab names the columns a < b).
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = mat
    s01, s02, s03 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
    s12, s13, s23 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c01, c02, c03 = a20 * a31 - a30 * a21, a20 * a32 - a30 * a22, a20 * a33 - a30 * a23
    c12, c13, c23 = a21 * a32 - a31 * a22, a21 * a33 - a31 * a23, a22 * a33 - a32 * a23
    return [
        [a11 * c23 - a12 * c13 + a13 * c12, -a01 * c23 + a02 * c13 - a03 * c12,
         a31 * s23 - a32 * s13 + a33 * s12, -a21 * s23 + a22 * s13 - a23 * s12],
        [-a10 * c23 + a12 * c03 - a13 * c02, a00 * c23 - a02 * c03 + a03 * c02,
         -a30 * s23 + a32 * s03 - a33 * s02, a20 * s23 - a22 * s03 + a23 * s02],
        [a10 * c13 - a11 * c03 + a13 * c01, -a00 * c13 + a01 * c03 - a03 * c01,
         a30 * s13 - a31 * s03 + a33 * s01, -a20 * s13 + a21 * s03 - a23 * s01],
        [-a10 * c12 + a11 * c02 - a12 * c01, a00 * c12 - a01 * c02 + a02 * c01,
         -a30 * s12 + a31 * s02 - a32 * s01, a20 * s12 - a21 * s02 + a22 * s01],
    ]


def hnf_rows(rows):
    """Hermite-style normal form of the row lattice of an integer matrix.

    Output rows are sorted so row i has its last nonzero entry in column i
    (ascending "degree"), pivots positive, and entries of later rows reduced
    modulo the pivot in each pivot column.  Input must have full row rank with
    as many rows as columns after reduction.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    cols = len(rows[0])
    result = [None] * cols
    for c in range(cols - 1, -1, -1):
        active = [r for r in work if r[c] != 0]
        rest = [r for r in work if r[c] == 0]
        if not active:
            continue
        # Euclid on the c-column entries
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[c]))
            base = active[0]
            new_active = [base]
            for r in active[1:]:
                q = r[c] // base[c]
                reduced = [x - q * y for x, y in zip(r, base)]
                if reduced[c] != 0:
                    new_active.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            if len(new_active) == 1:
                break
            active = new_active
        pivot = active[0]
        if pivot[c] < 0:
            pivot = [-x for x in pivot]
        result[c] = pivot
        work = rest
    if any(r is None for r in result):
        raise ValueError("row lattice does not have full rank")
    # reduce entries above each pivot: for rows j > i, reduce column i
    for i in range(cols):
        for j in range(i + 1, cols):
            q = result[j][i] // result[i][i]
            if q:
                result[j] = [x - q * y for x, y in zip(result[j], result[i])]
    return result


def lll_reduce(gram):
    """Integral LLL reduction (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7, delta = 3/4) of the lattice whose basis has
    the positive definite integer Gram matrix gram.

    Returns the unimodular integer matrix H whose rows write the reduced
    basis in the input basis, so H gram H^T is its Gram matrix.  All state
    is integral: d[i] is the Gram determinant of the first i vectors and
    lam[k][j] = d[j] mu[k][j]; every division is exact.  Indices follow
    Cohen, from 1.
    """
    n = len(gram)
    h = [None] + [[int(i == j) for j in range(n)] for i in range(n)]
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    d = [1] * (n + 1)
    d[1] = gram[0][0]

    def dot(i, j):
        return sum(a * gram[s][t] * b for s, a in enumerate(h[i]) if a
                   for t, b in enumerate(h[j]) if b)

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])  # nearest to lam / d
            h[k] = [a - q * b for a, b in zip(h[k], h[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        b = (d[k - 2] * d[k] + m * m) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - m * t) // d[k - 1]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k]
        d[k - 1] = b

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:  # incremental Gram-Schmidt
            kmax = k
            for j in range(1, k + 1):
                u = dot(k, j)
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("the Gram matrix is not positive definite")
                else:
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return h[1:]


def box_vectors(gram, bound):
    """Every integer vector y with y gram y^T <= bound, in lexicographic
    order, for a positive definite symmetric 4x4 integer Gram matrix.

    Such y lie in the box y_i^2 <= bound (gram^-1)_ii = bound adj_ii / det
    (Cauchy-Schwarz), which is enumerated in full: it is small when gram is
    LLL-reduced and bound is near its minimum.  Four nested loops add the
    form one coordinate at a time: with y0..yk fixed, each later coordinate
    yj enters with the linear coefficient 2 sum_(i <= k) gram[i][j] yi.
    Only the upper triangle of gram is read.
    """
    adj, det = adjugate_int(gram), det_int(gram)
    if det <= 0 or bound < 0:
        raise ValueError("the Gram matrix must be positive definite and the bound >= 0")
    r0, r1, r2, r3 = (isqrt(bound * adj[i][i] // det) for i in range(4))
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = gram
    found = []
    for y0 in range(-r0, r0 + 1):
        q0, l1, l2, l3 = g00 * y0 * y0, 2 * g01 * y0, 2 * g02 * y0, 2 * g03 * y0
        for y1 in range(-r1, r1 + 1):
            q1, m2, m3 = q0 + y1 * (g11 * y1 + l1), l2 + 2 * g12 * y1, l3 + 2 * g13 * y1
            for y2 in range(-r2, r2 + 1):
                q2, n3 = q1 + y2 * (g22 * y2 + m2), m3 + 2 * g23 * y2
                for y3 in range(-r3, r3 + 1):
                    if q2 + y3 * (g33 * y3 + n3) <= bound:
                        found.append((y0, y1, y2, y3))
    return found
