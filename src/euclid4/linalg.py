"""Exact linear algebra over the integers.

Integer matrices only: a determinant, the 4x4 adjugate in closed form that
serves as the package's one matrix inverse (A^-1 = adj(A) / det(A), with the
division left to the caller as an exact-divisibility test or a modular
inverse), and a Hermite normal form.  Everything is dense and tiny; clarity over asymptotics.
"""

from __future__ import annotations


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
            if result[j] is None or result[i] is None:
                continue
            q = result[j][i] // result[i][i]
            if q:
                result[j] = [x - q * y for x, y in zip(result[j], result[i])]
    return result
