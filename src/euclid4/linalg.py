"""Exact linear algebra over the integers.

Integer matrices only: a determinant, the 4x4 adjugate that serves as the
package's one matrix inverse (A^-1 = adj(A) / det(A), with the division left
to the caller as an exact-divisibility test or a modular inverse), and a
Hermite normal form.  Everything is dense and tiny; clarity over asymptotics.
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
    """Adjugate of a 4x4 integer matrix: adj(A) A = det(A) I."""

    def cofactor(i, j):
        (a, b, c), (d, e, f), (g, h, k) = (
            [x for col, x in enumerate(row) if col != j] for r, row in enumerate(mat) if r != i
        )
        return (-1) ** (i + j) * (a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g))

    return [[cofactor(j, i) for j in range(4)] for i in range(4)]


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
