"""Small exact linear algebra helpers (Fraction and integer matrices).

Everything here is dense and tiny (dimensions at most ~60); clarity over
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


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


def solve_exact(a, b):
    """Solve a x = b exactly over the rationals.

    `a` is a list of rows (possibly more rows than columns: the system must be
    consistent), `b` a vector.  Returns the unique solution or raises
    ValueError when the system is inconsistent or underdetermined.
    """
    rows = len(a)
    cols = len(a[0])
    aug = [[Fraction(a[i][j]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if len(pivots) < cols:
        raise ValueError("underdetermined system")
    for i in range(r, rows):
        if aug[i][cols] != 0:
            raise ValueError("inconsistent system")
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return x


def invert_fraction_matrix(a):
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + identity(n)[i] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def charpoly_int(mat):
    """Characteristic polynomial of an integer matrix, constant term first.

    Faddeev-LeVerrier with exact rational intermediates; the result is
    integral for integer input.
    """
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]  # leading coefficient of x^n
    mk = [row[:] for row in m]
    cs = []
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = mat_mul(m, mk)
    # charpoly = x^n + cs[0] x^(n-1) + ... + cs[n-1]
    out = [cs[n - 1 - i] for i in range(n)] + [Fraction(1)]
    res = []
    for c in out:
        assert c.denominator == 1
        res.append(int(c))
    return res


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


def nullspace_mod_p(rows, p):
    """Basis of the right nullspace of a matrix over GF(p)."""
    if not rows:
        return []
    nrows = len(rows)
    ncols = len(rows[0])
    m = [[x % p for x in row] for row in rows]
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] % p != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for c, pr in pivots.items():
            v[c] = (-m[pr][fc]) % p
        basis.append(v)
    return basis
