"""Hermite normal form over the Laurent polynomial ring F2[s, 1/s].

The ring is a PID whose units are the powers of s, so every full-rank
submodule of a free module has a canonical triangular basis: upper
triangular, each diagonal entry a polynomial with nonzero constant term
(monic is automatic over F2), and every entry above a diagonal reduced
to its canonical representative modulo that diagonal.  Submodule
equality is then a syntactic check.

Matrices here are plain tuples of tuples of F2LaurentPoly; row spans
are the submodules.  The echelon routines return the echelon form and
its pivot columns and track no transform: a kernel is read off the
echelon form of an augmented matrix [A | I] instead (see
``lamplighter.comm_domain``).  Every division is f2poly's: the
Euclidean steps are ``mask_divmod``, and an entry above a pivot d is
reduced by ``F2LaurentPoly.divmod(d)``, whose quotient is the row
multiplier.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .f2poly import F2LaurentPoly, mask_deg, mask_divmod


def _row_add(rows, i, j, q):
    """rows[i] += q * rows[j] (characteristic 2), leaving an entry as it is
    where rows[j] has a zero."""
    rows[i] = [a + q * b if b else a for a, b in zip(rows[i], rows[j])]


def echelon(mat):
    """Row echelon form over F2[s, 1/s] by Euclidean steps, unreduced.

    Returns (H, pivots): H, a list of row lists, has the row span of mat,
    zero rows at the bottom and pivot entries unit-normalized; pivots are
    the pivot columns of its rows.  The entries above a pivot are left as
    they are, so rows that a caller discards are never reduced.
    """
    H = [list(row) for row in mat]
    nr = len(H)
    nc = len(H[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        live = [i for i in range(r, nr) if H[i][c]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: mask_deg(H[i][c].mask))
            base = live[0]
            b = H[base][c]
            for i in live[1:]:
                a = H[i][c]  # a - q*b has a smaller normalized degree than b
                q = F2LaurentPoly._raw(mask_divmod(a.mask, b.mask)[0], a.shift - b.shift)
                _row_add(H, i, base, q)
            live = [i for i in live if H[i][c]]
        p = live[0]
        H[r], H[p] = H[p], H[r]
        sh = H[r][c].shift
        if sh:
            H[r] = [x.shifted(-sh) for x in H[r]]
        pivots.append(c)
        r += 1
    return H, pivots


def row_echelon(mat):
    """Canonical row echelon form over F2[s, 1/s].

    Returns (H, pivots): the echelon form with the entries above each
    pivot reduced modulo it, as a tuple of row tuples, and its pivot
    columns.
    """
    H, pivots = echelon(mat)
    for pr, pc in enumerate(pivots):
        d = H[pr][pc].mask
        for i in range(pr):
            # subtracting q times the pivot row leaves the representative
            q = H[i][pc].divmod(d)[0]
            if q:
                _row_add(H, i, pr, q)
    return tuple(tuple(row) for row in H), tuple(pivots)


def is_hnf(mat) -> bool:
    """Check the canonical-form invariants used by submodule_index."""
    n = len(mat)
    for i, row in enumerate(mat):
        if len(row) != n:
            return False
        for j, x in enumerate(row):
            if j < i and not x.is_zero():
                return False
            if j == i and (x.is_zero() or x.shift != 0):
                return False
            if j > i and not x.is_zero():
                d = mat[j][j]
                if x.shift < 0 or x.max_exp >= mask_deg(d.mask):
                    return False
    return True


def submodule_index(mat) -> int:
    """log2 of the index of the row span inside the free module.

    The input must be in Hermite normal form; the answer is the sum of
    the diagonal degrees.
    """
    if not is_hnf(tuple(tuple(row) for row in mat)):
        raise ValueError("matrix is not in Hermite normal form")
    return sum(mask_deg(row[i].mask) for i, row in enumerate(mat))


def module_from_rows(rows, n: int):
    """HNF basis of the span of the given generator rows.

    The span must have full rank n.
    """
    if not rows:
        raise SingularMatrix("no generators")
    H, pivots = row_echelon(rows)
    if len(pivots) < n:
        raise SingularMatrix("generators do not span a finite-index submodule")
    return tuple(H[i] for i in range(n))


def solve_membership(hmat, vec):
    """Coefficients y with y*hmat = vec over F2[s, 1/s], or None.

    hmat must be square, full rank and upper triangular (e.g. in HNF).
    """
    n = len(hmat)
    y = []
    for c in range(n):
        acc = vec[c]
        for i in range(c):
            acc = acc + y[i] * hmat[i][c]
        q = acc.exact_div(hmat[c][c])
        if q is None:
            return None
        y.append(q)
    return tuple(y)
