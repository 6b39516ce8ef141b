"""Hermite normal form over the Laurent polynomial ring F2[s, 1/s].

The ring is a PID whose units are the powers of s, so every full-rank
submodule of a free module has a canonical triangular basis: upper
triangular, each diagonal entry a polynomial with nonzero constant term
(monic is automatic over F2), and every entry above a diagonal reduced
to its canonical representative modulo that diagonal.  Submodule
equality is then a syntactic check.

Row spans are the submodules.  Two routines build the form, and neither
tracks a transform: a kernel is read off the form of an augmented matrix
[A | I] instead (see ``lamplighter.comm_domain``).

* ``row_echelon`` takes any rows of F2LaurentPoly, by Euclidean steps on
  their entries as they are; ``SubmoduleBasis.from_generators`` reads it.
* ``hnf_mod`` takes and returns rows of poly masks: the form of
  span(rows) + d*F^n for a mask d with d(0) = 1.  Since that module holds
  d*e_j for every column j, each entry is kept as its representative
  modulo d, so no entry of the elimination reaches deg d (Domich, Kannan
  and Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138, Algorithm
  2.4.8).  ``lamplighter.comm_domain`` reads it, on the entry masks of a
  linear part as they are (for a flipped class, of its flip conjugate).

``is_hnf`` and ``solve_membership`` (y*H = v) read F2LaurentPoly rows.
Every division is f2poly's: the Euclidean steps are ``mask_divmod``,
the reductions modulo d ``mask_mod``, and ``row_echelon`` reduces above
a pivot d by ``F2LaurentPoly.divmod(d)``, whose quotient is the row
multiplier; it is the one reader of that method in the program.
"""

from __future__ import annotations

from .f2poly import F2LaurentPoly, mask_deg, mask_divmod, mask_mod, mask_mul


def _row_add(rows, i, j, q):
    """rows[i] += q * rows[j] (characteristic 2), leaving an entry as it is
    where rows[j] has a zero."""
    rows[i] = [a + q * b if b else a for a, b in zip(rows[i], rows[j])]


def row_echelon(mat):
    """Canonical row echelon form over F2[s, 1/s] by Euclidean steps.

    Returns (H, pivots): H, a tuple of row tuples, has the row span of
    mat, zero rows at the bottom, pivot entries unit-normalized and the
    entries above each pivot reduced modulo it; pivots are the pivot
    columns of its rows.
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
    for pr, pc in enumerate(pivots):
        d = H[pr][pc].mask
        for i in range(pr):
            # subtracting q times the pivot row leaves the representative
            q = H[i][pc].divmod(d)[0]
            if q:
                _row_add(H, i, pr, q)
    return tuple(tuple(row) for row in H), tuple(pivots)


def _add_mod(row, src, q, start, d):
    """row[j] += q * src[j] modulo d for the columns j >= start."""
    for j in range(start, len(row)):
        if src[j]:
            x = row[j] ^ mask_mul(q, src[j])
            row[j] = mask_mod(x, d) if x.bit_length() >= d.bit_length() else x


def hnf_mod(rows, n: int, d: int) -> list:
    """The HNF basis, n lists of n poly masks, of span(rows) + d*F^n for
    rows of n poly masks and a poly mask d with d(0) = 1.

    Entries are reduced modulo d throughout, the input by ``mask_mod``.
    At column c the row d*e_c joins the rows with a nonzero entry there,
    Euclidean steps over F2[s] bring one of them to the gcd g of those
    entries and d, and each row a step touched has its entries right of c
    reduced modulo d; rows that vanish are dropped.  g divides d, so g(0) = 1 and it is the
    unit-normalized pivot.  Reducing modulo d adds a multiple of some
    d*e_j, which lies in the module and, for j past the row's pivot, in
    the span of the later basis rows, so the basis stays a basis; the
    entries above each pivot are reduced the same way at the end.
    """
    work = [[mask_mod(x, d) for x in row] for row in rows]
    work = [row for row in work if any(row)]
    H = []
    for c in range(n):
        live = [row for row in work if row[c]]
        work = [row for row in work if not row[c]]
        if 1 not in [row[c] for row in live]:
            # else d*e_c is in the span of the row with a 1 and the later d*e_j
            live.append([d if j == c else 0 for j in range(n)])
        while len(live) > 1:
            live.sort(key=lambda row: row[c].bit_length())
            base = live[0]
            for row in live[1:]:
                q, row[c] = mask_divmod(row[c], base[c])
                _add_mod(row, base, q, c + 1, d)
            work += [row for row in live[1:] if not row[c] and any(row)]
            live = [row for row in live if row[c]]
        H.append(live[0])
    for j, pivot in enumerate(H):
        for row in H[:j]:
            if row[j]:
                q, row[j] = mask_divmod(row[j], pivot[j])
                _add_mod(row, pivot, q, j + 1, d)
    return H


def is_hnf(mat) -> bool:
    """Check the canonical-form invariants that ``SubmoduleBasis`` relies on."""
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
