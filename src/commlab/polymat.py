"""F2[u, 1/u]-linear maps of K = F2[t, 1/t] with u = t**n, stored by images.

Such a map is fixed by where it sends the basis 1, t, ..., t**(n-1), so a
PolyMat holds those n images, each as an int mask at a common t-shift.
As an n x n matrix over F2[u, 1/u], entry (i, j) is the part of image j
at the exponents n*e + i: each column is the Kronecker layout of
``f2poly``, which owns it, so ``from_masks`` interleaves a column's
entry masks and ``entry_masks`` de-interleaves them.  So the action on K, the
product, the level changes, the shift commute test and the flip are
shifts and carry-less products of the n masks.  One loop, ``_act``, is
the action: it maps a sequence of masks at one base, and the same masks
raised by k, each by one shift-xor per set bit, its set bits read once for
all k copies, or by one product per column with a strand of the mask
(``f2poly.mask_strands``), as one cost comparison picks
(``f2poly._strands_pay``).  ``apply`` is its one-mask case, and a map
after another map raised to a finer level (``after_raised``, which the
product is at k = 1) maps the other map's columns in one call, so no
raised map is built.  Only this module reads
the masks, and ``gauss_jordan`` is the one elimination over F2[u], so no
matrix over F2(u) is ever formed.  It peels column singletons before it
eliminates, so a row-permuted triangular matrix, the shape of the
lamplighter linear parts and of their flip conjugates, costs one
back-substitution.  The gcd, scale, exact division and alignment to a
common shift of a vector of masks that it and the scalar methods use are
``f2poly``'s, and so is the span cap on the images: ``content_mask`` hands
``f2poly.mask_content`` the columns as layouts, so no column is split
into its entries to take a gcd.
"""

from __future__ import annotations

import operator
from functools import reduce

from .f2poly import (
    F2LaurentPoly,
    _strands_pay,
    mask_content,
    mask_deinterleave,
    mask_divmod,
    mask_interleave,
    mask_mul,
    mask_reverse,
    mask_spread,
    mask_strands,
    masks_aligned,
    masks_divided,
    masks_scaled,
)
from .frozen import Value


def gauss_jordan(rows: list, n: int) -> int:
    """det N and adj(N) * B over F2[u], in place, with work that follows
    the nonzero entries of N.

    rows holds n lists of poly masks: a square matrix N in the first n
    columns, then any further columns B.  Returns det N, or 0 when N is
    singular; otherwise the columns after the first n end up as adj(N) * B.

    The column singletons are peeled first, the leading 1 x 1 blocks of
    the block triangular form (Duff and Reid, ACM TOMS 4, 1978): a column
    with one live entry p is a pivot, and det N is p times det N without
    p's row and column (over F2 there is no sign); a column with no live
    entry means det N = 0.  A later pivot's row is 0 in every earlier
    pivot's column, and so are the rows left, the core, so det N is the
    product of the pivots times det core (``_bareiss``).  Then X = adj(N) B
    solves N X = det N * B, with every division exact: the core's X is
    det N / det core times the ``_bareiss`` columns of [core | its rows of
    B], and, in reverse peel order, a pivot p at (i, j) gives
    x_j = (det N * b_i - the rest of row i times X) / p.
    """
    by_row = [[j for j in range(n) if row[j]] for row in rows]
    col_rows = [set() for _ in range(n)]  # the live rows of each column
    for i, js in enumerate(by_row):
        for j in js:
            col_rows[j].add(i)
    todo = [j for j in range(n) if len(col_rows[j]) < 2]
    peel = []
    while todo:
        j = todo.pop()
        live = col_rows[j]
        if not live:
            return 0
        i = live.pop()
        peel.append((i, j))
        for jj in by_row[i]:
            if jj != j:
                live = col_rows[jj]
                live.remove(i)
                if len(live) < 2:
                    todo.append(jj)
    if not peel:
        return _bareiss(rows, n)
    det = 1
    for i, j in peel:
        det = mask_mul(det, rows[i][j])
    x = [None] * n
    core = [j for j in range(n) if col_rows[j]]
    if core:
        out = {i for i, _ in peel}
        sub = [[row[j] for j in core] + row[n:] for i, row in enumerate(rows) if i not in out]
        d = _bareiss(sub, len(core))
        if not d:
            return 0
        for j, row in zip(core, sub):
            x[j] = masks_scaled(row[len(core):], det)
        det = mask_mul(det, d)
    if len(rows[0]) == n:
        return det
    for i, j in reversed(peel):
        row = rows[i]
        acc = masks_scaled(row[n:], det)
        for jj in by_row[i]:
            if jj != j:
                a = row[jj]
                acc = [v ^ mask_mul(a, w) if w else v for v, w in zip(acc, x[jj])]
        x[j] = masks_divided(acc, row[j])
    for j in range(n):
        rows[j][n:] = x[j]
    return det


def _bareiss(rows: list, n: int) -> int:
    """Fraction-free elimination over F2[u] (Bareiss 1968), in place: the
    core of ``gauss_jordan``, with the same arguments and answer.

    Every entry formed is a minor of the input, so each division by the
    previous pivot is exact, and over F2 a row swap changes no sign, so
    the answer does not depend on which rows are taken as pivots.  The
    pivot at column k is the row with the most zeros left in N (the
    fewest nonzero entries, Markowitz's rule).  It pays on sparse cores
    and costs little on dense ones: on drawn matrices of 8-bit entries
    with a permuted nonzero diagonal, 10 at n = 30 and density 0.1 take
    214 ms with it and 339 ms with the first live row as pivot, 20 at
    n = 20 and density 0.15 take 154 and 152 ms, and 20 dense 12 x 12
    take 78 and 71 ms.  With no columns B only the rows below a pivot
    are eliminated, as det N is the last pivot; with B every other row
    is (Gauss-Jordan), and B ends up as adj(N) * B.

    At pivot k each other row x becomes (piv*x + a*top) / prev, a its
    column-k entry.  A row with a = 0 is left as it is when piv = prev,
    which the update would give, and every other row takes the update.
    Products with a zero factor are skipped, and so is the division when
    prev = 1.
    """
    prev = 1
    for k in range(n):
        live = [i for i in range(k, n) if rows[i][k]]
        if not live:
            return 0
        p = live[0] if len(live) == 1 else max(live, key=lambda i: rows[i][k:n].count(0))
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        piv = top[k]
        for row in rows[k + 1:] if len(top) == n else rows[:k] + rows[k + 1:]:
            a = row[k]
            if not a and piv == prev:
                continue
            for j in range(k + 1, len(row)):
                x = mask_mul(piv, row[j]) if row[j] else 0
                if a and top[j]:
                    x ^= mask_mul(a, top[j])
                row[j] = mask_divmod(x, prev)[0] if prev != 1 and x else x
        prev = piv
    return prev


class PolyMat(Value):
    """F2[u, 1/u]-linear map of K with u = t**n: image j of the basis
    1, t, ..., t**(n-1) is t**shift * cols[j].

    Normal form: some mask is odd, or every mask is 0 and shift is 0.
    """

    __slots__ = ("n", "shift", "cols")

    def __init__(self, n: int, cols, shift: int = 0):
        """Puts t**shift * cols in the normal form.  The lowest set bit
        of the OR of the masks is the lowest one of any mask, so one OR
        gives the power of t that all of them share."""
        cols = tuple(cols)
        union = reduce(operator.or_, cols, 0)
        if not union:
            shift = 0
        elif not union & 1:
            low = (union & -union).bit_length() - 1
            cols = tuple(c >> low for c in cols)
            shift += low
        self.n = n
        self.cols = cols
        self.shift = shift

    @classmethod
    def identity(cls, n: int) -> "PolyMat":
        return cls(n, (1 << j for j in range(n)))

    @classmethod
    def from_images(cls, n: int, ks) -> "PolyMat":
        """The map sending t**j to ks[j], an F2LaurentPoly, for j < n; the
        images are aligned by ``masks_aligned``, which refuses a span past
        the cap."""
        (cols,), base = masks_aligned([[(k.mask, k.shift) for k in ks]])
        return cls(n, cols, base)

    @classmethod
    def from_masks(cls, n: int, rows, shift: int) -> "PolyMat":
        """Inverse of entry_masks: entry (i, j) is u**shift times the
        polynomial whose mask is rows[i][j]."""
        return cls(n, (mask_interleave(col, n) for col in zip(*rows)), n * shift)

    def _act(self, masks, base: int, k: int = 1) -> list[int]:
        """The images of t**base times each mask of masks, and of the same
        masks raised by k: with w = len(masks), entry w*a + i is the image
        of t**(base + w*a) * masks[i], for a < k, as a mask at
        t**(off + shift), off = n*(base // n).  t**(n*e + j) goes to
        t**(n*e) times image j.

        A mask takes one of two routes, as ``_strands_pay`` picks from its
        set bits and those of all n columns: its set bits are read once,
        each as the exponent q above off, and each is one shift-xor,
        cols[q % n] << q - q % n, into every copy, w*a added to q for copy
        a; or each copy, aligned so that bit n*e + j stands for
        t**(off + n*e + j), is one carry-less product per column j, of
        image j and strand j of that layout (``mask_strands``).  The rule is
        false for pop <= 2n whatever the columns hold, so their set bits are
        summed only once a mask has more: a one-mask ``apply`` of a sparse
        mask reads no column before its loop."""
        n, cols = self.n, self.cols
        bits = 0  # those of all columns, summed once a mask has more than 2n
        w, res = len(masks), base % n
        out = [0] * (w * k)
        for i, mask in enumerate(masks):
            pop = mask.bit_count()
            if pop > 2 * n and not bits:
                bits = sum(map(int.bit_count, cols))
            if _strands_pay(pop, n, bits):
                for a in range(k):
                    acc = 0
                    for c, s in zip(cols, mask_strands(mask << w * a + res, n)):
                        if c and s:
                            acc ^= mask_mul(c, s)
                    out[w * a + i] = acc
                continue
            slots = range(i, w * k, w)  # where the copies of this mask go
            while mask:
                b = mask & -mask
                q = res + b.bit_length() - 1
                mask ^= b
                for j in slots:
                    r = q % n
                    out[j] ^= cols[r] << q - r
                    q += w
        return out

    def apply(self, k: F2LaurentPoly) -> F2LaurentPoly:
        """Image of a K element."""
        n = self.n
        return F2LaurentPoly._raw(self._act((k.mask,), k.shift)[0],
                                  n * (k.shift // n) + self.shift)

    def __mul__(self, other):
        """self after other, at the same level."""
        if not isinstance(other, PolyMat):
            return NotImplemented
        return self.after_raised(other, 1)

    def after_raised(self, other: "PolyMat", k: int) -> "PolyMat":
        """self after other.raised(k), a map at level L = other.n * k, which
        self.n divides, with no raised map built: column n*a + j of the
        raised map is column j of other shifted by n*a, with n = other.n,
        which is the raising of ``_act``.  So one call maps all L columns
        at the one base other.shift, reading the set bits of each column of
        other once for its k copies, and the images share the shift
        self.n*(other.shift // self.n) + self.shift."""
        base = other.shift
        return PolyMat(other.n * k, self._act(other.cols, base, k),
                       self.n * (base // self.n) + self.shift)

    def scalar_mul(self, mask: int) -> "PolyMat":
        """Multiply by the nonzero scalar polynomial in u given as a mask."""
        return PolyMat(self.n, masks_scaled(self.cols, mask_spread(mask, self.n)), self.shift)

    def scalar_div(self, mask: int) -> "PolyMat":
        """Exact quotient by the scalar polynomial in u given as an odd mask."""
        return PolyMat(self.n, masks_divided(self.cols, mask_spread(mask, self.n)), self.shift)

    def entry_masks(self) -> tuple[list[list[int]], int]:
        """The n x n entries as poly masks, and their common shift in u:
        entry (i, j) is u**shift times the polynomial whose mask is [i][j]."""
        n, res = self.n, self.shift % self.n
        columns = [mask_deinterleave(c << res, n) for c in self.cols]
        return [list(row) for row in zip(*columns)], self.shift // n

    def content_mask(self, g: int) -> int:
        """gcd of the nonzero mask g and all entries: each column is read
        as one layout by ``mask_content``, which takes one remainder modulo
        g(u) per column and stops once the gcd is 1.

        A column's strands are its entries up to a factor u: entry_masks
        moves it by shift % n first, which multiplies some strands by u.
        That changes only the power of u in the gcd, and that power is 1
        either way, as the normal form has some column with bit 0 set,
        whose strand 0 is an entry with a constant term."""
        return mask_content(g, self.cols, self.n)

    # ------------------------------------------------------------------
    # the level and the orientation

    def commutes_with(self, d: int) -> bool:
        """Whether the map commutes with multiplication by t**d (1 <= d <= n):
        t**(j+d) is t**n * t**(j+d-n) when j + d >= n, so image (j+d) mod n,
        times t**n in that case, must be t**d times image j."""
        n, cols = self.n, self.cols
        return all(
            cols[(j + d) % n] << (n if j + d >= n else 0) == c << d
            for j, c in enumerate(cols)
        )

    def raised(self, k: int) -> "PolyMat":
        """The same map over F2[w, 1/w] with w = u**k: basis element
        t**(j + n*a) with 0 <= a < k goes to u**a times image j."""
        n = self.n
        return PolyMat(n * k, (c << (n * a) for a in range(k) for c in self.cols), self.shift)

    def lowered(self, k: int) -> "PolyMat":
        """Inverse of raised(k) on a map that commutes with t**(n/k): the
        first n/k images."""
        d = self.n // k
        return PolyMat(d, self.cols[:d], self.shift)

    def flip(self) -> "PolyMat":
        """F * A * F, where F(k)(t) = k(1/t): F(1) = 1 and, for j >= 1,
        F(t**j) = t**-n * t**(n-j), so image j is t**n * F(image (n-j)).
        With w the width of the widest mask, F(t**shift * c) is
        t**(1 - w - shift) times c reversed within w bits, so every image is
        a reversed mask at that one shift, and t**n shifts it by n."""
        n, cols = self.n, self.cols
        w = max(cols).bit_length()
        rev = [mask_reverse(c) << w - c.bit_length() if c else 0 for c in cols]
        return PolyMat(n, rev[:1] + [c << n for c in rev[:0:-1]], 1 - w - self.shift)

    def shifted(self, k: int) -> "PolyMat":
        """The map times t**k: the same masks at shift + k."""
        return PolyMat(self.n, self.cols, self.shift + k)
