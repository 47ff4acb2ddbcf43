"""Integer row-reduction kernels.

``sparse_rank`` and ``sparse_echelon`` share the package's one exact
elimination, a loop over sparse rows ``{col: int}`` that always pivots on
the leftmost column, so its pivot columns are those of the reduced row
echelon form.  ``sparse_echelon`` solves the Hom systems and gives the
echelon forms of ``exactalg``'s kernels, solves, inverses and span bases;
fed its own earlier result, it grows ``exactalg.IncrementalSpan`` one
vector at a time.  ``sparse_rank`` gives ``exactalg.mat_rank`` and every
multiplication-map rank.  ``echelon``, dense fraction-free (Bareiss)
elimination, is only the tests' reference for the sparse kernel.
"""

from heapq import heappop, heappush
from math import gcd

BACKEND = "pure"


def echelon(rows, ncols):
    """Fraction-free (Bareiss) forward elimination, in place.

    ``rows`` is a list of lists of int, each of length ``ncols``.  On return
    the matrix is in row echelon form up to positive row scaling; row ``i``
    has its leading nonzero in column ``pivots[i]``.  Returns
    ``(rank, pivots)``.
    """
    nrows = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                row[c] = 0
                for j in range(c + 1, ncols):
                    a = row[j]
                    b = prow[j]
                    if a or b:
                        row[j] = (p * a - f * b) // prev
            elif p != prev:
                for j in range(c + 1, ncols):
                    a = row[j]
                    if a:
                        row[j] = p * a // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def _eliminate(rows, fixed):
    """Sparse leftmost-pivot elimination; yields ``(col, pivot_row)`` in
    increasing column order as each pivot is fixed.

    Rows are grouped by leading column.  At the leftmost column still held,
    the pivot is ``fixed[col]`` when given (it is not yielded again), else
    the shortest row of the group; the other rows of the group lose that
    column by cross-multiplication and are divided by their content.
    ``rows`` is consumed; pivot rows are never modified afterwards.

    The held columns sit in a heap (the sorted leading columns to start),
    each pushed when its group is created and popped with it.  A reduced
    row only moves right of the column being eliminated, so the heap
    yields the columns in the order ``min(buckets)`` would, without
    rescanning the groups at each pivot.
    """
    buckets = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    heap = sorted(buckets)
    while heap:
        c = heappop(heap)
        group = buckets.pop(c)
        prow = fixed.get(c)
        if prow is None:
            pi = 0
            for i in range(1, len(group)):
                if len(group[i]) < len(group[pi]):
                    pi = i
            prow = group.pop(pi)
            yield c, prow
        p = prow[c]
        for row in group:
            f = row.pop(c)
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, b in prow.items():
                if j == c:
                    continue
                v = row.get(j, 0) - f * b
                if v:
                    row[j] = v
                elif j in row:
                    del row[j]
            if row:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for j in row:
                        row[j] //= g
                lead = min(row)
                held = buckets.get(lead)
                if held is None:
                    buckets[lead] = [row]
                    heappush(heap, lead)
                else:
                    held.append(row)


def sparse_rank(rows):
    """Rank of an integer matrix given as sparse rows ``{col: value}``.

    Row scaling leaves the rank alone, so rows are cross-multiplied and
    divided by their content to keep entries small.  ``rows`` is consumed
    and no pivot row is kept.
    """
    rank = 0
    for _ in _eliminate(rows, {}):
        rank += 1
    return rank


def sparse_echelon(rows, pivots=None):
    """Row echelon form of sparse integer rows ``{col: value}``.

    Returns ``{col: pivot_row}``; the rank is its length and its keys are
    the pivot columns of the reduced row echelon form.  Given ``pivots``
    from an earlier call, the new rows are reduced against those pivot
    rows and the pivots they add are inserted into it, so the result is
    the echelon form of the old and the new rows together.  ``rows`` is
    consumed.
    """
    if pivots is None:
        pivots = {}
    for c, row in _eliminate(rows, pivots):
        pivots[c] = row
    return pivots
