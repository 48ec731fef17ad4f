"""Exact linear algebra over the rationals.

Matrices are tuples of row tuples; ``Vec`` and ``Mat`` name the ``Fraction``
forms that callers hand in and reports print.  Everything here is pure and
deterministic; no floating point.

Each exact operation has one kernel, on integer rows: ``int_row`` and
``int_mat`` write rationals as integer rows over one positive denominator,
``idot`` and ``int_mat_vec`` multiply such rows, ``int_det``,
``int_gram_det``, ``int_rank``, ``int_primitive`` and ``rref`` work on them
alone, and everything built on elimination (``rref``, ``int_det``,
``int_rank``, ``solve``) is fraction-free (Bareiss 1968).  ``int_least``
reduces integer rows over a denominator to their least positive one, the
form in which ``rootdatum.RatVec`` and ``levilattice.Levi`` keep every exact
vector, and ``rref`` returns the canonical basis of a row space in it.
``Fraction``s appear only at the edges: ``int_row`` and ``int_mat`` read
them and ``ratio_vec`` writes them for report strings; a ray's key is its
primitive integer row (``int_primitive``).  With one positive denominator,
signs and the lexicographic order of the numerators are those of the rationals.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def int_row(u: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of u over the least common denominator of its entries."""
    pairs = [a.as_integer_ratio() for a in u]
    den = 1
    for _, d in pairs:
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def int_mat(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer numerators of the rows over one least common denominator of all their entries."""
    ints, den = int_row(chain.from_iterable(rows))
    it = iter(ints)
    return tuple(tuple(next(it) for _ in r) for r in rows), den


def ratio_vec(ints: Iterable[int], den: int) -> Vec:
    """The rational vector with these numerators over den."""
    return tuple(Fraction(x) if den == 1 else Fraction(x, den) for x in ints)


def int_least(rows: Sequence[Sequence[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows over a nonzero den, divided through by the gcd of their entries and den: the same
    rationals over their least positive denominator."""
    g = gcd(den, *(x for row in rows for x in row)) * (1 if den > 0 else -1)
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def int_mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in m])


# ---------------------------------------------------------------------------
# fraction-free elimination


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are sought in the first ncols columns only; every column of the
    rows is transformed.  Returns the pivot columns (pivot k sits in row k),
    the final pivot d and the sign of the row permutation.  Afterwards every
    pivot entry equals d, the other entries of pivot columns are 0, and the
    reduced row echelon form of the leading rows is rows / d.  By Sylvester's
    identity each division by the previous pivot is exact (Bareiss 1968).
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    sign = 1
    lead = 0
    for col in range(ncols):
        if lead == nrows:
            break
        pivot = next((r for r in range(lead, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != lead:
            rows[lead], rows[pivot] = rows[pivot], rows[lead]
            sign = -sign
        top = rows[lead]
        p = top[col]
        for r in range(nrows):
            if r == lead:
                continue
            row = rows[r]
            f = row[col]
            if f:
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                rows[r] = [p * x // prev for x in row]
        pivots.append(col)
        prev = p
        lead += 1
    return pivots, prev, sign


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty one); the rows are not changed."""
    n = len(rows)
    pivots, d, sign = _eliminate(list(rows), n)
    return sign * d if len(pivots) == n else 0


def rref(rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Reduced row echelon form of integer rows with zero rows dropped (the canonical basis of the row
    space), as integer rows over their least positive denominator; the rows are not changed."""
    if not rows:
        return (), 1
    work = list(rows)
    pivots, d, _ = _eliminate(work, len(work[0]))
    return int_least(work[:len(pivots)], d)


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows (0 for none); the rows are not changed."""
    if not rows:
        return 0
    return len(_eliminate(list(rows), len(rows[0]))[0])


def solve(m: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """The X with m X = R for an invertible square integer m, R by its integer rows, and det m: one elimination.

    [m | R] is reduced fraction-free (Bareiss); row k of the right-hand part
    over the final pivot d is row k of X.  X comes as integer rows over their
    least common positive denominator, as ``int_mat`` writes it, and det m is
    the signed pivot d.  A singular m raises ZeroDivisionError.
    """
    n = len(m)
    work = [list(r) + list(b) for r, b in zip(m, rhs, strict=True)]
    pivots, d, sign = _eliminate(work, n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return (*int_least([row[n:] for row in work], d), sign * d)


def int_gram_det(rows: Sequence[Sequence[int]], forms: Sequence[Sequence[int]]) -> int:
    """det of the Gram matrix forms[i] . rows[j] of integer rows under a symmetric integer form, with
    forms[i] = S rows[i]; one triangle is computed and mirrored (1 for no rows)."""
    k = len(rows)
    g = [[0] * k for _ in range(k)]
    for i, f in enumerate(forms):
        for j in range(i, k):
            g[i][j] = g[j][i] = idot(f, rows[j])
    return int_det(g)


def int_primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """A ray's key: the integer row on the ray through an integer row, coprime, first nonzero > 0 (0 for 0)."""
    g = gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints)
