"""Property tests: the fraction-free integer kernels against naive Fraction references."""
from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_refs import int_normal, ref_gram_matrix, ref_identity, ref_kernel, ref_mat_mul, ref_rref
from gmcalc import exactlin as el
from gmcalc.rootdatum import RatVec

SETTINGS = settings(max_examples=150, deadline=None)

# Rationals with negative entries, non-unit denominators and plenty of zeros.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows).map(tuple)


shapes = st.tuples(st.integers(0, 4), st.integers(1, 4))
any_matrix = shapes.flatmap(lambda rc: matrices(*rc))
square = st.integers(1, 4).flatmap(lambda n: matrices(n, n))


# ---------------------------------------------------------------------------
# naive references: plain Fraction arithmetic, textbook algorithms


def ref_dot(u, v):
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def ref_mat_vec(m, v):
    return tuple(ref_dot(row, v) for row in m)


def ref_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = Fraction(-1 if inv % 2 else 1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


def ref_solve(m, b):
    ncols = len(m[0]) if m else 0
    red, pivots, rest = ref_rref([list(r) + [x] for r, x in zip(m, b)], ncols)
    if any(r[ncols] != 0 for r in rest):
        return None
    x = [Fraction(0)] * ncols
    for r, p in zip(red, pivots):
        x[p] = r[ncols]
    return tuple(x)


def ref_project(v, basis, S):
    g = tuple(tuple(ref_dot(ref_mat_vec(S, a), b) for b in basis) for a in basis)
    coeff = ref_solve(g, tuple(ref_dot(ref_mat_vec(S, b), v) for b in basis))
    out = [Fraction(0)] * len(v)
    for c, b in zip(coeff, basis):
        out = [x + c * y for x, y in zip(out, b)]
    return tuple(out)


def normalised(x):
    return isinstance(x, Fraction) and x == Fraction(x.numerator, x.denominator)


# ---------------------------------------------------------------------------
# products


@SETTINGS
@given(shapes.flatmap(lambda rc: st.tuples(matrices(*rc), vectors(rc[1]))))
def test_mat_vec(mv):
    """The integer product of the rows and the vector, over their two denominators, is the Fraction product."""
    m, v = mv
    rows, den = el.int_mat(m)
    x, x_den = el.int_row(v)
    assert el.ratio_vec(el.int_mat_vec(rows, x), den * x_den) == ref_mat_vec(m, v)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(matrices(n, n), vectors(n), vectors(n))))
def test_sym_pair(suv):
    """The pairing as RootDatum.pair takes it: idot of S's integer rows times u with v, over the three
    denominators, is the Fraction form (S u) . v."""
    S, u, v = suv
    rows, s = el.int_mat(S)
    (x, dx), (y, dy) = el.int_row(u), el.int_row(v)
    got = Fraction(el.idot(el.int_mat_vec(rows, x), y), s * dx * dy)
    assert got == ref_dot(ref_mat_vec(S, u), v) and normalised(got)


def test_length_mismatch_raises():
    """solve and the sums of RatVec check lengths; the pairing's check is RootDatum.pair's (test_rootdatum)."""
    u = (Fraction(1), Fraction(2))
    w = (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        el.solve(((1, 0), (0, 1)), [(1, 2)])
    with pytest.raises(ValueError):
        RatVec(u) + RatVec(w)
    with pytest.raises(ValueError):
        RatVec(w) - RatVec(u)
    with pytest.raises(ValueError):
        RatVec.zero(2) + RatVec(w)


# ---------------------------------------------------------------------------
# elimination


ZERO_ROWS = ((Fraction(0), Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-3, 4), Fraction(0)))


@SETTINGS
@given(any_matrix)
@example(ZERO_ROWS)
@example(((Fraction(0),) * 3,) * 2)
@example(((Fraction(2, 3), Fraction(-1, 5)), (Fraction(-4, 3), Fraction(2, 5))))
def test_rref_rank_kernel(m):
    """rref of the integer rows of m is the Fraction RREF of m as integer rows over their least positive
    denominator."""
    red, pivots, _ = ref_rref(m)
    ints = el.int_mat(m)[0]
    got = el.rref(ints)
    assert got == el.int_mat(red)
    assert all(type(x) is int for row in got[0] for x in row) and got[1] > 0
    assert el.int_rank(ints) == len(red)
    n = len(m[0]) if m else 3
    ker = ref_kernel(m, n)  # the kernel reference the fixed-space and flat tests read
    assert len(ker) == n - len(red)
    expected = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for r, p in zip(red, pivots):
            x[p] = -r[f]
        expected.append(tuple(x))
    assert ker == expected
    for k in ker:
        assert all(ref_dot(row, k) == 0 for row in m)


@SETTINGS
@given(square)
@example(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
@example(((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1))))
@example(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))  # singular: an inconsistent column
def test_det_and_inverse(m):
    """int_det of the rows over one denominator, and the inverse and integer det of those rows from one solve
    against the identity: m^-1 is den times their inverse."""
    rows, den = el.int_mat(m)
    got = Fraction(el.int_det(rows), den ** len(m))
    assert got == ref_det(m) and normalised(got)
    ident = ref_identity(len(m))
    int_ident = tuple(tuple(map(int, row)) for row in ident)
    if got == 0:
        with pytest.raises(ZeroDivisionError):
            el.solve(rows, int_ident)
    else:
        C, c, det = el.solve(rows, int_ident)
        inv = tuple(el.ratio_vec([den * x for x in row], c) for row in C)
        assert ref_mat_mul(m, inv) == ident
        assert type(det) is int and det == el.int_det(rows)
        assert c > 0 and gcd(c, *(x for row in C for x in row)) == 1  # least positive denominator


# ---------------------------------------------------------------------------
# projection


def positive_definite(n):
    """A^T A + I for a random rational A: symmetric and positive definite."""
    return matrices(n, n).map(
        lambda a: tuple(
            tuple(ref_dot(col_i, col_j) + (1 if i == j else 0) for j, col_j in enumerate(zip(*a)))
            for i, col_i in enumerate(zip(*a))
        )
    )


@SETTINGS
@given(
    st.tuples(st.integers(1, 4), st.integers(0, 3)).flatmap(
        lambda nk: st.tuples(positive_definite(nk[0]), matrices(nk[1], nk[0]), vectors(nk[0]))
    )
)
def test_projector(sbv):
    """The projector B^T X onto the span of B from one solve of G X = B S, each row of [G | B S] cleared of
    its denominators, with X as integer rows over their least common denominator and det G as the integer
    det over the row denominators."""
    S, basis, v = sbv
    basis = tuple(ref_rref(basis)[0])  # independent rows with the same span
    gram = ref_gram_matrix(basis, S)
    k = len(basis)
    cleared = [el.int_row(g + ref_mat_vec(S, b)) for g, b in zip(gram, basis)]
    C, c, det = el.solve([row[:k] for row, _ in cleared], [row[k:] for row, _ in cleared])
    X = tuple(el.ratio_vec(row, c) for row in C)
    assert type(det) is int and Fraction(det, prod(den for _, den in cleared)) == ref_det(gram)
    assert c > 0 and el.int_mat(X) == (C, c)
    n = len(S)
    P = tuple(
        tuple(sum((b[a] * x[j] for b, x in zip(basis, X)), Fraction(0)) for j in range(n)) for a in range(n)
    )
    assert ref_mat_vec(P, v) == ref_project(v, basis, S)
    assert ref_mat_mul(P, P) == P
    for b in basis:
        assert ref_mat_vec(P, b) == b


# ---------------------------------------------------------------------------
# integer rows


def cofactors(rows, n):
    """The n minors of n-1 rows in n columns, signed: the normal a determinant expansion gives."""
    return [(-1) ** j * el.int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]


@st.composite
def edge_matrices(draw):
    """n-1 integer rows in n columns, n = 1..4; often one column is a combination of the columns
    before it (zero for the first), so the free column of the elimination is not the last one."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n - 1, max_size=n - 1))
    if n > 1 and draw(st.booleans()):
        f = draw(st.integers(0, n - 2))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=f, max_size=f))
        rows = [r[:f] + [sum(c * x for c, x in zip(coeffs, r))] + r[f + 1:] for r in rows]
    return n, rows


@SETTINGS
@given(edge_matrices())
@example((3, [[0, 1, 0], [0, 0, 1]]))  # free column 0
@example((3, [[1, 2, 3], [2, 4, 5]]))  # free column 1
@example((4, [[1, 0, 0, 2], [0, 1, 0, 3], [1, 1, 0, 1]]))  # free column 2
@example((3, [[1, 2, 3], [2, 4, 6]]))  # dependent rows
@example((1, []))
def test_int_normal_is_the_cofactor_vector_up_to_sign(case):
    n, rows = case
    before = [list(r) for r in rows]
    normal = int_normal(rows, n)
    assert rows == before
    expected = cofactors(rows, n)
    assert normal in (expected, [-x for x in expected])
    assert all(el.idot(normal, r) == 0 for r in rows)


@SETTINGS
@given(any_matrix)
def test_int_mat_shares_one_denominator(m):
    rows, den = el.int_mat(m)
    assert den > 0 and len(rows) == len(m)
    assert tuple(el.ratio_vec(r, den) for r in rows) == tuple(tuple(r) for r in m)
    assert all(type(x) is int for r in rows for x in r)
    assert el.int_mat_vec(rows, [1] * len(m[0]) if m else []) == tuple(sum(r) * den for r in m)
