import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraction_refs import ref_mat_mul as mat_mul
from fraction_refs import ref_identity as identity
from fraction_refs import ref_mat_vec as mat_vec
from fraction_refs import (
    mat,
    ref_gram_det,
    ref_pair,
    ref_reflection_perms,
    ref_weyl_matrix,
    transpose,
    vadd,
    vscale,
    vsub,
)
from gmcalc.exactlin import int_mat, int_row
from gmcalc.errors import DimensionError, UnsupportedType
from gmcalc.rootdatum import (
    _SIMPLE_GRAM,
    MAX_RANK,
    RatVec,
    act,
    build_root_system,
    element_from_word,
    reflect_subgroup,
    weyl_group,
)

KNOWN_ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "C2": 8, "G2": 12}
KNOWN_WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "G2": 12}


@pytest.mark.parametrize("label", sorted(KNOWN_ROOT_COUNTS))
def test_root_counts(label):
    d = build_root_system(label)
    assert len(d.roots) == KNOWN_ROOT_COUNTS[label]
    assert d.rank == len(d.gram)


@pytest.mark.parametrize("label", sorted(KNOWN_WEYL_ORDERS))
def test_weyl_orders(label):
    d = build_root_system(label)
    assert len(weyl_group(d)) == KNOWN_WEYL_ORDERS[label]


def test_product_label():
    d = build_root_system("A1xB2")
    assert len(d.roots) == 2 + 8
    assert len(weyl_group(d)) == 2 * 8
    assert d.rank == 3


def test_unknown_label_rejected():
    with pytest.raises(UnsupportedType):
        build_root_system("Z2")
    with pytest.raises(UnsupportedType):
        build_root_system("A1xA1xA1xA1xA1")


def test_pairing_integrality_and_two():
    for label in ("A2", "B2", "G2", "A1xA2"):
        d = build_root_system(label)
        for i, r in enumerate(d.roots):
            assert d.pair(r, d.coroots[i]) == 2
            for cv in d.coroots:
                assert d.pair(r, cv).denominator == 1


def test_identity_and_reflection_action():
    d = build_root_system("A2")
    w0 = weyl_group(d)[0]
    assert w0.perm == tuple(range(len(d.roots)))
    v = RatVec([3, Fraction(1, 2)])
    assert act(w0, v) == v
    i0 = d.simple[0]
    s = element_from_word(d, [i0], by_root_index=True)
    assert act(s, d.roots[i0]) == -d.roots[i0]
    # vectors on the fixed hyperplane stay put
    fixed = d.fund_coweights[1]
    assert d.pair(d.roots[i0], fixed) == 0
    assert act(s, fixed) == fixed


def test_action_dimension_mismatch():
    d2 = build_root_system("A2")
    d1 = build_root_system("A1")
    w = weyl_group(d2)[1]
    with pytest.raises(DimensionError):
        act(w, d1.roots[0])


def test_weyl_permutes_roots_and_preserves_form():
    rng = random.Random(7)
    for label in ("A2", "B2", "G2"):
        d = build_root_system(label)
        root_set = {r.coords for r in d.roots}
        for w in weyl_group(d):
            for r in d.roots:
                assert act(w, r).coords in root_set
            u = RatVec([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d.rank)])
            v = RatVec([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d.rank)])
            assert d.pair(act(w, u), act(w, v)) == d.pair(u, v)


def test_reduced_words_multiply_out():
    d = build_root_system("B2")
    for w in weyl_group(d):
        assert element_from_word(d, w.word) == w


def test_reflect_subgroup_orders():
    d = build_root_system("A2")
    sub = reflect_subgroup(d, [d.simple[0]])
    assert len(sub) == 2
    sub_all = reflect_subgroup(d, range(len(d.roots)))
    assert len(sub_all) == 6


def test_positive_roots_half():
    for label in ("A2", "B2", "G2", "A3"):
        d = build_root_system(label)
        assert len(d.pos_indices) * 2 == len(d.roots)


# ---------------------------------------------------------------------------
# root permutations against the matrix group they stand for

# the acceptance gate's rank <= 3 groups, plus one rank-4 product
PERM_GROUPS = (
    "A1", "A2", "A3", "B2", "C2", "G2",
    "A1xA1", "A1xA2", "A1xB2", "A1xC2", "A1xG2", "A1xA1xA1", "A1xA3",
)


def ref_reflection(d, i):
    """Matrix of the reflection in root i, from the form: e_j - <e_j, alpha_i^vee> alpha_i."""
    r = d.roots[i].coords
    cols = []
    for j in range(d.rank):
        e = RatVec(tuple(Fraction(int(k == j)) for k in range(d.rank)))
        c = d.pair(e, d.coroots[i])
        cols.append(tuple(x - c * y for x, y in zip(e.coords, r)))
    return transpose(mat(cols))


def ref_product(d, root_indices):
    m = identity(d.rank)
    for i in root_indices:
        m = mat_mul(m, ref_reflection(d, i))
    return m


def ref_closure(d, gens):
    """Breadth-first matrix closure: {matrix: first word of generator positions}."""
    ident = identity(d.rank)
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for k, g in enumerate(gens):
                p = mat_mul(m, g)
                if p not in seen:
                    seen[p] = seen[m] + (k,)
                    nxt.append(p)
        frontier = nxt
    return seen


@pytest.mark.parametrize("label", PERM_GROUPS)
def test_weyl_group_matches_matrix_bfs(label):
    d = build_root_system(label)
    ref = ref_closure(d, [ref_reflection(d, i) for i in d.simple])
    expected = sorted(ref.items(), key=lambda kv: (len(kv[1]), kv[0]))
    assert [(w.matrix, w.word) for w in weyl_group(d)] == expected
    assert [w.index for w in weyl_group(d)] == list(range(len(expected)))


@pytest.mark.parametrize("label", PERM_GROUPS)
def test_permutation_matches_matrix_and_cartan(label):
    d = build_root_system(label)
    for w in weyl_group(d):
        for i, r in enumerate(d.roots):
            assert mat_vec(w.matrix, r.coords) == d.roots[w.perm[i]].coords
    # s_j(alpha_i) = alpha_i - <alpha_i, alpha_j^vee> alpha_j, read through the Cartan integers
    for i, r in enumerate(d.roots):
        for j, cv in enumerate(d.coroots):
            assert d.roots[d.reflection_perms[j][i]] == r - d.pair(r, cv) * d.roots[j]


@st.composite
def group_and_roots(draw):
    d = build_root_system(draw(st.sampled_from(PERM_GROUPS)))
    idx = st.integers(0, len(d.roots) - 1)
    return d, draw(st.lists(idx, max_size=4)), draw(st.lists(idx, max_size=6))


@settings(max_examples=60, deadline=None)
@given(group_and_roots())
def test_subgroups_and_words_match_reflection_products(case):
    d, subset, word = case
    ref = ref_closure(d, [ref_reflection(d, i) for i in sorted(set(subset))])
    sub = reflect_subgroup(d, subset)
    assert {w.matrix for w in sub} == set(ref)
    assert [w.index for w in sub] == sorted(w.index for w in sub)
    assert element_from_word(d, word, by_root_index=True).matrix == ref_product(d, word)
    simple_word = [k % d.rank for k in word]
    expected = ref_product(d, [d.simple[k] for k in simple_word])
    assert element_from_word(d, simple_word).matrix == expected


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A1xA3"])
def test_float_gram_is_the_form_converted_once(label):
    d = build_root_system(label)
    assert d.float_gram == tuple(tuple(float(x) for x in row) for row in d.gram)
    assert d.float_gram is d.float_gram


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A1xA3"])
def test_float_row_is_the_inline_pairing_row(label):
    d = build_root_system(label)
    for v in list(d.roots) + list(d.coroots) + [d.rho_check]:
        inline = tuple(
            sum(float(d.gram[i][j]) * float(v.coords[j]) for j in range(d.rank)) for i in range(d.rank)
        )
        got = d.float_row(v)
        assert type(got) is tuple and got == inline
        assert all(a.hex() == b.hex() for a, b in zip(got, inline))


def test_float_row_is_built_once_per_dual_and_datum():
    first, second = build_root_system("G2"), build_root_system("G2")
    v = first.coroots[first.simple[0]]
    row = first.float_row(v)
    assert first.float_row(v) is row and first.float_row(RatVec(v.coords)) is row
    assert second.float_row(v) == row and second.float_row(v) is not row


# every supported type and every product of them up to the rank cap, and the override forms of test_overrides
PRODUCTS = [
    "x".join(combo)
    for k in range(1, MAX_RANK + 1)
    for combo in combinations_with_replacement(sorted(_SIMPLE_GRAM), k)
    if sum(len(_SIMPLE_GRAM[f]) for f in combo) <= MAX_RANK
]
OVERRIDES = [("A2", [["6", "-3"], ["-3", "6"]]), ("A2", [["1", "-1/2"], ["-1/2", "1"]])]


@pytest.mark.parametrize("label, gram", [(g, None) for g in PRODUCTS] + OVERRIDES)
def test_integer_reflection_perms_equal_the_cartan_table(label, gram):
    d = build_root_system(label, gram)
    assert d.reflection_perms == ref_reflection_perms(d)


@pytest.mark.parametrize("label, gram", [(g, None) for g in PRODUCTS] + OVERRIDES)
def test_weyl_matrix_is_the_integer_fraction_column_matrix(label, gram):
    """w.matrix is an integer matrix, equal to the Fraction matrix whose column j is w(alpha_{simple j})."""
    d = build_root_system(label, gram)
    for w in weyl_group(d):
        assert all(type(x) is int for row in w.matrix for x in row)
        assert w.matrix == ref_weyl_matrix(d, w)


# rationals with negative entries, non-unit denominators and plenty of zeros
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)
FORMS = [(g, None) for g in PRODUCTS] + OVERRIDES


@st.composite
def datum_and_vectors(draw, count):
    """A datum of every supported form and count(rank) rational vectors of its rank."""
    label, gram = draw(st.sampled_from(FORMS))
    d = build_root_system(label, gram)
    k = draw(count(d.rank))
    return d, [tuple(draw(st.lists(RATIONALS, min_size=d.rank, max_size=d.rank))) for _ in range(k)]


@settings(max_examples=60, deadline=None)
@given(datum_and_vectors(lambda rank: st.just(1)))
def test_act_is_the_fraction_matrix_product(case):
    d, (v,) = case
    for w in weyl_group(d):
        assert act(w, RatVec(v)).coords == mat_vec(ref_weyl_matrix(d, w), v)


@settings(max_examples=150, deadline=None)
@given(datum_and_vectors(lambda rank: st.just(2)))
def test_pair_is_the_fraction_form(case):
    d, (u, v) = case
    assert d.pair(RatVec(u), RatVec(v)) == ref_pair(d.gram, u, v)


def test_pair_length_mismatch_raises():
    d = build_root_system("A2")
    u, w = RatVec([1, 2]), RatVec([1, 2, 3])
    for a, b in [(u, w), (w, u), (RatVec.zero(2), w), (w, w)]:
        with pytest.raises(DimensionError):
            d.pair(a, b)


@settings(max_examples=150, deadline=None)
@given(datum_and_vectors(lambda rank: st.integers(0, rank + 1)))
@example((build_root_system("A2"), [(Fraction(1, 2), Fraction(0))]))
@example((build_root_system("A2", OVERRIDES[1][1]), [(Fraction(1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(1, 5))]))
def test_volume_sq_is_the_fraction_gram_determinant(case):
    """One integer Gram determinant of the vectors' rows over their denominators: the Fraction Gram
    determinant, 1 for no vectors and 0 for dependent ones."""
    d, vectors = case
    got = d.volume_sq([RatVec(v) for v in vectors])
    assert got == ref_gram_det(vectors, d.gram)
    assert type(got) is Fraction


# -- RatVec: integer numerators over their least positive denominator -------------------------------


def test_ratvec_over_reduces_and_makes_the_denominator_positive():
    v = RatVec.over((2, -4, 6), -4)
    assert (v.row, v.den) == ((-1, 2, -3), 2)
    assert v.coords == (Fraction(-1, 2), Fraction(1), Fraction(-3, 2)) and repr(v) == "(-1/2, 1, -3/2)"
    assert RatVec.over((3, 9), 3) == RatVec([1, 3]) and RatVec.over((3, 9), 3).den == 1
    for zero in (RatVec.over((0, 0), -7), RatVec.over((0, 0), 12), RatVec.zero(2), RatVec([0, Fraction(0, 5)])):
        assert (zero.row, zero.den) == ((0, 0), 1) and zero.is_zero()
    assert all(type(x) is int for x in RatVec([Fraction(1, 3), 2, "-5/6", 0.5]).row)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(*(st.lists(RATIONALS, min_size=n, max_size=n) for _ in range(2)))),
    RATIONALS,
    st.integers(-6, 6).filter(bool),
)
def test_ratvec_is_canonical_and_its_arithmetic_is_the_fraction_arithmetic(uv, c, k):
    u, v = uv
    a, b = RatVec(u), RatVec(v)
    row, den = int_row(u)
    # the same value by another route: numerators and denominator scaled by k, any sign
    again = RatVec.over([k * x for x in row], k * den)
    assert (a.row, a.den) == (tuple(row), den) == (again.row, again.den)
    assert a == again and hash(a) == hash(again) and a.coords == tuple(u)
    for got, want in ((a + b, vadd(u, v)), (a - b, vsub(u, v)), (-a, vscale(-1, u)), (c * a, vscale(c, u))):
        assert ((got.row,), got.den) == int_mat([want])
    assert (a + b) - b == a and a.floats() == tuple(float(x) for x in u)
