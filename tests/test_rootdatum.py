import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcalc.errors import DimensionError, UnsupportedType
from gmcalc.exactlin import identity, mat, mat_mul, mat_vec, transpose
from gmcalc.rootdatum import (
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
        build_root_system("F4")
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
    assert w0.is_identity()
    v = RatVec.of([3, Fraction(1, 2)])
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
            u = RatVec.of([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d.rank)])
            v = RatVec.of([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d.rank)])
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
    for i, r in enumerate(d.roots):
        for j, cv in enumerate(d.coroots):
            assert d.cartan[i][j] == d.pair(r, cv)


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
