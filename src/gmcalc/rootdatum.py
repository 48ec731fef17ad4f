"""Root systems with exact coordinates, coroots and Weyl groups.

Roots are written in the basis of simple roots, so every root has integer
coordinates.  A single rational vector space V carries roots, coroots,
chamber points and spectral parameters alike; linear functionals are
represented by vectors through the invariant form: lam(H) = pair(lam, H).
The default form gives short roots squared length 2 per irreducible factor.

A Weyl element is identified by its permutation of the root indices:
``perm[i]`` is the index of w(alpha_i).  The reflection permutations come
from the integer Cartan table ``cartan[i][j] = <alpha_i, alpha_j^vee>``
through s_i(alpha_j) = alpha_j - cartan[j][i] alpha_i, and closure,
membership, products, inverses and commutation work on these integer
tuples.  The matrix of an element is derived from its permutation with no
arithmetic: column j is w(alpha_{simple j}), a root.  Each datum closes
its Weyl group once and indexes it by permutation, so every element that
any caller holds is one of the group's own objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionError, UnsupportedType
from .exactlin import (
    Mat,
    Vec,
    det,
    frac,
    mat,
    mat_mul,
    mat_vec,
    mat_inv,
    sym_pair,
    transpose,
    vadd,
    vec,
    vscale,
    vsub,
    zeros,
)

Perm = tuple[int, ...]


@dataclass(frozen=True)
class RatVec:
    """Point of the ambient rational space (or a functional on it via the form)."""

    coords: Vec

    @classmethod
    def of(cls, xs: Iterable) -> "RatVec":
        return cls(vec(xs))

    @classmethod
    def zero(cls, n: int) -> "RatVec":
        return cls(zeros(n))

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "RatVec") -> "RatVec":
        return RatVec(vadd(self.coords, other.coords))

    def __sub__(self, other: "RatVec") -> "RatVec":
        return RatVec(vsub(self.coords, other.coords))

    def __neg__(self) -> "RatVec":
        return RatVec(tuple(-x for x in self.coords))

    def __rmul__(self, c) -> "RatVec":
        return RatVec(vscale(frac(c), self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __repr__(self):
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


@dataclass(frozen=True, eq=False)
class WeylElement:
    """Root permutation, matrix on V, reduced word and position in weyl_group(d)."""

    perm: Perm
    matrix: Mat
    word: tuple[int, ...]
    index: int

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def __hash__(self):
        return hash(self.perm)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __repr__(self):
        w = "".join(f"s{i}" for i in self.word) or "e"
        return f"WeylElement({w})"


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation of the product p q (q acts first)."""
    return tuple(p[j] for j in q)


def invert(p: Perm) -> Perm:
    """The permutation of the inverse element."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _close(gens: Sequence[Perm], n: int) -> dict[Perm, tuple[int, ...]]:
    """Every product of the generators, breadth-first, with the first word reaching it."""
    ident = tuple(range(n))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for k, g in enumerate(gens):
                q = compose(p, g)
                if q not in words:
                    words[q] = words[p] + (k,)
                    nxt.append(q)
        frontier = nxt
    return words


# Symmetrized Cartan matrices, short roots of squared length 2.
_SIMPLE_GRAM = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[4, -2], [-2, 2]],
    "C2": [[2, -2], [-2, 4]],
    "G2": [[2, -3], [-3, 6]],
}

_WEYL_ORDER = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "G2": 12}

MAX_RANK = 4


class RootDatum:
    """Immutable container for a supported root system.

    roots and coroots are index-aligned; simple roots come first in the
    root list order only by accident, use .simple for their indices.
    """

    def __init__(self, label: str, gram: Mat, factors: list[str]):
        self.label = label
        self.gram = gram
        self.factors = factors
        self.rank = len(gram)
        self._build()
        self._validate()

    # -- construction ------------------------------------------------

    def _build(self):
        n = self.rank
        simple_vecs = [RatVec.of([1 if j == i else 0 for j in range(n)]) for i in range(n)]
        self._simple_mats = [self._reflection_in(v) for v in simple_vecs]
        roots = {v.coords for v in simple_vecs}
        frontier = list(roots)
        while frontier:
            nxt = []
            for r in frontier:
                for g in self._simple_mats:
                    img = mat_vec(g, r)
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
            frontier = nxt
        ordered = sorted(roots)
        self.roots: tuple[RatVec, ...] = tuple(RatVec(r) for r in ordered)
        self.coroots: tuple[RatVec, ...] = tuple(
            RatVec(vscale(Fraction(2) / sym_pair(self.gram, r.coords, r.coords), r.coords))
            for r in self.roots
        )
        index = {r.coords: i for i, r in enumerate(self.roots)}
        self.simple: tuple[int, ...] = tuple(index[v.coords] for v in simple_vecs)
        self._index = index
        # regular dominant point: pair(alpha_i, rho_check) = 1 for simple alpha_i
        srows = mat([mat_vec(self.gram, self.roots[i].coords) for i in self.simple])
        self.fund_coweights: tuple[RatVec, ...] = tuple(
            RatVec(col) for col in transpose(mat_inv(srows))
        )
        rho = RatVec.zero(n)
        for w in self.fund_coweights:
            rho = rho + w
        self.rho_check = rho
        self.pos_indices: tuple[int, ...] = tuple(
            i for i, r in enumerate(self.roots) if self.pair(r, rho) > 0
        )
        self.neg_of: dict[int, int] = {
            i: index[tuple(-x for x in r.coords)] for i, r in enumerate(self.roots)
        }

    def _reflection_in(self, root: RatVec) -> Mat:
        n = self.rank
        rr = sym_pair(self.gram, root.coords, root.coords)
        cols = []
        for j in range(n):
            e = tuple(Fraction(1) if k == j else Fraction(0) for k in range(n))
            c = Fraction(2) * sym_pair(self.gram, root.coords, e) / rr
            cols.append(vsub(e, vscale(c, root.coords)))
        return transpose(mat(cols))

    def _validate(self):
        # positive definite form
        for k in range(1, self.rank + 1):
            minor = tuple(row[:k] for row in self.gram[:k])
            if det(minor) <= 0:
                raise UnsupportedType(f"form is not positive definite for {self.label}")
        count = 0
        for f in self.factors:
            count += {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "C2": 8, "G2": 12}[f]
        if len(self.roots) != count:
            raise UnsupportedType(
                f"{self.label} generated {len(self.roots)} roots, expected {count};"
                " the form is not invariant for this type"
            )
        cartan = []
        for i, r in enumerate(self.roots):
            if self.pair(r, self.coroots[i]) != 2:
                raise UnsupportedType("alpha(coroot alpha) != 2")
            row = []
            for j in range(len(self.roots)):
                p = self.pair(r, self.coroots[j])
                if p.denominator != 1:
                    raise UnsupportedType("non-integral Cartan pairing; form not invariant?")
                row.append(p.numerator)
            cartan.append(tuple(row))
        # cartan[i][j] = <alpha_i, alpha_j^vee>
        self.cartan: tuple[tuple[int, ...], ...] = tuple(cartan)
        # integral pairings keep every root's coordinates integral
        coords = [tuple(x.numerator for x in r.coords) for r in self.roots]
        where = {c: k for k, c in enumerate(coords)}
        perms = []
        for i, ai in enumerate(coords):
            perm = []
            for j, aj in enumerate(coords):
                c = cartan[j][i]
                img = where.get(tuple(x - c * y for x, y in zip(aj, ai)))
                if img is None:
                    raise UnsupportedType("root set not closed under reflections")
                perm.append(img)
            perms.append(tuple(perm))
        # reflection_perms[i][j] is the index of s_{alpha_i}(alpha_j)
        self.reflection_perms: tuple[Perm, ...] = tuple(perms)
        for s in self._simple_mats:
            if mat_mul(mat_mul(transpose(s), self.gram), s) != self.gram:
                raise UnsupportedType("form not invariant under simple reflections")

    # -- basic queries -----------------------------------------------

    def pair(self, u: RatVec, v: RatVec) -> Fraction:
        if len(u) != self.rank or len(v) != self.rank:
            raise DimensionError(f"expected vectors of length {self.rank}")
        return sym_pair(self.gram, u.coords, v.coords)

    def root_index(self, v: RatVec) -> int | None:
        return self._index.get(v.coords)

    @cached_property
    def weyl(self) -> tuple[WeylElement, ...]:
        """All Weyl elements with reduced words, sorted by (length, matrix)."""
        words = _close([self.reflection_perms[i] for i in self.simple], len(self.roots))
        elems = []
        for perm, word in words.items():
            columns = [self.roots[perm[i]].coords for i in self.simple]
            elems.append((len(word), tuple(zip(*columns)), perm, word))
        elems.sort(key=lambda e: e[:2])
        assert len(elems) == self.weyl_order()
        return tuple(WeylElement(perm, m, word, k) for k, (_, m, perm, word) in enumerate(elems))

    @cached_property
    def _by_perm(self) -> dict[Perm, WeylElement]:
        return {w.perm: w for w in self.weyl}

    def element(self, perm: Perm) -> WeylElement:
        """The Weyl element with this root permutation."""
        return self._by_perm[perm]

    def subgroup(self, gens: Iterable[Perm]) -> tuple[WeylElement, ...]:
        """The subgroup generated by the given permutations, in weyl_group order."""
        words = _close(sorted(set(gens)), len(self.roots))
        return tuple(sorted((self._by_perm[p] for p in words), key=lambda w: w.index))

    def weyl_order(self) -> int:
        n = 1
        for f in self.factors:
            n *= _WEYL_ORDER[f]
        return n

    def describe_roots(self) -> list[str]:
        return [f"{i}: {r} (coroot {self.coroots[i]})" for i, r in enumerate(self.roots)]

    def __repr__(self):
        return f"RootDatum({self.label}, {len(self.roots)} roots)"


def build_root_system(label: str, gram_override: Sequence[Sequence] | None = None) -> RootDatum:
    """Construct a supported root system; labels are products like "A2" or "A1xB2"."""
    factors = label.split("x")
    blocks = []
    for f in factors:
        if f not in _SIMPLE_GRAM:
            raise UnsupportedType(f"unknown type {f!r}; supported: {sorted(_SIMPLE_GRAM)}")
        blocks.append(_SIMPLE_GRAM[f])
    rank = sum(len(b) for b in blocks)
    if rank > MAX_RANK:
        raise UnsupportedType(f"total rank {rank} exceeds the supported cap {MAX_RANK}")
    gram_rows = [[Fraction(0)] * rank for _ in range(rank)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                gram_rows[off + i][off + j] = Fraction(b[i][j])
        off += k
    if gram_override is not None:
        if len(gram_override) != rank or any(len(r) != rank for r in gram_override):
            raise UnsupportedType("gram override has wrong shape")
        gram_rows = [[frac(x) for x in row] for row in gram_override]
        m = mat(gram_rows)
        if m != transpose(m):
            raise UnsupportedType("gram override must be symmetric")
    return RootDatum(label, mat(gram_rows), factors)


def weyl_group(d: RootDatum) -> tuple[WeylElement, ...]:
    """All Weyl elements with reduced words, breadth-first by length."""
    return d.weyl


def act(w: WeylElement, v: RatVec) -> RatVec:
    if len(w.matrix) != len(v):
        raise DimensionError("Weyl element and vector of different dimensions")
    return RatVec(mat_vec(w.matrix, v.coords))


def element_from_word(d: RootDatum, word: Sequence[int], by_root_index: bool = False) -> WeylElement:
    """Product of reflections; indices are simple-root positions, or root indices if flagged."""
    perm = tuple(range(len(d.roots)))
    for i in word:
        perm = compose(perm, d.reflection_perms[i if by_root_index else d.simple[i]])
    return d.element(perm)


def reflect_subgroup(d: RootDatum, root_indices: Iterable[int]) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections in the given roots."""
    return d.subgroup(d.reflection_perms[i] for i in root_indices)
