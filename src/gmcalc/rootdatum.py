"""Root systems with exact coordinates, coroots and Weyl groups.

Roots are written in the basis of simple roots, so every root has integer
coordinates: the simple reflections close them on integer rows, and a form
whose Cartan pairings are not integers, or that yields more roots than its
type has, is rejected as soon as that shows.  A single rational vector
space V carries roots, coroots, chamber points and spectral parameters
alike; linear functionals are represented by vectors through the invariant
form: lam(H) = pair(lam, H).  Each of them is a ``RatVec``: integer
numerators over their least positive denominator, which every exact kernel
reads as they are; ``Fraction``s are derived from them only for report
strings.
The default form gives short roots squared length 2 per irreducible factor.

A Weyl element is identified by its permutation of the root indices:
``perm[i]`` is the index of w(alpha_i).  The reflection permutations are
read off the integer root rows and forms f_i (``root_forms``) through
s_i(alpha_j) = alpha_j - (2 f_i.alpha_j / f_i.alpha_i) alpha_i, integral
once the closure has passed, and closure, membership, products, inverses
and commutation work on these integer tuples.  The matrix of an element is
an integer matrix derived from its permutation with no arithmetic: column j
is the root row of w(alpha_{simple j}).  Each datum closes its Weyl group
once and indexes it by permutation, so every element that any caller holds
is one of the group's own objects.

Every exact kernel of the datum reads integer forms: an element acts on
integer numerators through its matrix (``exactlin.int_mat_vec``; ``act``
wraps that for rational points), the form and the forms S alpha of the
roots are integer rows over one denominator (``int_gram``, ``root_forms``),
which every reflection, every sign test of a root wall, the coroots,
``pair`` and the Gram determinants of ``volume_sq`` read, and, built on
first use, the Weyl orbit of rho_check is kept over one denominator
(``rho_orbit``).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, wraps
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import DimensionError, NotARoot, UnsupportedType
from .exactlin import (
    Mat,
    Vec,
    idot,
    int_det,
    int_gram_det,
    int_least,
    int_mat,
    int_mat_vec,
    int_row,
    ratio_vec,
    solve,
)

Perm = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


def kept(fn: Callable) -> Callable:
    """fn(owner, *args), built on first use and kept in ``owner.kept``, keyed by the function and the
    arguments: the one rule by which a datum or a Levi keeps the facts other modules derive from it.
    A build that raises keeps nothing."""

    @wraps(fn)
    def keep(owner, *args):
        key = (keep, *args)
        got = owner.kept.get(key, keep)  # keep itself is no fact: it marks one not built yet
        if got is keep:
            got = owner.kept[key] = fn(owner, *args)
        return got

    return keep


class RatVec:
    """Point of the ambient rational space (or a functional on it via the form): integer numerators ``row``
    over their least positive denominator ``den``.

    That form is canonical, so equality and hashing read ``(row, den)``, and
    ``+``, ``-``, negation and scalar ``*`` work on integers.  The constructor
    takes rationals from callers; the package builds vectors from integer rows
    with ``over``.  ``coords`` derives the ``Fraction``s for report strings, and
    ``floats`` the float coordinates, x / den for x in row, which are bitwise
    those of the ``Fraction``s (int true division is correctly rounded).
    """

    __slots__ = ("row", "den")

    def __init__(self, xs: Iterable):
        row, self.den = int_row(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs)
        self.row = tuple(row)

    @classmethod
    def over(cls, row: Iterable[int], den: int) -> "RatVec":
        """The vector with these integer numerators over a nonzero den, reduced and with den made positive."""
        v = cls.__new__(cls)
        (v.row,), v.den = int_least((tuple(row),), den)
        return v

    @classmethod
    def zero(cls, n: int) -> "RatVec":
        return cls.over((0,) * n, 1)

    @property
    def coords(self) -> Vec:
        return ratio_vec(self.row, self.den)

    def floats(self) -> tuple[float, ...]:
        return tuple(x / self.den for x in self.row)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.row == other.row and self.den == other.den

    def __hash__(self):
        return hash((self.row, self.den))

    def __len__(self):
        return len(self.row)

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "RatVec") -> "RatVec":
        a, b = self.den, other.den
        return RatVec.over([x * b + y * a for x, y in zip(self.row, other.row, strict=True)], a * b)

    def __sub__(self, other: "RatVec") -> "RatVec":
        return self + -other

    def __neg__(self) -> "RatVec":
        return RatVec.over([-x for x in self.row], self.den)

    def __rmul__(self, c) -> "RatVec":
        n, m = Fraction(c).as_integer_ratio()
        return RatVec.over([n * x for x in self.row], m * self.den)

    def is_zero(self) -> bool:
        return not any(self.row)

    def __repr__(self):
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


class WeylElement:
    """Root permutation, integer matrix on V in the simple-root basis, reduced word and position in
    weyl_group(d)."""

    __slots__ = ("perm", "matrix", "word", "index")

    def __init__(self, perm: Perm, matrix: IntRows, word: tuple[int, ...], index: int):
        self.perm, self.matrix, self.word, self.index = perm, matrix, word, index

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
_ROOT_COUNT = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "C2": 8, "G2": 12}

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
        self.kept: dict[tuple, object] = {}  # facts other modules derive from the datum (``kept``)
        # before the build: on another form a root has length 0 or the reflections generate without end
        rows, _ = self.int_gram
        for k in range(1, self.rank + 1):
            if int_det([row[:k] for row in rows[:k]]) <= 0:
                raise UnsupportedType(f"form is not positive definite for {label}")
        self._build()

    # -- construction ------------------------------------------------

    def _build(self):
        n = self.rank
        gram, den = self.int_gram
        expected = sum(_ROOT_COUNT[f] for f in self.factors)
        # s_i(v) = v - <v, alpha_i^vee> e_i moves coordinate i alone, by an integer on an invariant form
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(n):
                    c, rem = divmod(2 * idot(gram[i], v), gram[i][i])
                    if rem:
                        raise UnsupportedType("non-integral Cartan pairing; form not invariant?")
                    img = v[:i] + (v[i] - c,) + v[i + 1:]
                    if img not in roots:
                        roots.add(img)
                        nxt.append(img)
                        if len(roots) > expected:
                            raise UnsupportedType(
                                f"{self.label} generated more than {expected} roots;"
                                " the form is not invariant for this type"
                            )
            frontier = nxt
        if len(roots) != expected:
            raise UnsupportedType(
                f"{self.label} generated {len(roots)} roots, expected {expected};"
                " the form is not invariant for this type"
            )
        self.root_rows: tuple[tuple[int, ...], ...] = tuple(sorted(roots))
        self.roots: tuple[RatVec, ...] = tuple(RatVec.over(r, 1) for r in self.root_rows)
        self.coroots: tuple[RatVec, ...] = tuple(
            RatVec.over([2 * den * x for x in a], idot(f, a)) for f, a in zip(self.root_forms, self.root_rows)
        )
        index = {r: i for i, r in enumerate(self.root_rows)}
        self.simple: tuple[int, ...] = tuple(index[v] for v in simple)
        # regular dominant point: pair(alpha_i, rho_check) = 1 for alpha_i = e_i; the coweights are (T/den)^-1 = den T^-1
        inv, inv_den, _ = solve(gram, simple)
        self.fund_coweights: tuple[RatVec, ...] = tuple(RatVec.over([den * x for x in col], inv_den) for col in zip(*inv))
        self.rho_check = RatVec.over([den * sum(row) for row in inv], inv_den)  # the sum of the coweights
        self.pos_indices: tuple[int, ...] = tuple(
            i for i, r in enumerate(self.roots) if self.pair(r, self.rho_check) > 0
        )
        self.neg_of: dict[int, int] = {
            i: index[tuple(-x for x in r)] for i, r in enumerate(self.root_rows)
        }
        # reflection_perms[i][j] is the index of s_i(alpha_j) = alpha_j - (2 f_i.alpha_j / f_i.alpha_i) alpha_i
        perms = []
        for f, ai in zip(self.root_forms, self.root_rows):
            cs = [2 * idot(f, aj) // idot(f, ai) for aj in self.root_rows]
            perms.append(tuple(index[tuple(x - c * y for x, y in zip(aj, ai))] for c, aj in zip(cs, self.root_rows)))
        self.reflection_perms: tuple[Perm, ...] = tuple(perms)

    # -- basic queries -----------------------------------------------

    def pair(self, u: RatVec, v: RatVec) -> Fraction:
        if len(u.row) != self.rank or len(v.row) != self.rank:
            raise DimensionError(f"expected vectors of length {self.rank}")
        gram, den = self.int_gram
        return Fraction(idot(int_mat_vec(gram, u.row), v.row), den * u.den * v.den)

    def volume_sq(self, vectors: Sequence[RatVec]) -> Fraction:
        """The squared volume of the parallelotope on the vectors, det of their Gram matrix under the form
        (1 for none): the integer Gram determinant of their rows over s^k prod den_i^2, with s the form's
        denominator."""
        gram, den = self.int_gram
        rows = [v.row for v in vectors]
        scale = den ** len(rows) * prod(v.den for v in vectors) ** 2
        return Fraction(int_gram_det(rows, [int_mat_vec(gram, r) for r in rows]), scale)

    @cached_property
    def float_gram(self) -> tuple[tuple[float, ...], ...]:
        """The form as floats, each entry converted once for every float pairing of the datum."""
        return tuple(tuple(map(float, row)) for row in self.gram)

    @kept
    def float_row(self, v: RatVec) -> tuple[float, ...]:
        """The pairing lam -> <lam, v> as a float row in ambient coordinates, built once per v."""
        vf = v.floats()
        return tuple(sum(g * x for g, x in zip(row, vf)) for row in self.float_gram)

    @cached_property
    def weyl(self) -> tuple[WeylElement, ...]:
        """All Weyl elements with reduced words, sorted by (length, matrix); column j of a matrix is the
        root row of w(alpha_{simple j})."""
        words = _close([self.reflection_perms[i] for i in self.simple], len(self.roots))
        elems = []
        for perm, word in words.items():
            elems.append((len(word), tuple(zip(*(self.root_rows[perm[i]] for i in self.simple))), perm, word))
        elems.sort(key=lambda e: e[:2])
        assert len(elems) == self.weyl_order()
        return tuple(WeylElement(perm, m, word, k) for k, (_, m, perm, word) in enumerate(elems))

    @cached_property
    def int_gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The form as integer rows over one positive denominator."""
        return int_mat(self.gram)

    @cached_property
    def root_forms(self) -> tuple[tuple[int, ...], ...]:
        """The forms S alpha of the roots, in root order, as integer rows over ``int_gram``'s denominator."""
        gram, _ = self.int_gram
        return tuple(int_mat_vec(gram, r) for r in self.root_rows)

    @cached_property
    def rho_orbit(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The points w(rho_check), w in weyl order, as integer rows over one positive denominator.

        Column j of w is the root w(alpha_{simple j}), so each row is an
        integer combination of root coordinates.
        """
        rho = self.rho_check
        return tuple(int_mat_vec(w.matrix, rho.row) for w in self.weyl), rho.den

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
    gram_rows = [[0] * rank for _ in range(rank)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                gram_rows[off + i][off + j] = b[i][j]
        off += k
    if gram_override is not None:
        if len(gram_override) != rank or any(len(r) != rank for r in gram_override):
            raise UnsupportedType("gram override has wrong shape")
        gram_rows = gram_override
    gram = tuple(tuple(Fraction(x) for x in row) for row in gram_rows)
    if gram != tuple(zip(*gram)):
        raise UnsupportedType("gram override must be symmetric")
    return RootDatum(label, gram, factors)


def weyl_group(d: RootDatum) -> tuple[WeylElement, ...]:
    """All Weyl elements with reduced words, breadth-first by length."""
    return d.weyl


def act(w: WeylElement, v: RatVec) -> RatVec:
    if len(w.matrix) != len(v):
        raise DimensionError("Weyl element and vector of different dimensions")
    return RatVec.over(int_mat_vec(w.matrix, v.row), v.den)


def element_from_word(d: RootDatum, word: Sequence[int], by_root_index: bool = False) -> WeylElement:
    """Product of reflections; indices are simple-root positions, or root indices if flagged."""
    bound = len(d.roots) if by_root_index else d.rank
    entries = list(word) if isinstance(word, Iterable) else None
    if entries is None or any(type(i) is not int or not 0 <= i < bound for i in entries):
        kind = "root indices" if by_root_index else "simple-root positions"
        raise NotARoot(f"a word is a list of {kind} 0..{bound - 1}, got {word!r}")
    perm = tuple(range(len(d.roots)))
    for i in entries:
        perm = compose(perm, d.reflection_perms[i if by_root_index else d.simple[i]])
    return d.element(perm)


def reflect_subgroup(d: RootDatum, root_indices: Iterable[int]) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections in the given roots; kept per datum and tuple of indices."""
    return _reflect_subgroup(d, tuple(root_indices))


@kept
def _reflect_subgroup(d: RootDatum, roots: tuple[int, ...]) -> tuple[WeylElement, ...]:
    return d.subgroup(d.reflection_perms[i] for i in roots)
