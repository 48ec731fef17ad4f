"""Levi poset, parabolic chambers, theta normalizations and splitting constants.

A Levi subgroup containing the fixed minimal one is identified with the flat
a_L of the root hyperplane arrangement (its split-center subspace) together
with the set of roots vanishing on it.  ``Levi.rows`` and ``Levi.den`` hold
the flat's one basis, its reduced row echelon form, as integer rows over
their least positive denominator.  Parabolic sets P(M) are realized as the
chambers of the restricted root arrangement on a_M.

This module is the one place that derives these objects and answers
questions about them, and each is built once and kept on its owner by
``rootdatum.kept``: the lattice of Levi subgroups on the RootDatum; the
coordinate map and projector, projected roots, projected rho_check orbit,
rays, chambers, hull-limit frame, relative bases and splitting constants on
the Levi.  Each ray keeps its dual and its form, and ``-ray`` is its other side
with that side's dual and form.  Each chamber keeps the sign pattern of the
rays on it: ``theta`` reads each wall ray on the chamber's side by that sign,
and ``chamber_at`` finds a point's chamber by that pattern.  ``rays_in(L1, S)``
lists the rays of a_L1 vanishing on a_S.  There is no module-level cache, so
two data built from the same label own separate lattices.

Each flat runs one Gram solve (``coord_map``), and every projection onto
it is read off that solve's integer projector (``flat_projector``): the
projected roots, the projected rho_check orbit, the pole directions of the
contour plan and, as P_M - P_S (``rel_projector``), the duals of the splitting
sum and the relative bases of the splitting constants.

Three facts come from one integer route each, on rows over one positive
denominator (``RatVec.row`` over ``RatVec.den``): the signs of root or ray
walls at a point from ``form_signs``, over the forms of
``RootDatum.root_forms`` and
``Ray.form`` (S times the ray's direction), the basis coordinates of a
point of a flat (or None off it) from its ``coord_map``, and the projection
of every root from ``projected_roots``, which the rays and the cell maps
both read.  The projected orbit, from which ``chamber_witnesses`` picks the
chambers' witnesses, the pairing row of lam0, and theta's dual forms and
covolumes (``theta_frame``) are integer rows too.

Splitting constants read the lattice before any Gram matrix: each Levi
keeps the tuple of Levis above it (``enumerate_levis``), the join of L and
S is the first Levi above both (its flat is a_L meet a_S), and
d_L1^upper(L, S) is zero unless that join is upper.  Only a nonzero d takes
Gram determinants, on integer rows of the relative bases kept on the Levi.
``trand_check`` reads the same rule: of the splitting sum over uppers it
evaluates the one term at the join.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionError, IncompleteInput, InternalInconsistency, NotComparable
from .exactlin import (
    idot,
    int_gram_det,
    int_least,
    int_mat_vec,
    int_primitive,
    int_row,
    rref,
    solve,
)
from .rootdatum import IntRows, RatVec, RootDatum, WeylElement, kept, weyl_group


class QuadConst:
    """A real number with rational square, compared exactly on (sign, square)."""

    __slots__ = ("square", "sign")

    def __init__(self, square: Fraction, sign: int):
        self.square, self.sign = square, sign

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.square == other.square and self.sign == other.sign

    def __hash__(self):
        return hash((self.square, self.sign))

    @classmethod
    def from_square(cls, sq: Fraction, sign: int = 1) -> "QuadConst":
        sq = sq if isinstance(sq, Fraction) else Fraction(sq)
        if sq.numerator < 0:
            raise ValueError("square must be nonnegative")
        if not sq.numerator or not sign:
            return _ZERO
        return cls(sq, 1 if sign > 0 else -1)

    def __mul__(self, other: "QuadConst") -> "QuadConst":
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self.sign or not other.sign:
            return _ZERO
        return QuadConst(self.square * other.square, self.sign * other.sign)

    def is_zero(self) -> bool:
        return self.sign == 0

    def rational(self) -> Fraction | None:
        """The exact value when its square is the square of a rational, else None."""
        num, den = self.square.numerator, self.square.denominator
        rn, rd = isqrt(num), isqrt(den)
        return Fraction(self.sign * rn, rd) if rn * rn == num and rd * rd == den else None

    def __float__(self) -> float:
        return self.sign * float(self.square) ** 0.5

    def __repr__(self):
        if self.sign == 0:
            return "QuadConst(0)"
        s = "-" if self.sign < 0 else ""
        return f"QuadConst({s}sqrt({self.square}))"


_ZERO = QuadConst(Fraction(0), 0)  # the one zero, which every constructor and product hands out


class Levi:
    """A flat of the root arrangement: its RREF basis as integer rows over their least positive denominator
    (``rows`` over ``den``) plus the roots vanishing on it.

    Objects read off the flat are built on first use and kept in ``kept``
    (``rootdatum.kept``): the integer projector onto a_L, read off the
    coordinate map's one Gram solve, the projected roots and rho_check
    orbit, the restricted rays, the parabolic chambers, the Levis above it,
    the integer rows of the bases relative to upper flats, the splitting
    constants d_L1 and the splitting-sum terms with this flat as L1, and the
    hull-limit frame: the integer map proj o w of each chamber's Weyl cell,
    the adjacent chamber pairs with integer wall directions and their pivots,
    the integer basis coordinate map with its Gram determinant, per chamber
    the integer wall forms, sign and covolume that ``theta`` reads, per limit
    direction the integer rows of a generic lam0's pairings and of the chamber
    scales read off ``theta``, and the faces of the M-hull with a pulling
    triangulation and its wedge steps (``gmfamily._hull_plan``) read off them.
    """

    def __init__(self, datum: RootDatum, rows: IntRows, den: int, root_subset: frozenset[int]):
        self.datum = datum
        self.rows, self.den = rows, den
        self.root_subset = root_subset
        self.dim = len(rows)
        self.kept: dict[tuple, object] = {}
        positive = set(datum.pos_indices)
        pos = sorted(i for i in root_subset if i in positive)
        if not root_subset:
            self.label = "M0"
        elif len(root_subset) == len(datum.roots):
            self.label = "G"
        else:
            self.label = "L" + ".".join(str(i) for i in pos)

    @property
    def key(self):
        return (self.datum.label, self.datum.gram, self.root_subset)

    def __hash__(self):
        return hash(self.root_subset)  # a frozenset keeps its hash

    def __eq__(self, other):
        return isinstance(other, Levi) and self.key == other.key

    def __repr__(self):
        return f"Levi({self.label}, dim {self.dim})"


class Ray(NamedTuple):
    """One +- pair of restricted-root rays on a_M, seen from one side.

    key and members name the pair; rep, dual and form are the side's.  The
    rays of restricted_rays are the + sides, and -ray is the - side.  key is
    the primitive integer row of the + side (``int_primitive``), by which every
    per-ray map is keyed; a member's multiple c is that of its projection over
    the projection's one denominator, of which only the sign is read.
    """

    key: tuple[int, ...]           # primitive direction of the + side
    rep: RatVec                    # reduced restricted root on this side
    dual: RatVec                   # 2 rep / <rep, rep>
    members: tuple[tuple[int, int], ...]   # (ambient root index, integer c with proj = c * key / den)
    form: tuple[int, ...]          # S times the side's primitive direction, over int_gram's denominator

    def __neg__(self) -> "Ray":
        return Ray(self.key, -self.rep, -self.dual, self.members, tuple(-x for x in self.form))


class ParabolicChamber:
    def __init__(
        self,
        levi: Levi,
        index: int,
        positive_roots: tuple[int, ...],
        chamber_point: RatVec,
        wall_rays: tuple[int, ...],
        signs: tuple[int, ...],
    ):
        self.levi = levi
        self.index = index
        self.positive_roots = positive_roots
        self.chamber_point = chamber_point
        self.wall_rays = wall_rays  # indices into restricted_rays(levi)
        self.signs = signs  # sign of each ray of restricted_rays(levi) on the chamber

    def __repr__(self):
        return f"ParabolicChamber({self.levi.label}#{self.index})"

    def __hash__(self):
        return hash((self.levi.root_subset, self.positive_roots))

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicChamber)
            and self.levi == other.levi
            and self.positive_roots == other.positive_roots
        )


class ThetaValue(NamedTuple):
    """Product of simple coroot pairings together with the covolume normalization."""

    product: Fraction
    covol: QuadConst

    def __float__(self) -> float:
        if self.covol.is_zero():
            raise ZeroDivisionError("degenerate normalization")
        return float(self.product) / float(self.covol)


def _vanishing_subset(d: RootDatum, rows: Sequence[Sequence[int]]) -> frozenset[int]:
    """The indices of the roots whose forms vanish on every integer row."""
    return frozenset(i for i, f in enumerate(d.root_forms) if not any(idot(f, b) for b in rows))


@kept
def levi_lattice(d: RootDatum) -> tuple[Levi, ...]:
    """All flats of the arrangement, i.e. all Levi subgroups containing M0; built once per datum.

    A flat with integer basis rows B meets the wall of a root with form f off it in the span of the rows
    v_p B_j - v_j B_p, j != p, where v_j = f . B_j and v_p is the first nonzero.  Each flat's RREF is taken once,
    on integer rows."""
    full = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
    flats = {_vanishing_subset(d, full): full}
    frontier = list(flats.items())
    while frontier:
        nxt = []
        for subset, rows in frontier:
            for i in d.pos_indices:
                if i in subset:
                    continue
                v = [idot(d.root_forms[i], b) for b in rows]
                p = next(j for j, x in enumerate(v) if x)
                meet = tuple(tuple(v[p] * x - v[j] * y for x, y in zip(b, rows[p])) for j, b in enumerate(rows) if j != p)
                new_subset = _vanishing_subset(d, meet)
                if new_subset not in flats:
                    flats[new_subset] = meet
                    nxt.append((new_subset, meet))
        frontier = nxt
    levis = [Levi(d, *rref(rows), subset) for subset, rows in flats.items()]
    levis.sort(key=lambda L: (-L.dim, sorted(L.root_subset)))
    return tuple(levis)


def mzero(d: RootDatum) -> Levi:
    return levi_lattice(d)[0]


def gfull(d: RootDatum) -> Levi:
    return levi_lattice(d)[-1]


def levi_by_label(d: RootDatum, label: str) -> Levi:
    for L in levi_lattice(d):
        if L.label == label:
            return L
    raise ValueError(f"no Levi labeled {label!r}; see `describe` output")


def contains(smaller: Levi, larger: Levi) -> bool:
    """Group containment: smaller <= larger."""
    return smaller.root_subset <= larger.root_subset


def enumerate_levis(d: RootDatum, lower: Levi | None = None) -> tuple[Levi, ...]:
    """The Levis containing lower (all of them when lower is None), in lattice order."""
    return levi_lattice(d) if lower is None else _uppers(lower)


@kept
def _uppers(lower: Levi) -> tuple[Levi, ...]:
    """The Levis containing lower, in lattice order; built once per Levi."""
    return tuple(L for L in levi_lattice(lower.datum) if contains(lower, L))


def _join(L: Levi, S: Levi) -> Levi:
    """The least Levi containing L and S: the one whose flat is a_L meet a_S.

    Every Levi containing both has its flat inside a_L meet a_S, so the join
    is the common upper of largest dimension, the first in lattice order.
    """
    return next(U for U in enumerate_levis(L.datum, L) if contains(S, U))


def conjugate_levi(w: WeylElement, L: Levi) -> Levi:
    subset = frozenset(w.perm[i] for i in L.root_subset)
    for M in levi_lattice(L.datum):
        if M.root_subset == subset:
            return M
    raise InternalInconsistency("Weyl image of a flat is not a flat")


def group_rays(d: RootDatum, vectors: Iterable[tuple[int, Sequence[int]]], den: int) -> tuple[Ray, ...]:
    """Reduced rays through nonzero (root index, integer row) pairs, each row over den > 0, grouped in +- pairs.

    The rows are roots or their projections to a flat; each ray's
    representative is its shortest member, and rays come sorted by direction.
    A row is g times its ray's direction; rep and dual are built from g and the direction with ``RatVec.over``.
    """
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, v in vectors:
        key = int_primitive(v)
        j = next(k for k, x in enumerate(key) if x)
        groups.setdefault(key, []).append((i, v[j] // key[j]))
    gram, gram_den = d.int_gram
    rays = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key]))
        g = min(abs(x) for _, x in members)
        form = int_mat_vec(gram, key)
        rep = RatVec.over([g * x for x in key], den)
        dual = RatVec.over([2 * den * gram_den * x for x in key], g * idot(key, form))  # 2 rep / <rep, rep>
        rays.append(Ray(key, rep, dual, members, form))
    return tuple(rays)


@kept
def flat_projector(M: Levi) -> tuple[IntRows, int]:
    """The orthogonal projection onto a_M as integer rows over their least common positive denominator;
    built once per Levi from the coordinate map.

    With X = C / c the coordinate map and B = E / e the basis rows, the
    projection B^T X is E^T C / (e c), divided through by the gcd of its
    entries and e c.
    """
    cmap, _, lift, scale, _ = coord_map(M)
    cols = tuple(zip(*cmap)) or ((),) * len(lift)  # the columns of C, empty ones on a point flat
    return int_least([int_mat_vec(cols, row) for row in lift], scale)


@kept
def projected_orbit(M: Levi) -> tuple[IntRows, int]:
    """The distinct projections of the rho_check orbit onto a_M, sorted, as integer rows over one
    positive denominator; built once per Levi.  The orbit is deduplicated on its basis coordinates C x, and
    only the distinct ones are lifted to E^T C x, which is the projection times scale over its denominator."""
    cmap, _, lift, scale, _ = coord_map(M)
    den = flat_projector(M)[1]
    orbit, orbit_den = M.datum.rho_orbit
    ys = {int_mat_vec(cmap, x) for x in orbit}
    return tuple(sorted(tuple(v * den // scale for v in int_mat_vec(lift, y)) for y in ys)), den * orbit_den


@kept
def projected_roots(M: Levi) -> tuple[IntRows, int]:
    """The projections of the roots onto a_M, in root order, as integer rows over the projector's one
    positive denominator; built once per Levi."""
    proj, den = flat_projector(M)
    return tuple(int_mat_vec(proj, r) for r in M.datum.root_rows), den


@kept
def restricted_rays(M: Levi) -> tuple[Ray, ...]:
    """Reduced restricted-root rays on a_M, grouped in +- pairs; built once per Levi."""
    image, den = projected_roots(M)
    return group_rays(M.datum, ((i, p) for i, p in enumerate(image) if any(p)), den)


def rays_in(L1: Levi, S: Levi) -> list[Ray]:
    """The rays of a_L1 vanishing on a_S, for L1 <= S.

    a_S lies in a_L1, so a root pairs with a_S as its projection to a_L1
    does: a ray vanishes on a_S exactly when its member roots lie in S.
    """
    return [ray for ray in restricted_rays(L1) if ray.members[0][0] in S.root_subset]


def form_signs(d: RootDatum, forms: Iterable[Sequence[int]], x: Sequence[int]) -> tuple[int, ...]:
    """The sign of each form at the point with integer numerators x over any positive denominator: 1, -1,
    or 0 where the point lies on the form's wall.

    The forms are rows of ``d.root_forms`` or ``Ray.form``, integer rows over
    the form's one positive denominator, so the signs are those of the
    rational pairings.
    """
    if len(x) != d.rank:
        raise DimensionError(f"expected vectors of length {d.rank}")
    return tuple((p > 0) - (p < 0) for p in (idot(f, x) for f in forms))


def chamber_witnesses(M: Levi, rays: Sequence[Ray]) -> dict[tuple[int, ...], RatVec]:
    """Each chamber of the given ray arrangement on a_M, as its sign pattern with an interior witness.

    Witnesses are the projections of the Weyl-chamber points onto the flat:
    every chamber of the restricted arrangement of a flat contains such a
    projection (each parabolic contains a minimal one), and any sub-arrangement
    chamber contains a full-arrangement chamber.  This avoids any reflection
    closure assumption on the rays, which genuinely fails for intermediate
    flats.  Each chamber's witness is its least projection of rho_check's
    orbit, and the chambers come sorted by their witnesses' coordinates.
    With no rays the one chamber is the whole flat, witnessed by the sum of
    its basis rows (0 on a_G = 0), the row sums of ``coord_map``'s E^T.
    """
    d = M.datum
    if not rays:
        return {(): RatVec.over([sum(r) for r in coord_map(M)[2]], M.den)}
    orbit, den = projected_orbit(M)
    forms = [ray.form for ray in rays]
    best: dict[tuple[int, ...], RatVec] = {}
    for x in orbit:  # sorted, so each pattern first meets its least point, and in witness order
        key = form_signs(d, forms, x)
        if 0 not in key and key not in best:
            best[key] = RatVec.over(x, den)
    if not best:
        raise InternalInconsistency("no chamber witnesses found on the flat")
    return best


@kept
def parabolics(M: Levi) -> tuple[ParabolicChamber, ...]:
    """Chambers of the restricted arrangement on a_M; a single improper chamber for M = G.

    Built once per Levi, each chamber with its ray sign pattern.  Wall rays
    are recovered from sign adjacency: a ray is a wall of a chamber exactly
    when flipping its sign alone lands on another chamber.
    """
    rays = restricted_rays(M)
    witnesses = chamber_witnesses(M, rays)
    # a member root pairs with a chamber point as c times its ray's + side: (c < 0, c > 0) members per ray
    sides = [tuple(tuple(i for i, c in ray.members if (c > 0) == up) for up in (False, True)) for ray in rays]
    chambers = []
    for idx, (sig, pt) in enumerate(witnesses.items()):
        walls = tuple(k for k, s in enumerate(sig) if sig[:k] + (-s,) + sig[k + 1:] in witnesses)
        if len(walls) != M.dim:
            raise InternalInconsistency("parabolic chamber is not simplicial")
        pos = tuple(sorted(i for side, s in zip(sides, sig) for i in side[s > 0]))
        chambers.append(ParabolicChamber(M, idx, pos, pt, walls, sig))
    return tuple(chambers)


@kept
def adjacent_chambers(M: Levi) -> tuple[tuple[int, int, tuple[int, ...], int], ...]:
    """The chamber pairs i < j across one wall, each with the primitive integer direction of its wall ray
    signed positive on i and the index of that direction's first nonzero entry; built once per Levi."""
    by_signs = {P.signs: P.index for P in parabolics(M)}
    rays = restricted_rays(M)
    pairs = []
    for P in parabolics(M):
        for k in P.wall_rays:
            j = by_signs[P.signs[:k] + (-P.signs[k],) + P.signs[k + 1:]]
            if P.index < j:
                wall = tuple(P.signs[k] * x for x in rays[k].key)
                pairs.append((P.index, j, wall, next(f for f, x in enumerate(wall) if x)))
    return tuple(sorted(pairs, key=lambda pair: pair[:2]))


def chamber_at(M: Levi, point: RatVec) -> ParabolicChamber:
    """The chamber of P(M) whose stored ray signs the point has."""
    signs = form_signs(M.datum, [ray.form for ray in restricted_rays(M)], point.row)
    for P in parabolics(M):
        if P.signs == signs:
            return P
    # stored signs have no zeros: only a point on a wall matches no chamber
    raise IncompleteInput(f"point lies on a wall of the chambers of {M.label}")


def base_chamber(d: RootDatum) -> ParabolicChamber:
    """The minimal parabolic whose chamber contains the dominant regular point: its positive roots are
    the positive roots."""
    for P in parabolics(mzero(d)):
        if P.positive_roots == d.pos_indices:
            return P
    raise InternalInconsistency("dominant chamber not found")


def chamber_cells(M: Levi) -> dict[int, tuple[WeylElement, ...]]:
    """For each chamber of P(M), the Weyl elements w whose minimal parabolic it contains.

    A chamber with positive set Sigma_P admits w exactly when Sigma_P is
    contained in w(Sigma+).  Not every w qualifies for some chamber (for
    non-standard Levi subgroups the map is partial), but every chamber is
    reached by exactly |W_M| elements.
    """
    d = M.datum
    chambers = parabolics(M)
    by_pos = {P.positive_roots: P.index for P in chambers}
    nonzero = {i for ray in restricted_rays(M) for i, _ in ray.members}
    cells: dict[int, list[WeylElement]] = {P.index: [] for P in chambers}
    for w in weyl_group(d):
        img_pos = sorted(j for j in (w.perm[i] for i in d.pos_indices) if j in nonzero)
        idx = by_pos.get(tuple(img_pos))
        if idx is not None:
            cells[idx].append(w)
    expected = len(weyl_group(d)) // len(weyl_cosets(M))  # |W_M|, by Lagrange
    for idx, ws in cells.items():
        if len(ws) != expected:
            raise InternalInconsistency("chamber cell has unexpected size")
    return {idx: tuple(ws) for idx, ws in cells.items()}


@kept
def cell_maps(M: Levi) -> tuple[tuple[IntRows, ...], int]:
    """For each chamber of P(M) in order, the map proj_M o w, which every w in its cell shares; built once
    per Levi, raising InternalInconsistency where two elements of a cell give different maps.

    A map is kept as integer rows over the one denominator of the projector,
    returned with the maps: its column j is the projection of the root
    w(alpha_{simple j}).  Each projected root is one object, so comparing two
    equal maps column by column is mostly an identity test.
    """
    d = M.datum
    image, den = projected_roots(M)
    cells = chamber_cells(M)
    maps = []
    for P in parabolics(M):
        cols = [tuple(image[w.perm[i]] for i in d.simple) for w in cells[P.index]]
        if any(m != cols[0] for m in cols[1:]):
            raise InternalInconsistency("projection not constant on a chamber cell")
        maps.append(tuple(zip(*cols[0])))
    return tuple(maps), den


@kept
def hull_faces(M: Levi) -> tuple[tuple[ParabolicChamber, tuple[int, ...]], ...]:
    """The faces of the hull of a positive orthogonal set on P(M) as (Q, vertex indices), built once per Levi:
    per Q in P(L), L >= M in lattice order, the Y_P with P <= Q span a face of dimension dim a_M - dim a_L
    (Arthur, Ann. of Math. 114, 1981), which may collapse on a degenerate set."""
    chambers = [(P.index, set(P.positive_roots)) for P in parabolics(M)]
    return tuple(
        (Q, tuple(i for i, pos in chambers if pos.issuperset(Q.positive_roots)))
        for L in enumerate_levis(M.datum, lower=M) for Q in parabolics(L)
    )


@kept
def hull_simplices(M: Levi) -> tuple[tuple[int, ...], ...]:
    """A pulling triangulation of the M-hull read off ``hull_faces`` as vertex index tuples, built once per Levi:
    a face pulls its least vertex and cones it over the triangulations of its facets that miss it, the faces
    one dimension down whose vertices it holds.  The last face, G's, is the whole hull.  Faces are
    triangulated by dimension, each once, and each face's facets are found by one scan."""
    by_dim: dict[int, list[tuple[tuple[int, ...], list[tuple[int, ...]]]]] = {}  # (face, triangulation)
    for k, verts in sorted(((M.dim - Q.levi.dim, verts) for Q, verts in hull_faces(M)), key=lambda f: f[0]):
        held = set(verts)
        by_dim.setdefault(k, []).append((verts, [verts] if k == 0 else [
            (verts[0],) + s for facet, pulled in by_dim[k - 1]
            if facet[0] != verts[0] and held.issuperset(facet) for s in pulled
        ]))
    return tuple(by_dim[M.dim][-1][1])


@kept
def theta_frame(M: Levi) -> tuple[tuple[IntRows, int, int, QuadConst], ...]:
    """Per chamber of P(M) in order, what ``theta`` reads at every lam, built once per Levi on the integer
    rows of the duals, dual_k = D_k / e_k: the forms S D_k of its walls, the product of their signs on the
    chamber, q = prod s e_k (s the form's denominator), and the covolume, sqrt(det Gram(D) s^n) / q."""
    gram, s = M.datum.int_gram
    duals = [ray.dual for ray in restricted_rays(M)]
    forms = [int_mat_vec(gram, v.row) for v in duals]
    frame = []
    for P in parabolics(M):
        walls, q = tuple(forms[k] for k in P.wall_rays), prod(s * duals[k].den for k in P.wall_rays)
        covol_sq = Fraction(int_gram_det([duals[k].row for k in P.wall_rays], walls) * s ** len(walls), q * q)
        frame.append((walls, prod(P.signs[k] for k in P.wall_rays), q, QuadConst.from_square(covol_sq)))
    return tuple(frame)


def theta(P: ParabolicChamber, lam: RatVec) -> ThetaValue:
    """Normalized product of simple coroot pairings over the chamber's walls, read off ``theta_frame``: each
    wall ray is read on the chamber's side, its pairing times the chamber's stored sign, and the covolume, a
    Gram determinant, sees no sign.  The improper chamber (M = G) has no walls: 1 over covolume 1."""
    x, den = lam.row, lam.den
    if len(x) != P.levi.datum.rank:
        raise DimensionError(f"expected vectors of length {P.levi.datum.rank}")
    walls, num, q, covol = theta_frame(P.levi)[P.index]
    for f in walls:
        num *= idot(f, x)
    return ThetaValue(Fraction(num, q * den ** len(walls)), covol)


@kept
def coord_map(M: Levi) -> tuple[IntRows, int, IntRows, int, Fraction]:
    """The basis coordinate map of a_M in integer rows, its inverse check, and det G; built once per Levi
    from the flat's one Gram solve.

    With the basis rows B = E / e and the form S = T / s in integer rows,
    the rows F = E T give B S = F / (e s) and G = B S B^T = F E^T / (e^2 s),
    so one fraction-free solve of F E^T X' = F on integers gives the map
    X = G^-1 B S = e X' as C / c, X' = C' / c' reduced by g = gcd(e, c'), and
    det G = det(F E^T) / (e^2 s)^dim.  Returned: C, c, E^T, e c and det G.
    A point x of a_M has coordinates C x / c, and x lies in a_M exactly when
    E^T (C x) = e c x (``flat_coords``).  ``flat_projector`` reads the
    projection E^T C / (e c) off the same rows.
    """
    gram, s = M.datum.int_gram
    basis, e = M.rows, M.den
    forms = [int_mat_vec(gram, b) for b in basis]
    cmap, c, disc = solve([int_mat_vec(basis, f) for f in forms], forms)
    g = gcd(e, c)
    cmap, c = tuple(tuple(e // g * x for x in row) for row in cmap), c // g
    lift = tuple(tuple(row[k] for row in basis) for k in range(M.datum.rank))
    return cmap, c, lift, e * c, Fraction(disc, (e * e * s) ** M.dim)


def flat_coords(M: Levi, x: Sequence[int]) -> tuple[int, ...] | None:
    """C x: over c den, the basis coordinates of the point with integer numerators x over den; None off a_M."""
    cmap, _, lift, scale, _ = coord_map(M)
    y = int_mat_vec(cmap, x)
    return y if int_mat_vec(lift, y) == tuple(scale * a for a in x) else None


def _generic_direction(M: Levi, direction: RatVec | None) -> RatVec:
    forms = [ray.form for ray in restricted_rays(M)]
    base = parabolics(M)[0].chamber_point
    lam, step = base if direction is None else direction, Fraction(1, 97)
    for _ in range(64):
        if 0 not in form_signs(M.datum, forms, lam.row):
            return lam
        lam = lam + step * base
        step /= 97
    raise InternalInconsistency("no generic direction found")


@kept
def limit_frame(M: Levi, direction: RatVec | None) -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
    """The pairing row of a generic lam0 near the direction (None: the first chamber's point) and per chamber
    theta_P(lam0)^-1 / sqrt(det G), read off ``theta``; built once per direction.

    The pairing row S lam0 and the row of chamber scales are each integer rows over one positive denominator.
    A covolume is sqrt(det G) times the |det| of the simple duals in basis coordinates, so each scale is
    rational, and ``family_limit`` multiplies by sqrt(det G) once.
    """
    lam0 = _generic_direction(M, direction)
    det_g = coord_map(M)[-1]
    scales = []
    for P in parabolics(M):
        product, covol = theta(P, lam0)
        q = QuadConst(covol.square / det_g, 1).rational()
        if q is None:
            raise InternalInconsistency(f"covolume of {P!r} is not a rational multiple of sqrt(det G)")
        scales.append(q / product)
    gram, s = M.datum.int_gram
    nums, scale_den = int_row(scales)
    return (int_mat_vec(gram, lam0.row), s * lam0.den), (tuple(nums), scale_den)


def rel_projector(L: Levi, upper: Levi) -> tuple[list[list[int]], int]:
    """P_L - P_upper for a_upper in a_L, the projection onto the part of a_L orthogonal to a_upper, as
    integer rows over one positive denominator, read off the two kept projectors."""
    (pl, l_den), (pu, u_den) = flat_projector(L), flat_projector(upper)
    return [[a * u_den - b * l_den for a, b in zip(ra, rb)] for ra, rb in zip(pl, pu)], l_den * u_den


@kept
def _rel_rows(L: Levi, upper: Levi) -> tuple[IntRows, IntRows, int]:
    """The basis of the part of a_L orthogonal to a_upper (L's own basis for G): the RREF of the columns of
    ``rel_projector``, which span it, as integer rows whose one denominator d^2 does not see; their forms
    S row as integer rows over the form's denominator, and the integer Gram determinant of the rows; built
    once per upper."""
    gram, _ = L.datum.int_gram
    rows, _ = rref(list(zip(*rel_projector(L, upper)[0])))
    forms = tuple(int_mat_vec(gram, r) for r in rows)
    return rows, forms, int_gram_det(rows, forms)


def d_constant(L1: Levi, L: Levi, S: Levi, upper: Levi | None = None) -> QuadConst:
    """Splitting constant of the decomposition a_L (+) a_S = a_L1 relative to upper.

    Zero unless the parts of a_L and a_S orthogonal to a_upper are independent
    and of complementary dimension in that of a_L1; otherwise the absolute
    determinant of the sum map with respect to orthonormal bases, an exact
    square root of a rational.  Independence is a lattice fact (a_L meet a_S
    is a_upper), so a zero needs no Gram matrix.  None stands for upper = G
    (a_G = 0) and is replaced by G once, here, before the containment checks;
    the constant is kept on L1 by ``_split_constant``, which runs after them.
    """
    upper = gfull(L1.datum) if upper is None else upper
    for X in (L, S):
        if not contains(L1, X):
            raise NotComparable(f"{L1.label} is not contained in {X.label}")
        if not contains(X, upper):
            raise NotComparable(f"{X.label} is not contained in {upper.label}")
    return _split_constant(L1, L, S, upper)


@kept
def _split_constant(L1: Levi, L: Levi, S: Levi, upper: Levi) -> QuadConst:
    """d by the lattice, then by integer Gram determinants of the relative rows.

    The parts of a_L and a_S orthogonal to a_upper meet only in 0 exactly when
    their join is upper.  Then they span that part of a_L1 exactly when the
    dimensions add up, and d^2 is
    det Gram(L + S) / (det Gram(L) det Gram(S)), which no rescaling of a row
    changes, so the rows are read without their denominator and the form
    over its one denominator.
    """
    if _join(L, S) != upper or L.dim + S.dim != L1.dim + upper.dim:
        return _ZERO
    rows_l, forms_l, det_l = _rel_rows(L, upper)
    rows_s, forms_s, det_s = _rel_rows(S, upper)
    num = int_gram_det(rows_l + rows_s, forms_l + forms_s)
    return QuadConst(Fraction(num, det_l * det_s), 1)


def trand_check(d: RootDatum) -> Iterator[tuple[tuple[str, ...], QuadConst, QuadConst, bool]]:
    """Exhaustive exact check of the composition identity for splitting constants.

    For every chain M1 <= M, M1 <= S1, G1 >= S1 the constant d_{M1}(M, G1)
    must equal the sum over S >= M, S >= S1 of d_{M1}^S(M, S1) d_{S1}(S, G1).
    Its first factor is zero unless S is the join J of M and S1, so the sum
    is the one term d_{M1}^J(M, S1) d_{S1}(J, G1), which keeps the comparison
    exact; ``test_split_constants_equal_the_gram_reference`` checks that the
    other first factors vanish.  Yields (chain labels, lhs, rhs, ok) one
    chain at a time.
    """
    for m1 in levi_lattice(d):
        ups_m1 = enumerate_levis(d, lower=m1)
        for m in ups_m1:
            for s1 in ups_m1:
                join = _join(m, s1)
                first = d_constant(m1, m, s1, upper=join)  # no G1 changes it
                for g1 in enumerate_levis(d, lower=s1):
                    lhs = d_constant(m1, m, g1)
                    rhs = first if first.is_zero() else first * d_constant(s1, join, g1)
                    yield (m1.label, m.label, s1.label, g1.label), lhs, rhs, rhs == lhs


def weyl_cosets(L: Levi) -> list[WeylElement]:
    """Minimal-length representatives of the cosets w W_L, in weyl_group order: w is the one of least length
    in w W_L exactly when it keeps every positive root of L positive (Dyer, J. Algebra 135, 1990)."""
    positive = set(L.datum.pos_indices)
    roots = [i for i in L.root_subset if i in positive]
    return [w for w in weyl_group(L.datum) if all(w.perm[i] in positive for i in roots)]
