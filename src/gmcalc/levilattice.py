"""Levi poset, parabolic chambers, theta normalizations and splitting constants.

A Levi subgroup containing the fixed minimal one is identified with the flat
a_L of the root hyperplane arrangement (its split-center subspace) together
with the set of roots vanishing on it.  Parabolic sets P(M) are realized as
the chambers of the restricted root arrangement on a_M.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalInconsistency, NotComparable
from .exactlin import (
    Mat,
    Vec,
    coords_in_basis,
    gram_det,
    kernel,
    mat,
    mat_vec,
    primitive_ray,
    projector,
    rank as mat_rank,
    rref,
    solve,
    transpose,
    vadd,
    vscale,
    zeros,
)
from .rootdatum import RatVec, RootDatum, WeylElement, act, compose, reflect_subgroup, weyl_group


@dataclass(frozen=True)
class QuadConst:
    """A real number with rational square, compared exactly on (sign, square)."""

    square: Fraction
    sign: int

    @classmethod
    def zero(cls) -> "QuadConst":
        return cls(Fraction(0), 0)

    @classmethod
    def one(cls) -> "QuadConst":
        return cls(Fraction(1), 1)

    @classmethod
    def from_square(cls, sq: Fraction, sign: int = 1) -> "QuadConst":
        sq = Fraction(sq)
        if sq < 0:
            raise ValueError("square must be nonnegative")
        if sq == 0 or sign == 0:
            return cls.zero()
        return cls(sq, 1 if sign > 0 else -1)

    @classmethod
    def from_rational(cls, q: Fraction) -> "QuadConst":
        q = Fraction(q)
        if q == 0:
            return cls.zero()
        return cls(q * q, 1 if q > 0 else -1)

    def __mul__(self, other: "QuadConst") -> "QuadConst":
        return QuadConst.from_square(self.square * other.square, self.sign * other.sign)

    def scale(self, q: Fraction) -> "QuadConst":
        q = Fraction(q)
        return QuadConst.from_square(self.square * q * q, self.sign * (1 if q > 0 else (-1 if q < 0 else 0)))

    def is_zero(self) -> bool:
        return self.sign == 0

    def __float__(self) -> float:
        return self.sign * float(self.square) ** 0.5

    def __repr__(self):
        if self.sign == 0:
            return "QuadConst(0)"
        s = "-" if self.sign < 0 else ""
        return f"QuadConst({s}sqrt({self.square}))"


class Levi:
    """A flat of the root arrangement: basis of a_L plus the roots vanishing on it."""

    def __init__(self, datum: RootDatum, basis: tuple[RatVec, ...], root_subset: frozenset[int]):
        self.datum = datum
        self.basis = basis
        self.root_subset = root_subset
        self.dim = len(basis)
        self._rel_bases: dict[frozenset[int] | None, tuple[Vec, ...]] = {}
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
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Levi) and self.key == other.key

    def __repr__(self):
        return f"Levi({self.label}, dim {self.dim})"

    def basis_rows(self) -> Mat:
        return tuple(b.coords for b in self.basis)


@dataclass(frozen=True)
class Ray:
    """One +- pair of restricted-root rays on a_M."""

    key: Vec                       # primitive direction of the + side
    rep: RatVec                    # reduced restricted root on the + side
    dual: RatVec                   # 2 rep / <rep, rep>
    members: tuple[tuple[int, Fraction], ...]   # (ambient root index, scalar c with proj = c * key)


class ParabolicChamber:
    def __init__(
        self,
        levi: Levi,
        index: int,
        positive_roots: tuple[int, ...],
        chamber_point: RatVec,
        wall_rays: tuple[int, ...] = (),
    ):
        self.levi = levi
        self.index = index
        self.positive_roots = positive_roots
        self.chamber_point = chamber_point
        self.wall_rays = wall_rays  # indices into restricted_rays(levi)

    def __repr__(self):
        return f"ParabolicChamber({self.levi.label}#{self.index})"

    def __hash__(self):
        return hash((self.levi.key, self.positive_roots))

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicChamber)
            and self.levi == other.levi
            and self.positive_roots == other.positive_roots
        )


@dataclass(frozen=True)
class ThetaValue:
    """Product of simple coroot pairings together with the covolume normalization."""

    product: Fraction
    covol: QuadConst

    def __float__(self) -> float:
        if self.covol.is_zero():
            raise ZeroDivisionError("degenerate normalization")
        return float(self.product) / float(self.covol)

    def quad(self) -> QuadConst:
        c = QuadConst.from_rational(self.product)
        return QuadConst.from_square(c.square / self.covol.square, c.sign * self.covol.sign)


_LATTICE_CACHE: dict[tuple[str, Mat], tuple[Levi, ...]] = {}
_RAY_CACHE: dict[tuple, tuple[Ray, ...]] = {}
_PARA_CACHE: dict[tuple, tuple[ParabolicChamber, ...]] = {}
_CELL_CACHE: dict[tuple, dict[WeylElement, int]] = {}


def _vanishing_subset(d: RootDatum, basis_rows: Sequence[Vec]) -> frozenset[int]:
    out = []
    for i, r in enumerate(d.roots):
        if all(d.pair(r, RatVec(b)) == 0 for b in basis_rows):
            out.append(i)
    return frozenset(out)


def levi_lattice(d: RootDatum) -> tuple[Levi, ...]:
    """All flats of the arrangement, i.e. all Levi subgroups containing M0."""
    cache_key = (d.label, d.gram)
    got = _LATTICE_CACHE.get(cache_key)
    if got is not None:
        return got
    n = d.rank
    full = tuple(tuple(Fraction(1) if j == i else Fraction(0) for j in range(n)) for i in range(n))
    flats: dict[frozenset[int], tuple[Vec, ...]] = {_vanishing_subset(d, full): full}
    frontier = [full]
    while frontier:
        nxt = []
        for basis_rows in frontier:
            k = len(basis_rows)
            if k == 0:
                continue
            for i in d.pos_indices:
                root = d.roots[i]
                row = tuple(d.pair(root, RatVec(b)) for b in basis_rows)
                if all(x == 0 for x in row):
                    continue
                ker = kernel([row], k)
                new_rows = []
                for kv in ker:
                    v = zeros(n)
                    for c, b in zip(kv, basis_rows):
                        v = vadd(v, vscale(c, b))
                    new_rows.append(v)
                new_basis = tuple(rref(new_rows)) if new_rows else ()
                subset = _vanishing_subset(d, new_basis)
                if subset not in flats:
                    flats[subset] = new_basis
                    nxt.append(new_basis)
        frontier = nxt
    levis = [Levi(d, tuple(RatVec(b) for b in basis), subset) for subset, basis in flats.items()]
    levis.sort(key=lambda L: (-L.dim, sorted(L.root_subset)))
    result = tuple(levis)
    _LATTICE_CACHE[cache_key] = result
    return result


def mzero(d: RootDatum) -> Levi:
    return levi_lattice(d)[0]


def gfull(d: RootDatum) -> Levi:
    return levi_lattice(d)[-1]


def levi_by_label(d: RootDatum, label: str) -> Levi:
    for L in levi_lattice(d):
        if L.label == label:
            return L
    raise KeyError(f"no Levi labeled {label!r}; see `describe` output")


def contains(smaller: Levi, larger: Levi) -> bool:
    """Group containment: smaller <= larger."""
    return smaller.root_subset <= larger.root_subset


def enumerate_levis(d: RootDatum, lower: Levi | None = None, upper: Levi | None = None) -> list[Levi]:
    if lower is not None and upper is not None and not contains(lower, upper):
        raise NotComparable("lower Levi is not contained in upper Levi")
    out = []
    for L in levi_lattice(d):
        if lower is not None and not contains(lower, L):
            continue
        if upper is not None and not contains(L, upper):
            continue
        out.append(L)
    return out


def conjugate_levi(w: WeylElement, L: Levi) -> Levi:
    d = L.datum
    subset = frozenset(w.perm[i] for i in L.root_subset)
    for M in levi_lattice(d):
        if M.root_subset == subset:
            return M
    raise InternalInconsistency("Weyl image of a flat is not a flat")


def restricted_rays(M: Levi) -> tuple[Ray, ...]:
    """Reduced restricted-root rays on a_M, grouped in +- pairs."""
    got = _RAY_CACHE.get(M.key)
    if got is not None:
        return got
    d = M.datum
    groups: dict[Vec, list[tuple[int, Fraction]]] = {}
    proj_m = projector(M.basis_rows(), d.gram)
    for i, r in enumerate(d.roots):
        proj = mat_vec(proj_m, r.coords)
        if all(x == 0 for x in proj):
            continue
        key = primitive_ray(proj)
        j = next(k for k, x in enumerate(key) if x != 0)
        c = proj[j] / key[j]
        groups.setdefault(key, []).append((i, c))
    rays = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key]))
        cmin = min(abs(c) for _, c in members)
        rep = RatVec(vscale(cmin, key))
        rr = d.pair(rep, rep)
        dual = RatVec(vscale(Fraction(2) / rr, rep.coords))
        rays.append(Ray(key=key, rep=rep, dual=dual, members=members))
    result = tuple(rays)
    _RAY_CACHE[M.key] = result
    return result


def chambers_of_rays(datum: RootDatum, basis: tuple[RatVec, ...], rays: Sequence[Ray]) -> list[RatVec]:
    """Interior witnesses, one per chamber of the given ray arrangement on span(basis).

    Witnesses are the projections of the Weyl-chamber points onto the flat:
    every chamber of the restricted arrangement of a flat contains such a
    projection (each parabolic contains a minimal one), and any sub-arrangement
    chamber contains a full-arrangement chamber.  This avoids any reflection
    closure assumption on the rays, which genuinely fails for intermediate
    flats.
    """
    d = datum
    if not basis:
        return [RatVec.zero(d.rank)]
    if not rays:
        pt = zeros(d.rank)
        for b in basis:
            pt = vadd(pt, b.coords)
        return [RatVec(pt)]
    proj_m = projector([b.coords for b in basis], d.gram)
    best: dict[tuple, Vec] = {}
    for w in weyl_group(d):
        moved = act(w, d.rho_check)
        proj = mat_vec(proj_m, moved.coords)
        pattern = []
        degenerate = False
        for ray in rays:
            p = d.pair(ray.rep, RatVec(proj))
            if p == 0:
                degenerate = True
                break
            pattern.append(1 if p > 0 else -1)
        if degenerate:
            continue
        key = tuple(pattern)
        if key not in best or proj < best[key]:
            best[key] = proj
    if not best:
        raise InternalInconsistency("no chamber witnesses found on the flat")
    return [RatVec(v) for v in sorted(best.values())]


def parabolics(M: Levi) -> tuple[ParabolicChamber, ...]:
    """Chambers of the restricted arrangement on a_M; a single improper chamber for M = G.

    Wall rays are recovered from sign adjacency: a ray is a wall of a chamber
    exactly when flipping its sign alone lands on another chamber.
    """
    got = _PARA_CACHE.get(M.key)
    if got is not None:
        return got
    d = M.datum
    if M.dim == 0:
        result = (ParabolicChamber(M, 0, (), RatVec.zero(d.rank)),)
        _PARA_CACHE[M.key] = result
        return result
    rays = restricted_rays(M)
    points = chambers_of_rays(d, M.basis, rays)
    signs = []
    for pt in points:
        signs.append(tuple(1 if d.pair(r.rep, pt) > 0 else -1 for r in rays))
    sign_set = set(signs)
    chambers = []
    for idx, pt in enumerate(sorted(points, key=lambda p: p.coords)):
        sig = tuple(1 if d.pair(r.rep, pt) > 0 else -1 for r in rays)
        walls = tuple(
            k
            for k in range(len(rays))
            if tuple(s if j != k else -s for j, s in enumerate(sig)) in sign_set
        )
        if len(walls) != M.dim:
            raise InternalInconsistency("parabolic chamber is not simplicial")
        pos = tuple(
            sorted(i for ray in rays for i, _ in ray.members if d.pair(d.roots[i], pt) > 0)
        )
        chambers.append(ParabolicChamber(M, idx, pos, pt, walls))
    result = tuple(chambers)
    _PARA_CACHE[M.key] = result
    return result


def base_chamber(d: RootDatum) -> ParabolicChamber:
    """The minimal parabolic whose chamber contains the dominant regular point."""
    M0 = mzero(d)
    for P in parabolics(M0):
        if all(d.pair(d.roots[i], P.chamber_point) > 0 for i in d.pos_indices):
            return P
    raise InternalInconsistency("dominant chamber not found")


def chamber_cells(M: Levi) -> dict[int, tuple[WeylElement, ...]]:
    """For each chamber of P(M), the Weyl elements w whose minimal parabolic it contains.

    A chamber with positive set Sigma_P admits w exactly when Sigma_P is
    contained in w(Sigma+).  Not every w qualifies for some chamber (for
    non-standard Levi subgroups the map is partial), but every chamber is
    reached by exactly |W_M| elements.
    """
    got = _CELL_CACHE.get(M.key)
    if got is not None:
        return got
    d = M.datum
    chambers = parabolics(M)
    by_pos = {P.positive_roots: P.index for P in chambers}
    nonzero = {i for ray in restricted_rays(M) for i, _ in ray.members} if M.dim else set()
    cells: dict[int, list[WeylElement]] = {P.index: [] for P in chambers}
    for w in weyl_group(d):
        img_pos = sorted(j for j in (w.perm[i] for i in d.pos_indices) if j in nonzero)
        idx = by_pos.get(tuple(img_pos))
        if idx is not None:
            cells[idx].append(w)
    expected = len(reflect_subgroup(d, M.root_subset))
    for idx, ws in cells.items():
        if len(ws) != expected:
            raise InternalInconsistency("chamber cell has unexpected size")
    result = {idx: tuple(ws) for idx, ws in cells.items()}
    _CELL_CACHE[M.key] = result
    return result


def simple_restricted(P: ParabolicChamber) -> list[RatVec]:
    """Signed wall-ray representatives of the chamber (empty for the improper one)."""
    M = P.levi
    if M.dim == 0:
        return []
    d = M.datum
    rays = restricted_rays(M)
    out = []
    for k in P.wall_rays:
        ray = rays[k]
        out.append(ray.rep if d.pair(ray.rep, P.chamber_point) > 0 else -ray.rep)
    return out


def theta(P: ParabolicChamber, lam: RatVec) -> ThetaValue:
    """Normalized product of simple coroot pairings over the chamber's walls.

    For the improper chamber (M = G) the value is identically 1 by convention.
    """
    M = P.levi
    d = M.datum
    if M.dim == 0:
        return ThetaValue(Fraction(1), QuadConst.one())
    simples = simple_restricted(P)
    product = Fraction(1)
    duals = []
    for a in simples:
        dual = vscale(Fraction(2) / d.pair(a, a), a.coords)
        duals.append(dual)
        product *= d.pair(lam, RatVec(dual))
    covol = QuadConst.from_square(gram_det(duals, d.gram))
    return ThetaValue(product, covol)


def _rel_basis(L: Levi, upper: Levi | None) -> tuple[Vec, ...]:
    """Basis of the part of a_L orthogonal to a_upper (all of a_L when upper is None).

    Memoised on L, keyed by the root set of upper.
    """
    key = None if upper is None else upper.root_subset
    got = L._rel_bases.get(key)
    if got is not None:
        return got
    if upper is None or upper.dim == 0:
        out = L.basis_rows()
    else:
        d = L.datum
        rows = [tuple(d.pair(u, b) for b in L.basis) for u in upper.basis]
        vecs = []
        for kv in kernel(rows, L.dim):
            v = zeros(d.rank)
            for c, b in zip(kv, L.basis):
                v = vadd(v, vscale(c, b.coords))
            vecs.append(v)
        out = tuple(rref(vecs))
    L._rel_bases[key] = out
    return out


def d_constant(L1: Levi, L: Levi, S: Levi, upper: Levi | None = None) -> QuadConst:
    """Splitting constant of the decomposition a_L (+) a_S = a_L1 relative to upper.

    Zero unless the two subspaces are independent and of complementary
    dimension; otherwise the absolute determinant of the sum map with respect
    to orthonormal bases, an exact square root of a rational.
    """
    for X in (L, S):
        if not contains(L1, X):
            raise NotComparable(f"{L1.label} is not contained in {X.label}")
        if upper is not None and not contains(X, upper):
            raise NotComparable(f"{X.label} is not contained in {upper.label}")
    d = L1.datum
    bl = _rel_basis(L, upper)
    bs = _rel_basis(S, upper)
    b1 = _rel_basis(L1, upper)
    if len(bl) + len(bs) != len(b1):
        return QuadConst.zero()
    combined = bl + bs
    if combined and mat_rank(combined) != len(combined):
        return QuadConst.zero()
    num = gram_det(combined, d.gram)
    den = gram_det(bl, d.gram) * gram_det(bs, d.gram)
    return QuadConst.from_square(num / den)


def trand_check(d: RootDatum) -> list[dict]:
    """Exhaustive exact check of the composition identity for splitting constants.

    For every chain M1 <= M, M1 <= S1, G1 >= S1 the constant d_{M1}(M, G1)
    must equal the sum over S >= M, S >= S1 of d_{M1}^S(M, S1) d_{S1}(S, G1);
    at most one summand is nonzero, which keeps the comparison exact.
    """
    records = []
    lattice = levi_lattice(d)
    for m1 in lattice:
        ups_m1 = enumerate_levis(d, lower=m1)
        for m in ups_m1:
            for s1 in ups_m1:
                for g1 in enumerate_levis(d, lower=s1):
                    lhs = d_constant(m1, m, g1)
                    nonzero = []
                    for s in enumerate_levis(d, lower=m):
                        if not contains(s1, s):
                            continue
                        term = d_constant(m1, m, s1, upper=s) * d_constant(s1, s, g1)
                        if not term.is_zero():
                            nonzero.append((s, term))
                    if len(nonzero) > 1:
                        ok = False
                        rhs = QuadConst.zero()
                    else:
                        rhs = nonzero[0][1] if nonzero else QuadConst.zero()
                        ok = rhs == lhs
                    records.append(
                        {
                            "chain": (m1.label, m.label, s1.label, g1.label),
                            "lhs_sq": str(lhs.square),
                            "rhs_sq": str(rhs.square),
                            "pass": ok,
                        }
                    )
    return records


def _coset_reps(d: RootDatum, subgroup: Iterable[WeylElement]) -> list[WeylElement]:
    sub = [u.perm for u in subgroup]
    seen: set = set()
    reps = []
    # weyl_group is sorted by length, so the first unseen element is minimal in its coset
    for w in weyl_group(d):
        if w.perm in seen:
            continue
        seen.update(compose(w.perm, u) for u in sub)
        reps.append(w)
    return reps


def weyl_cosets(
    L: Levi | None = None,
    filters: dict | None = None,
) -> list[WeylElement]:
    """Minimal-length representatives of the cosets w W_L (or w W_M with a sandwich filter).

    With filters {"L1": .., "M": .., "S": ..} only representatives with
    L1 <= wM <= S are kept; the condition does not depend on the representative.
    """
    if filters is not None:
        M = filters["M"]
        d = M.datum
        reps = _coset_reps(d, reflect_subgroup(d, M.root_subset))
        L1, S = filters["L1"], filters["S"]
        out = []
        for w in reps:
            wm = conjugate_levi(w, M)
            if contains(L1, wm) and contains(wm, S):
                out.append(w)
        return out
    if L is None:
        raise ValueError("either L or filters is required")
    d = L.datum
    return _coset_reps(d, reflect_subgroup(d, L.root_subset))
