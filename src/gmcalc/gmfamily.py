"""Exponential chamber families, hull volumes and the relative splitting sum.

A chamber family holds, per chamber, rational multiples of exp(lam(X)).  Its
limit, the (G,M)-family limit of Arthur (Ann. Math. 114, 1981), is computed
exactly as the constant Laurent coefficient along a generic rational line, with
each chamber weighted by ``levilattice.theta``, covolume included; the volume
of the convex hull of an orthogonal set is a sum of integer determinants over
one pulling triangulation that each Levi reads off its face lattice
(``levilattice.hull_faces``).  Both return numbers with rational square so
the two routes can be compared with no tolerance at all.

Orthogonal sets and families are integer rows over one positive denominator
per set.  The checks, the hull and the Laurent sums make one integer pass
over them, reading each per-Levi fact off a frame kept once per Levi, and
each result's square is one ``Fraction``; other Laurent coefficients become
``Fraction``s only in the message of a family whose negative orders remain.

A density on a ray is keyed by its template's exact parameters and its
residue n at 0; no float pole list is kept.  The splitting sum and its
analytic cross-check read rays, duals and chambers off the Levi lattice.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import combinations
from math import factorial
from numbers import Number
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DimensionError,
    FamilyNotSmooth,
    InternalInconsistency,
    NoConvergence,
    NotComparable,
    NotDominant,
    PoleHit,
)
from .exactlin import (
    Vec,
    idot,
    int_mat,
    int_mat_vec,
    int_row,
    primitive_ray,
    ratio_vec,
)
from .levilattice import (
    Levi,
    ParabolicChamber,
    QuadConst,
    adjacent_chambers,
    cell_maps,
    contains,
    coord_map,
    form_signs,
    hull_simplices,
    limit_frame,
    parabolics,
    rays_in,
    rel_projector,
    restricted_rays,
    theta,
)
from .rootdatum import RatVec, WeylElement, act, invert, kept


# ---------------------------------------------------------------------------
# orthogonal sets and hulls


def _require_rank(levi: Levi, rows: Sequence[Sequence[int]]) -> None:
    """Points given from outside must have the datum's rank; the integer kernels would cut them."""
    rank = levi.datum.rank
    if any(len(x) != rank for x in rows):
        raise DimensionError(f"expected vectors of length {rank}")


class OrthogonalSet:
    """One point per chamber of P(M), adjacent differences along coroot rays.

    The points are kept as integer rows over one positive denominator;
    ``points`` gives them as rational vectors.
    """

    def __init__(self, levi: Levi, points: Sequence[RatVec]):
        self.levi = levi
        self.rows, self.den = int_mat([p.coords for p in points])
        _require_rank(levi, self.rows)

    @classmethod
    def _of_rows(cls, levi: Levi, rows: Sequence[tuple[int, ...]], den: int) -> "OrthogonalSet":
        pts = cls.__new__(cls)
        pts.levi, pts.rows, pts.den = levi, tuple(rows), den
        return pts

    @property
    def points(self) -> tuple[RatVec, ...]:
        return tuple(RatVec(ratio_vec(x, self.den)) for x in self.rows)

    def validate(self) -> None:
        M = self.levi
        if len(self.rows) != len(parabolics(M)):
            raise InternalInconsistency("point list does not match the chamber list")
        for i, j, wall, f in adjacent_chambers(M):
            # delta = Y_i - Y_j = c * wall, c >= 0, wall_f != 0: delta wall_f = delta_f wall, delta_f wall_f >= 0
            a, b = self.rows[i], self.rows[j]
            df, wf = a[f] - b[f], wall[f]
            if df * wf < 0 or [wf * (x - y) for x, y in zip(a, b)] != [df * y for y in wall]:
                raise InternalInconsistency("adjacent difference not a nonnegative coroot multiple")


def orthogonal_set(M: Levi, T: RatVec) -> OrthogonalSet:
    """Weyl translates of a dominant point, projected chamber-wise to a_M by the map each chamber's cell shares."""
    d = M.datum
    t, t_den = int_row(T.coords)
    for i, s in zip(d.simple, form_signs(d, [d.root_forms[i] for i in d.simple], t)):
        if s < 0:
            raise NotDominant(f"point pairs negatively with simple root {i}")
    maps, den = cell_maps(M)
    return OrthogonalSet._of_rows(M, [int_mat_vec(m, t) for m in maps], den * t_den)


@kept
def _hull_plan(M: Levi) -> tuple[tuple[tuple[int, int, int, tuple], ...], tuple[int, ...]]:
    """The wedges of ``_hull_det_sum`` as steps (parent slot, vertex, k, terms) that wedge the parent's k rows
    with the vertex's row, one per simplex prefix, and each simplex's slot; built once per Levi.  Slot 0 is
    vertex 0's empty wedge (1,).  A wedge of k rows lists its coordinates on the k-subsets of the basis in
    ``combinations`` order: one row is itself, two rows x, y the minors x_i y_j - x_j y_i over the pairs (i, j)
    in terms, and otherwise terms holds per subset J of the triples (index of J - j_t, j_t, (-1)^(k - t))."""
    n = M.dim
    index = [{J: i for i, J in enumerate(combinations(range(n), k))} for k in range(n + 1)]
    terms = [(), tuple(combinations(range(n), 2))] + [
        tuple(tuple((index[k][J[:t] + J[t + 1:]], J[t], (-1) ** (k - t)) for t in range(k + 1)) for J in index[k + 1])
        for k in range(2, n)
    ]
    slots, steps = {(0,): 0}, []
    for s in hull_simplices(M):
        for k in range(2, len(s) + 1):
            if s[:k] not in slots:
                slots[s[:k]] = len(slots)
                steps.append((slots[s[:k - 1]], s[k - 1], k - 2, terms[k - 2]))
    return tuple(steps), tuple(slots[s] for s in hull_simplices(M))


def _hull_det_sum(M: Levi, coords: Sequence[Sequence[int]]) -> int:
    """n! vol of the hull of integer points in Z^n, one per chamber of P(M) (n = dim a_M; 1 for a point): the
    sum of |det(Y_i1 - Y_0, ..., Y_in - Y_0)| over ``hull_simplices``, each determinant the wedge of its rows
    in order, and each wedge of a simplex prefix built once, by the steps of ``_hull_plan``."""
    steps, simplices = _hull_plan(M)
    rows = [[a - b for a, b in zip(y, coords[0])] for y in coords]
    wedges = [(1,)]
    for parent, v, k, terms in steps:
        w, y = wedges[parent], rows[v]
        wedges.append(y if not k else [w[i] * y[j] - w[j] * y[i] for i, j in terms] if k == 1
                      else [sum([s * w[i] * y[j] for i, j, s in out]) for out in terms])
    return sum(abs(wedges[k][0]) for k in simplices)


def hull_volume(pts: OrthogonalSet) -> QuadConst:
    """Volume of the convex hull of a positive orthogonal set in the invariant measure on a_M; the triangulation
    holds for those only, so a set off the flat or one that ``validate`` rejects raises InternalInconsistency.
    Every point reads one ``coord_map``, as in ``flat_coords``, and the volume's square is one ``Fraction``."""
    M = pts.levi
    cmap, c, lift, scale, disc = coord_map(M)
    coords = [int_mat_vec(cmap, x) for x in pts.rows]
    if [int_mat_vec(lift, y) for y in coords] != [tuple([scale * a for a in x]) for x in pts.rows]:
        raise InternalInconsistency("hull point outside the flat")
    pts.validate()
    total, den = _hull_det_sum(M, coords), factorial(M.dim) * (c * pts.den) ** M.dim
    return QuadConst.from_square(Fraction(total * total * disc.numerator, den * den * disc.denominator))


# ---------------------------------------------------------------------------
# chamber families and their limits


class ExpPolyFamily:
    """Per chamber, a finite sum of terms c * exp(lam(X)) with rational c.

    The terms are kept as integer rows: per chamber the pairs (c, X) of
    numerators, over one denominator for the coefficients and one for the
    points.  ``terms`` gives them as rationals.
    """

    def __init__(self, levi: Levi, terms: Sequence[Sequence[tuple[Fraction, RatVec]]]):
        terms = [list(chamber) for chamber in terms]
        flat = [(c, X.coords) for chamber in terms for c, X in chamber]
        cs, c_den = int_row(c for c, _ in flat)
        xs, x_den = int_mat([x for _, x in flat])
        _require_rank(levi, xs)
        it = zip(cs, xs)
        self._set(levi, tuple(tuple(next(it) for _ in chamber) for chamber in terms), c_den, x_den)

    @classmethod
    def from_orthogonal_set(cls, pts: OrthogonalSet) -> "ExpPolyFamily":
        fam = cls.__new__(cls)
        fam._set(pts.levi, tuple(((1, x),) for x in pts.rows), 1, pts.den)
        return fam

    def _set(self, levi: Levi, rows, c_den: int, x_den: int) -> None:
        if len(rows) != len(parabolics(levi)):
            raise InternalInconsistency("one term list per chamber is required")
        self.levi, self.rows, self.c_den, self.x_den = levi, rows, c_den, x_den

    @property
    def terms(self) -> tuple[tuple[tuple[Fraction, RatVec], ...], ...]:
        return tuple(
            tuple((Fraction(c, self.c_den), RatVec(ratio_vec(x, self.x_den))) for c, x in chamber)
            for chamber in self.rows
        )


def family_limit(f: ExpPolyFamily, direction: RatVec | None = None) -> QuadConst:
    """Exact limit of sum_P c_P / theta_P along a generic rational line.

    Each term c * exp(s <lam0, X>) is expanded through s^K, K = dim a_M.  All
    Laurent coefficients of negative order must cancel; if they do not, the
    family is incompatible and FamilyNotSmooth is raised.  The sums run on
    integer numerators, one pass over the terms per order; order k has
    denominator k! times one common denominator to the power k, times that of
    the scales and coefficients, and the square of order K is one ``Fraction``.
    On a point flat (K = 0) the one chamber's scale is 1, so the limit is its
    summed coefficient.
    """
    M = f.levi
    (lam, lam_den), (nums, scale_den) = limit_frame(M, direction)
    K = M.dim
    terms = [s * c for s, chamber in zip(nums, f.rows) for c, _ in chamber]
    pairings = [idot(lam, x) for chamber in f.rows for _, x in chamber]
    sums = []
    for _ in range(K + 1):
        sums.append(sum(terms))
        terms = list(map(mul, terms, pairings))
    dens = [scale_den * f.c_den * factorial(k) * (lam_den * f.x_den) ** k for k in range(K + 1)]
    if any(sums[:K]):
        raise FamilyNotSmooth(f"negative Laurent orders do not cancel: {[Fraction(n, q) for n, q in zip(sums, dens[:K])]}")
    num, den, disc = sums[K], dens[K], coord_map(M)[-1]
    return QuadConst.from_square(Fraction(num * num * disc.numerator, den * den * disc.denominator), (num > 0) - (num < 0))


# ---------------------------------------------------------------------------
# scalar densities per restricted-root ray


class ScalarFn:
    """Scalar density on one +-ray: optional simple pole at 0 plus an analytic part.

    The function is shared by both signed representatives of the ray (the
    densities it models are even in the underlying parameter).
    """

    def __init__(self, n: Fraction, analytic: Callable, label: str, shape: tuple):
        self.n = Fraction(n)
        self.analytic = analytic
        self.label = label
        # the template kind with its exact parameters, and n: equal keys, equal functions
        self.key = (shape, self.n)
        self._pole = -complex(self.n) if self.n else None  # the residue term's numerator, converted once

    def has_pole0(self) -> bool:
        return self.n != 0

    def __call__(self, z):
        if self._pole is None:
            return self.analytic(z)
        return self._pole / z + self.analytic(z)

    def __repr__(self):
        return f"ScalarFn({self.label}, n={self.n})"


def values_sharing_poles(fns: Iterable[ScalarFn], z) -> list:
    """[f(z) for f in fns], bit for bit, with each pole term -n / z computed once per residue n."""
    quotients = {}
    out = []
    for f in fns:
        if f._pole is None:
            out.append(f.analytic(z))
        else:
            if f.n not in quotients:
                quotients[f.n] = f._pole / z
            out.append(quotients[f.n] + f.analytic(z))
    return out


POLE_HIT_RADIUS = 1e-12  # |z| below this hits a density's pole at 0


def density_at(f: ScalarFn, z: complex, beta: RatVec) -> complex:
    """f(z) for the density f of beta; PoleHit where z hits a pole of f at 0."""
    if f.has_pole0() and abs(z) < POLE_HIT_RADIUS:
        raise PoleHit(f"density argument hits the pole at 0 along {beta}")
    return f(z)


def _complex_zero(z):
    """0j for a scalar z, else a complex zero array shaped like z."""
    if isinstance(z, Number):
        return 0j
    import numpy as np

    return np.zeros_like(z, dtype=complex)


def _poly_eval(coeffs: Sequence[complex], z):
    """The polynomial with these coefficients, constant first, at z by Horner's rule."""
    total = _complex_zero(z)
    for c in reversed(coeffs):
        total = total * z + c
    return total


def _trimmed(p: Sequence[Fraction]) -> list[Fraction]:
    """The coefficients, constant first, without trailing zeros (the zero polynomial is [])."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """The remainder of a on division by the nonzero trimmed b, trimmed."""
    a = _trimmed(a)
    while len(a) >= len(b):
        c, shift = a[-1] / b[-1], len(a) - len(b)
        a = _trimmed([x - c * b[i - shift] if i >= shift else x for i, x in enumerate(a)])
    return a


def _real_root_count(p: Sequence[Fraction]) -> int:
    """The number of distinct real roots of the nonzero trimmed p, by Sturm's theorem."""
    chain = [list(p), [k * c for k, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-x for x in _poly_rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(signs: list[bool]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # the signs of the chain at +inf and at -inf, read off the leading coefficients
    return changes([(q[-1] > 0) == (len(q) % 2 == 1) for q in chain]) - changes([q[-1] > 0 for q in chain])


def _zero_on_imaginary_axis(q: Sequence[Fraction]) -> bool:
    """Whether the nonzero q vanishes at some iy with y real, the origin included.

    q(iy) = A(y) + i B(y) with A, B real, so its zeros on the axis are the
    common real roots of A and B: the real roots of gcd(A, B).
    """
    a, b = ([c * (-1) ** (k // 2) if k % 2 == r else Fraction(0) for k, c in enumerate(q)] for r in (0, 1))
    a, b = _trimmed(a), _trimmed(b)
    while b:
        a, b = b, _poly_rem(a, b)
    return _real_root_count(a) > 0


def scalar_fn_from_template(template: Mapping, n: Fraction) -> ScalarFn:
    """Built-in density shapes; n is the residue magnitude tied to the ray."""
    kind = template.get("kind")
    if kind == "pole":
        return ScalarFn(n, _complex_zero, "pole", (kind,))
    if kind == "model_plancherel":
        c = Fraction(str(template.get("c", "1")))
        if c <= 0:
            raise ValueError("model_plancherel needs c > 0")
        cf = complex(c)
        # poles at +-sqrt(c) on the real axis, off the integration lines
        return ScalarFn(n, lambda z, cf=cf: z / (z * z - cf), f"model_plancherel({c})", (kind, c))
    if kind != "pole_plus_rational":
        raise ValueError(f"unknown density template {kind!r}")
    if "p" not in template or "q" not in template:
        raise ValueError(f"{kind} density needs p and q")
    p = tuple(Fraction(str(x)) for x in template["p"])
    q = tuple(Fraction(str(x)) for x in template["q"])
    if not any(q):
        raise ValueError(f"{kind} density needs a nonzero denominator q")
    # the quadrature excises only the declared pole at 0: q may not vanish anywhere on the imaginary axis
    if _zero_on_imaginary_axis(q):
        raise ValueError(f"{kind} density needs a denominator q with no zero on the imaginary axis")

    def fn(z, p=tuple(map(complex, p)), q=tuple(map(complex, q))):
        return _poly_eval(p, z) / _poly_eval(q, z)

    return ScalarFn(n, fn, kind, (kind, p, q))


class ScalarRootFns:
    """Density functions attached to the reduced restricted-root rays of a_{L1}."""

    def __init__(self, levi_l1: Levi, fns: Mapping[Vec, ScalarFn]):
        self.levi = levi_l1
        self._fns = dict(fns)

    @classmethod
    def uniform(cls, levi_l1: Levi, template: Mapping, n_of_ray: Mapping[Vec, Fraction] | None = None):
        fns = {}
        for ray in restricted_rays(levi_l1):
            n = Fraction(0) if n_of_ray is None else Fraction(n_of_ray.get(ray.key, 0))
            fns[ray.key] = scalar_fn_from_template(template, n)
        return cls(levi_l1, fns)

    def fn(self, beta: RatVec) -> ScalarFn:
        """The density of the +- ray containing beta."""
        key = primitive_ray(beta.coords)
        fn = self._fns.get(key)
        if fn is None:
            raise KeyError(f"no density ray along {key}")
        return fn

    def value(self, beta: RatVec, z: complex, w: WeylElement | None = None, conj: bool = False) -> complex:
        """Evaluate the density of beta at z, optionally Weyl-moved or contragredient."""
        if w is not None:
            beta = act(self.levi.datum.element(invert(w.perm)), beta)
        return density_at(self.fn(beta), -z if conj else z, beta)


# ---------------------------------------------------------------------------
# the relative splitting sum


@kept
def split_subsets(
    L1: Levi, M: Levi, S: Levi, Q1: ParabolicChamber
) -> list[tuple[QuadConst, list[tuple[RatVec, RatVec]]]]:
    """The exact terms of the relative splitting sum, as (covolume, [(rep, dual), ...]); built once per
    (M, S, Q1) and kept on L1.

    The candidates are the rays of L1 vanishing on a_S, signed negative on Q1,
    whose duals project to nonzero vectors in the part of a_M orthogonal to
    a_S, of dimension dim a_M - dim a_S; a_S lies in a_M, so that projection
    is P_M - P_S, read off the two flats' projectors.  Each subset of
    candidates whose projected duals form a basis of that part (nonzero Gram
    determinant) is one term, weighted by their covolume; terms come in
    candidate and subset order.  With nothing to split (M = S) the empty
    subset is the one term, of weight the empty Gram determinant 1.
    """
    d = L1.datum
    rel, den = rel_projector(M, S)
    candidates = []
    rays = rays_in(L1, S)
    signs = form_signs(d, [ray.form for ray in rays], int_row(Q1.chamber_point.coords)[0])
    for ray, sign in zip(rays, signs):
        neg = ray if sign < 0 else -ray
        dual, dual_den = int_row(neg.dual.coords)
        proj = int_mat_vec(rel, dual)
        if any(proj):
            candidates.append((neg.rep, neg.dual, ratio_vec(proj, den * dual_den)))
    terms = []
    for subset in combinations(candidates, M.dim - S.dim):
        sq = d.volume_sq([proj for _, _, proj in subset])
        if sq:
            terms.append((QuadConst.from_square(sq), [(rep_neg, dual_neg) for rep_neg, dual_neg, _ in subset]))
    return terms


def split_terms(
    fns: ScalarRootFns,
    M: Levi,
    S: Levi,
    Q1: ParabolicChamber,
    lam_eval: Callable[[RatVec], complex],
    w: WeylElement | None = None,
    conj: bool = False,
) -> complex:
    """Relative splitting sum over independent sets of rays vanishing on a_S.

    lam_eval(beta_dual) must return the pairing of the spectral parameter with
    the signed dual; the sum runs over subsets whose duals project to a basis
    of the part of a_M orthogonal to a_S.
    """
    L1 = fns.levi
    if not (contains(L1, M) and contains(M, S)):
        raise NotComparable("need L1 <= M <= S")
    total = 0j
    for vol, factors in split_subsets(L1, M, S, Q1):
        term = complex(float(vol))
        for rep_neg, dual_neg in factors:
            z = lam_eval(dual_neg)
            term *= fns.value(rep_neg, z, w=w, conj=conj)
        total += term
    return total


def _lam_evaluator(d, lam) -> Callable[[RatVec], complex]:
    """dual -> <lam, dual> for lam given by its float or complex ambient coordinates."""
    coords = tuple(complex(x) for x in lam)

    def ev(dual: RatVec) -> complex:
        return sum(c * g for c, g in zip(coords, d.float_row(dual)))

    return ev


# ---------------------------------------------------------------------------
# analytic route: members induced by the densities (cross-check for the
# splitting formula)


def _segment_integral(f: ScalarFn, z0: complex, z1: complex, rule) -> complex:
    """Gauss-Legendre quadrature of f along the segment [z0, z1]; rule is (complex nodes, weights)."""
    import numpy as np

    nodes, weights = rule
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    return complex(half * np.dot(weights, f(mid + half * nodes)))


def induced_family_value(
    fns: ScalarRootFns,
    P: ParabolicChamber,
    lam0: Sequence[complex],
    direction: RatVec,
) -> complex:
    """Numeric limit of the induced family along a shrinking line through lam0.

    Independent analytic route for the splitting sum.  The chamber sum c(s) at
    zeta = s * direction is analytic in s up to the nearest member pole, so the
    limit is extracted as a Cauchy mean over a small circle; the circle is then
    halved and the two values must agree, which certifies convergence.  The
    circle mean runs on 64 nodes.  At each node every ray that separates a
    chamber from P has its segment integral evaluated once, and each chamber
    adds the values of its rays from 0j in ray order.  A lam0 on a ray's pole
    wall (|<lam0, dual>| below POLE_HIT_RADIUS) raises PoleHit.
    """
    import numpy as np

    L1 = fns.levi
    d = L1.datum
    chambers = parabolics(L1)
    rays = restricted_rays(L1)
    seg_nodes, seg_weights = np.polynomial.legendre.leggauss(32)
    rule = (seg_nodes.astype(complex), seg_weights)
    theta_at_dir = {Qp.index: float(theta(Qp, direction)) for Qp in chambers}
    ev0 = _lam_evaluator(d, lam0)
    # keep the circle well inside the disc where every member stays off its poles
    margin = None
    for ray in rays:
        dual = ray.dual
        z0 = abs(ev0(dual))
        if z0 < POLE_HIT_RADIUS:
            raise PoleHit(f"lam0 lies on the pole wall of {ray.rep}")
        step = abs(complex(d.pair(direction, dual)))
        if step > 0:
            bound = z0 / step
            margin = bound if margin is None else min(margin, bound)
    radius = 0.2 * (margin if margin is not None else 1.0)

    # The member of chamber Qp at zeta is exp of the sum, over the rays
    # positive on Qp and negative on P, of the density integrated from
    # <lam0, dual> to <lam0 + zeta, dual>.  A ray enters every chamber it
    # separates from P with the sign opposite to its sign on P, so its factor
    # (density, dual row, start point) is fixed by P alone, and only the end
    # point moves along the circle.  Every ray separates P from -P, so each
    # factor is read at every node.
    p_signs = form_signs(d, [ray.form for ray in rays], int_row(P.chamber_point.coords)[0])
    separating = {
        Qp.index: [i for i, (sp, sq) in enumerate(zip(Qp.signs, p_signs)) if sp > 0 > sq or sp < 0 < sq]
        for Qp in chambers
    }
    factors = []
    for ray, sq in zip(rays, p_signs):
        pos = -ray if sq > 0 else ray
        factors.append((fns.fn(pos.rep), d.float_row(pos.dual), ev0(pos.dual)))

    def circle_mean(r: float) -> complex:
        total = 0j
        for k in range(64):
            s = r * cmath.exp(2j * cmath.pi * k / 64)
            zeta = [s * complex(x) for x in direction.coords]
            coords = tuple(complex(a + b) for a, b in zip(lam0, zeta))
            seg = [_segment_integral(f, z0, sum(c * g for c, g in zip(coords, gd)), rule) for f, gd, z0 in factors]
            cs = 0j
            for Qp in chambers:
                exponent = 0j
                for i in separating[Qp.index]:
                    exponent += seg[i]
                member = cmath.exp(exponent)
                cs += member / (theta_at_dir[Qp.index] * s ** L1.dim)
            total += cs
        return total / 64

    v1 = circle_mean(radius)
    v2 = circle_mean(radius / 2)
    if abs(v1 - v2) > 1e-6 * max(1.0, abs(v2)):
        raise NoConvergence(f"family limit unstable under radius halving: {v1} vs {v2}")
    return v2
