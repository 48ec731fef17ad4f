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
from math import factorial, lcm
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
from .exactlin import idot, int_mat_vec, int_primitive, int_row
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


def _rows_of(levi: Levi, points: Sequence[RatVec]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Points given from outside as integer rows over their least common denominator; each must have the
    datum's rank, which the integer kernels would cut."""
    rank = levi.datum.rank
    if any(len(p.row) != rank for p in points):
        raise DimensionError(f"expected vectors of length {rank}")
    den = lcm(*(p.den for p in points))
    return tuple(tuple(x * (den // p.den) for x in p.row) for p in points), den


class OrthogonalSet:
    """One point per chamber of P(M), adjacent differences along coroot rays.

    The points are kept as integer rows over one positive denominator;
    ``points`` gives them as rational vectors.
    """

    def __init__(self, levi: Levi, points: Sequence[RatVec]):
        self.levi = levi
        self.rows, self.den = _rows_of(levi, points)

    @classmethod
    def _of_rows(cls, levi: Levi, rows: Sequence[tuple[int, ...]], den: int) -> "OrthogonalSet":
        pts = cls.__new__(cls)
        pts.levi, pts.rows, pts.den = levi, tuple(rows), den
        return pts

    @property
    def points(self) -> tuple[RatVec, ...]:
        return tuple(RatVec.over(x, self.den) for x in self.rows)

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
    for i, s in zip(d.simple, form_signs(d, [d.root_forms[i] for i in d.simple], T.row)):
        if s < 0:
            raise NotDominant(f"point pairs negatively with simple root {i}")
    maps, den = cell_maps(M)
    return OrthogonalSet._of_rows(M, [int_mat_vec(m, T.row) for m in maps], den * T.den)


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
        flat = [(c, X) for chamber in terms for c, X in chamber]
        cs, c_den = int_row(c for c, _ in flat)
        xs, x_den = _rows_of(levi, [X for _, X in flat])
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
            tuple((Fraction(c, self.c_den), RatVec.over(x, self.x_den)) for c, x in chamber)
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
    densities it models are even in the underlying parameter).  A template
    whose analytic part maps the imaginary axis into itself gives on_axis:
    y -> the imaginary part of analytic(iy), in real arithmetic and bit for bit
    (see the contour module docstring).  poles is the analytic part's exact
    denominator, constant first: its real roots are the density's real poles.
    """

    def __init__(self, n: Fraction, analytic: Callable, label: str, shape: tuple,
                 on_axis: Callable | None = None, poles: Sequence[Fraction] = ()):
        self.n = Fraction(n)
        self.analytic = analytic
        self.label = label
        # the template kind with its exact parameters, and n: equal keys, equal functions
        self.key = (shape, self.n)
        self._shape = repr(shape)  # a str keeps its hash: the key of the analytic part it shares
        self._pole = -complex(self.n) if self.n else None  # the residue term's numerator, converted once
        self.on_axis = on_axis
        self.poles = _trimmed(poles)

    def has_pole0(self) -> bool:
        return self.n != 0

    def real_pole_between(self, a: Fraction) -> bool:
        """Whether a real pole lies between 0 and a, a included (0 is none: see _zero_on_imaginary_axis)."""
        q = self.poles
        if not q or a == 0:
            return False
        return sum(c * a ** k for k, c in enumerate(q)) == 0 or _real_root_count(q, min(a, 0), max(a, 0)) > 0

    def __call__(self, z):
        if self._pole is None:
            return self.analytic(z)
        return self._pole / z + self.analytic(z)

    def __repr__(self):
        return f"ScalarFn({self.label}, n={self.n})"


def values_sharing_poles(fns: Iterable[ScalarFn], z, imaginary: bool = False) -> list:
    """[f(z) for f in fns], bit for bit, with each pole term -n / z computed once per residue n and each
    analytic part once per template: densities that differ only in n share it.

    With imaginary, z holds the imaginary parts y of the points iy, and every
    density has on_axis: each comes as the real array of its imaginary part,
    its pole term as n * (1.0 / y), numpy's complex division at iy.
    """
    recip, quotients, analytic, out = None, {}, {}, []
    for f in fns:
        shape = f._shape
        if shape not in analytic:
            analytic[shape] = f.on_axis(z) if imaginary else f.analytic(z)
        if f._pole is None:
            out.append(analytic[shape])
            continue
        if f._pole not in quotients:
            if imaginary and recip is None:
                recip = 1.0 / z
            quotients[f._pole] = -f._pole.real * recip if imaginary else f._pole / z
        out.append(quotients[f._pole] + analytic[shape])
    return out


POLE_HIT_RADIUS = 1e-12  # |z| below this hits a density's pole at 0


def density_at(f: ScalarFn, z: complex, beta: RatVec) -> complex:
    """f(z) for the density f of beta; PoleHit where z hits a pole of f at 0."""
    if f.has_pole0() and abs(z) < POLE_HIT_RADIUS:
        raise PoleHit(f"density argument hits the pole at 0 along {beta}")
    return f(z)


def _zero(z, kind: type = complex):
    """kind(0) for a scalar z, else a zero array of that kind shaped like z."""
    if isinstance(z, Number):
        return kind(0)
    import numpy as np

    return np.zeros_like(z, dtype=kind)


def _poly_eval(coeffs: Sequence[complex], z):
    """The polynomial with these coefficients, constant first, at z by Horner's rule."""
    total = _zero(z)
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


def _real_root_count(p: Sequence[Fraction], lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """The number of distinct real roots of the nonzero trimmed p in (lo, hi), by Sturm's theorem; an end
    None is infinite, and a finite end must not be a root."""
    chain = [list(p), [k * c for k, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-x for x in _poly_rem(chain[-2], chain[-1])])
    chain.pop()

    def changes(x: Fraction | None, inf: int) -> int:
        # the signs of the chain at x, zeros dropped; at an infinite end, read off the leading coefficients
        values = [q[-1] * inf ** (len(q) - 1) if x is None else sum(c * x ** k for k, c in enumerate(q)) for q in chain]
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo, -1) - changes(hi, 1)


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
        return ScalarFn(n, _zero, "pole", (kind,), lambda y: _zero(y, float))
    if kind == "model_plancherel":
        c = Fraction(str(template.get("c", "1")))
        if c <= 0:
            raise ValueError("model_plancherel needs c > 0")
        cf = complex(c)
        # poles at +-sqrt(c) on the real axis, off the integration lines; at iy, numpy's complex division by
        # the real -(y * y) - c is its reciprocal times y
        return ScalarFn(n, lambda z, cf=cf: z / (z * z - cf), f"model_plancherel({c})", (kind, c),
                        lambda y, c=cf.real: y * (1.0 / (-(y * y) - c)), (-c, Fraction(0), Fraction(1)))
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

    return ScalarFn(n, fn, kind, (kind, p, q), poles=q)


class ScalarRootFns:
    """Density functions attached to the reduced restricted-root rays of a_{L1}, keyed by ray key."""

    def __init__(self, levi_l1: Levi, fns: Mapping[tuple, ScalarFn]):
        self.levi = levi_l1
        self._fns = dict(fns)

    @classmethod
    def uniform(cls, levi_l1: Levi, template: Mapping, n_of_ray: Mapping[tuple, Fraction] | None = None):
        fns = {}
        for ray in restricted_rays(levi_l1):
            n = Fraction(0) if n_of_ray is None else Fraction(n_of_ray.get(ray.key, 0))
            fns[ray.key] = scalar_fn_from_template(template, n)
        return cls(levi_l1, fns)

    def fn(self, beta: RatVec) -> ScalarFn:
        """The density of the +- ray containing beta."""
        key = int_primitive(beta.row)
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
    signs = form_signs(d, [ray.form for ray in rays], Q1.chamber_point.row)
    for ray, sign in zip(rays, signs):
        neg = ray if sign < 0 else -ray
        proj = int_mat_vec(rel, neg.dual.row)
        if any(proj):
            candidates.append((neg.rep, neg.dual, RatVec.over(proj, den * neg.dual.den)))
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


def _gauss_legendre(nodes: Sequence[float], weights: Sequence[float]) -> tuple[list[float], list[float]]:
    """numpy's leggauss rule from its positive nodes and their weights: leggauss makes its rules symmetric."""
    return [-x for x in reversed(nodes)] + list(nodes), list(reversed(weights)) + list(weights)


# leggauss(12), for each panel of contour, and leggauss(32), for each segment of the dual route, bit for bit
# (Golub & Welsch, Math. Comp. 23, 1969); tests/test_contour.py pins both
_GL12 = _gauss_legendre(
    (0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
    (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141),
)
_GL32 = _gauss_legendre(
    (0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767, 0.42135127613063533,
     0.5068999089322294, 0.5877157572407623, 0.6630442669302152, 0.7321821187402897, 0.7944837959679424, 0.84936761373257,
     0.8963211557660521, 0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
    (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378, 0.08765209300440378,
     0.08331192422694671, 0.07819389578707023, 0.07234579410884834, 0.06582222277636168, 0.058684093478535565,
     0.05099805926237609, 0.042835898022226836, 0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
     0.007018610009470506),
)


def _segment_integrals(f: ScalarFn, z0: complex, ends: Sequence[complex], rule) -> list[complex]:
    """Gauss-Legendre quadrature of f along each segment [z0, z1] for z1 in ends; rule is (complex nodes,
    weights).

    f is called once, on the nodes of every segment at once: row k is
    mid_k + half_k * nodes, the broadcast of the per-segment form, and
    numpy's elementwise ops give each node the same bits in either layout.
    Each segment keeps its own np.dot and half * product.
    """
    import numpy as np

    nodes, weights = rule
    mids = [(z0 + z1) / 2 for z1 in ends]
    halves = [(z1 - z0) / 2 for z1 in ends]
    values = f(np.array(mids)[:, None] + np.array(halves)[:, None] * nodes)
    return [complex(half * np.dot(weights, row)) for half, row in zip(halves, values)]


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
    adds the values of its rays from 0j in ray order.  Each ray's density is
    called once per radius, on the 32 segment nodes of all 64 circle nodes
    (``_segment_integrals``), and every other step keeps its per-node form.
    A lam0 on a ray's pole wall (|<lam0, dual>| below POLE_HIT_RADIUS) raises
    PoleHit.
    """
    import numpy as np

    L1 = fns.levi
    d = L1.datum
    chambers = parabolics(L1)
    rays = restricted_rays(L1)
    rule = (np.array(_GL32[0], dtype=complex), np.array(_GL32[1], dtype=complex))  # np.dot's cast, made once
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
    p_signs = form_signs(d, [ray.form for ray in rays], P.chamber_point.row)
    separating = {
        Qp.index: [i for i, (sp, sq) in enumerate(zip(Qp.signs, p_signs)) if sp > 0 > sq or sp < 0 < sq]
        for Qp in chambers
    }
    factors = []
    for ray, sq in zip(rays, p_signs):
        pos = -ray if sq > 0 else ray
        factors.append((fns.fn(pos.rep), d.float_row(pos.dual), ev0(pos.dual)))
    steps = [complex(x) for x in direction.floats()]

    def circle_mean(r: float) -> complex:
        ss = [r * cmath.exp(2j * cmath.pi * k / 64) for k in range(64)]
        points = [tuple(complex(a + s * x) for a, x in zip(lam0, steps)) for s in ss]
        # per factor, its segment integral at every node of the circle, from one density call
        segs = [_segment_integrals(f, z0, [sum(c * g for c, g in zip(coords, gd)) for coords in points], rule)
                for f, gd, z0 in factors]
        total = 0j
        for k, s in enumerate(ss):
            cs = 0j
            for Qp in chambers:
                exponent = 0j
                for i in separating[Qp.index]:
                    exponent += segs[i][k]
                member = cmath.exp(exponent)
                cs += member / (theta_at_dir[Qp.index] * s ** L1.dim)
            total += cs
        return total / 64

    v1 = circle_mean(radius)
    v2 = circle_mean(radius / 2)
    if abs(v1 - v2) > 1e-6 * max(1.0, abs(v2)):
        raise NoConvergence(f"family limit unstable under radius halving: {v1} vs {v2}")
    return v2
