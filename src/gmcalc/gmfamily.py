"""Exponential-polynomial chamber families, hull volumes and splitting sums.

The limit of a compatible chamber family is computed exactly as the constant
Laurent coefficient along a generic rational line; convex hull volumes are
computed by exact rational triangulation.  Both return numbers with rational
square so the two routes can be compared with no tolerance at all.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    FamilyNotSmooth,
    IncompleteInput,
    InternalInconsistency,
    NotComparable,
    NotDominant,
    PoleHit,
)
from .exactlin import (
    Vec,
    coords_in_basis,
    common_denominator,
    det,
    gram_det,
    mat_vec,
    projector,
    rank as mat_rank,
    vscale,
)
from .levilattice import (
    Levi,
    ParabolicChamber,
    QuadConst,
    Ray,
    _rel_basis,
    chamber_cells,
    contains,
    d_constant,
    enumerate_levis,
    gfull,
    parabolics,
    restricted_rays,
    simple_restricted,
)
from .ratpoly import Poly, exp_series, series_mul
from .rootdatum import RatVec, WeylElement, act, invert


# ---------------------------------------------------------------------------
# orthogonal sets and hulls


@dataclass(frozen=True)
class OrthogonalSet:
    """One point per chamber of P(M), adjacent differences along coroot rays."""

    levi: Levi
    points: tuple[RatVec, ...]

    def validate(self) -> None:
        M = self.levi
        d = M.datum
        chambers = parabolics(M)
        if len(self.points) != len(chambers):
            raise InternalInconsistency("point list does not match the chamber list")
        rays = restricted_rays(M)
        signs = [
            tuple(1 if d.pair(r.rep, P.chamber_point) > 0 else -1 for r in rays)
            for P in chambers
        ]
        for i in range(len(chambers)):
            for j in range(i + 1, len(chambers)):
                diff_pos = [k for k in range(len(rays)) if signs[i][k] != signs[j][k]]
                if len(diff_pos) != 1:
                    continue
                ray = rays[diff_pos[0]]
                rep = ray.rep if signs[i][diff_pos[0]] > 0 else -ray.rep
                delta = self.points[i] - self.points[j]
                if delta.is_zero():
                    continue
                c = None
                for x, y in zip(delta.coords, rep.coords):
                    if y != 0:
                        c = x / y
                        break
                if c is None or c < 0 or delta != c * rep:
                    raise InternalInconsistency("adjacent difference not a nonnegative coroot multiple")


def orthogonal_set(M: Levi, T: RatVec) -> OrthogonalSet:
    """Weyl translates of a dominant point, projected chamber-wise to a_M."""
    d = M.datum
    for i in d.simple:
        if d.pair(d.roots[i], T) < 0:
            raise NotDominant(f"point pairs negatively with simple root {i}")
    proj_m = projector(M.basis_rows(), d.gram)
    points: list[RatVec] = []
    cells = chamber_cells(M)
    for idx in range(len(parabolics(M))):
        images = []
        for w in cells[idx]:
            moved = act(w, T)
            images.append(RatVec(mat_vec(proj_m, moved.coords)))
        first = images[0]
        if any(img != first for img in images):
            raise InternalInconsistency("projection not constant on a chamber cell")
        points.append(first)
    return OrthogonalSet(M, tuple(points))


def _hull_length(pts: list[Vec]) -> Fraction:
    xs = [p[0] for p in pts]
    return max(xs) - min(xs)


def _monotone_chain(pts: list[tuple]) -> list[tuple]:
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_area(pts: list[Vec]) -> Fraction:
    hull = _monotone_chain([tuple(p) for p in pts])
    if len(hull) < 3:
        return Fraction(0)
    total = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _hull_volume_3d(pts: list[Vec]) -> Fraction:
    """Exact volume via facet planes of the integer-scaled point set."""
    den = common_denominator([tuple(p) for p in pts])
    ipts = sorted({tuple(int(x * den) for x in p) for p in pts})
    n = len(ipts)

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    def dotp(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    planes = {}
    for i in range(n):
        for j in range(i + 1, n):
            eij = sub(ipts[j], ipts[i])
            for k in range(j + 1, n):
                nrm = cross(eij, sub(ipts[k], ipts[i]))
                if nrm == (0, 0, 0):
                    continue
                g = gcd(gcd(abs(nrm[0]), abs(nrm[1])), abs(nrm[2]))
                nrm = (nrm[0] // g, nrm[1] // g, nrm[2] // g)
                off = dotp(nrm, ipts[i])
                if (nrm, off) in planes or (tuple(-x for x in nrm), -off) in planes:
                    continue
                # a supporting plane has no points strictly on both sides
                a, b, c = nrm
                below = above = False
                on = []
                for p in ipts:
                    v = a * p[0] + b * p[1] + c * p[2] - off
                    if v < 0:
                        below = True
                    elif v > 0:
                        above = True
                    else:
                        on.append(p)
                    if below and above:
                        break
                else:
                    planes[(tuple(-x for x in nrm), -off) if above else (nrm, off)] = on
    apex = ipts[0]
    total = 0
    for (nrm, off), facet in planes.items():
        if dotp(nrm, apex) == off:
            continue
        drop = max(range(3), key=lambda a: abs(nrm[a]))
        keep = [a for a in range(3) if a != drop]
        flat = {(p[keep[0]], p[keep[1]]): p for p in facet}
        ring = _monotone_chain(list(flat))
        if len(ring) < 3:
            continue
        poly3 = [flat[q] for q in ring]
        signed = 0
        for t in range(1, len(poly3) - 1):
            e1 = sub(poly3[t], apex)
            e2 = sub(poly3[t + 1], apex)
            e0 = sub(poly3[0], apex)
            signed += dotp(e0, cross(e1, e2))
        total += abs(signed)
    return Fraction(total, 6) / den**3


def hull_volume(pts: OrthogonalSet) -> QuadConst:
    """Volume of the convex hull in the invariant measure on a_M (dim at most 3)."""
    M = pts.levi
    d = M.datum
    if M.dim == 0:
        return QuadConst.one()
    if M.dim > 3:
        raise NotComparable("hull volume supported through dimension 3 only")
    basis_rows = [b.coords for b in M.basis]
    coords = []
    for p in pts.points:
        c = coords_in_basis(p.coords, basis_rows)
        if c is None:
            raise InternalInconsistency("hull point outside the flat")
        coords.append(c)
    rel = [tuple(x - y for x, y in zip(c, coords[0])) for c in coords]
    if mat_rank(rel) < M.dim:
        return QuadConst.zero()
    if M.dim == 1:
        vol = _hull_length(coords)
    elif M.dim == 2:
        vol = _hull_area(coords)
    else:
        vol = _hull_volume_3d(coords)
    disc = gram_det(basis_rows, d.gram)
    return QuadConst.from_square(vol * vol * disc)


# ---------------------------------------------------------------------------
# chamber families and their limits


class ExpPolyFamily:
    """Per chamber, a finite sum of terms poly(lam) * exp(lam(X))."""

    def __init__(self, levi: Levi, terms: Sequence[Sequence[tuple[Poly, RatVec]]]):
        self.levi = levi
        self.terms = tuple(tuple(chamber) for chamber in terms)
        if len(self.terms) != len(parabolics(levi)):
            raise InternalInconsistency("one term list per chamber is required")

    @classmethod
    def from_orthogonal_set(cls, pts: OrthogonalSet) -> "ExpPolyFamily":
        n = pts.levi.datum.rank
        one = Poly.const(n, 1)
        return cls(pts.levi, [[(one, X)] for X in pts.points])

    @classmethod
    def constant(cls, M: Levi, value=1) -> "ExpPolyFamily":
        n = M.datum.rank
        c = Poly.const(n, value)
        zero = RatVec.zero(n)
        return cls(M, [[(c, zero)] for _ in parabolics(M)])

    def scaled(self, c) -> "ExpPolyFamily":
        return ExpPolyFamily(
            self.levi, [[(p.scale(c), X) for p, X in chamber] for chamber in self.terms]
        )

    def plus(self, other: "ExpPolyFamily") -> "ExpPolyFamily":
        if other.levi != self.levi:
            raise NotComparable("families live on different Levi subgroups")
        return ExpPolyFamily(
            self.levi, [list(a) + list(b) for a, b in zip(self.terms, other.terms)]
        )

    def weyl_image(self, w: WeylElement) -> "ExpPolyFamily":
        """Simultaneous action on chambers and data; the limit is unchanged."""
        M = self.levi
        d = M.datum
        chambers = parabolics(M)
        winv = d.element(invert(w.perm)).matrix
        forms = [tuple(row) for row in winv]  # lam_i = sum_j winv[i][j] * s_j
        new_terms: list[list[tuple[Poly, RatVec]]] = [[] for _ in chambers]
        rays = restricted_rays(M)
        sign_index = {
            tuple(1 if d.pair(r.rep, P.chamber_point) > 0 else -1 for r in rays): P.index
            for P in chambers
        }
        for P in chambers:
            moved = act(w, P.chamber_point)
            key = tuple(1 if d.pair(r.rep, moved) > 0 else -1 for r in rays)
            target = sign_index.get(key)
            if target is None:
                raise InternalInconsistency("Weyl image of a chamber is not a chamber")
            new_terms[target] = [
                (p.subs_linear(forms), act(w, X)) for p, X in self.terms[P.index]
            ]
        return ExpPolyFamily(M, new_terms)

    def check_compatibility(self) -> list[str]:
        """Symbolic wall checks; returns human-readable violations (empty if compatible)."""
        M = self.levi
        d = M.datum
        if M.dim == 0:
            return []
        chambers = parabolics(M)
        rays = restricted_rays(M)
        signs = [
            tuple(1 if d.pair(r.rep, P.chamber_point) > 0 else -1 for r in rays)
            for P in chambers
        ]
        from .exactlin import kernel, vadd, zeros

        problems = []
        for i in range(len(chambers)):
            for j in range(i + 1, len(chambers)):
                diff = [k for k in range(len(rays)) if signs[i][k] != signs[j][k]]
                if len(diff) != 1:
                    continue
                ray = rays[diff[0]]
                basis_rows = [b.coords for b in M.basis]
                row = tuple(d.pair(ray.rep, b) for b in M.basis)
                ker = kernel([row], M.dim)
                wall = []
                for kv in ker:
                    v = zeros(d.rank)
                    for c, b in zip(kv, basis_rows):
                        v = vadd(v, vscale(c, b))
                    wall.append(v)

                def restricted(chamber_index):
                    grouped: dict[tuple, Poly] = {}
                    nvars = len(wall)
                    for p, X in self.terms[chamber_index]:
                        forms = [tuple(wv[c] for wv in wall) for c in range(d.rank)]
                        q = p.subs_linear(forms) if nvars else Poly.const(0, p.eval_frac((Fraction(0),) * d.rank))
                        key = tuple(d.pair(RatVec(wv), X) for wv in wall)
                        grouped[key] = grouped.get(key, Poly(nvars)) + q
                    return {k: v for k, v in grouped.items() if not v.is_zero()}

                if restricted(i) != restricted(j):
                    problems.append(
                        f"chambers {i} and {j} disagree on the wall of ray {ray.key}"
                    )
        return problems


def _generic_direction(M: Levi, direction: RatVec | None) -> RatVec:
    d = M.datum
    rays = restricted_rays(M)
    base = parabolics(M)[0].chamber_point
    if direction is None:
        direction = base
    lam = direction
    step = Fraction(1, 97)
    for _ in range(64):
        if all(d.pair(r.rep, lam) != 0 for r in rays):
            return lam
        lam = lam + step * base
        step /= 97
    raise InternalInconsistency("no generic direction found")


def family_limit(f: ExpPolyFamily, direction: RatVec | None = None) -> QuadConst:
    """Exact limit of sum_P c_P / theta_P along a generic rational line.

    All Laurent coefficients of negative order must cancel; if they do not,
    the family is incompatible and FamilyNotSmooth is raised.
    """
    M = f.levi
    d = M.datum
    if M.dim == 0:
        total = Fraction(0)
        for p, X in f.terms[0]:
            total += p.eval_frac((Fraction(0),) * d.rank)
        return QuadConst.from_rational(total)
    lam0 = _generic_direction(M, direction)
    K = M.dim
    basis_rows = [b.coords for b in M.basis]
    series_total = [Fraction(0)] * (K + 1)
    for P in parabolics(M):
        simples = simple_restricted(P)
        duals = [vscale(Fraction(2) / d.pair(a, a), a.coords) for a in simples]
        theta_star = Fraction(1)
        for dual in duals:
            theta_star *= d.pair(lam0, RatVec(dual))
        coords = [coords_in_basis(dual, basis_rows) for dual in duals]
        q_p = abs(det(tuple(coords)))
        chamber_series = [Fraction(0)] * (K + 1)
        for p, X in f.terms[P.index]:
            poly_series = p.along_line(lam0.coords)
            e_series = exp_series(d.pair(lam0, X), K)
            chamber_series = [
                a + b
                for a, b in zip(chamber_series, series_mul(poly_series, e_series, K))
            ]
        scale = q_p / theta_star
        series_total = [a + scale * b for a, b in zip(series_total, chamber_series)]
    if any(c != 0 for c in series_total[:K]):
        raise FamilyNotSmooth(
            f"negative Laurent orders do not cancel: {series_total[:K]}"
        )
    disc = gram_det(basis_rows, d.gram)
    c = series_total[K]
    return QuadConst.from_square(c * c * disc, 1 if c > 0 else (-1 if c < 0 else 0))


# ---------------------------------------------------------------------------
# scalar densities per restricted-root ray


class ScalarFn:
    """Scalar density on one +-ray: optional simple pole at 0 plus an analytic part.

    The function is shared by both signed representatives of the ray (the
    densities it models are even in the underlying parameter).
    """

    def __init__(self, n: Fraction, analytic: Callable, label: str, extra_poles: tuple = ()):
        self.n = Fraction(n)
        self.analytic = analytic
        self.label = label
        self.extra_poles = extra_poles  # (imag location, residue) pairs on the axis

    def has_pole0(self) -> bool:
        return self.n != 0

    def __call__(self, z):
        if self.n == 0:
            return self.analytic(z)
        return -complex(self.n) / z + self.analytic(z)

    def poles_on_axis(self) -> list[tuple[float, complex]]:
        out = []
        if self.n != 0:
            out.append((0.0, complex(-self.n)))
        out.extend(self.extra_poles)
        return out

    def __repr__(self):
        return f"ScalarFn({self.label}, n={self.n})"


def _poly_eval(coeffs: Sequence[Fraction], z):
    total = 0j if np.isscalar(z) else np.zeros_like(z, dtype=complex)
    for c in reversed([complex(c) for c in coeffs]):
        total = total * z + c
    return total


def scalar_fn_from_template(template: Mapping, n: Fraction) -> ScalarFn:
    """Built-in density shapes; n is the residue magnitude tied to the ray."""
    kind = template.get("kind")
    if kind == "pole":
        return ScalarFn(n, lambda z: 0j if np.isscalar(z) else np.zeros_like(z, dtype=complex), "pole")
    if kind == "model_plancherel":
        c = Fraction(str(template.get("c", "1")))
        if c <= 0:
            raise ValueError("model_plancherel needs c > 0")
        cf = complex(c)
        # poles at +-sqrt(c) on the real axis, off the integration lines
        return ScalarFn(n, lambda z, cf=cf: z / (z * z - cf), f"model_plancherel({c})")
    if kind == "pole_plus_rational":
        p = [Fraction(str(x)) for x in template["p"]]
        q = [Fraction(str(x)) for x in template["q"]]
        return ScalarFn(
            n, lambda z, p=p, q=q: _poly_eval(p, z) / _poly_eval(q, z), "pole_plus_rational"
        )
    if kind == "rational":
        p = [Fraction(str(x)) for x in template["p"]]
        q = [Fraction(str(x)) for x in template["q"]]
        poles = tuple(
            (float(Fraction(str(item["im"]))), complex(float(Fraction(str(item.get("re_res", 0)))), float(Fraction(str(item.get("im_res", 0))))))
            for item in template.get("poles", [])
        )
        return ScalarFn(
            Fraction(0), lambda z, p=p, q=q: _poly_eval(p, z) / _poly_eval(q, z), "rational", poles
        )
    raise ValueError(f"unknown density template {kind!r}")


class ScalarRootFns:
    """Density functions attached to the reduced restricted-root rays of a_{L1}."""

    def __init__(self, levi_l1: Levi, fns: Mapping[Vec, ScalarFn]):
        self.levi = levi_l1
        self._fns = dict(fns)
        self._rays = {ray.key: ray for ray in restricted_rays(levi_l1)}

    @classmethod
    def uniform(cls, levi_l1: Levi, template: Mapping, n_of_ray: Mapping[Vec, Fraction] | None = None):
        fns = {}
        for ray in restricted_rays(levi_l1):
            n = Fraction(0) if n_of_ray is None else Fraction(n_of_ray.get(ray.key, 0))
            fns[ray.key] = scalar_fn_from_template(template, n)
        return cls(levi_l1, fns)

    def ray_of(self, beta: RatVec) -> tuple[Ray, int]:
        """The +- ray containing beta and the sign of beta relative to the + side."""
        from .exactlin import primitive_ray

        key = primitive_ray(beta.coords)
        ray = self._rays.get(key)
        if ray is None:
            raise KeyError(f"no density ray along {key}")
        j = next(i for i, x in enumerate(key) if x != 0)
        sign = 1 if beta.coords[j] / key[j] > 0 else -1
        return ray, sign

    def fn(self, beta: RatVec) -> ScalarFn:
        ray, _ = self.ray_of(beta)
        return self._fns[ray.key]

    def value(self, beta: RatVec, z: complex, w: WeylElement | None = None, conj: bool = False) -> complex:
        """Evaluate the density of beta at z, optionally Weyl-moved or contragredient."""
        if w is not None:
            winv = self.levi.datum.element(invert(w.perm))
            beta = RatVec(mat_vec(winv.matrix, beta.coords))
        f = self.fn(beta)
        arg = -z if conj else z
        if f.has_pole0() and abs(arg) < 1e-12:
            raise PoleHit(f"density argument hits the pole at 0 along {beta}")
        return f(arg)


# ---------------------------------------------------------------------------
# splitting formula and descent sums


def _in_levi(L1: Levi, ray: Ray, S: Levi) -> bool:
    d = L1.datum
    return all(d.pair(ray.rep, b) == 0 for b in S.basis) if S.dim else True


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
    d = L1.datum
    if not (contains(L1, M) and contains(M, S)):
        raise NotComparable("need L1 <= M <= S")
    rel = _rel_basis(M, S)
    ks = len(rel)
    if ks == 0:
        return 1.0 + 0j
    candidates = []
    proj_rel = projector(rel, d.gram)
    for ray in restricted_rays(L1):
        if not _in_levi(L1, ray, S):
            continue
        rep_neg = ray.rep if d.pair(ray.rep, Q1.chamber_point) < 0 else -ray.rep
        dual_neg = RatVec(vscale(Fraction(2) / d.pair(rep_neg, rep_neg), rep_neg.coords))
        proj = mat_vec(proj_rel, dual_neg.coords)
        if all(x == 0 for x in proj):
            continue
        candidates.append((ray, rep_neg, dual_neg, proj))
    from itertools import combinations

    total = 0j
    for subset in combinations(candidates, ks):
        projs = [c[3] for c in subset]
        if mat_rank(projs) != ks:
            continue
        vol = QuadConst.from_square(gram_det(projs, d.gram))
        term = complex(float(vol))
        for ray, rep_neg, dual_neg, _ in subset:
            z = lam_eval(dual_neg)
            term *= fns.value(rep_neg, z, w=w, conj=conj)
        total += term
    return total


def split_formula(
    fns: ScalarRootFns,
    M: Levi,
    P: ParabolicChamber,
    Q1: ParabolicChamber,
    lam,
) -> complex:
    """Splitting sum for the full group: subsets of rays negative on Q1 whose
    duals project to a basis of a_M, weighted by the covolume of the projected lattice."""
    d = M.datum
    if Q1.levi != fns.levi:
        raise NotComparable("Q1 must be a chamber of the density Levi")
    if not set(P.positive_roots) <= set(Q1.positive_roots):
        raise NotComparable("Q1 is not contained in P")
    lam_eval = _lam_evaluator(d, lam)
    return split_terms(fns, M, gfull(d), Q1, lam_eval)


def _lam_evaluator(d, lam) -> Callable[[RatVec], complex]:
    if isinstance(lam, RatVec):
        return lambda dual: complex(d.pair(lam, dual))
    coords = tuple(complex(x) for x in lam)

    def ev(dual: RatVec) -> complex:
        gd = [sum(complex(d.gram[i][j]) * complex(dual.coords[j]) for j in range(d.rank)) for i in range(d.rank)]
        return sum(c * g for c, g in zip(coords, gd))

    return ev


def descent_sum(values: Mapping[Levi, complex], M: Levi) -> dict[Levi, complex]:
    """For each L >= M, the splitting-weighted sum of the given S-indexed values."""
    d = M.datum
    ups = enumerate_levis(d, lower=M)
    for S in ups:
        if S not in values:
            raise IncompleteInput(f"missing value for {S.label}")
    out = {}
    for L in ups:
        total = 0j
        for S in ups:
            w = d_constant(M, L, S)
            if not w.is_zero():
                total += float(w) * complex(values[S])
        out[L] = total
    return out


# ---------------------------------------------------------------------------
# analytic route: members induced by the densities (cross-check for the
# splitting formula)


_SEG_NODES, _SEG_WEIGHTS = np.polynomial.legendre.leggauss(32)
_SEG_NODES = _SEG_NODES.astype(complex)


def _segment_integral(f: ScalarFn, z0: complex, z1: complex) -> complex:
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    zs = mid + half * _SEG_NODES
    vals = np.asarray([f(z) for z in zs], dtype=complex)
    return complex(half * np.dot(_SEG_WEIGHTS, vals))


def induced_member(
    fns: ScalarRootFns,
    Qprime: ParabolicChamber,
    Q: ParabolicChamber,
    lam0: Sequence[complex],
    zeta: Sequence[complex],
) -> complex:
    """Member value at zeta of the chamber family the densities generate at basepoint lam0.

    The product runs over the rays positive on Qprime and negative on Q; each
    factor is exp of the density integrated between the two signed pairings.
    """
    L1 = fns.levi
    d = L1.datum
    ev0 = _lam_evaluator(d, lam0)
    ev1 = _lam_evaluator(d, [a + b for a, b in zip(lam0, zeta)])
    total = 0j
    for ray in restricted_rays(L1):
        sp = d.pair(ray.rep, Qprime.chamber_point)
        sq = d.pair(ray.rep, Q.chamber_point)
        if not (sp > 0 > sq) and not (sp < 0 < sq):
            continue
        rep = ray.rep if sp > 0 else -ray.rep
        dual = RatVec(vscale(Fraction(2) / d.pair(rep, rep), rep.coords))
        f = fns.fn(rep)
        total += _segment_integral(f, ev0(dual), ev1(dual))
    return cmath.exp(total)


def induced_family_value(
    fns: ScalarRootFns,
    P: ParabolicChamber,
    lam0: Sequence[complex],
    direction: RatVec,
    nodes: int = 64,
) -> complex:
    """Numeric limit of the induced family along a shrinking line through lam0.

    Independent analytic route for the splitting sum.  The chamber sum c(s) at
    zeta = s * direction is analytic in s up to the nearest member pole, so the
    limit is extracted as a Cauchy mean over a small circle; the circle is then
    halved and the two values must agree, which certifies convergence.
    """
    L1 = fns.levi
    d = L1.datum
    from .levilattice import theta as theta_fn

    chambers = parabolics(L1)
    theta_at_dir = {Qp.index: float(theta_fn(Qp, direction)) for Qp in chambers}
    ev0 = _lam_evaluator(d, lam0)
    # keep the circle well inside the disc where every member stays off its poles
    margin = None
    for ray in restricted_rays(L1):
        dual = ray.dual
        z0 = abs(ev0(dual))
        step = abs(complex(d.pair(direction, dual)))
        if step > 0:
            bound = z0 / step
            margin = bound if margin is None else min(margin, bound)
    radius = 0.2 * (margin if margin is not None else 1.0)

    def circle_mean(r: float) -> complex:
        total = 0j
        for k in range(nodes):
            s = r * cmath.exp(2j * cmath.pi * k / nodes)
            zeta = [s * complex(x) for x in direction.coords]
            cs = 0j
            for Qp in chambers:
                member = induced_member(fns, Qp, P, lam0, zeta)
                cs += member / (theta_at_dir[Qp.index] * s ** L1.dim)
            total += cs
        return total / nodes

    v1 = circle_mean(radius)
    v2 = circle_mean(radius / 2)
    if abs(v1 - v2) > 1e-6 * max(1.0, abs(v2)):
        from .errors import NoConvergence

        raise NoConvergence(f"family limit unstable under radius halving: {v1} vs {v2}")
    return v2
