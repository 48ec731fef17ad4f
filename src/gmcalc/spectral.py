"""Discrete-parameter combinatorics: triples, R-groups, multiplicities, constants.

A spectral parameter is modeled by its combinatorial shadow only: the set of
roots where the attached density vanishes, a chamber-stabilizing element r,
and per-ray multiplicities.  Everything downstream (discreteness tests, the
basis-sum constants, the sign character, the bounded-extension sweep) is a
function of this shadow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    InternalInconsistency,
    NotARoot,
    NotChamberStabilizer,
    NotInStabilizer,
    NotSubsystem,
)
from .exactlin import (
    Mat,
    Vec,
    coords_in_basis,
    mat,
    mat_vec,
    primitive_ray,
    projector,
    rank as mat_rank,
    rref,
    transpose,
    vadd,
    vscale,
    zeros,
)
from .gmfamily import ScalarFn, ScalarRootFns, scalar_fn_from_template
from .levilattice import (
    Levi,
    Ray,
    _vanishing_subset,
    chambers_of_rays,
    contains,
    levi_lattice,
    parabolics,
    restricted_rays,
)
from .rootdatum import (
    RatVec,
    RootDatum,
    WeylElement,
    act,
    compose,
    element_from_word,
    invert,
    reflect_subgroup,
    weyl_group,
)


@dataclass(frozen=True)
class SpectralTriple:
    ambient: RootDatum
    sigma_roots: frozenset[int]
    r_elem: WeylElement
    chamber_c: RatVec

    def __repr__(self):
        return f"SpectralTriple(|sigma|={len(self.sigma_roots)}, r={self.r_elem.word})"


class TauClass:
    """A triple together with its elliptic home Levi (the fixed flat of r)."""

    def __init__(self, triple: SpectralTriple, mult: Mapping[Vec, Fraction] | None = None):
        self.triple = triple
        d = triple.ambient
        fix = _fixed_space(d, triple.r_elem)
        subset = _vanishing_subset(d, fix)
        home = None
        for L in levi_lattice(d):
            if L.root_subset == subset:
                home = L
                break
        if home is None or home.dim != len(fix):
            raise InternalInconsistency("fixed space of r is not a flat of the arrangement")
        self.levi_L = home
        self.mult = dict(mult) if mult else {}
        self._nbeta_cache: dict[Vec, Fraction] | None = None

    @property
    def datum(self) -> RootDatum:
        return self.triple.ambient

    def __repr__(self):
        return f"TauClass(home={self.levi_L.label}, {self.triple!r})"

    # -- multiplicities ------------------------------------------------

    def nbeta_map(self) -> dict[Vec, Fraction]:
        """n for every reduced restricted ray of the home flat."""
        if self._nbeta_cache is not None:
            return self._nbeta_cache
        d = self.datum
        home = self.levi_L
        proj_m = projector(home.basis_rows(), d.gram)
        sigma_keys = []
        for i in self.triple.sigma_roots:
            proj = mat_vec(proj_m, d.roots[i].coords)
            if any(x != 0 for x in proj):
                sigma_keys.append(primitive_ray(proj))
        out: dict[Vec, Fraction] = {}
        for ray in restricted_rays(home):
            if ray.key in self.mult:
                out[ray.key] = Fraction(self.mult[ray.key])
                continue
            count = sigma_keys.count(ray.key)
            if count % 2 != 0:
                raise InternalInconsistency("restriction count per ray must be even")
            out[ray.key] = Fraction(count, 2)
        self._nbeta_cache = out
        return out

    def tau_rays(self) -> list[Ray]:
        """Rays carrying a pole (nonzero multiplicity)."""
        nb = self.nbeta_map()
        return [ray for ray in restricted_rays(self.levi_L) if nb.get(ray.key, 0) != 0]


def _fixed_space(d: RootDatum, w: WeylElement) -> list[Vec]:
    n = d.rank
    rows = [tuple(w.matrix[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)]
    from .exactlin import kernel

    return [v for v in kernel(rows, n)]


def _is_closed_subsystem(d: RootDatum, subset: frozenset[int]) -> bool:
    if any(d.neg_of[i] not in subset for i in subset):
        return False
    for i in subset:
        refl = d.reflection_perms[i]
        if any(refl[j] not in subset for j in subset):
            return False
    return True


def _sigma_rays(d: RootDatum, subset: frozenset[int]) -> list[Ray]:
    groups: dict[Vec, list[tuple[int, Fraction]]] = {}
    for i in subset:
        key = primitive_ray(d.roots[i].coords)
        j = next(k for k, x in enumerate(key) if x != 0)
        groups.setdefault(key, []).append((i, d.roots[i].coords[j] / key[j]))
    rays = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key]))
        cmin = min(abs(c) for _, c in members)
        rep = RatVec(vscale(cmin, key))
        dual = RatVec(vscale(Fraction(2) / d.pair(rep, rep), rep.coords))
        rays.append(Ray(key=key, rep=rep, dual=dual, members=members))
    return rays


def _sign_pattern(d: RootDatum, rays: Sequence[Ray], point: RatVec) -> tuple[int, ...]:
    out = []
    for ray in rays:
        p = d.pair(ray.rep, point)
        out.append(0 if p == 0 else (1 if p > 0 else -1))
    return tuple(out)


def _full_basis(d: RootDatum) -> tuple[RatVec, ...]:
    return tuple(
        RatVec(tuple(Fraction(1) if j == i else Fraction(0) for j in range(d.rank)))
        for i in range(d.rank)
    )


def build_spectral_triple(
    ambient: RootDatum,
    sigma_zero_roots: Iterable[int],
    r_word: Sequence[int] = (),
) -> SpectralTriple:
    """Validated triple; r_word is a product of reflections given by root indices.

    The chamber of the vanishing-set arrangement is chosen deterministically
    as the one with the lexicographically smallest interior witness.
    """
    subset = frozenset(sigma_zero_roots)
    for i in subset:
        if not 0 <= i < len(ambient.roots):
            raise NotSubsystem(f"root index {i} out of range")
    if not _is_closed_subsystem(ambient, subset):
        raise NotSubsystem("vanishing set is not reflection-closed and symmetric")
    rays = _sigma_rays(ambient, subset)
    points = chambers_of_rays(ambient, _full_basis(ambient), rays)
    chamber_c = sorted(points, key=lambda p: p.coords)[0]
    r = element_from_word(ambient, list(r_word), by_root_index=True)
    if any(r.perm[i] not in subset for i in subset):
        raise NotChamberStabilizer("r does not permute the vanishing set")
    if _sign_pattern(ambient, rays, act(r, chamber_c)) != _sign_pattern(ambient, rays, chamber_c):
        raise NotChamberStabilizer("r moves the chosen chamber")
    return SpectralTriple(ambient, subset, r, chamber_c)


def tau_class(triple: SpectralTriple, mult: Mapping[Vec, Fraction] | None = None) -> TauClass:
    return TauClass(triple, mult)


# ---------------------------------------------------------------------------
# groups attached to a triple


@dataclass(frozen=True)
class RGroups:
    w_sigma0: tuple[WeylElement, ...]
    w_sigma: tuple[WeylElement, ...]
    r_group: tuple[WeylElement, ...]


def _stabilizers(
    d: RootDatum, roots: frozenset[int], triple: SpectralTriple
) -> tuple[tuple[WeylElement, ...], tuple[WeylElement, ...]]:
    """The group generated by the reflections in roots and r, and its chamber stabilizer."""
    wsig = d.subgroup([d.reflection_perms[i] for i in roots] + [triple.r_elem.perm])
    rays = _sigma_rays(d, roots)
    base = _sign_pattern(d, rays, triple.chamber_c)
    rgrp = tuple(w for w in wsig if _sign_pattern(d, rays, act(w, triple.chamber_c)) == base)
    return wsig, rgrp


def r_group(t: SpectralTriple | TauClass) -> RGroups:
    """The reflection part, the full modeled stabilizer and the chamber stabilizer."""
    triple = t.triple if isinstance(t, TauClass) else t
    d = triple.ambient
    w0 = reflect_subgroup(d, triple.sigma_roots)
    wsig, rgrp = _stabilizers(d, triple.sigma_roots, triple)
    w0set = {w.perm for w in w0}
    for w in wsig:
        winv = invert(w.perm)
        for u in w0:
            if compose(compose(w.perm, u.perm), winv) not in w0set:
                raise InternalInconsistency("reflection part is not normal in the stabilizer")
    products = {compose(a.perm, b.perm) for a in rgrp for b in w0}
    if products != {w.perm for w in wsig}:
        raise InternalInconsistency("chamber stabilizer does not complement the reflection part")
    return RGroups(w0, wsig, rgrp)


# ---------------------------------------------------------------------------
# discreteness


def _restriction_spans(t: TauClass, upper: Levi) -> bool:
    """Do the pole rays lying in `upper` span the part of a_home orthogonal to a_upper?"""
    d = t.datum
    home = t.levi_L
    from .levilattice import _rel_basis

    rel = _rel_basis(home, upper)
    need = len(rel)
    if need == 0:
        return True
    vecs = []
    for ray in t.tau_rays():
        if upper.dim and any(d.pair(ray.rep, b) != 0 for b in upper.basis):
            continue
        vecs.append(ray.rep.coords)
    return bool(vecs) and mat_rank(vecs) == need


def _brute_force_discrete(t: TauClass, upper: Levi) -> bool:
    """Does the reflection-coset of r contain an element whose fixed space is a_upper?"""
    d = t.datum
    sub_roots = [i for i in t.triple.sigma_roots if i in upper.root_subset]
    w0 = reflect_subgroup(d, sub_roots)
    target = rref([b.coords for b in upper.basis]) if upper.dim else []
    for w in w0:
        fixed = _fixed_space(d, d.element(compose(t.triple.r_elem.perm, w.perm)))
        if len(fixed) != upper.dim:
            continue
        if rref(list(fixed)) == target:
            return True
    return False


def classify_tau(t: TauClass, G_levi: Levi | None = None) -> dict:
    """Ellipticity plus the discreteness test computed two independent ways."""
    from .errors import NotComparable

    d = t.datum
    upper = G_levi if G_levi is not None else levi_lattice(d)[-1]
    if not contains(t.levi_L, upper):
        raise NotComparable("upper Levi must contain the home Levi")
    fix = _fixed_space(d, t.triple.r_elem)
    elliptic = rref(list(fix)) == rref([b.coords for b in t.levi_L.basis])
    span = _restriction_spans(t, upper)
    brute = _brute_force_discrete(t, upper)
    if span != brute:
        raise InternalInconsistency(
            f"span criterion ({span}) disagrees with coset search ({brute})"
        )
    return {"elliptic": elliptic, "discrete": span}


# ---------------------------------------------------------------------------
# multiplicities and constants


def n_beta(t: TauClass, beta: RatVec) -> Fraction:
    """Half the number of vanishing-set roots restricting to a multiple of beta."""
    d = t.datum
    try:
        key = primitive_ray(beta.coords)
    except ValueError:
        raise NotARoot("zero vector")
    for ray in restricted_rays(t.levi_L):
        if ray.key == key:
            if beta != ray.rep and beta != -ray.rep:
                raise NotARoot(f"{beta} is not a reduced restricted root")
            return t.nbeta_map()[ray.key]
    raise NotARoot(f"{beta} is not a restricted root of the home flat")


def discrete_constants(t: TauClass, L_levi: Levi) -> dict:
    """The basis sum n^L and the centralizer order k^L for an upper Levi.

    n^L is computed from one chamber of the home flat and re-verified against
    every other chamber; a mismatch is a genuine defect.
    """
    d = t.datum
    home = t.levi_L
    if not contains(home, L_levi):
        raise NotARoot("L must contain the home Levi")
    from .levilattice import _rel_basis

    rel = _rel_basis(home, L_levi)
    need = len(rel)
    nb = t.nbeta_map()
    in_l = [
        (ray, nb[ray.key] / 2)
        for ray in restricted_rays(home)
        if not (L_levi.dim and any(d.pair(ray.rep, b) != 0 for b in L_levi.basis))
    ]
    values = []
    for Q in parabolics(home):
        candidates = [
            (half, ray.rep if d.pair(ray.rep, Q.chamber_point) > 0 else -ray.rep) for ray, half in in_l
        ]
        total = Fraction(0)
        if need == 0:
            total = Fraction(1)
        else:
            for subset in combinations(candidates, need):
                if mat_rank([rep.coords for _, rep in subset]) != need:
                    continue
                prod = Fraction(1)
                for half, _ in subset:
                    prod *= half
                total += prod
        values.append(total)
    if any(v != values[0] for v in values):
        raise InternalInconsistency("basis sum depends on the chamber")
    k = _k_constant(t, L_levi)
    return {"nL": values[0], "kL": k}


def _k_constant(t: TauClass, L_levi: Levi) -> int:
    d = t.datum
    triple = t.triple
    _, rgrp = _stabilizers(d, triple.sigma_roots & L_levi.root_subset, triple)
    r = triple.r_elem.perm
    return sum(1 for w in rgrp if compose(w.perm, r) == compose(r, w.perm))


# ---------------------------------------------------------------------------
# the modeled stabilizer W_tau on the home flat


@dataclass(frozen=True)
class TauWeyl:
    """Action on the home flat in its basis coordinates, with one ambient lift."""

    mat: Mat
    lift: WeylElement

    def __hash__(self):
        return hash(self.mat)

    def __eq__(self, other):
        return isinstance(other, TauWeyl) and self.mat == other.mat


def w_tau_core(t: TauClass) -> tuple[TauWeyl, ...]:
    """Restrictions to the home flat of reflection-part elements commuting with r."""
    d = t.datum
    triple = t.triple
    home = t.levi_L
    basis_rows = [b.coords for b in home.basis]
    w0 = reflect_subgroup(d, triple.sigma_roots)
    if home.dim == 0:
        return (TauWeyl((), w0[0]),)
    out: dict[Mat, TauWeyl] = {}
    r = triple.r_elem.perm
    for w in w0:
        if compose(w.perm, r) != compose(r, w.perm):
            continue
        rows = []
        ok = True
        for b in basis_rows:
            img = mat_vec(w.matrix, b)
            c = coords_in_basis(img, basis_rows)
            if c is None:
                ok = False
                break
            rows.append(c)
        if not ok:
            continue
        m = transpose(mat(rows))
        if m not in out:
            out[m] = TauWeyl(m, w)
    return tuple(sorted(out.values(), key=lambda x: x.mat))


def _apply_tau(t: TauClass, u: TauWeyl, point: RatVec) -> RatVec:
    home = t.levi_L
    if home.dim == 0:
        return RatVec.zero(t.datum.rank)
    basis_rows = [b.coords for b in home.basis]
    c = coords_in_basis(point.coords, basis_rows)
    if c is None:
        raise NotInStabilizer("point is not on the home flat")
    img = mat_vec(u.mat, c)
    v = zeros(t.datum.rank)
    for x, b in zip(img, basis_rows):
        v = vadd(v, vscale(x, b))
    return RatVec(v)


def tau_chambers(t: TauClass) -> list[RatVec]:
    """Interior witnesses of the chambers cut out by the pole rays on the home flat."""
    return chambers_of_rays(t.datum, t.levi_L.basis, t.tau_rays())


def chamber_transitivity(t: TauClass) -> bool:
    """Does the modeled stabilizer reach every pole-ray chamber from the first one?"""
    d = t.datum
    rays = t.tau_rays()
    points = tau_chambers(t)
    patterns = {_sign_pattern(d, rays, p) for p in points}
    core = w_tau_core(t)
    reached = {_sign_pattern(d, rays, _apply_tau(t, u, points[0])) for u in core}
    return reached == patterns


def _flat_reflection(t: TauClass, ray: Ray) -> Mat:
    """Reflection in the given ray written in the basis coordinates of the home flat."""
    d = t.datum
    home = t.levi_L
    basis_rows = [b.coords for b in home.basis]
    dual_c = coords_in_basis(ray.dual.coords, basis_rows)
    k = home.dim
    cols = []
    for j in range(k):
        e = tuple(Fraction(1) if l == j else Fraction(0) for l in range(k))
        val = d.pair(ray.rep, RatVec(basis_rows[j]))
        cols.append(tuple(x - val * y for x, y in zip(e, dual_c)))
    return transpose(mat(cols))


def reflections_in_core(t: TauClass) -> bool:
    """Is every pole-ray reflection the restriction of a commuting reflection-part element?"""
    core_mats = {u.mat for u in w_tau_core(t)}
    return all(_flat_reflection(t, ray) in core_mats for ray in t.tau_rays())


def eps_tau(t: TauClass, w) -> int:
    """Sign of the pole-ray product form under w, verified chamber-independent."""
    d = t.datum
    rays = t.tau_rays()
    if isinstance(w, WeylElement):
        basis_rows = [b.coords for b in t.levi_L.basis]
        rows = []
        for b in basis_rows:
            img = mat_vec(w.matrix, b)
            c = coords_in_basis(img, basis_rows)
            if c is None:
                raise NotInStabilizer("element does not preserve the home flat")
            rows.append(c)
        u = TauWeyl(transpose(mat(rows)), w)
    elif isinstance(w, TauWeyl):
        u = w
    else:
        raise NotInStabilizer("unsupported element type")
    reps = {ray.rep.coords for ray in rays} | {(-ray.rep).coords for ray in rays}
    for ray in rays:
        img = _apply_tau(t, u, ray.rep)
        if img.coords not in reps:
            raise NotInStabilizer("element does not permute the pole rays")
    points = tau_chambers(t)
    signs = []
    for c_pt in points[: max(1, min(len(points), 6))]:
        pos = [ray.rep if d.pair(ray.rep, c_pt) > 0 else -ray.rep for ray in rays]
        pos_set = {p.coords for p in pos}
        inversions = 0
        for p in pos:
            if _apply_tau(t, u, p).coords not in pos_set:
                inversions += 1
        signs.append(-1 if inversions % 2 else 1)
    if any(s != signs[0] for s in signs):
        raise InternalInconsistency("sign depends on the chamber")
    return signs[0]


# ---------------------------------------------------------------------------
# densities tied to a class, and the bounded-extension sweep


def density_for(t: TauClass, template: Mapping) -> ScalarRootFns:
    """Per-ray densities on the home flat with residues tied to the multiplicities."""
    nb = t.nbeta_map()
    fns: dict[Vec, ScalarFn] = {}
    for ray in restricted_rays(t.levi_L):
        fns[ray.key] = scalar_fn_from_template(template, nb.get(ray.key, Fraction(0)))
    return ScalarRootFns(t.levi_L, fns)


def tempext_check(
    t: TauClass,
    fns: ScalarRootFns,
    phi_battery: Sequence[Callable],
    deltas: Sequence[float] = (1e-2, 1e-4, 1e-6),
    growth_threshold: float = 0.5,
) -> list[dict]:
    """Sample symmetrized sums near every pole wall and estimate their growth.

    A genuine simple pole grows like 1/delta; bounded extensions stay flat.
    The estimated exponent must stay below the threshold for every wall, every
    independent ray subset and every test function.
    """
    d = t.datum
    home = t.levi_L
    rays = t.tau_rays()
    core = w_tau_core(t)
    records = []
    subsets = []
    for size in range(1, home.dim + 1):
        for combo in combinations(rays, size):
            if mat_rank([r.rep.coords for r in combo]) == len(combo):
                subsets.append(combo)
    if not subsets:
        subsets = [()]
    basis_rows = [b.coords for b in home.basis]
    for F in subsets:
        for wall in F if F else []:
            wall_pts = _wall_points(t, wall, F)
            for phi_idx, phi in enumerate(phi_battery):
                maxima = []
                for delta in deltas:
                    m = 0.0
                    for base in wall_pts:
                        lam = [float(x) + delta * float(y) for x, y in zip(base.coords, wall.rep.coords)]
                        val, scale = _symmetrized_sum(t, fns, core, F, lam, phi)
                        # below the cancellation noise floor the sum counts as zero
                        if abs(val) <= 1e-9 * scale:
                            val = 0.0
                        m = max(m, abs(val))
                    maxima.append(m)
                if max(maxima) == 0.0:
                    exponent = float("-inf")
                else:
                    lo = max(maxima[-1], 1e-300)
                    hi = max(maxima[0], 1e-300)
                    exponent = math.log(lo / hi) / math.log(deltas[0] / deltas[-1])
                records.append(
                    {
                        "rays": [str(r.rep) for r in F],
                        "wall": str(wall.rep),
                        "phi": phi_idx,
                        "maxima": maxima,
                        "exponent": exponent,
                        "pass": exponent < growth_threshold,
                    }
                )
    return records


def _wall_points(t: TauClass, wall: Ray, F) -> list[RatVec]:
    """A few deterministic generic points on the wall, away from the other pole walls."""
    d = t.datum
    home = t.levi_L
    from .exactlin import kernel

    row = tuple(d.pair(wall.rep, b) for b in home.basis)
    ker = kernel([row], home.dim)
    basis_rows = [b.coords for b in home.basis]
    wall_vecs = []
    for kv in ker:
        v = zeros(d.rank)
        for c, b in zip(kv, basis_rows):
            v = vadd(v, vscale(c, b))
        wall_vecs.append(v)
    if not wall_vecs:
        return [RatVec.zero(d.rank)]
    others = [r for r in t.tau_rays() if r.key != wall.key]
    points = []
    weights = [
        (Fraction(1), Fraction(1, 3), Fraction(1, 7), Fraction(1, 13)),
        (Fraction(2, 3), Fraction(-1, 5), Fraction(1, 11), Fraction(-1, 17)),
        (Fraction(1, 2), Fraction(1, 9), Fraction(-1, 4), Fraction(1, 19)),
    ]
    for ws in weights:
        pt = zeros(d.rank)
        for c, v in zip(ws, wall_vecs):
            pt = vadd(pt, vscale(c, v))
        cand = RatVec(pt)
        tries = 0
        while any(d.pair(o.rep, cand) == 0 for o in others) and tries < 20:
            cand = cand + Fraction(1, 23 + 4 * tries) * RatVec(wall_vecs[0])
            tries += 1
        if not any(d.pair(o.rep, cand) == 0 for o in others):
            points.append(cand)
    return points or [RatVec(wall_vecs[0])]


def _symmetrized_sum(
    t, fns: ScalarRootFns, core, F, lam_real: Sequence[float], phi
) -> tuple[complex, float]:
    """The symmetrized sum and the total magnitude of its summands."""
    d = t.datum
    total = 0j
    scale = 0.0
    for u in core:
        moved = [
            sum(float(u.lift.matrix[i][j]) * lam_real[j] for j in range(d.rank))
            for i in range(d.rank)
        ]
        val = complex(phi(moved))
        for ray in F:
            gd = [
                sum(float(d.gram[i][j]) * float(ray.dual.coords[j]) for j in range(d.rank))
                for i in range(d.rank)
            ]
            z = 1j * sum(m * g for m, g in zip(moved, gd))
            val *= fns.value(ray.rep, z)
        total += val
        scale += abs(val)
    return total, scale


# ---------------------------------------------------------------------------
# exhaustive enumeration for sweeps


def closed_subsystems(d: RootDatum) -> list[frozenset[int]]:
    """All symmetric reflection-closed subsets of the root set (including the empty one)."""
    pos = list(d.pos_indices)
    out = []
    for size in range(len(pos) + 1):
        for combo in combinations(pos, size):
            subset = frozenset(combo) | frozenset(d.neg_of[i] for i in combo)
            if _is_closed_subsystem(d, subset):
                out.append(subset)
    seen = set()
    unique = []
    for s in out:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def enumerate_spectral_triples(d: RootDatum) -> list[SpectralTriple]:
    """Every (vanishing set, chamber-stabilizing r) pair, deterministically ordered."""
    triples = []
    for subset in closed_subsystems(d):
        rays = _sigma_rays(d, subset)
        points = chambers_of_rays(d, _full_basis(d), rays)
        chamber_c = sorted(points, key=lambda p: p.coords)[0]
        base = _sign_pattern(d, rays, chamber_c)
        for w in weyl_group(d):
            if any(w.perm[i] not in subset for i in subset):
                continue
            if _sign_pattern(d, rays, act(w, chamber_c)) != base:
                continue
            triples.append(SpectralTriple(d, subset, w, chamber_c))
    return triples
