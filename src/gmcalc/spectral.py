"""Discrete-parameter combinatorics: triples, multiplicities, constants.

A spectral parameter is modeled by its combinatorial shadow only: the set of
roots where the attached density vanishes, a chamber-stabilizing element r,
and per-ray multiplicities.  Everything downstream (discreteness tests, the
constants n^L and k^L, the modeled stabilizer on the home flat, the
bounded-extension sweep) is a function of this shadow.

The home of a class is the first Levi in lattice order that r fixes
pointwise, read off the integer basis rows of each Levi (``Levi.rows``)
through r's integer matrix (``WeylElement.matrix``), and the dimension of a
fixed space is the rank less the integer rank of w - 1; the coset search of
the discreteness test reads the same two facts.  The modeled stabilizer
W_tau (``TauClass.core``) keeps each element as its integer matrix on the
home flat, its basis coordinates times the home's one scale read through
the home's coordinate map (``levilattice.flat_coords``), and the pole-ray
reflections are built in that convention from each ray's key and form.  The pole-ray chambers are not kept: ``chamber_transitivity``
reads their sign patterns and witnesses off ``levilattice.chamber_witnesses``.
Every chamber, pole-wall and wall-point test reads the signs of integer
forms built once per datum (``RootDatum.root_forms``) or per ray
(``Ray.form``) through ``levilattice.form_signs``; the wall points span the
kernel of one integer row, the wall's form on the home's basis rows, and
the bounded-extension sweep moves its float points by the core's integer
matrices.  The chamber of a vanishing set is the one holding the least
point of rho_check's orbit, which is regular, so the chamber-stabilizer test
reads the root signs there with no chamber search.  The basis sum n^L, its
elementary-symmetric cross-check, the discreteness span test and the
independent pole-ray subsets of the bounded-extension sweep read each pole
ray's key, its primitive integer row, and its n_beta / 2 from the halves
kept once per class over one denominator (``TauClass.pole_rows``).
A class keeps its facts as cached properties; the classes of a datum are
enumerated once and kept on the datum (``rootdatum.kept``), and so is the
home of each r (``_home``), which the classes sharing r read.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    InternalInconsistency,
    NotARoot,
    NotChamberStabilizer,
    NotComparable,
    NotSubsystem,
)
from .exactlin import idot, int_mat_vec, int_primitive, int_rank, int_row
from .gmfamily import ScalarFn, ScalarRootFns, density_at
from .levilattice import (
    IntRows,
    Levi,
    Ray,
    chamber_witnesses,
    contains,
    coord_map,
    flat_coords,
    form_signs,
    levi_lattice,
    restricted_rays,
)
from .rootdatum import (
    RatVec,
    RootDatum,
    WeylElement,
    compose,
    element_from_word,
    invert,
    kept,
    reflect_subgroup,
    weyl_group,
)


class TauClass:
    """A spectral parameter: vanishing set, chamber-stabilizing r, multiplicity overrides.

    r fixes the chamber of the vanishing set's arrangement that holds the
    least point of rho_check's orbit (``_chamber_test``).  The home Levi (the
    flat fixed by r) and the facts read off it are built on first use and
    kept here.  Classes compare by identity.
    """

    def __init__(
        self,
        datum: RootDatum,
        sigma_roots: frozenset[int],
        r_elem: WeylElement,
        mult: tuple[tuple[tuple[int, ...], Fraction], ...] = (),  # sorted (ray key, n) overrides
    ):
        self.datum, self.sigma_roots, self.r_elem, self.mult = datum, sigma_roots, r_elem, mult

    def __repr__(self):
        return f"TauClass(|sigma|={len(self.sigma_roots)}, r={self.r_elem.word})"

    @cached_property
    def levi_L(self) -> Levi:
        """The elliptic home Levi: the fixed space of r (``_home``)."""
        return _home(self.datum, self.r_elem)

    @cached_property
    def nbeta(self) -> dict[tuple[int, ...], Fraction]:
        """n for every reduced restricted ray of the home flat, by ray key: half its vanishing-set members."""
        overrides = dict(self.mult)
        out: dict[tuple[int, ...], Fraction] = {}
        for ray in restricted_rays(self.levi_L):
            if ray.key in overrides:
                out[ray.key] = Fraction(overrides[ray.key])
                continue
            count = sum(1 for i, _ in ray.members if i in self.sigma_roots)
            if count % 2 != 0:
                raise InternalInconsistency("restriction count per ray must be even")
            out[ray.key] = Fraction(count, 2)
        return out

    @cached_property
    def tau_rays(self) -> tuple[Ray, ...]:
        """Rays carrying a pole (nonzero multiplicity)."""
        return tuple(ray for ray in restricted_rays(self.levi_L) if self.nbeta[ray.key] != 0)

    @cached_property
    def pole_rows(self) -> tuple[list[int], int]:
        """n_beta / 2 of each pole ray, in ``tau_rays`` order, as integers over one positive denominator."""
        return int_row(self.nbeta[ray.key] / 2 for ray in self.tau_rays)

    @cached_property
    def core(self) -> dict[IntRows, WeylElement]:
        """W_tau: the restrictions to the home flat of the reflection-part elements commuting with r, each
        as its integer matrix on the home (``_on_home``) with its first lift, in matrix order."""
        out: dict[IntRows, WeylElement] = {}
        r = self.r_elem.perm
        for w in reflect_subgroup(self.datum, self.sigma_roots):
            if compose(w.perm, r) == compose(r, w.perm):
                m = _on_home(self, w)
                if m is not None:
                    out.setdefault(m, w)
        return dict(sorted(out.items()))


@kept
def _home(d: RootDatum, r: WeylElement) -> Levi:
    """The fixed space of r, as the first Levi in lattice order (larger flats first) that r fixes pointwise;
    built once per datum and r, which many classes share.  No flat larger than the fixed space is fixed,
    every r fixes a_G = 0, and the Levi found is the fixed space of r exactly when the dimensions agree."""
    fixed = _fixed_dim(d, r)
    home = next(L for L in levi_lattice(d) if L.dim <= fixed and _fixes_flat(d, r, L))
    if home.dim != fixed:
        raise InternalInconsistency("fixed space of r is not a flat of the arrangement")
    return home


def _fixes_flat(d: RootDatum, w: WeylElement, L: Levi) -> bool:
    """Does w fix a_L pointwise?  It does exactly when it fixes each integer basis row of a_L."""
    return all(int_mat_vec(w.matrix, b) == b for b in L.rows)


def _fixed_dim(d: RootDatum, w: WeylElement) -> int:
    """dim Fix(w) = rank - rank(w - 1), where column j of w - 1 is w(alpha_{simple j}) - e_j."""
    cols = [tuple(x - (k == j) for k, x in enumerate(d.root_rows[w.perm[i]])) for j, i in enumerate(d.simple)]
    return d.rank - int_rank(cols)


def _is_closed_subsystem(d: RootDatum, subset: frozenset[int]) -> bool:
    if any(d.neg_of[i] not in subset for i in subset):
        return False
    for i in subset:
        refl = d.reflection_perms[i]
        if any(refl[j] not in subset for j in subset):
            return False
    return True


def _chamber_test(d: RootDatum, roots: frozenset[int]) -> Callable[[WeylElement], bool]:
    """A test for "w fixes the chamber of the roots' arrangement that holds c", c the least point of
    rho_check's orbit.

    c is regular, so it lies in a chamber of every such arrangement.  The
    roots are closed under negation, so each wall is the wall of one positive
    root alpha_m among them, and alpha_m pairs with w(c) as w^-1(alpha_m)
    pairs with c: the test reads the sign of every root at c through the
    permutation of w^-1.
    """
    orbit, _ = d.rho_orbit
    signs = form_signs(d, d.root_forms, min(orbit))
    reps = [m for m in d.pos_indices if m in roots]
    base = [signs[m] for m in reps]

    def fixes(w: WeylElement) -> bool:
        back = invert(w.perm)
        return [signs[back[m]] for m in reps] == base

    return fixes


def build_spectral_triple(
    ambient: RootDatum,
    sigma_zero_roots: Iterable[int],
    r_word: Sequence[int] = (),
) -> TauClass:
    """Validated class; r_word is a product of reflections given by root indices."""
    try:
        subset = frozenset(sigma_zero_roots)
    except TypeError:
        raise NotSubsystem(f"the vanishing set is a list of root indices, got {sigma_zero_roots!r}")
    for i in subset:
        if type(i) is not int or not 0 <= i < len(ambient.roots):
            raise NotSubsystem(f"root index {i!r} is not an integer in 0..{len(ambient.roots) - 1}")
    if not _is_closed_subsystem(ambient, subset):
        raise NotSubsystem("vanishing set is not reflection-closed and symmetric")
    fixes = _chamber_test(ambient, subset)
    r = element_from_word(ambient, r_word, by_root_index=True)
    if any(r.perm[i] not in subset for i in subset):
        raise NotChamberStabilizer("r does not permute the vanishing set")
    if not fixes(r):
        raise NotChamberStabilizer("r moves the chosen chamber")
    return TauClass(ambient, subset, r)


def tau_class(t: TauClass, mult: Mapping[tuple, Fraction] | None = None) -> TauClass:
    """The class itself, or a copy whose multiplicities n are overridden per ray key."""
    return TauClass(t.datum, t.sigma_roots, t.r_elem, tuple(sorted(mult.items()))) if mult else t


# ---------------------------------------------------------------------------
# discreteness


def _restriction_spans(t: TauClass, upper: Levi) -> bool:
    """Do the pole rays lying in `upper` span the part of a_home orthogonal to a_upper?"""
    rays, _ = _in_levi(t, upper)
    return int_rank([key for _, key in rays]) == t.levi_L.dim - upper.dim


def _brute_force_discrete(t: TauClass, upper: Levi) -> bool:
    """Does the reflection-coset of r contain an element whose fixed space is a_upper?  An element has
    that fixed space exactly when it fixes a_upper pointwise and its fixed space has the dimension of a_upper."""
    d = t.datum
    sub_roots = [i for i in t.sigma_roots if i in upper.root_subset]
    for w in reflect_subgroup(d, sub_roots):
        u = d.element(compose(t.r_elem.perm, w.perm))
        if _fixes_flat(d, u, upper) and _fixed_dim(d, u) == upper.dim:
            return True
    return False


def classify_tau(t: TauClass, G_levi: Levi | None = None) -> bool:
    """Does the class induce discretely to the upper Levi?  Computed two independent ways.

    The class is elliptic in its home Levi by construction: the home is the
    fixed space of r.
    """
    upper = G_levi if G_levi is not None else levi_lattice(t.datum)[-1]
    if not contains(t.levi_L, upper):
        raise NotComparable("upper Levi must contain the home Levi")
    span = _restriction_spans(t, upper)
    brute = _brute_force_discrete(t, upper)
    if span != brute:
        raise InternalInconsistency(
            f"span criterion ({span}) disagrees with coset search ({brute})"
        )
    return span


# ---------------------------------------------------------------------------
# multiplicities and constants


def n_beta(t: TauClass, beta: RatVec) -> Fraction:
    """Half the number of vanishing-set roots restricting to a multiple of beta."""
    if beta.is_zero():
        raise NotARoot("zero vector")
    key = int_primitive(beta.row)
    for ray in restricted_rays(t.levi_L):
        if ray.key == key:
            if beta != ray.rep and beta != -ray.rep:
                raise NotARoot(f"{beta} is not a reduced restricted root")
            return t.nbeta[ray.key]
    raise NotARoot(f"{beta} is not a restricted root of the home flat")


def _in_levi(t: TauClass, L_levi: Levi) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """The (n_beta / 2 numerator, key) of each pole ray of the home lying in L, and the halves'
    denominator.  A ray lies in L exactly when its member roots do (``rays_in``)."""
    if not contains(t.levi_L, L_levi):
        raise NotARoot("L must contain the home Levi")
    halves, den = t.pole_rows
    return [(half, ray.key) for ray, half in zip(t.tau_rays, halves) if ray.members[0][0] in L_levi.root_subset], den


def _reduced(row: tuple[int, ...], basis: list[tuple[int, list[int]]]) -> tuple[int, list[int]] | None:
    """The row reduced fraction-free against an echelon basis of (pivot, row) pairs and divided by the
    gcd of its entries, with its first nonzero column as pivot; None when the row is in their span.

    Each basis row is zero at the pivots of the rows before it, so clearing the pivots in order
    leaves every earlier one clear.
    """
    v = list(row)
    for p, b in basis:
        f = v[p]
        if f:
            q = b[p]
            v = [q * x - f * y for x, y in zip(v, b)]
    pivot = next((k for k, x in enumerate(v) if x), None)
    if pivot is None:
        return None
    g = math.gcd(*v)
    return pivot, [x // g for x in v]


def n_constant(t: TauClass, L_levi: Levi) -> Fraction:
    """The basis sum n^L for an upper Levi.

    n^L sums, over the sets of restricted rays of the home flat lying in L
    that form a basis of a_home / a_L, the product of their n_beta / 2.  A ray
    and its negative give the same rank and factor, so no chamber is needed,
    and rays with n_beta = 0 add nothing.  The ray subsets are walked depth
    first on the class's integer rows, growing one fraction-free echelon basis
    per prefix: a ray in the span of the prefix is dropped with every
    extension, so no subset is ranked twice.
    """
    need = t.levi_L.dim - L_levi.dim
    rays, den = _in_levi(t, L_levi)
    total = 0
    stack = [(0, [], 1)]  # (next ray, echelon basis of the prefix, product of its halves)
    while stack:
        start, basis, weight = stack.pop()
        if len(basis) == need:
            total += weight
            continue
        for k in range(start, len(rays) - need + len(basis) + 1):
            half, row = rays[k]
            red = _reduced(row, basis)
            if red is not None:
                stack.append((k + 1, basis + [red], weight * half))
    return Fraction(total, den**need)


def discrete_constants(t: TauClass, L_levi: Levi) -> dict:
    """The basis sum n^L and the centralizer order k^L for an upper Levi."""
    return {"nL": n_constant(t, L_levi), "kL": _k_constant(t, L_levi)}


def nl_elementary(t: TauClass, L_levi: Levi) -> Fraction:
    """n^L by a second route: e_need of the n_beta / 2 of the home rays lying in L.

    It is read off prod (1 + x n_beta / 2), on the class's integer halves,
    with no subsets and no rank test, so it equals n_constant(t, L) wherever
    any `need` distinct rays are independent: always for need <= 2, since
    distinct reduced rays are never parallel.
    """
    need = t.levi_L.dim - L_levi.dim
    rays, den = _in_levi(t, L_levi)
    e = [1] + [0] * need
    for half, _ in rays:
        for k in range(need, 0, -1):
            e[k] += half * e[k - 1]
    return Fraction(e[need], den**need)


def _k_constant(t: TauClass, L_levi: Levi) -> int:
    """k^L: the elements commuting with r in the chamber stabilizer of the group
    generated by r and the reflections in the vanishing roots of L."""
    d = t.datum
    roots = t.sigma_roots & L_levi.root_subset
    fixes = _chamber_test(d, roots)
    r = t.r_elem.perm
    wsig = d.subgroup([d.reflection_perms[i] for i in roots] + [r])
    return sum(1 for w in wsig if fixes(w) and compose(w.perm, r) == compose(r, w.perm))


# ---------------------------------------------------------------------------
# the modeled stabilizer W_tau on the home flat


def _on_home(t: TauClass, w: WeylElement) -> IntRows | None:
    """The matrix of w on the home flat in its basis coordinates times the home's one positive scale
    (``coord_map``'s e c), an integer matrix whose column j is C w(E_j) for the basis row E_j = e b_j;
    None if w moves the flat."""
    home = t.levi_L
    cols = [flat_coords(home, int_mat_vec(w.matrix, b)) for b in home.rows]
    return None if None in cols else tuple(zip(*cols))


def chamber_transitivity(t: TauClass) -> bool:
    """Does the modeled stabilizer reach every pole-ray chamber from the first one?"""
    d = t.datum
    forms = [ray.form for ray in t.tau_rays]
    witnesses = chamber_witnesses(t.levi_L, t.tau_rays)
    first = next(iter(witnesses.values())).row
    return {form_signs(d, forms, int_mat_vec(w.matrix, first)) for w in t.core.values()} == witnesses.keys()


def _flat_reflection(t: TauClass, ray: Ray) -> IntRows | None:
    """The reflection in the ray on the home flat in ``_on_home``'s convention, or None where that matrix
    is not integral, so that no core element has it.

    With k the ray's key and f its form, s(E_j) = E_j - (2 f.E_j / f.k) k,
    so entry (i, j) is (scale f.k [i = j] - 2 (f.E_j) (C k)_i) / f.k.
    """
    home = t.levi_L
    scale = coord_map(home)[3]
    norm = idot(ray.form, ray.key)
    pairs = [2 * idot(ray.form, b) for b in home.rows]
    rows = [[scale * norm * (i == j) - y * p for j, p in enumerate(pairs)] for i, y in enumerate(flat_coords(home, ray.key))]
    if any(x % norm for row in rows for x in row):
        return None
    return tuple(tuple(x // norm for x in row) for row in rows)


def reflections_in_core(t: TauClass) -> bool:
    """Is every pole-ray reflection the restriction of a commuting reflection-part element?"""
    return all(_flat_reflection(t, ray) in t.core for ray in t.tau_rays)


# ---------------------------------------------------------------------------
# the bounded-extension sweep


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
    independent ray subset and every test function.  Each sample's Weyl images
    and their density values are computed once and read by every test
    function: each summand is its value times the densities in ray order.
    """
    d = t.datum
    home = t.levi_L
    rays = t.tau_rays
    records = []
    subsets = [combo for size in range(1, home.dim + 1) for combo in combinations(rays, size)
               if int_rank([ray.key for ray in combo]) == size]
    # the integer matrices of the core and the float form of each ray's dual pairing, built once per class
    lifts = [w.matrix for w in t.core.values()]
    dual_rows = {ray.key: d.float_row(ray.dual) for ray in rays}
    for F in subsets:
        pairings = [(ray.rep, fns.fn(ray.rep), dual_rows[ray.key]) for ray in F]
        for wall in F:
            wall_pts, step = [p.floats() for p in _wall_points(t, wall)], wall.rep.floats()
            # per delta and wall point, the sample's Weyl images and their densities, shared by every phi
            samples = [[_weyl_images(lifts, pairings, [x + delta * y for x, y in zip(base, step)]) for base in wall_pts]
                       for delta in deltas]
            for phi_idx, phi in enumerate(phi_battery):
                maxima = []
                for images_at_delta in samples:
                    m = 0.0
                    for images in images_at_delta:
                        val, scale = _symmetrized(images, phi)
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


def _wall_points(t: TauClass, wall: Ray) -> list[RatVec]:
    """A few deterministic generic points on the wall, away from the other pole walls.

    The wall's part of the home flat is the kernel of the one row q_j = f.E_j, f the wall's form and
    b_j = E_j / e the home's basis rows: with p the first j where q_j is nonzero, the vectors
    b_j - (q_j/q_p) b_p = (q_p E_j - q_j E_p) / (q_p e) for j != p span it.
    """
    d = t.datum
    rows, e = t.levi_L.rows, t.levi_L.den
    q = [idot(wall.form, b) for b in rows]
    p = next(j for j, x in enumerate(q) if x)
    wall_vecs = [
        RatVec.over([q[p] * x - y * q[j] for x, y in zip(b, rows[p])], q[p] * e) for j, b in enumerate(rows) if j != p
    ]
    if not wall_vecs:
        return [RatVec.zero(d.rank)]
    others = [r for r in t.tau_rays if r.key != wall.key]
    points = []
    weights = [
        (Fraction(1), Fraction(1, 3), Fraction(1, 7), Fraction(1, 13)),
        (Fraction(2, 3), Fraction(-1, 5), Fraction(1, 11), Fraction(-1, 17)),
        (Fraction(1, 2), Fraction(1, 9), Fraction(-1, 4), Fraction(1, 19)),
    ]
    forms = [o.form for o in others]
    for ws in weights:
        cand = sum((c * v for c, v in zip(ws, wall_vecs)), RatVec.zero(d.rank))
        tries = 0
        while 0 in form_signs(d, forms, cand.row) and tries < 20:
            cand = cand + Fraction(1, 23 + 4 * tries) * wall_vecs[0]
            tries += 1
        if 0 not in form_signs(d, forms, cand.row):
            points.append(cand)
    return points or [wall_vecs[0]]


def _weyl_images(
    lifts: Sequence[Sequence[Sequence[int]]],
    pairings: Sequence[tuple[RatVec, ScalarFn, Sequence[float]]],
    lam_real: Sequence[float],
) -> list[tuple[list[float], list[complex]]]:
    """The image of lam_real under each of the core's integer Weyl matrices, with the density of each ray of
    the subset (its rep, its density and the float row of its dual pairing) at i times its pairing with it."""
    n = len(lam_real)
    images = []
    for lift in lifts:
        moved = [sum(lift[i][j] * lam_real[j] for j in range(n)) for i in range(n)]
        images.append((moved, [density_at(f, 1j * sum(m * g for m, g in zip(moved, row)), rep)
                               for rep, f, row in pairings]))
    return images


def _symmetrized(images: Sequence[tuple[list[float], list[complex]]], phi) -> tuple[complex, float]:
    """The symmetrized sum of phi times the densities over the Weyl images, each summand phi's value times
    the densities in ray order, and the total magnitude of its summands."""
    total = 0j
    scale = 0.0
    for moved, densities in images:
        val = complex(phi(moved))
        for density in densities:
            val *= density
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
    return out


@kept
def enumerate_spectral_triples(d: RootDatum) -> tuple[TauClass, ...]:
    """Every (vanishing set, chamber-stabilizing r) class, deterministically ordered; built once per datum."""
    classes = []
    for subset in closed_subsystems(d):
        fixes = _chamber_test(d, subset)
        classes.extend(
            TauClass(d, subset, w)
            for w in weyl_group(d)
            if all(w.perm[i] in subset for i in subset) and fixes(w)
        )
    return tuple(classes)
