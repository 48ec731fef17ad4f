"""Fraction references for the integer routes to the reflection permutations, the Levi lattice, products,
projections, ray signs, flat coordinates, restricted rays, chamber witnesses, parabolic chambers, splitting
constants, the basis sums n^L, the chamber-stabilizer test with k^L, the fixed spaces of Weyl elements and
the pole-ray reflections on a home flat, the beneath-beyond reference for hull volumes, the recursive
pulling triangulation, and the ``Fraction`` squares of the hull volume and of the family limit.

Each is the route the package ran on ``Fraction``s, or by a chamber search,
before its integer rows and lattice facts, kept here so the tests can
compare the two on every Levi.  The hull reference searches for the facets
of every hull from its points alone, where the package reads one
triangulation off the face lattice of each Levi.  The triangulation
reference recurses from the whole hull down to its vertices, scanning for
the facets of a face and triangulating it once per path that reaches it,
where the package triangulates each face once, by dimension.  The lattice
reference closes the flats on ``Fraction`` kernels, one kernel and one RREF
per (flat, root) pair, where the package closes them on integer rows and
reduces each distinct flat once; the chamber reference reads positive roots
off ``Fraction`` sign products and walls off rebuilt sign patterns.  The
reflection reference reads a ``Fraction`` Cartan table of root and coroot
pairings, where the package reads the integer root forms; the pole-ray
reflection reference is a ``Fraction`` matrix in the home's basis
coordinates, where the package keeps that matrix times the home's scale.
The coordinate-map reference makes its one Gram solve on ``Fraction`` rows,
where the package solves on the integer rows of the basis and the form.  The
chamber-scale reference takes the covolume of the simple duals as the
determinant of their basis coordinates, where the package reads it off
``theta``.  The square references form the volume and the limit's top
Laurent coefficient as ``Fraction``s and multiply them out, vol * vol * det G
and c * c * det G with the sign of c, where the package forms each square as
one ``Fraction`` of integers; the volume comes from the beneath-beyond
reference, and the coefficient is a sum of one ``Fraction`` per term.
Two references are not ``Fraction`` routes but the closures and scans the
package once ran: the coset reference closes each Levi's reflection subgroup
and composes every element with it, where the package keeps the elements
that send the Levi's positive roots to positive roots, and the home
reference scans the lattice once per class, where the package scans it once
per r.

The first references are the ``Fraction`` kernels the package ran before
each exact operation kept one integer kernel: the matrix-vector product,
the pairing, the Gram matrix and determinant, the determinant, the RREF and
the canonical kernel basis, the kernel of pairings on a flat, and the
``Fraction`` matrix of a Weyl element, column j the root w(alpha_{simple j}).
The ``Fraction`` vector helpers (``vadd``, ``vscale``, ``combine`` and the
rest) and the ``Fraction`` ``rref`` are those ``exactlin`` kept before every
exact vector became integer rows over one denominator, and ``ref_basis``
reads a flat's basis as the ``Fraction`` rows a ``Levi`` once stored.
``primitive_ray`` is the ``Fraction`` ray key and ``ref_solve`` the solve on
rational rows that ``exactlin`` kept before every ray key became a primitive
integer row and ``solve`` took integer rows alone.
"""
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod

from gmcalc.exactlin import _eliminate, idot, int_mat, int_rank, int_row, ratio_vec, solve
from gmcalc.levilattice import (
    Levi,
    QuadConst,
    Ray,
    chamber_witnesses,
    coord_map,
    flat_coords,
    gfull,
    group_rays,
    hull_faces,
    levi_lattice,
    limit_frame,
    mzero,
    projected_roots,
    rays_in,
    restricted_rays,
)
from gmcalc.rootdatum import RatVec, act, compose, invert, reflect_subgroup, weyl_group
from gmcalc.spectral import _fixed_dim, _fixes_flat

ZERO = Fraction(0)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    return tuple(frac(x) for x in xs)


def zeros(n):
    return (ZERO,) * n


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u):
    c = frac(c)
    return tuple(c * a for a in u)


def combine(coeffs, vectors, n):
    """sum_i coeffs[i] * vectors[i] in dimension n; unpaired entries of either list are ignored."""
    v = zeros(n)
    for c, b in zip(coeffs, vectors):
        v = vadd(v, vscale(c, b))
    return v


def is_zero_vec(u):
    return all(a == 0 for a in u)


def mat(rows):
    return tuple(vec(r) for r in rows)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def rref(rows):
    """Reduced row echelon form of rational rows with zero rows dropped, as Fraction rows: each row cleared
    of its own denominators, fraction-free elimination, and one normalised Fraction per entry at the end."""
    if not rows:
        return []
    work = [int_row(r)[0] for r in rows]
    pivots, d, _ = _eliminate(work, len(work[0]))
    return [tuple(Fraction(x, d) for x in work[r]) for r in range(len(pivots))]


def ref_basis(L):
    """The basis rows of a flat as Fraction rows."""
    return tuple(ratio_vec(row, L.den) for row in L.rows)



def ref_mat_vec(m, v):
    """The matrix-vector product on Fractions, one sum per row."""
    return tuple(sum((a * b for a, b in zip(row, v, strict=True)), Fraction(0)) for row in m)


def ref_pair(S, u, v):
    """The form (S u) . v on Fractions."""
    return sum((a * b for a, b in zip(ref_mat_vec(S, u), v, strict=True)), Fraction(0))


def ref_gram_matrix(vectors, S):
    """The matrix of the form S on the vectors, every entry its own Fraction pairing."""
    return tuple(tuple(ref_pair(S, u, v) for v in vectors) for u in vectors)


def ref_identity(n):
    """The n x n identity matrix of Fractions."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def ref_rref(rows, ncols=None):
    """Gauss-Jordan on Fractions; returns the nonzero rows, their pivot columns and the zero rows left."""
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if ncols is None and work else (ncols or 0)
    lead, pivots = 0, []
    for col in range(ncols):
        piv = next((r for r in range(lead, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[lead], work[piv] = work[piv], work[lead]
        p = work[lead][col]
        work[lead] = [x / p for x in work[lead]]
        for r in range(len(work)):
            if r != lead and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[lead])]
        pivots.append(col)
        lead += 1
    return [tuple(r) for r in work[:lead]], pivots, work[lead:]


def ref_kernel(rows, n):
    """The canonical basis of {x : row . x = 0 for every row}, vectors of length n, on Fractions: per free
    column f of the reduced row echelon form, x_f = 1 and x_p = -rref[k][f] at the pivot column p of row k."""
    red, pivots, _ = ref_rref(rows, n)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def ref_flat_kernel(d, basis, forms):
    """Ambient vectors spanning the part of span(basis) on which every form pairs to zero, by a Fraction
    kernel in the coordinates of basis mapped back unreduced."""
    rows = [tuple(ref_pair(d.gram, f, b) for b in basis) for f in forms]
    return [combine(kv, basis, d.rank) for kv in ref_kernel(rows, len(basis))]


def ref_weyl_matrix(d, w):
    """The Fraction matrix of w on V: column j is the root w(alpha_{simple j}) as Fractions."""
    return tuple(zip(*(d.roots[w.perm[i]].coords for i in d.simple)))


def ref_reflection_perms(d):
    """The reflection permutations by the Fraction Cartan table the datum once built: cartan[i][j] is
    <alpha_i, alpha_j^vee> by Fraction pairings, integral, and s_i(alpha_j) = alpha_j - cartan[j][i] alpha_i."""
    cartan = [[d.pair(r, cv) for cv in d.coroots] for r in d.roots]
    assert all(c.denominator == 1 for row in cartan for c in row)
    where = {r: k for k, r in enumerate(d.roots)}
    return tuple(
        tuple(where[aj - cartan[j][i] * ai] for j, aj in enumerate(d.roots)) for i, ai in enumerate(d.roots)
    )


def ref_flat_reflection(t, ray):
    """The reflection in a ray of the home flat by Fractions, as _flat_reflection once built it: its matrix
    in the basis coordinates of the home, column j = e_j - <rep, b_j> dual."""
    d = t.datum
    home = t.levi_L
    dual, den = int_row(ray.dual.coords)
    scale = coord_map(home)[1] * den
    dual_c = [Fraction(x, scale) for x in flat_coords(home, dual)]
    pairs = [ref_pair(d.gram, ray.rep.coords, b) for b in ref_basis(home)]
    return tuple(tuple((i == j) - y * p for j, p in enumerate(pairs)) for i, y in enumerate(dual_c))


def ref_mat_mul(a, b):
    """The matrix product on Fractions."""
    cols = list(zip(*b)) if b else []
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a)


def ref_projector(basis, S):
    """The S-orthogonal projection onto the span of independent basis rows B, as the Fraction matrix
    B^T G^-1 B S with G = B S B^T, each column of G^-1 B S solved by Gauss-Jordan on Fractions."""
    n = len(S)
    if not basis:
        return ((Fraction(0),) * n,) * n
    gram = ref_gram_matrix(basis, S)  # symmetric: its rows are its columns
    x = [ref_coords_in_basis(col, gram) for col in zip(*ref_mat_mul(basis, S))]
    return ref_mat_mul(transpose(basis), transpose(x))


def ref_sign_pattern(d, rays, point):
    """The sign of each ray at the point by Fraction pairings: 1, -1, or 0 on its wall."""
    return tuple((p > 0) - (p < 0) for p in (d.pair(ray.rep, point) for ray in rays))


def ref_coords_in_basis(v, basis):
    """Coordinates of v in an independent basis by Gauss-Jordan on Fractions, or None off its span."""
    k = len(basis)
    rows = [[b[a] for b in basis] + [x] for a, x in enumerate(v)]
    for col in range(k):
        piv = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        top = [x / rows[col][col] for x in rows[col]]
        rows = [top if i == col else [x - r[col] * y for x, y in zip(r, top)] for i, r in enumerate(rows)]
    if any(r[k] for r in rows[k:]):
        return None
    return tuple(r[k] for r in rows[:k])


def primitive_ray(ints):
    """The Fraction key the package once gave the ray through a nonzero integer row: integral, coprime,
    first nonzero > 0."""
    g = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(Fraction(x, g) for x in ints)


def ref_restricted_rays(M):
    """The rays of a_M from the Fraction projection of every root, grouped as group_rays grouped them: the
    Fraction key, and each member's multiple over the denominator of the package's projections."""
    d = M.datum
    _, proj_den = projected_roots(M)
    proj = ref_projector(ref_basis(M), d.gram)
    groups = {}
    for i, r in enumerate(d.roots):
        v = ref_mat_vec(proj, r.coords)
        if any(v):
            # v over its first nonzero entry, times the lcm of the denominators: integral, coprime, first > 0
            first = next(x for x in v if x)
            scaled = [x / first for x in v]
            key = tuple(x * lcm(*(y.denominator for y in scaled)) for x in scaled)
            j = next(k for k, x in enumerate(key) if x)
            groups.setdefault(key, []).append((i, v[j] / key[j]))
    rays = []
    _, den = d.int_gram
    for key in sorted(groups):
        members = tuple(sorted(groups[key]))
        rep = RatVec(vscale(min(abs(c) for _, c in members), key))
        members = tuple((i, c * proj_den) for i, c in members)
        form = tuple(int(x * den) for x in ref_mat_vec(d.gram, key))
        rays.append(Ray(key, rep, RatVec(vscale(Fraction(2) / d.pair(rep, rep), rep.coords)), members, form))
    return tuple(rays)


def ref_vanishing_subset(d, basis):
    """The indices of the roots pairing to zero with every basis row, by Fraction pairings."""
    return frozenset(i for i, r in enumerate(d.roots) if all(d.pair(r, RatVec(b)) == 0 for b in basis))


def ref_levi_lattice(d):
    """Every flat by the Fraction closure, in lattice order: per (flat, root) pair, one Fraction kernel of the
    root's pairings with the flat's basis and one RREF of it, whether or not the flat is new."""
    full = ref_identity(d.rank)
    flats = {ref_vanishing_subset(d, full): full}
    frontier = list(flats.items())
    while frontier:
        nxt = []
        for subset, basis in frontier:
            for i in d.pos_indices:
                if i in subset:
                    continue
                new_basis = tuple(rref(ref_flat_kernel(d, basis, [d.roots[i].coords])))
                new_subset = ref_vanishing_subset(d, new_basis)
                if new_subset not in flats:
                    flats[new_subset] = new_basis
                    nxt.append((new_subset, new_basis))
        frontier = nxt
    levis = [Levi(d, *int_mat(basis), subset) for subset, basis in flats.items()]
    return sorted(levis, key=lambda L: (-L.dim, sorted(L.root_subset)))


def ref_chambers_of_rays(M, rays):
    """The witness search on Fractions that chambers_of_rays ran before its integer rows."""
    d = M.datum
    if not M.dim:
        return [RatVec.zero(d.rank)]
    if not rays:
        pt = zeros(d.rank)
        for b in ref_basis(M):
            pt = vadd(pt, b)
        return [RatVec(pt)]
    proj_m = ref_projector(ref_basis(M), d.gram)
    best = {}
    for w in weyl_group(d):
        proj = ref_mat_vec(proj_m, act(w, d.rho_check).coords)
        key = ref_sign_pattern(d, rays, RatVec(proj))
        if 0 in key:
            continue
        if key not in best or proj < best[key]:
            best[key] = proj
    return [RatVec(v) for v in sorted(best.values())]


def ref_parabolics(M):
    """(index, positive roots, chamber point, wall rays, signs) of each chamber of P(M) on Fractions: the
    Fraction rays and witnesses, a member root positive where c * s > 0, and a wall where the pattern with
    that one sign flipped, rebuilt entry by entry, is another chamber's."""
    d = M.datum
    rays = ref_restricted_rays(M)
    points = ref_chambers_of_rays(M, rays)
    patterns = [ref_sign_pattern(d, rays, pt) for pt in points]
    out = []
    for idx, (sig, pt) in enumerate(zip(patterns, points)):
        walls = tuple(k for k in range(len(rays)) if tuple(s if j != k else -s for j, s in enumerate(sig)) in patterns)
        pos = tuple(sorted(i for ray, s in zip(rays, sig) for i, c in ray.members if c * s > 0))
        out.append((idx, pos, pt, walls, sig))
    return out


def ref_gram_det(vectors, S):
    """det of the full Fraction Gram matrix (S u) . v, both triangles (1 for none)."""
    return ref_det(ref_gram_matrix(vectors, S))


def ref_det(m):
    """det of a square matrix by Gaussian elimination on Fractions (1 for the empty one)."""
    rows = [[Fraction(x) for x in r] for r in m]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def ref_rel_basis(L, upper):
    """The part of a_L orthogonal to a_upper as the RREF of the Fraction kernel of upper's basis pairings."""
    return tuple(rref(ref_flat_kernel(L.datum, ref_basis(L), ref_basis(upper))))


def ref_split_constant(L1, L, S, upper):
    """d_L1^upper(L, S) by Gram determinants alone: zero unless the relative bases have complementary
    sizes and together a nonzero Gram determinant, else the square root of det Gram(L + S) over
    det Gram(L) det Gram(S).  No upper is G, whose flat is 0."""
    gram = L1.datum.gram
    upper = gfull(L1.datum) if upper is None else upper
    bl, bs, b1 = (ref_rel_basis(X, upper) for X in (L, S, L1))
    if len(bl) + len(bs) != len(b1):
        return QuadConst.from_square(0)
    num = ref_gram_det(bl + bs, gram)
    if not num:
        return QuadConst.from_square(0)
    return QuadConst.from_square(num / (ref_gram_det(bl, gram) * ref_gram_det(bs, gram)))


def ref_n_constant(t, L):
    """n^L by ranking every subset of `need` home rays lying in L on Fractions."""
    need = t.levi_L.dim - L.dim
    return sum(
        (
            prod((t.nbeta[ray.key] / 2 for ray in subset), start=Fraction(1))
            for subset in combinations(rays_in(t.levi_L, L), need)
            if int_rank(int_mat([ray.rep.coords for ray in subset])[0]) == need
        ),
        Fraction(0),
    )


def ref_chamber_test(d, roots, chamber_c=None):
    """The chamber point and "w fixes its chamber" test by the chamber search: the roots' rays grouped,
    the first chamber witness of their arrangement on M0 unless a point is given, each ray's member
    root equal to its rep, and the sign of every root at the point by Fraction pairings."""
    rays = group_rays(d, ((i, d.root_rows[i]) for i in roots), 1)
    if chamber_c is None:
        chamber_c = next(iter(chamber_witnesses(mzero(d), rays).values()))
    signs = [(p > 0) - (p < 0) for p in (d.pair(r, chamber_c) for r in d.roots)]
    reps = [next(i for i, _ in ray.members if d.roots[i] == ray.rep) for ray in rays]
    base = [signs[m] for m in reps]

    def fixes(w):
        back = invert(w.perm)
        return [signs[back[m]] for m in reps] == base

    return chamber_c, fixes


def ref_k_constant(t, L):
    """k^L with the chamber of the class's vanishing set found by the chamber search."""
    d = t.datum
    chamber_c, _ = ref_chamber_test(d, t.sigma_roots)
    roots = t.sigma_roots & L.root_subset
    _, fixes = ref_chamber_test(d, roots, chamber_c)
    r = t.r_elem.perm
    wsig = d.subgroup([d.reflection_perms[i] for i in roots] + [r])
    return sum(1 for w in wsig if fixes(w) and compose(w.perm, r) == compose(r, w.perm))


def ref_fixed_space(d, w):
    """The fixed space of w: the kernel of its matrix minus 1, on Fractions."""
    n = d.rank
    return ref_kernel([tuple(w.matrix[i][j] - (i == j) for j in range(n)) for i in range(n)], n)


def ref_levi_L(t):
    """The home of a class by the Fraction fixed space of r: the flat of the roots vanishing on it, or
    None when that flat is not the fixed space."""
    d = t.datum
    fix = ref_fixed_space(d, t.r_elem)
    subset = ref_vanishing_subset(d, fix)
    home = next((L for L in levi_lattice(d) if L.root_subset == subset), None)
    return home if home is not None and home.dim == len(fix) else None


def ref_home_scan(t):
    """The home of a class by its own scan: the first Levi in lattice order that r fixes pointwise, of the
    dimension of r's fixed space, or None when that Levi is smaller."""
    d, r = t.datum, t.r_elem
    fixed = _fixed_dim(d, r)
    home = next(L for L in levi_lattice(d) if L.dim <= fixed and _fixes_flat(d, r, L))
    return home if home.dim == fixed else None


def ref_weyl_cosets(L):
    """Minimal-length coset representatives by closure: the reflection subgroup of L's roots, composed with
    each element of weyl_group in order; the first element not yet reached is minimal in its coset."""
    d = L.datum
    sub = [u.perm for u in reflect_subgroup(d, L.root_subset)]
    seen = set()
    reps = []
    for w in weyl_group(d):
        if w.perm in seen:
            continue
        seen.update(compose(w.perm, u) for u in sub)
        reps.append(w)
    return reps


def ref_solve(m, rhs):
    """``exactlin.solve`` on Fraction rows, as the package once ran it: each row of [m | R] cleared of its
    denominators, and det m the integer determinant over the row denominators."""
    n = len(m)
    cleared = [int_row(tuple(r) + tuple(b)) for r, b in zip(m, rhs, strict=True)]
    X, c, det = solve([row[:n] for row, _ in cleared], [row[n:] for row, _ in cleared])
    return X, c, Fraction(det, prod(den for _, den in cleared))


def ref_coord_map(M):
    """coord_map by one Gram solve on Fractions: G X = B S with G = B S B^T, B the basis rows and S the form."""
    S = M.datum.gram
    cmap, c, disc = ref_solve(ref_gram_matrix(ref_basis(M), S), [ref_mat_vec(S, b) for b in ref_basis(M)])
    basis, e = int_mat(ref_basis(M))
    lift = tuple(tuple(row[k] for row in basis) for k in range(M.datum.rank))
    return cmap, c, lift, e * c, disc


def ref_limit_scale(P, lam):
    """A chamber's hull-limit scale q_P / theta*_P: q_P the |det| of the simple duals in basis coordinates
    (covol_P / sqrt(det G)), theta*_P the product of their pairings with lam.  Each wall's dual is taken on
    the chamber's side by the Fraction sign of its ray at the chamber point, not by the stored signs."""
    M, gram = P.levi, P.levi.datum.gram
    walls = [restricted_rays(M)[k] for k in P.wall_rays]
    duals = [a.dual.coords if ref_pair(gram, a.rep.coords, P.chamber_point.coords) > 0 else (-a.dual).coords
             for a in walls]
    q = abs(ref_det([ref_coords_in_basis(v, ref_basis(M)) for v in duals]))
    return q / prod(ref_pair(gram, lam.coords, v) for v in duals)


def ref_hull_quad(pts):
    """hull_volume by Fraction products: the volume vol of the orthogonal set's hull in basis coordinates over
    sqrt(det G), from the beneath-beyond reference (a point on a point flat), and vol * vol * det G."""
    M = pts.levi
    coords = [flat_coords(M, x) for x in pts.rows]
    _, c, _, _, disc = coord_map(M)
    vol = Fraction(ref_hull_volume(coords, M.dim) if M.dim else 1, factorial(M.dim) * (c * pts.den) ** M.dim)
    return QuadConst.from_square(vol * vol * disc)


def ref_family_limit(f):
    """family_limit by Fraction products, for a smooth family: the order-K Laurent coefficient c along the
    kept limit frame as a sum of one Fraction per term, and c * c * det G with the sign of c."""
    M = f.levi
    (lam, lam_den), (nums, scale_den) = limit_frame(M, None)
    K = M.dim
    c = Fraction(0)
    for s, chamber in zip(nums, f.rows):
        for coef, x in chamber:
            c += Fraction(s * coef * idot(lam, x) ** K, scale_den * f.c_den * factorial(K) * (lam_den * f.x_den) ** K)
    return QuadConst.from_square(c * c * coord_map(M)[-1], (c > 0) - (c < 0))


def ref_brute_force_discrete(t, upper):
    """The coset search on Fraction fixed spaces: does some r w, w in the reflection group of the class's
    roots in upper, have a fixed space with the reduced row echelon form of a_upper?"""
    d = t.datum
    for w in reflect_subgroup(d, [i for i in t.sigma_roots if i in upper.root_subset]):
        fixed = ref_fixed_space(d, d.element(compose(t.r_elem.perm, w.perm)))
        if len(fixed) == upper.dim and rref(fixed) == rref(ref_basis(upper)):
            return True
    return False


def int_normal(rows, n):
    """A vector orthogonal to n-1 integer rows of length n: their cofactor vector up to one sign.

    One elimination gives it (Cramer): when the rows are independent, one
    column f is free, and the kernel vector with x_f = d, the final pivot,
    has x_p = -row[f] at each pivot p.  The entry f of the cofactor vector is
    +-d, the minor of the pivot columns, so the two agree up to sign.  The
    zero vector when the rows are dependent; the rows are not changed.
    """
    work = [list(r) for r in rows]
    pivots, d, _ = _eliminate(work, n)
    if len(pivots) != n - 1:
        return [0] * n
    f = next(c for c in range(n) if c not in pivots)
    x = [0] * n
    x[f] = d
    for row, p in zip(work, pivots):
        x[p] = -row[f]
    return x


def ref_hull_volume(pts, n):
    """n! times the volume of the convex hull of integer points in Z^n (n >= 1), by beneath-beyond.

    The hull starts from a greedy affinely independent simplex; each further
    point that lies strictly beyond some facets replaces them by the cone from
    the point over their horizon, the ridges that belong to exactly one
    visible facet.  A facet q = (q_0..q_{n-1}) keeps its outward cofactor
    normal N, from one elimination of its edges, and offset N.q_0, so that
    |det(q - a)| = N.q_0 - N.a for every point a of the hull.  The sum of
    these over the facets, for the apex a = first simplex vertex, is n! times
    the volume (facets through the apex add 0).
    """
    ipts = sorted(set(map(tuple, pts)))
    simplex = [ipts[0]]
    for p in ipts[1:]:
        if int_rank([tuple(x - y for x, y in zip(q, ipts[0])) for q in simplex[1:] + [p]]) == len(simplex):
            simplex.append(p)
            if len(simplex) == n + 1:
                break
    else:
        return 0
    inner = [sum(col) for col in zip(*simplex)]  # n+1 times an interior point

    def facet(verts):
        q0 = verts[0]
        normal = int_normal([tuple(x - y for x, y in zip(q, q0)) for q in verts[1:]], n)
        offset = idot(normal, q0)
        if idot(normal, inner) > (n + 1) * offset:
            normal, offset = [-a for a in normal], -offset
        return verts, normal, offset

    facets = [facet(tuple(simplex[:i] + simplex[i + 1:])) for i in range(n + 1)]
    for p in ipts:
        kept, visible = [], []
        for f in facets:
            (visible if idot(f[1], p) > f[2] else kept).append(f)
        if not visible:
            continue
        ridges = {}
        for verts, _, _ in visible:
            for i in range(n):
                ridge = verts[:i] + verts[i + 1:]
                key = frozenset(ridge)
                if key in ridges:
                    del ridges[key]
                else:
                    ridges[key] = ridge
        facets = kept + [facet(ridge + (p,)) for ridge in ridges.values()]
    apex = simplex[0]
    return sum(offset - idot(normal, apex) for _, normal, offset in facets)


def ref_hull_simplices(M):
    """The pulling triangulation of the M-hull read off ``hull_faces`` by recursion from the whole hull: a
    face pulls its least vertex and cones it over the triangulations of its facets that miss it, the faces
    one dimension down whose vertices it holds."""
    faces = [(M.dim - Q.levi.dim, verts) for Q, verts in hull_faces(M)]

    def pulled(k, verts):
        held = set(verts)
        return [verts] if k == 0 else [
            (verts[0],) + s for j, facet in faces
            if j == k - 1 and facet[0] != verts[0] and held.issuperset(facet) for s in pulled(j, facet)
        ]

    return tuple(pulled(*faces[-1]))


def ref_wall_points(t, wall):
    """The wall points of the bounded-extension sweep by the Fraction kernel route: the wall's part of the home
    flat from ``ref_flat_kernel``, three fixed combinations of it, each nudged off the other pole walls by
    Fraction signs."""
    d = t.datum
    wall_vecs = ref_flat_kernel(d, ref_basis(t.levi_L), [wall.rep.coords])
    if not wall_vecs:
        return [RatVec.zero(d.rank)]
    others = [r for r in t.tau_rays if r.key != wall.key]
    weights = [
        (Fraction(1), Fraction(1, 3), Fraction(1, 7), Fraction(1, 13)),
        (Fraction(2, 3), Fraction(-1, 5), Fraction(1, 11), Fraction(-1, 17)),
        (Fraction(1, 2), Fraction(1, 9), Fraction(-1, 4), Fraction(1, 19)),
    ]
    points = []
    for ws in weights:
        cand = RatVec(combine(ws, wall_vecs, d.rank))
        tries = 0
        while 0 in ref_sign_pattern(d, others, cand) and tries < 20:
            cand = cand + Fraction(1, 23 + 4 * tries) * RatVec(wall_vecs[0])
            tries += 1
        if 0 not in ref_sign_pattern(d, others, cand):
            points.append(cand)
    return points or [RatVec(wall_vecs[0])]
