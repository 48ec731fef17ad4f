"""Fraction references for the integer routes to products, projections, ray signs, flat coordinates
and restricted rays.

Each is the route the package ran on ``Fraction``s before its integer rows,
kept here so the tests can compare the two on every Levi.
"""
from fractions import Fraction
from math import lcm

from gmcalc.exactlin import gram_matrix, mat_vec, transpose, vscale
from gmcalc.levilattice import Ray
from gmcalc.rootdatum import RatVec


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
    gram = gram_matrix(basis, S)  # symmetric: its rows are its columns
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


def ref_restricted_rays(M):
    """The rays of a_M from the Fraction projection of every root, grouped as group_rays grouped them."""
    d = M.datum
    proj = ref_projector(M.basis, d.gram)
    groups = {}
    for i, r in enumerate(d.roots):
        v = mat_vec(proj, r.coords)
        if any(v):
            # v over its first nonzero entry, times the lcm of the denominators: integral, coprime, first > 0
            first = next(x for x in v if x)
            scaled = [x / first for x in v]
            key = tuple(x * lcm(*(y.denominator for y in scaled)) for x in scaled)
            j = next(k for k, x in enumerate(key) if x)
            groups.setdefault(key, []).append((i, v[j] / key[j]))
    rays = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key]))
        rep = RatVec(vscale(min(abs(c) for _, c in members), key))
        rays.append(Ray(key, rep, RatVec(vscale(Fraction(2) / d.pair(rep, rep), rep.coords)), members))
    return tuple(rays)
