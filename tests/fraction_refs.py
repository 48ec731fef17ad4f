"""Fraction references for the integer routes to ray signs, flat coordinates and restricted rays.

Each is the route the package ran on ``Fraction``s before its integer rows,
kept here so the tests can compare the two on every Levi.
"""
from fractions import Fraction
from math import lcm

from gmcalc.exactlin import mat_vec, vscale
from gmcalc.levilattice import Ray, flat_projector
from gmcalc.rootdatum import RatVec


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
    proj = flat_projector(M)
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
