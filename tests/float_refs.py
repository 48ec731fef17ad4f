"""Float references for the kernels that evaluate their integrand on whole arrays: the panel
quadrature, the segment quadrature, the tensor grid build and the flat test function; for
the analytic route of the splitting sum; and for the grid values of the contour-shift check.

Each is the route the package ran one panel, one node or one full-grid mesh
at a time, with every term of the prefactor, with each chamber's segment
integrals evaluated for that chamber, or with complex values on every grid,
before it was batched, cut into slabs, shared or carried in real arithmetic.
The package keeps every float operation and its operand order, so the tests
require the same bits from both (``same_bits``).
"""
import cmath
import math

import numpy as np

from gmcalc import contour
from gmcalc.contour import _GL_NODES, _GL_WEIGHTS, _graded_edges
from gmcalc.exactlin import int_row
from gmcalc.gmfamily import _lam_evaluator, _segment_integral
from gmcalc.levilattice import form_signs, parabolics, restricted_rays, theta


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits of every complex or float entry, so signed zeros and NaNs count."""
    a, b = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def ref_quad_on_panels(g, edges) -> complex:
    """Gauss-Legendre on each panel, g called once per panel."""
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid = (a + b) / 2
        half = (b - a) / 2
        ts = mid + half * _GL_NODES
        total += half * np.dot(_GL_WEIGHTS, g(ts))
    return complex(total)


def ref_segment_integral(f, z0, z1, rule) -> complex:
    """Gauss-Legendre along [z0, z1], f called once per node."""
    nodes, weights = rule
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    zs = mid + half * nodes
    vals = np.asarray([f(z) for z in zs], dtype=complex)
    return complex(half * np.dot(weights, vals))


def ref_induced_family_value(fns, P, lam0, direction) -> complex:
    """induced_family_value with each chamber evaluating the segment integral of every ray it separates from P
    for itself, at each node of the halved circle."""
    L1 = fns.levi
    d = L1.datum
    chambers = parabolics(L1)
    rays = restricted_rays(L1)
    seg_nodes, seg_weights = np.polynomial.legendre.leggauss(32)
    rule = (seg_nodes.astype(complex), seg_weights)
    theta_at_dir = {Qp.index: float(theta(Qp, direction)) for Qp in chambers}
    ev0 = _lam_evaluator(d, lam0)
    margin = None
    for ray in rays:
        z0 = abs(ev0(ray.dual))
        step = abs(complex(d.pair(direction, ray.dual)))
        if step > 0:
            bound = z0 / step
            margin = bound if margin is None else min(margin, bound)
    radius = 0.2 * (margin if margin is not None else 1.0)
    p_signs = form_signs(d, [ray.form for ray in rays], int_row(P.chamber_point.coords)[0])
    factors = {}
    for Qp in chambers:
        rows = []
        for ray, sp, sq in zip(rays, Qp.signs, p_signs):
            if not (sp > 0 > sq) and not (sp < 0 < sq):
                continue
            pos = ray if sp > 0 else -ray
            rows.append((fns.fn(pos.rep), d.float_row(pos.dual), ev0(pos.dual)))
        factors[Qp.index] = rows

    def circle_mean(r: float) -> complex:
        total = 0j
        for k in range(64):
            s = r * cmath.exp(2j * cmath.pi * k / 64)
            zeta = [s * complex(x) for x in direction.coords]
            coords = tuple(complex(a + b) for a, b in zip(lam0, zeta))
            cs = 0j
            for Qp in chambers:
                exponent = 0j
                for f, gd, z0 in factors[Qp.index]:
                    exponent += _segment_integral(f, z0, sum(c * g for c, g in zip(coords, gd)), rule)
                cs += cmath.exp(exponent) / (theta_at_dir[Qp.index] * s ** L1.dim)
            total += cs
        return total / 64

    return circle_mean(radius / 2)  # the value on the halved circle; the radius check needs no reference


def ref_grid_build(g):
    """The nodes and weights of a _Grid, every axis term formed on full meshgrid arrays."""
    k = len(g.onb)

    def half_axis(start, fine):
        edges = _graded_edges(start, g.T, fine, None)
        xs, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            xs.extend(mid + half * _GL_NODES)
            ws.extend(half * _GL_WEIGHTS)
        return np.array(xs), np.array(ws)

    axes = []
    for axis in range(k):
        if axis < g.pole_axes:
            xs, ws = half_axis(g.delta, g.delta)
        else:
            xs, ws = half_axis(0.0, g.fine_scale)
        axes.append((np.concatenate([-xs[::-1], xs]), np.concatenate([ws[::-1], ws])))
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    weight = axes[0][1]
    for a in axes[1:]:
        weight = np.multiply.outer(weight, a[1])
    lam = []
    for i in range(len(g.onb[0])):
        comp = 0j
        for axis_index, tgrid in enumerate(mesh):
            comp = comp + 1j * tgrid * g.onb[axis_index][i]
        if g.shift is not None:
            comp = comp + g.shift[i]
        lam.append(comp)
    return lam, weight


def ref_flat_phi(phi, gram, lam_coords):
    """A FlatTestFunction's value with every term of its prefactor, zero coefficients included, each
    pairing converting the entries of the form gram as it reads them.

    A phi with c1 = 0 keeps no v0, and its linear term is then an exact 0.0.
    """
    k = len(lam_coords)
    gl = [sum(float(gram[i][j]) * lam_coords[j] for j in range(k)) for i in range(k)]
    qq = sum(lam_coords[i] * gl[i] for i in range(k))
    lin = sum(v * g for v, g in zip(phi.v0, gl))
    return (phi.c0 + phi.c1 * lin + phi.c2 * qq) * np.exp(phi.scale * qq)


def ref_grid_values(integrals) -> list[list[complex]]:
    """The grid values of each planned integral by the complex route: on every grid, shifted or not, complex
    nodes, phi, densities and m-term sums on each slab, phi * m times the weights fed to one _MirrorSum per
    distinct m-term sum and phi.  Integrals with no grid get []."""
    users = {}
    for i, it in enumerate(integrals):
        for slot, grid in enumerate(it.grids):
            users.setdefault(grid, []).append((i, slot))
    out = [[None] * len(it.grids) for it in integrals]
    for grid, uses in users.items():
        its = [integrals[i] for i, _ in uses]
        by_gd = contour._by_pairing(term for it in its for term in it.terms)
        by_m = {}
        for (i, slot), reads in zip(uses, contour._reads([it.terms for it in its], by_gd)):
            by_m.setdefault(reads, {}).setdefault((integrals[i].d, integrals[i].phi), []).append((i, slot))
        axes = grid.axes()
        plan = contour._MirrorLeaves.of(math.prod(len(ws) for _, ws in axes))
        sums = {(reads, key): contour._MirrorSum(plan) for reads, by_phi in by_m.items() for key in by_phi}
        for lam, weight in grid.slabs(axes):
            table = contour._density_table(by_gd, lam)
            phis = {key: key[1](key[0].float_gram, lam) for _, key in sums}
            for (reads, key), acc in sums.items():
                vals = np.multiply(phis[key], contour._eval_m_terms(reads, table))
                acc.add(np.multiply(vals, weight, out=vals))
        for (reads, key), acc in sums.items():
            value = acc.total() / (2 * np.pi) ** len(grid.onb)
            for i, slot in by_m[reads][key]:
                out[i][slot] = value
    return out
