"""Float references for the kernels that evaluate their integrand on whole arrays: the panel
quadrature, the segment quadrature, the tensor grid build and the flat test function; for
the 1-d residue identity, the analytic route of the splitting sum, the tempext sweep and
the multiplier; and for the grid values of the contour-shift check.

Each is the route the package ran one panel, one node or one full-grid mesh
at a time, with every term of the prefactor, with each identity evaluating
its own panels, with each chamber's segment integrals evaluated for that
chamber, with each test function evaluating its own Weyl images, with each
pairing a rational, or with complex values on every grid, before it was
batched, cut into slabs, shared or carried in real arithmetic.  The package
keeps every float operation and its operand order, so the tests require the
same bits from both (``same_bits``).
"""
import cmath
import math
from itertools import combinations

import numpy as np

from gmcalc import contour
from gmcalc.contour import _GL_NODES, _GL_WEIGHTS, _capped, _extrapolate_odd, _graded_edges, verify_residues
from gmcalc.errors import BadShift, NoConvergence
from gmcalc.exactlin import int_rank, int_row
from gmcalc.gmfamily import _lam_evaluator, density_at
from gmcalc.levilattice import form_signs, parabolics, restricted_rays, theta
from gmcalc.rootdatum import act, reflect_subgroup
from gmcalc.spectral import _wall_points


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


def _one_segment(f, z0, z1, rule) -> complex:
    """Gauss-Legendre along [z0, z1], f called once on the 32 nodes of this segment."""
    nodes, weights = rule
    mid = (z0 + z1) / 2
    half = (z1 - z0) / 2
    return complex(half * np.dot(weights, f(mid + half * nodes)))


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
                    exponent += _one_segment(f, z0, sum(c * g for c, g in zip(coords, gd)), rule)
                cs += cmath.exp(exponent) / (theta_at_dir[Qp.index] * s ** L1.dim)
            total += cs
        return total / 64

    return circle_mean(radius / 2)  # the value on the halved circle; the radius check needs no reference


def _ref_line_integral(f, phi, edges, z_of) -> complex:
    """The panel quadrature of phi * f / (2 pi) at z_of(t), phi and f called once per panel."""

    def g(ts):
        z = z_of(ts)
        return phi(z) * f(z) / (2 * np.pi)

    return ref_quad_on_panels(g, edges)


def ref_pv_integral(f, phi, deltas, tol) -> tuple[complex, float]:
    """pv_integral with the residue verified and every panel set evaluated for this one identity."""
    verify_residues(f)
    T = phi.cutoff()

    def quad(edges):
        return _ref_line_integral(f, phi, edges, lambda ts: 1j * ts)

    if not f.has_pole0():
        return quad(_graded_edges(-T, T, None, None)), 0.0
    values = []
    for delta in deltas:
        if not 0 < delta < T:
            raise BadShift(f"excision radius must lie in (0, {T}), got {delta}")
        values.append(0j + quad(_graded_edges(-T, -delta, None, delta)) + quad(_graded_edges(delta, T, delta, None)))
    est, err = _extrapolate_odd(list(deltas), values)
    if err > tol:
        raise NoConvergence(f"principal value ladder did not settle: error {err}")
    return est, err


def ref_shifted_integral(f, phi, eps) -> complex:
    """shifted_integral with its panels evaluated for this one identity."""
    T = phi.cutoff()
    edges = [-T, T]
    if f.has_pole0():
        for k in (0.0, eps / 4, eps / 2, eps, 2 * eps, 4 * eps):
            for s in (-1, 1):
                x = 0.0 + s * k
                if -T < x < T:
                    edges.append(x)
    return _ref_line_integral(f, phi, _capped(sorted(set(edges))), lambda ts: -eps + 1j * ts)


def ref_residue_identity_1d(f, phi, eps, deltas, tol) -> dict:
    """residue_identity_1d with every panel of both sides evaluated for this one identity."""
    lhs = ref_shifted_integral(f, phi, eps)
    pv, pv_err = ref_pv_integral(f, phi, deltas, tol)
    expected = complex(float(f.n / 2)) * complex(phi(0.0)) + pv
    residual = abs(lhs - expected)
    return {
        "phi": phi.describe(),
        "eps": eps,
        "n": str(f.n),
        "lhs": (lhs.real, lhs.imag),
        "pv": (pv.real, pv.imag),
        "pv_err": pv_err,
        "residual": residual,
        "pass": residual <= tol,
    }


def _symmetrized_sum(lifts, pairings, lam_real, phi) -> tuple[complex, float]:
    """The symmetrized sum over the core's integer Weyl matrices, phi evaluated on each image before its
    densities, and the total magnitude of its summands."""
    n = len(lam_real)
    total = 0j
    scale = 0.0
    for lift in lifts:
        moved = [sum(lift[i][j] * lam_real[j] for j in range(n)) for i in range(n)]
        val = complex(phi(moved))
        for rep, f, row in pairings:
            z = 1j * sum(m * g for m, g in zip(moved, row))
            val *= density_at(f, z, rep)
        total += val
        scale += abs(val)
    return total, scale


def ref_tempext_check(t, fns, phi_battery, deltas, growth_threshold) -> list[dict]:
    """tempext_check with each test function computing the Weyl images and densities of every sample."""
    d = t.datum
    rays = t.tau_rays
    records = []
    subsets = [combo for size in range(1, t.levi_L.dim + 1) for combo in combinations(rays, size)
               if int_rank([ray.key for ray in combo]) == size]
    lifts = [w.matrix for w in t.core.values()]
    for F in subsets:
        pairings = [(ray.rep, fns.fn(ray.rep), d.float_row(ray.dual)) for ray in F]
        for wall in F:
            wall_pts, step = [p.floats() for p in _wall_points(t, wall)], wall.rep.floats()
            for phi_idx, phi in enumerate(phi_battery):
                maxima = []
                for delta in deltas:
                    m = 0.0
                    for base in wall_pts:
                        val, scale = _symmetrized_sum(lifts, pairings, [x + delta * y for x, y in zip(base, step)], phi)
                        if abs(val) <= 1e-9 * scale:
                            val = 0.0
                        m = max(m, abs(val))
                    maxima.append(m)
                if max(maxima) == 0.0:
                    exponent = float("-inf")
                else:
                    lo, hi = max(maxima[-1], 1e-300), max(maxima[0], 1e-300)
                    exponent = math.log(lo / hi) / math.log(deltas[0] / deltas[-1])
                records.append({"rays": [str(r.rep) for r in F], "wall": str(wall.rep), "phi": phi_idx,
                                "maxima": maxima, "exponent": exponent, "pass": exponent < growth_threshold})
    return records


def ref_multiplier_alpha(M1, nu_im, X) -> complex:
    """multiplier_alpha with each pairing the rational d.pair(act(w, nu), X), then converted to a float."""
    d = M1.datum
    sub = reflect_subgroup(d, M1.root_subset)
    total = 0j
    for w in sub:
        total += cmath.exp(1j * float(d.pair(act(w, nu_im), X)))
    return total / len(sub)


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
        size = math.prod(len(ws) for _, ws in axes)
        plan = contour._mirror_plan(size)
        sums = {(reads, key): contour._MirrorSum(size, plan) for reads, by_phi in by_m.items() for key in by_phi}
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
