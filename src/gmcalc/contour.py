"""Numerical residue calculus on the imaginary axis and the contour-shift identity.

Conventions: contours carry the measure dz/(2 pi i), the imaginary axis is
oriented upward, and principal values are limits over shrinking symmetric
delta-neighbourhoods of the poles, extrapolated over a fixed delta ladder.
Gaussian factors make every tail beyond |Im z| = 8/sqrt(scale) smaller than
1e-12, so truncation there is part of the fixed grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .errors import BadShift, NoConvergence, NotComparable
from .exactlin import mat_vec, projector, vscale
from .gmfamily import ScalarRootFns
from .levilattice import (
    Levi,
    ParabolicChamber,
    QuadConst,
    _rel_basis,
    contains,
    d_constant,
    enumerate_levis,
    gfull,
    levi_lattice,
    parabolics,
    restricted_rays,
)
from .rootdatum import RatVec, RootDatum
from .spectral import TauClass, discrete_constants

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class TestFunction:
    """phi(z) = p(z) exp(scale * z^2): entire, rapidly decaying on vertical lines."""

    __test__ = False  # not a pytest class

    coeffs: tuple[Fraction, ...]
    scale: Fraction

    def __post_init__(self):
        if self.scale <= 0:
            raise BadShift("test function scale must be positive")

    def __call__(self, z):
        total = 0j if np.isscalar(z) else np.zeros_like(z, dtype=complex)
        for c in reversed([complex(c) for c in self.coeffs]):
            total = total * z + c
        return total * np.exp(float(self.scale) * z * z)

    def cutoff(self) -> float:
        return 8.0 / math.sqrt(float(self.scale))

    def describe(self) -> str:
        return f"poly{[str(c) for c in self.coeffs]}*exp({self.scale}z^2)"


DEFAULT_BATTERY = (
    TestFunction((Fraction(1),), Fraction(1)),
    TestFunction((Fraction(0), Fraction(1)), Fraction(1)),
    TestFunction((Fraction(1), Fraction(1)), Fraction(1, 2)),
    TestFunction((Fraction(-2), Fraction(0), Fraction(1)), Fraction(1)),
    TestFunction((Fraction(0), Fraction(1), Fraction(0), Fraction(1)), Fraction(2)),
)


@dataclass(frozen=True)
class MeromorphicLine:
    """analytic part plus declared simple poles i*loc on the imaginary axis."""

    analytic: Callable
    poles: tuple[tuple[float, complex], ...] = ()
    label: str = ""

    def __call__(self, z):
        total = self.analytic(z)
        for loc, res in self.poles:
            total = total + res / (z - 1j * loc)
        return total


def from_scalar_fn(fn) -> MeromorphicLine:
    """View a per-ray density as a line function with its pole at the origin declared."""
    n = fn.n
    return MeromorphicLine(fn.analytic, ((0.0, complex(-n)),) if n else (), fn.label)


def verify_residues(f: MeromorphicLine, radius: float = 0.02, tol: float = 1e-8) -> None:
    """Small-circle quadrature around each declared pole; disagreement is fatal."""
    m = 256
    angles = 2 * np.pi * np.arange(m) / m
    ring = radius * np.exp(1j * angles)
    for loc, res in f.poles:
        zs = 1j * loc + ring
        vals = f(zs) * ring
        approx = complex(np.mean(vals))
        if abs(approx - res) > tol * max(1.0, abs(res)):
            raise NoConvergence(
                f"declared residue {res} at i*{loc} but contour gives {approx}"
            )


def _graded_edges(lo: float, hi: float, fine_lo: float | None, fine_hi: float | None) -> list[float]:
    """Panel edges on [lo, hi], geometrically refined toward endpoints near poles."""
    edges = {lo, hi}
    if fine_lo is not None:
        step = fine_lo
        x = lo + step
        while x < hi:
            edges.add(x)
            step *= 2
            x = lo + step
    if fine_hi is not None:
        step = fine_hi
        x = hi - step
        while x > lo:
            edges.add(x)
            step *= 2
            x = hi - step
    out = sorted(edges)
    # also cap panel width so the smooth part is resolved
    capped = [out[0]]
    for e in out[1:]:
        while e - capped[-1] > 1.0:
            capped.append(capped[-1] + 1.0)
        capped.append(e)
    return capped


def _quad_on_panels(g: Callable, edges: Sequence[float]) -> complex:
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid = (a + b) / 2
        half = (b - a) / 2
        ts = mid + half * _GL_NODES
        total += half * np.dot(_GL_WEIGHTS, g(ts))
    return complex(total)


def _axis_integral(g: Callable, T: float, excisions: Sequence[tuple[float, float]]) -> complex:
    """Integral of g over [-T, T] minus the excised intervals, pole-graded panels."""
    cuts = sorted((max(a, -T), min(b, T)) for a, b in excisions if b > -T and a < T)
    segments = []
    prev = -T
    for a, b in cuts:
        if a > prev:
            segments.append((prev, a))
        prev = max(prev, b)
    if prev < T:
        segments.append((prev, T))
    total = 0j
    for lo, hi in segments:
        near_lo = any(abs(lo - b) < 1e-15 for _, b in cuts)
        near_hi = any(abs(hi - a) < 1e-15 for a, _ in cuts)
        fine_lo = _nearest_gap(lo, cuts) if near_lo else None
        fine_hi = _nearest_gap(hi, cuts) if near_hi else None
        total += _quad_on_panels(g, _graded_edges(lo, hi, fine_lo, fine_hi))
    return total


def _nearest_gap(x: float, cuts) -> float:
    best = None
    for a, b in cuts:
        w = (b - a) / 2
        best = w if best is None else min(best, w)
    return best if best else 0.1


def _neville_at_zero(xs: Sequence[float], ys: Sequence[complex]) -> tuple[complex, float]:
    """Polynomial extrapolation to 0; the error estimate compares successive orders."""

    def extrapolate(xv, yv):
        table = list(yv)
        n = len(table)
        for level in range(1, n):
            table = [
                (xv[i + level] * table[i] - xv[i] * table[i + 1]) / (xv[i + level] - xv[i])
                for i in range(n - level)
            ]
        return table[0]

    est = extrapolate(xs, ys)
    if len(ys) < 2:
        return est, 0.0
    lower = extrapolate(xs[1:], ys[1:])
    return est, abs(est - lower)


def pv_integral(
    f: MeromorphicLine,
    phi: TestFunction,
    deltas: Sequence[float] = (1e-1, 1e-2, 1e-3),
    tol: float = 1e-6,
) -> tuple[complex, float]:
    """Principal value of phi*f over the upward imaginary axis, measure dz/(2 pi i).

    Returns the extrapolated value and an error estimate; the estimate failing
    to meet tol raises NoConvergence.
    """
    verify_residues(f)
    T = phi.cutoff()

    def g(ts):
        z = 1j * ts
        return phi(z) * f(z) / (2 * np.pi)

    locs = [loc for loc, _ in f.poles]
    if not locs:
        val = _quad_on_panels(g, _graded_edges(-T, T, None, None))
        return val, 0.0
    values = []
    for delta in deltas:
        excisions = [(loc - delta, loc + delta) for loc in locs]
        values.append(_axis_integral(g, T, excisions))
    # the symmetric excision defect is an odd series in delta, so fit 1, d, d^3
    est, err = _extrapolate_odd(list(deltas), values)
    if err > tol:
        raise NoConvergence(f"principal value ladder did not settle: error {err}")
    return est, err


def _extrapolate_odd(xs: Sequence[float], ys: Sequence[complex]) -> tuple[complex, float]:
    powers = [0, 1, 3, 5, 7][: len(xs)]
    V = np.array([[x ** p for p in powers] for x in xs], dtype=float)
    coeffs = np.linalg.solve(V, np.array(ys, dtype=complex))
    est = complex(coeffs[0])
    if len(xs) >= 2:
        # sub-fit on the smallest nodes; its own defect bounds the fit error
        sub_x = xs[-(len(powers) - 1):]
        sub_y = ys[-(len(powers) - 1):]
        V2 = np.array([[x ** p for p in powers[:-1]] for x in sub_x], dtype=float)
        sub = np.linalg.solve(V2, np.array(sub_y, dtype=complex))
        err = abs(est - complex(sub[0]))
    else:
        err = 0.0
    return est, err


def shifted_integral(f: MeromorphicLine, phi: TestFunction, eps: float) -> complex:
    """Integral over the line Re z = -eps (all declared poles lie to its right)."""
    if eps <= 0:
        raise BadShift("shift must be positive")
    T = phi.cutoff()

    def g(ts):
        z = -eps + 1j * ts
        return phi(z) * f(z) / (2 * np.pi)

    edges = [-T, T]
    for loc, _ in f.poles:
        for k in (0.0, eps / 4, eps / 2, eps, 2 * eps, 4 * eps):
            for s in (-1, 1):
                x = loc + s * k
                if -T < x < T:
                    edges.append(x)
    return _quad_on_panels(g, _graded_edges_multi(sorted(set(edges))))


def _graded_edges_multi(base: Sequence[float]) -> list[float]:
    out = [base[0]]
    for e in base[1:]:
        while e - out[-1] > 1.0:
            out.append(out[-1] + 1.0)
        out.append(e)
    return out


def residue_identity_1d(
    f: MeromorphicLine,
    phi: TestFunction,
    eps: float,
    n: Fraction,
    deltas: Sequence[float] = (1e-1, 1e-2, 1e-3),
    tol: float = 1e-6,
) -> dict:
    """Check shifted = (n/2) phi(0) + principal value for a single pole at 0."""
    lhs = shifted_integral(f, phi, eps)
    pv, pv_err = pv_integral(f, phi, deltas)
    expected = complex(float(Fraction(n) / 2)) * complex(phi(0.0)) + pv
    residual = abs(lhs - expected)
    return {
        "phi": phi.describe(),
        "eps": eps,
        "n": str(n),
        "lhs": (lhs.real, lhs.imag),
        "pv": (pv.real, pv.imag),
        "pv_err": pv_err,
        "residual": residual,
        "pass": residual <= tol,
    }


# ---------------------------------------------------------------------------
# the contour-shift identity on a flat


@dataclass(frozen=True)
class FlatTestFunction:
    """phi(lam) = (c0 + c1 <lam, v0> + c2 <lam, lam>) exp(scale <lam, lam>).

    Written in invariant pairings so no basis choice enters; entire in lam and
    Paley-Wiener-like on every shifted imaginary slice.
    """

    c0: float
    c1: float
    c2: float
    scale: float
    v0: tuple[float, ...]

    def pair_arrays(self, gram, lam_coords):
        gl = [sum(float(gram[i][j]) * lam_coords[j] for j in range(len(lam_coords))) for i in range(len(lam_coords))]
        return gl

    def __call__(self, gram, lam_coords):
        gl = self.pair_arrays(gram, lam_coords)
        qq = sum(lam_coords[i] * gl[i] for i in range(len(lam_coords)))
        lin = sum(self.v0[i] * gl[i] for i in range(len(lam_coords)))
        return (self.c0 + self.c1 * lin + self.c2 * qq) * np.exp(self.scale * qq)

    def cutoff(self) -> float:
        # on imaginary slices <lam, lam> = -|y|^2, so positive scale decays
        return 8.0 / math.sqrt(self.scale)


def _orthonormal_basis(d: RootDatum, basis_rows, first_dirs) -> list[np.ndarray]:
    """Float Gram-Schmidt basis of the flat, the given directions first."""
    S = np.array([[float(x) for x in row] for row in d.gram])
    vecs = [np.array([float(x) for x in v]) for v in first_dirs]
    vecs += [np.array([float(x) for x in b]) for b in basis_rows]
    out: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for e in out:
            w = w - (e @ S @ w) * e
        norm2 = w @ S @ w
        if norm2 > 1e-18:
            out.append(w / math.sqrt(norm2))
        if len(out) == len(basis_rows):
            break
    return out


@dataclass
class _MTermData:
    """One splitting-sum term: covolume factor and its (density, dual-vector) pairs."""

    vol: float
    factors: list


def _m_term_data(fns: ScalarRootFns, M: Levi, S: Levi, Q1: ParabolicChamber) -> list[_MTermData]:
    L1 = fns.levi
    d = L1.datum
    rel = _rel_basis(M, S)
    ks = len(rel)
    if ks == 0:
        return [_MTermData(1.0, [])]
    candidates = []
    proj_rel = projector(rel, d.gram)
    for ray in restricted_rays(L1):
        if S.dim and any(d.pair(ray.rep, b) != 0 for b in S.basis):
            continue
        rep_neg = ray.rep if d.pair(ray.rep, Q1.chamber_point) < 0 else -ray.rep
        dual_neg = RatVec(vscale(Fraction(2) / d.pair(rep_neg, rep_neg), rep_neg.coords))
        proj = mat_vec(proj_rel, dual_neg.coords)
        if all(x == 0 for x in proj):
            continue
        candidates.append((ray, rep_neg, dual_neg, proj))
    from .exactlin import gram_det, rank as mat_rank

    out = []
    for subset in combinations(candidates, ks):
        projs = [c[3] for c in subset]
        if mat_rank(projs) != ks:
            continue
        vol = float(QuadConst.from_square(gram_det(projs, d.gram)))
        factors = [(fns.fn(rep_neg), dual_neg) for _, rep_neg, dual_neg, _ in subset]
        out.append(_MTermData(vol, factors))
    return out


def _eval_m_terms(d, terms: list[_MTermData], lam_coords) -> np.ndarray | complex:
    total = None
    for term in terms:
        val = term.vol
        for fn, dual in term.factors:
            gd = [sum(float(d.gram[i][j]) * float(dual.coords[j]) for j in range(d.rank)) for i in range(d.rank)]
            z = sum(lam_coords[i] * gd[i] for i in range(d.rank))
            val = val * fn(z)
        total = val if total is None else total + val
    if total is None:
        return 0j
    return total


def _tensor_integral(
    d: RootDatum,
    onb: list[np.ndarray],
    pole_axes: int,
    integrand: Callable,
    T: float,
    shift: np.ndarray | None,
    deltas: Sequence[float],
    fine_scale: float = 0.01,
) -> complex:
    """Iterated quadrature over the flat; the first pole_axes coordinates carry
    principal-value excisions at 0 extrapolated over the delta ladder."""
    k = len(onb)
    if k == 0:
        lam = shift if shift is not None else np.zeros(d.rank)
        return complex(integrand([complex(x) for x in lam]))

    def half_axis(start: float, fine: float):
        edges = _graded_edges(start, T, fine, None)
        xs, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            xs.extend(mid + half * _GL_NODES)
            ws.extend(half * _GL_WEIGHTS)
        return np.array(xs), np.array(ws)

    def nodes_for(axis: int, delta: float | None):
        if axis < pole_axes and delta is not None:
            xs, ws = half_axis(delta, delta)
        else:
            # smooth axes still need refinement around 0 at the feature scale
            xs, ws = half_axis(0.0, fine_scale)
        return np.concatenate([-xs[::-1], xs]), np.concatenate([ws[::-1], ws])

    def full_grid(delta: float | None) -> complex:
        axes = [nodes_for(a, delta) for a in range(k)]
        mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        weight = axes[0][1]
        for a in axes[1:]:
            weight = np.multiply.outer(weight, a[1])
        lam = []
        for i in range(d.rank):
            comp = 0j
            for axis_index, tgrid in enumerate(mesh):
                comp = comp + 1j * tgrid * onb[axis_index][i]
            if shift is not None:
                comp = comp + shift[i]
            lam.append(comp)
        vals = integrand(lam)
        return complex(np.sum(vals * weight)) / (2 * np.pi) ** k

    if pole_axes == 0:
        return full_grid(None)
    values = [full_grid(delta) for delta in deltas]
    est, err = _neville_at_zero(list(deltas), values)
    if err > 1e-4:
        raise NoConvergence(f"iterated principal value did not settle: {err}")
    return est


def chamber_below(P: ParabolicChamber, L1: Levi) -> ParabolicChamber:
    """The first chamber of P(L1) whose parabolic is contained in P."""
    target = set(P.positive_roots)
    for Q in parabolics(L1):
        if target <= set(Q.positive_roots):
            return Q
    raise NotComparable("no minimal chamber below the given parabolic")


def lemma_shift_check(
    t: TauClass,
    fns: ScalarRootFns,
    M: Levi,
    P: ParabolicChamber,
    phi: FlatTestFunction,
    epsilons: Sequence[float] = (0.05, 0.1),
    deltas: Sequence[float] = (1e-1, 1e-2, 1e-3),
    tol: float = 1e-4,
) -> dict:
    """Compare the shifted integral of phi * m against the splitting-weighted
    sum of principal-value integrals over the sub-flats.

    Requires the pole walls on every sub-flat to be pairwise orthogonal (the
    supported rank <= 2 product configurations).
    """
    L1 = t.levi_L
    d = t.datum
    if fns.levi != L1:
        raise NotComparable("densities must live on the home flat of the class")
    Q1 = chamber_below(P, L1)
    basis_rows = [b.coords for b in L1.basis]

    m_terms = _m_term_data(fns, M, gfull(d), Q1)

    def lhs_integrand(lam):
        return phi(d.gram, lam) * _eval_m_terms(d, m_terms, lam)

    # align the quadrature axes with the pole walls so the sharp directions
    # are graded; non-orthogonal wall sets are outside the quadrature design
    from .exactlin import sym_pair

    wall_dirs = [ray.dual.coords for ray in t.tau_rays()]
    for a in range(len(wall_dirs)):
        for b in range(a + 1, len(wall_dirs)):
            if sym_pair(d.gram, wall_dirs[a], wall_dirs[b]) != 0:
                raise NotComparable("pole walls are not orthogonal; configuration out of scope")
    onb = _orthonormal_basis(d, basis_rows, wall_dirs)
    T = phi.cutoff()
    lhs_values = []
    for eps0 in epsilons:
        shift = np.array([eps0 * float(x) for x in Q1.chamber_point.coords])
        lhs_values.append(
            _tensor_integral(d, onb, 0, lhs_integrand, T, shift, deltas, fine_scale=eps0 / 4)
        )

    rhs = 0j
    terms_used = []
    for L in enumerate_levis(d, lower=L1):
        for S in enumerate_levis(d, lower=M):
            dc = d_constant(L1, L, S)
            if dc.is_zero():
                continue
            nl = discrete_constants(t, L)["nL"]
            if nl == 0:
                continue
            sub_terms = _m_term_data(fns, M, S, Q1)
            if not sub_terms:
                continue
            total_term = 0j
            proj_l = projector(L.basis_rows(), d.gram)
            for term in sub_terms:
                pole_dirs = []
                for fn, dual in term.factors:
                    if fn.has_pole0():
                        proj = mat_vec(proj_l, dual.coords)
                        if any(x != 0 for x in proj):
                            pole_dirs.append(proj)
                for a in range(len(pole_dirs)):
                    for b in range(a + 1, len(pole_dirs)):
                        from .exactlin import sym_pair

                        if sym_pair(d.gram, pole_dirs[a], pole_dirs[b]) != 0:
                            raise NotComparable(
                                "pole walls are not orthogonal; configuration out of scope"
                            )

                def term_integrand(lam, term=term):
                    return phi(d.gram, lam) * _eval_m_terms(d, [term], lam)

                onb_l = _orthonormal_basis(d, [b.coords for b in L.basis], pole_dirs)
                total_term += _tensor_integral(
                    d, onb_l, len(pole_dirs), term_integrand, T, None, deltas
                )
            contribution = float(dc) * float(nl) * total_term
            rhs += contribution
            terms_used.append(
                {"L": L.label, "S": S.label, "d": float(dc), "nL": str(nl)}
            )
    residuals = [abs(lhs - rhs) for lhs in lhs_values]
    eps_spread = abs(lhs_values[0] - lhs_values[-1])
    return {
        "M": M.label,
        "P": P.index,
        "epsilons": list(epsilons),
        "lhs": [(v.real, v.imag) for v in lhs_values],
        "rhs": (rhs.real, rhs.imag),
        "terms": terms_used,
        "residuals": residuals,
        "eps_stability": eps_spread,
        "pass": all(r <= tol for r in residuals),
    }
