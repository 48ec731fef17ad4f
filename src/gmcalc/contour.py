"""Numerical residue calculus on the imaginary axis and the contour-shift identity.

Conventions: contours carry the measure dz/(2 pi i), the imaginary axis is
oriented upward, and principal values are limits over shrinking symmetric
delta-neighbourhoods of the pole at the origin, extrapolated over a fixed
delta ladder.  Gaussian factors make every tail beyond |Im z| = 8/sqrt(scale)
smaller than 1e-12, so truncation there is part of the fixed grid.

The contour-shift checks run grid-major.  lemma_shift_batch first plans every
case (all exact work, and a list of integrals, each naming the grids it needs
by their inputs), then builds each distinct grid once and evaluates on it each
distinct phi and a density table: each distinct pairing <lam, dual> once, and
on it each distinct density read through that dual, keyed by the density's
value key and the pairing row gd (so the datum's form is part of the key).
The nodes lam are dropped once the last pairing is built, since only its
densities and the integrands are left to run and a grid's nodes would
otherwise stay alive next to its fullest table (peak memory).
Every integrand that uses the grid runs, and the grid is dropped before the
next is built: one grid's arrays are alive at a time.  Last it assembles each
case.

On a grid, integrals that read the same m-term sum share it: each distinct
sum is computed once, and each distinct phi times it is integrated once.

Every grid is evaluated on the first half of its axis 0 only, and the other
half of each weighted integrand is the conjugate mirror of it.  Every axis
is symmetric about 0 (-xs[::-1] next to xs, with the weights ws[::-1] next
to ws) and every shift, basis row and pairing row is real, so reversing
every axis of the grid, which is index N-1-k of the flattened grid for
index k, takes the node lam to conj(lam) and keeps the weight.  Every
density template and FlatTestFunction has real coefficients, and the
integrand uses only +, -, *, / and exp, whose rounding is symmetric under
conjugation: each pairing, density, m-sum, phi * m and weighted value at
N-1-k is then the conjugate of its value at k, bit for bit up to the signs
of zeros.  No step turns the sign of a zero into a nonzero bit (the config
rejects a density with a pole on the imaginary axis other than the excised
one at 0, so no division by zero is reached), so the sum over the whole
array, of the same shape and in the same order, keeps every bit of the
full-grid evaluation.

Report residuals near 1e-19 keep the bits of the per-integral evaluation
only if every product keeps its operand order, because array complex
products are not bitwise commutative on every host (a * b and b * a differ
with AVX-512), while the order does not change with the array numpy writes
into.  So every array product is an explicit ufunc call that states its
order: np.multiply(density, val, out=val) for each factor of an m-term (the
order numpy's temporary elision gave val * fn(<lam, dual>) on the 2-d grids,
the only ones whose terms have two factors), np.multiply(phi, m) for the
integrand, written into the first half of the grid's integrand array,
np.multiply(half, weight, out=half) for the quadrature weights, and
np.multiply(prefactor, exponential) in FlatTestFunction (numpy may swap a
named array times a temporary).  A 0-dimensional flat comes only from L = G,
where S = M = L1, so its one m-term is the empty subset: no density is read
there.

Integrands run on whole arrays: one call on all panel nodes of a segment
(_quad_on_panels), one on all nodes of a segment in the analytic route
(gmfamily._segment_integral), and grid coordinates from broadcast 1-d axes.
Numpy's complex add, multiply, divide and exp give an element the same bits
in any layout, broadcast operand or numpy scalar (numpy 2.4, x86-64 with
AVX-512), so no node's bits move.  Merged reductions would add in another
order, so each panel stays one np.dot of its 12 nodes, added in panel order,
and pv_integral, shifted_integral and _excised_axis keep one call per segment.

Loading this module sets glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD to
32 MiB.  A grid frees its working set of tens of MB when it is done; with
the defaults glibc hands that memory back to the kernel and the next grid
faults it in again.  Setting either value turns off glibc's dynamic
thresholds, so both are set: on an A2 verify --suite all (x86-64, glibc
2.36, Python 3.11, one process) the minor page faults were 75k with neither,
303k with the trim value alone (every array is then mmapped), 141k with the
mmap value alone and 10k with both.  A G2 verify --suite all takes 15k with
both, at a 74 MB peak RSS (165k and 107 MB when every grid was evaluated on
all its nodes).
"""
from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BadShift, GmcalcError, NoConvergence, NotComparable
from .exactlin import int_mat_vec, int_row, ratio_vec, sym_pair
from .gmfamily import ScalarFn, ScalarRootFns, _poly_eval, split_subsets
from .levilattice import (
    Levi,
    ParabolicChamber,
    QuadConst,
    d_constant,
    enumerate_levis,
    flat_projector,
    gfull,
    parabolics,
)
from .rootdatum import RootDatum
from .spectral import TauClass, n_constant

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# glibc malloc.h parameter numbers, and the size below which freed memory stays in the heap
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEEP = 32 << 20


def _keep_freed_arrays() -> None:
    """Keep freed grid arrays in the heap for the next grid (see the module docstring).

    A silent no-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP)


_keep_freed_arrays()


@dataclass(frozen=True)
class TestFunction:
    """phi(z) = p(z) exp(scale * z^2): entire, rapidly decaying on vertical lines."""

    __test__ = False  # not a pytest class

    coeffs: tuple[Fraction, ...]
    scale: Fraction

    def __post_init__(self):
        if self.scale <= 0:
            raise BadShift("test function scale must be positive")
        # the same values as floats, converted once rather than on every call
        object.__setattr__(self, "_coeffs", tuple(map(complex, self.coeffs)))
        object.__setattr__(self, "_scale", float(self.scale))

    def __call__(self, z):
        return _poly_eval(self._coeffs, z) * np.exp(self._scale * z * z)

    def cutoff(self) -> float:
        return 8.0 / math.sqrt(float(self.scale))

    def describe(self) -> str:
        return f"poly{[str(c) for c in self.coeffs]}*exp({self.scale}z^2)"


def verify_residues(f: ScalarFn) -> None:
    """Quadrature on a circle of radius 0.02 around the origin; a residue there that is not -f.n,
    beyond 1e-8 (relative to a residue above 1), is fatal."""
    m = 256
    ring = 0.02 * np.exp(1j * (2 * np.pi * np.arange(m) / m))
    approx = complex(np.mean(f(ring) * ring))
    res = -complex(f.n)
    if abs(approx - res) > 1e-8 * max(1.0, abs(res)):
        raise NoConvergence(f"declared residue {res} at 0 but contour gives {approx}")


def _graded_edges(lo: float, hi: float, fine_lo: float | None, fine_hi: float | None) -> list[float]:
    """Panel edges on [lo, hi], geometrically refined toward endpoints near poles."""
    for fine in (fine_lo, fine_hi):
        if fine is not None and not fine > 0:
            raise BadShift(f"panel refinement step must be positive, got {fine}")
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
    return _capped(sorted(edges))


def _capped(edges: Sequence[float]) -> list[float]:
    """Sorted panel edges with unit steps inserted so no panel is wider than 1."""
    out = [edges[0]]
    for e in edges[1:]:
        while e - out[-1] > 1.0:
            out.append(out[-1] + 1.0)
        out.append(e)
    return out


def _quad_on_panels(g: Callable, edges: Sequence[float]) -> complex:
    """Gauss-Legendre on each panel, g called once on every node; panel sums added in panel order."""
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    mids, halves = (a + b) / 2, (b - a) / 2
    rows = g(mids[:, None] + halves[:, None] * _GL_NODES)
    total = 0j
    for half, row in zip(halves.tolist(), rows):
        total += half * np.dot(_GL_WEIGHTS, row)
    return complex(total)


def _excised_axis(g: Callable, T: float, delta: float) -> complex:
    """Integral of g over [-T, T] minus the cut (-delta, delta), panels graded toward the cut."""
    if not 0 < delta < T:
        raise BadShift(f"excision radius must lie in (0, {T}), got {delta}")
    left = _quad_on_panels(g, _graded_edges(-T, -delta, None, delta))
    right = _quad_on_panels(g, _graded_edges(delta, T, delta, None))
    return 0j + left + right  # starting from 0j, no part of the sum is -0.0


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
    f: ScalarFn,
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

    if not f.has_pole0():
        val = _quad_on_panels(g, _graded_edges(-T, T, None, None))
        return val, 0.0
    values = [_excised_axis(g, T, delta) for delta in deltas]
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


def shifted_integral(f: ScalarFn, phi: TestFunction, eps: float) -> complex:
    """Integral over the line Re z = -eps (the pole at the origin lies to its right)."""
    if eps <= 0:
        raise BadShift("shift must be positive")
    T = phi.cutoff()

    def g(ts):
        z = -eps + 1j * ts
        return phi(z) * f(z) / (2 * np.pi)

    edges = [-T, T]
    if f.has_pole0():
        for k in (0.0, eps / 4, eps / 2, eps, 2 * eps, 4 * eps):
            for s in (-1, 1):
                x = 0.0 + s * k  # 0.0 + keeps -0.0 out of the edges
                if -T < x < T:
                    edges.append(x)
    return _quad_on_panels(g, _capped(sorted(set(edges))))


def residue_identity_1d(
    f: ScalarFn,
    phi: TestFunction,
    eps: float,
    deltas: Sequence[float] = (1e-1, 1e-2, 1e-3),
    tol: float = 1e-6,
) -> dict:
    """Check shifted = (n/2) phi(0) + principal value for f's pole -n/z at 0."""
    lhs = shifted_integral(f, phi, eps)
    pv, pv_err = pv_integral(f, phi, deltas, tol)
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
        pre = self.c0  # a term with a zero coefficient would add only signed zeros
        if self.c1 != 0:
            pre = pre + self.c1 * sum(self.v0[i] * gl[i] for i in range(len(lam_coords)))
        if self.c2 != 0:
            pre = pre + self.c2 * qq
        # pre * np.exp(...) would let numpy write into the temporary exponential and swap the order
        return np.multiply(pre, np.exp(self.scale * qq))

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
    """One splitting-sum term: covolume factor and its factors.

    Each factor is (density, dual vector, gd), where gd is the float row of
    the pairing lam -> <lam, dual> in ambient coordinates, as a tuple.
    """

    vol: float
    factors: list


def _m_term_data(fns: ScalarRootFns, M: Levi, S: Levi, Q1: ParabolicChamber) -> list[_MTermData]:
    d = fns.levi.datum
    return [
        _MTermData(float(vol), [(fns.fn(rep_neg), dual_neg, d.float_row(dual_neg)) for rep_neg, dual_neg in factors])
        for vol, factors in split_subsets(fns.levi, M, S, Q1)
    ]


def _density_table(terms: Iterable[_MTermData], lam_coords: list) -> dict:
    """Each distinct density of the terms on the nodes, keyed by (density key, gd).

    Each distinct pairing <lam, dual> is computed once, every density read
    through it is evaluated on it, and it is dropped before the next.  The
    list lam_coords is emptied once the last pairing is built, so the nodes
    are not alive next to the fullest table (peak memory).
    """
    by_gd: dict[tuple[float, ...], dict] = {}
    for term in terms:
        for fn, _, gd in term.factors:
            by_gd.setdefault(gd, {}).setdefault(fn.key, fn)
    table = {}
    for index, (gd, fns) in enumerate(by_gd.items(), 1):
        z = sum(lam_coords[i] * gd[i] for i in range(len(gd)))
        if index == len(by_gd):
            lam_coords.clear()
        for key, fn in fns.items():
            table[key, gd] = fn(z)
    return table


def _eval_m_terms(terms: list[_MTermData], table: dict) -> np.ndarray | complex:
    """The sum of the m-terms, each factor read from table (see _density_table).

    Each factor is density * val, written into val once val is an array of
    its own, and total + val is written into total once total is, so the
    table is never written (see the module docstring).  A term with no
    factors is its covolume.
    """
    total = None
    for term in terms:
        val = term.vol
        for fn, _, gd in term.factors:
            val = np.multiply(table[fn.key, gd], val, out=val if isinstance(val, np.ndarray) else None)
        if isinstance(total, np.ndarray):
            np.add(total, val, out=total)
        else:
            total = val if total is None else total + val
    if total is None:
        return 0j
    return total


@dataclass(frozen=True)
class _Grid:
    """The inputs of one tensor quadrature grid over a flat; equal inputs, equal grid.

    Axis a runs along onb[a] (ambient float coordinates).  The first
    pole_axes axes carry a principal-value excision of half-width delta at 0;
    the others are refined toward 0 at fine_scale.  Nodes are shift + i*t,
    |t_a| <= T on every axis.
    """

    onb: tuple[tuple[float, ...], ...]
    pole_axes: int
    delta: float | None
    shift: tuple[float, ...] | None
    T: float
    fine_scale: float

    def build(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The first half of the grid along axis 0: its nodes, one complex array per ambient
        coordinate, and its weights.

        Every axis is symmetric about 0 and onb and shift are real, so
        reversing every axis of the grid maps the node at t to its conjugate
        at -t, with the same weight: the other half is the conjugate mirror of
        this one (see the module docstring).
        """

        def half_axis(start: float, fine: float):
            edges = _graded_edges(start, self.T, fine, None)
            xs, ws = [], []
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = (a + b) / 2, (b - a) / 2
                xs.extend(mid + half * _GL_NODES)
                ws.extend(half * _GL_WEIGHTS)
            return np.array(xs), np.array(ws)

        axes = []
        for axis in range(len(self.onb)):
            if axis < self.pole_axes:
                xs, ws = half_axis(self.delta, self.delta)
            else:
                # smooth axes still need refinement around 0 at the feature scale
                xs, ws = half_axis(0.0, self.fine_scale)
            if axis == 0:
                # the half below 0 only: the rest of the grid is its conjugate mirror
                axes.append((-xs[::-1], ws[::-1]))
            else:
                axes.append((np.concatenate([-xs[::-1], xs]), np.concatenate([ws[::-1], ws])))
        weight = axes[0][1]
        for a in axes[1:]:
            weight = np.multiply.outer(weight, a[1])
        # i*t on each 1-d axis, shaped to broadcast along its own grid axis
        its = [(1j * xs).reshape([-1 if a == j else 1 for a in range(len(axes))]) for j, (xs, _) in enumerate(axes)]
        lam = []
        for i in range(len(self.onb[0])):
            comp = 0j
            for axis_index, it in enumerate(its):
                comp = comp + it * self.onb[axis_index][i]
            if self.shift is not None:
                comp = comp + self.shift[i]
            lam.append(comp)
        return lam, weight


@dataclass
class _Integral:
    """One planned integral of phi * (sum of m-terms) over a flat, measure / (2 pi)^k.

    A flat with pole axes has one grid per rung of the delta ladder (deltas)
    and is extrapolated to delta = 0; a smooth flat has one grid.  On a
    0-dimensional flat there is no grid and values holds the point value.
    """

    case: int
    d: RootDatum
    phi: FlatTestFunction
    terms: list[_MTermData]
    grids: list[_Grid]
    deltas: list[float] | None
    values: list

    def value(self, tol: float) -> complex:
        """The value, extrapolated over the delta ladder; an error estimate above tol raises."""
        if self.deltas is None:
            return self.values[0]
        est, err = _neville_at_zero(self.deltas, self.values)
        if err > tol:
            raise NoConvergence(f"iterated principal value did not settle: {err}")
        return est


def chamber_below(P: ParabolicChamber, L1: Levi) -> ParabolicChamber:
    """The first chamber of P(L1) whose parabolic is contained in P."""
    target = set(P.positive_roots)
    for Q in parabolics(L1):
        if target <= set(Q.positive_roots):
            return Q
    raise NotComparable("no minimal chamber below the given parabolic")


class ShiftCase(NamedTuple):
    """The inputs of one contour-shift check (see lemma_shift_check)."""

    t: TauClass
    fns: ScalarRootFns
    M: Levi
    P: ParabolicChamber
    phi: FlatTestFunction
    epsilons: Sequence[float]
    deltas: Sequence[float]
    tol: float


@dataclass
class _ShiftPlan:
    """The integrals of one case: one per shift, then per (L, S) term of the sum."""

    lhs: list[_Integral]
    rhs: list[tuple[QuadConst, Fraction, list[_Integral]]]  # d, n^L, integrals

    def integrals(self) -> list[_Integral]:
        return self.lhs + [it for _, _, its in self.rhs for it in its]


def _require_orthogonal(d: RootDatum, dirs) -> None:
    for a in range(len(dirs)):
        for b in range(a + 1, len(dirs)):
            if sym_pair(d.gram, dirs[a], dirs[b]) != 0:
                raise NotComparable("pole walls are not orthogonal; configuration out of scope")


def _plan(case_index: int, case: ShiftCase) -> _ShiftPlan:
    """All exact work of one case; the grid integrals are only described."""
    t, fns, M, P, phi, epsilons, deltas, _ = case
    L1 = t.levi_L
    d = t.datum
    if fns.levi != L1:
        raise NotComparable("densities must live on the home flat of the class")
    Q1 = chamber_below(P, L1)

    m_terms = _m_term_data(fns, M, gfull(d), Q1)

    # align the quadrature axes with the pole walls so the sharp directions
    # are graded; non-orthogonal wall sets are outside the quadrature design
    wall_dirs = [ray.dual.coords for ray in t.tau_rays]
    _require_orthogonal(d, wall_dirs)
    onb = _orthonormal_basis(d, L1.basis, wall_dirs)
    T = phi.cutoff()

    def integral(terms, basis, pole_axes, shift, fine_scale=0.01) -> _Integral:
        """Iterated quadrature over the flat spanned by basis; the first
        pole_axes coordinates carry principal-value excisions at 0."""
        if not basis:
            lam = [complex(x) for x in (shift if shift is not None else np.zeros(d.rank))]
            point = complex(phi(d.gram, lam) * _eval_m_terms(terms, _density_table(terms, lam)))
            return _Integral(case_index, d, phi, terms, [], None, [point])
        axes = tuple(tuple(float(x) for x in v) for v in basis)
        ladder = list(deltas) if pole_axes else None
        grids = [_Grid(axes, pole_axes, delta, shift, T, fine_scale) for delta in ladder or [None]]
        return _Integral(case_index, d, phi, terms, grids, ladder, [None] * len(grids))

    lhs = []
    for eps0 in epsilons:
        shift = tuple(eps0 * float(x) for x in Q1.chamber_point.coords)
        lhs.append(integral(m_terms, onb, 0, shift, fine_scale=eps0 / 4))

    rhs = []
    for L in enumerate_levis(d, lower=L1):
        for S in enumerate_levis(d, lower=M):
            dc = d_constant(L1, L, S)
            if dc.is_zero():
                continue
            nl = n_constant(t, L)
            if nl == 0:
                continue
            sub_terms = _m_term_data(fns, M, S, Q1)
            if not sub_terms:
                continue
            proj_l, den_l = flat_projector(L)
            integrals = []
            for term in sub_terms:
                pole_dirs = []
                for fn, dual, _ in term.factors:
                    if fn.has_pole0():
                        row, den = int_row(dual.coords)
                        proj = int_mat_vec(proj_l, row)
                        if any(proj):
                            pole_dirs.append(ratio_vec(proj, den_l * den))
                _require_orthogonal(d, pole_dirs)
                onb_l = _orthonormal_basis(d, L.basis, pole_dirs)
                integrals.append(integral([term], onb_l, len(pole_dirs), None))
            rhs.append((dc, nl, integrals))
    return _ShiftPlan(lhs, rhs)


def _m_signature(terms: list[_MTermData]) -> tuple:
    """What _eval_m_terms reads of the terms, in its order: equal signatures, equal sums."""
    return tuple((term.vol, tuple((fn.key, gd) for fn, _, gd in term.factors)) for term in terms)


def _charge(runtimes: list[float], cases: set[int], seconds: float) -> None:
    """Split seconds evenly over the cases."""
    share = seconds / len(cases)
    for case in cases:
        runtimes[case] += share


def _evaluate(integrals: list[_Integral], runtimes: list[float]) -> dict[str, int]:
    """Fill the grid values of every planned integral, grid by grid.

    Each distinct grid is built once, and on it each distinct phi and each
    distinct density (with its pairing) is evaluated once; the nodes are
    dropped before the integrands run, and the rest of the grid before the
    next one is built.  The grid's integrals are grouped by m-term signature
    and then by phi: each distinct m-term sum is computed once, and each
    distinct phi times it is integrated once, its value shared by the group.
    All of it runs on the first half of the grid, and each weighted
    integrand fills the other half with its conjugate mirror before the sum
    over the whole grid (see the module docstring).  A grid's build, phi and
    density time is split evenly over the cases that use it, and an m-term
    sum's time, with its integrands, likewise.
    """
    users: dict[_Grid, list[tuple[_Integral, int]]] = {}
    for it in integrals:
        for slot, grid in enumerate(it.grids):
            users.setdefault(grid, []).append((it, slot))
    phi_evals = pairings = densities = m_sums = integrands = nodes = 0
    for grid, uses in users.items():
        t0 = time.monotonic()
        lam, weight = grid.build()
        phi_vals = {}
        for it, _ in uses:
            if (it.d, it.phi) not in phi_vals:
                phi_vals[it.d, it.phi] = it.phi(it.d.gram, lam)
        table = _density_table((term for it, _ in uses for term in it.terms), lam)
        del lam
        phi_evals += len(phi_vals)
        pairings += len({gd for _, gd in table})
        densities += len(table)
        _charge(runtimes, {it.case for it, _ in uses}, time.monotonic() - t0)
        by_m: dict[tuple, tuple[list[_MTermData], dict]] = {}
        for it, slot in uses:
            terms, by_phi = by_m.setdefault(_m_signature(it.terms), (it.terms, {}))
            by_phi.setdefault((it.d, it.phi), []).append((it, slot))
        m_sums += len(by_m)
        norm = (2 * np.pi) ** len(grid.onb)
        vals = np.empty((2 * len(weight), *weight.shape[1:]), complex)
        half, rest = vals[: len(weight)], vals[len(weight):]
        nodes += half.size
        for terms, by_phi in by_m.values():
            t0 = time.monotonic()
            m = _eval_m_terms(terms, table)
            for (d, phi), group in by_phi.items():
                # phi * m, the order of the per-integral form phi(gram, lam) * m(lam), then the weights
                np.multiply(phi_vals[d, phi], m, out=half)
                np.multiply(half, weight, out=half)
                np.conjugate(np.flip(half), out=rest)
                value = complex(np.sum(vals)) / norm
                for it, slot in group:
                    it.values[slot] = value
            integrands += len(by_phi)
            _charge(runtimes, {it.case for group in by_phi.values() for it, _ in group}, time.monotonic() - t0)
        del weight, phi_vals, table, m, vals, half, rest
    return {
        "lemma_shift.integrals": sum(len(uses) for uses in users.values()),
        "lemma_shift.grids": len(users),
        "lemma_shift.phi_evals": phi_evals,
        "lemma_shift.pairings": pairings,
        "lemma_shift.densities": densities,
        "lemma_shift.m_sums": m_sums,
        "lemma_shift.integrands": integrands,
        "lemma_shift.nodes": nodes,
    }


def _assemble(case: ShiftCase, plan: _ShiftPlan) -> dict:
    lhs_values = [it.value(case.tol) for it in plan.lhs]
    rhs = 0j
    for dc, nl, integrals in plan.rhs:
        total_term = 0j
        for it in integrals:
            total_term += it.value(case.tol)
        rhs += float(dc) * float(nl) * total_term
    residuals = [abs(lhs - rhs) for lhs in lhs_values]
    return {
        "lhs": [(v.real, v.imag) for v in lhs_values],
        "rhs": (rhs.real, rhs.imag),
        "residuals": residuals,
        "eps_stability": abs(lhs_values[0] - lhs_values[-1]),
        "pass": all(r <= case.tol for r in residuals),
    }


@dataclass
class ShiftBatch:
    """Outcomes of lemma_shift_batch, in case order.

    outcomes[i] is the result dict of case i or the GmcalcError it raised.
    runtimes[i] is the time charged to it: its planning, integrands and
    assembly, plus its share of every grid it used.
    """

    outcomes: list
    runtimes: list[float]
    counters: dict[str, int]


def lemma_shift_batch(cases: Sequence[ShiftCase]) -> ShiftBatch:
    """Run many contour-shift checks over shared quadrature grids.

    Plan every case, evaluate the planned integrals grid-major, then assemble
    each case.  An error in planning or assembly ends only its own case.
    """
    runtimes = [0.0] * len(cases)
    plans = []
    for index, case in enumerate(cases):
        t0 = time.monotonic()
        try:
            plans.append(_plan(index, case))
        except GmcalcError as exc:
            plans.append(exc)
        runtimes[index] += time.monotonic() - t0
    counters = _evaluate([it for p in plans if isinstance(p, _ShiftPlan) for it in p.integrals()], runtimes)
    outcomes = []
    for index, (case, plan) in enumerate(zip(cases, plans)):
        t0 = time.monotonic()
        if isinstance(plan, _ShiftPlan):
            try:
                plan = _assemble(case, plan)
            except GmcalcError as exc:
                plan = exc
        outcomes.append(plan)
        runtimes[index] += time.monotonic() - t0
    return ShiftBatch(outcomes, runtimes, counters)


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
    out = lemma_shift_batch([ShiftCase(t, fns, M, P, phi, epsilons, deltas, tol)]).outcomes[0]
    if isinstance(out, GmcalcError):
        raise out
    return out
