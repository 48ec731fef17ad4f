"""Numerical residue calculus on the imaginary axis and the contour-shift identity.

Conventions: contours carry the measure dz/(2 pi i), the imaginary axis is
oriented upward, and principal values are limits over shrinking symmetric
delta-neighbourhoods of the pole at the origin, extrapolated over a fixed
delta ladder.  Gaussian factors make every tail beyond |Im z| = 8/sqrt(scale)
smaller than 1e-12, so truncation there is part of the fixed grid.

The contour-shift checks run grid-major.  lemma_shift_batch first plans every
case (all exact work, and a list of integrals, each naming the grids it needs
by their inputs), then evaluates each distinct grid slab by slab: runs of
rows along axis 0 of at most _SLAB nodes, built from the grid's 1-d axes.
On each slab it evaluates each distinct phi and a density table: each
distinct pairing z = <lam, dual> once, and on it each distinct density read
through that dual, keyed by the density's value key and the pairing row gd
(so the datum's form is part of the key).  A density with residue n at 0 is
-n / z plus its analytic part, and each quotient -n / z is computed once per
pairing and n: a complex division costs about ten multiplies.  Densities
that differ only in n share their analytic part, computed once per pairing
and template.  Every integrand that uses the grid runs on the slab and feeds
its weighted values to its own _MirrorSum, and the slab's arrays are dropped
before the next slab is built: memory is bounded by one slab, not by the
grid's node count.  Last it assembles each case.

A grid with no shift lies on the imaginary flat i a_L*, and there each value
is real or purely imaginary, so it is carried as the one real array that can
be nonzero.  The nodes are iy, kept as y, and so are the pairings <lam, gd>
and FlatTestFunction's pairings with the form; <lam, lam> is -<y, y>, whose
sign goes into the coefficients.  Every density template but
pole_plus_rational is real on the real axis and odd, so at iy it is i times
a real value (ScalarFn.on_axis).  An m-term of k such factors is then i^k
times a real product, real for even k and imaginary for odd k; the sign of
i^k goes into its covolume.  phi with c1 = 0 is real.  Each formula gives
numpy's complex bits.  numpy divides by the reciprocal of the denominator,
so -n / (iy) is i * (n * (1.0 / y)) and iy / (-(y * y) - c) is
i * (y * (1.0 / (-(y * y) - c))); n / y would differ in the last bit.  The
Gaussian stays a complex exp of a zero imaginary part: its real part is the C
library's exp, and numpy's real exp differs from that in the last bit of some
values.  Where two values that both have nonzero real and imaginary parts
meet (a pole_plus_rational density, or phi with c1 != 0), numpy's complex
ufunc runs on the rebuilt complex arrays, and each weighted integrand is
written into its part of a complex array for _MirrorSum.  A rebuilt zero
part may differ from numpy's in its sign.  Signs of zeros never reach a
nonzero bit here (Kahan, "Branch cuts for complex elementary functions",
1987): x + (+-0) is x, and no value is divided by a zero part.  So every
grid value keeps the bits of the complex evaluation, while each complex
product (four multiplies) and Smith division (R. L. Smith, CACM 5, 1962)
becomes one real multiply or one reciprocal and multiply.

On a grid, integrals that read the same m-term sum share it: each distinct
sum is computed once per slab, and each distinct phi times it is integrated
once.

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
one at 0, so no division by zero is reached), so np.sum of the array
[half, conj(flip(half))] keeps every bit of the full-grid evaluation.
_MirrorSum gives that sum without the array: it replays numpy's pairwise
summation tree, sums each leaf of at most _LEAF elements once the slabs
have fed the values it reads, and adds the leaf sums in the tree's order.
The leaves are nodes of numpy's tree, so _LEAF moves no bit.  A leaf
wholly in the half is reduced from its view of the fed values; a leaf
wholly past the middle reads a range of the half reversed and conjugated,
and is summed as the conjugate of np.add.reduce of the reversed view,
without a copy.  numpy reduces a reversed view in the order of its
elements, and as one run, with the bits of the reduction of its copy, as
long as the leaf fits numpy's buffer (np.getbufsize(), 8192 elements), so
_LEAF stays at most that; conjugation commutes with rounding.  Only a leaf
that straddles the middle or the end of a slab is joined into an array.
Between slabs it holds the values of the leaves not yet summed, at most
_LEAF per integrand.

Report residuals near 1e-19 keep the bits of the per-integral evaluation
only if every product keeps its operand order, because array complex
products are not bitwise commutative on every host (a * b and b * a differ
with AVX-512), while the order does not change with the array numpy writes
into.  So every array product is an explicit ufunc call that states its
order: np.multiply(density, val, out=val) for each factor of an m-term (the
order numpy's temporary elision gave val * fn(<lam, dual>) on the 2-d grids,
the only ones whose terms have two factors), np.multiply(phi, m) for the
integrand, np.multiply(vals, weight, out=vals) for the quadrature weights, and
np.multiply(prefactor, exponential) in FlatTestFunction (numpy may swap a
named array times a temporary).  A 0-dimensional flat comes only from L = G,
where S = M = L1, so its one m-term is the empty subset: no density is read
there.

Integrands run on whole arrays.  The 1-d route builds each node set once:
LineNodes, one table per residue-1d run, keys the panel nodes of a segment
by its edges and its line, evaluates each test function and density on them
once, and verifies each density's residue once, so the identities that read
the same node set share it (the suite's even-zero records read the pure
pole's records).  The analytic route calls each density once per circle on
the nodes of all 64 segments (gmfamily._segment_integrals), and grid
coordinates come from broadcast 1-d axes.  Numpy's complex add, multiply,
divide and exp give an element the same bits in any layout, broadcast
operand or numpy scalar (numpy 2.4, x86-64 with AVX-512), so no node's bits
move, and each identity forms phi * f / (2 pi) from the shared values in
that operand order.  Merged reductions would add in another order, so each
panel stays one np.dot of its 12 nodes, added in panel order, and
pv_integral, shifted_integral and _excised_axis keep one integral per
segment.

Loading this module sets glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD to
32 MiB.  Each slab frees arrays of a few hundred kB, and each grid a few MB,
when it is done; with the defaults glibc hands that memory back to the
kernel and the next slab faults it in again.  Setting either value turns
off glibc's dynamic thresholds, so both are set: on an A2 verify --suite all
(x86-64, glibc 2.36, Python 3.11, one process) the minor page faults were
86k with neither, 53k with the trim value alone, 87k with the mmap value
alone and 6.7k with both, at a 41 MB peak RSS.  A G2 verify --suite all
takes 8.4k with both and 583k with neither, at a 47 MB peak RSS (15k and
74 MB when each grid's half was evaluated whole, 165k and 107 MB when every
grid was evaluated on all its nodes).

The Gauss-Legendre rules are constants equal to numpy's leggauss bit for bit
(gmfamily._GL12 and _GL32): building them in each process imports
numpy.polynomial and runs a LAPACK eigen-solve, 1.6 MB of an A2 verify's peak
RSS.  test_gauss_legendre_tables_are_numpy_leggauss_bit_for_bit pins them.
"""
from __future__ import annotations

import ctypes
import math
import operator
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BadShift, GmcalcError, NoConvergence, NotComparable
from .exactlin import int_mat_vec
from .gmfamily import ScalarFn, ScalarRootFns, _GL12, _poly_eval, split_subsets, values_sharing_poles
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
from .rootdatum import RatVec, RootDatum, kept
from .spectral import TauClass, n_constant

_GL_NODES, _GL_WEIGHTS = map(np.array, _GL12)
# the weights as np.dot casts them against complex values, cast once: the same dot, bit for bit
_GL_COMPLEX_WEIGHTS = _GL_WEIGHTS.astype(complex)

# the most half-grid nodes evaluated at once, and the longest run of numpy's pairwise sum kept whole
# (at most np.getbufsize(), so that numpy reduces a reversed view of a leaf unbuffered, as one run)
_SLAB = 16384
_LEAF = 4096

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


class TestFunction:
    """phi(z) = p(z) exp(scale * z^2): entire, rapidly decaying on vertical lines."""

    __test__ = False  # not a pytest class
    __slots__ = ("coeffs", "scale", "_coeffs", "_scale")

    def __init__(self, coeffs: tuple[Fraction, ...], scale: Fraction):
        if scale <= 0:
            raise BadShift("test function scale must be positive")
        self.coeffs, self.scale = coeffs, scale
        # the same values as floats, converted once rather than on every call
        self._coeffs, self._scale = tuple(map(complex, coeffs)), float(scale)

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


def _panels(edges: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes of each panel between successive edges (one row per panel) and
    each panel's half width, which scales _GL_WEIGHTS on it."""
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    mids, halves = (a + b) / 2, (b - a) / 2
    return mids[:, None] + halves[:, None] * _GL_NODES, halves


class LineNodes:
    """Each panel node set of the 1-d route once, keyed by its edges and its line, with each test function
    and density evaluated on it once and each density's residue verified once; one table per suite run.
    Each integral forms phi * f / (2 pi) from the shared values, in that operand order."""

    __slots__ = ("_lines", "_verified")

    def __init__(self):
        self._lines: dict[tuple, tuple] = {}
        self._verified: set[ScalarFn] = set()

    def verify_residues(self, f: ScalarFn) -> None:
        """verify_residues(f), run once per density: a density that passed once passes again."""
        if f not in self._verified:
            verify_residues(f)
            self._verified.add(f)

    def integral(self, f: ScalarFn, phi: TestFunction, edges: Sequence[float], eps: float | None = None) -> complex:
        """Gauss-Legendre of phi * f / (2 pi) on each panel between the edges, at z = it on the imaginary
        axis, or z = -eps + it with eps; each panel is one np.dot of its 12 nodes, panel sums added in order.

        A panel sum is its half width times the dot in CPython arithmetic, which
        gives numpy's scalar bits: both multiply (h + 0j) by the dot in the
        schoolbook form and add part by part.
        """
        key = (tuple(edges), eps)
        line = self._lines.get(key)
        if line is None:
            ts, halves = _panels(edges)
            line = self._lines[key] = (1j * ts if eps is None else -eps + 1j * ts, halves.tolist(), {})
        z, halves, values = line
        for fn in (phi, f):
            if fn not in values:
                values[fn] = fn(z)
        rows = values[phi] * values[f] / (2 * np.pi)
        total = 0j
        for half, row in zip(halves, rows):
            total += half * complex(np.dot(_GL_COMPLEX_WEIGHTS, row))
        return total


def _excised_axis(quad: Callable[[list[float]], complex], T: float, delta: float) -> complex:
    """The integral over [-T, T] minus the cut (-delta, delta), panels graded toward the cut; quad integrates
    over the panels between the edges it is given."""
    if not 0 < delta < T:
        raise BadShift(f"excision radius must lie in (0, {T}), got {delta}")
    left = quad(_graded_edges(-T, -delta, None, delta))
    right = quad(_graded_edges(delta, T, delta, None))
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
    nodes: LineNodes | None = None,
) -> tuple[complex, float]:
    """Principal value of phi*f over the upward imaginary axis, measure dz/(2 pi i), on the node sets of
    nodes (a table of its own if None).

    Returns the extrapolated value and an error estimate; the estimate failing
    to meet tol raises NoConvergence.
    """
    nodes = LineNodes() if nodes is None else nodes
    nodes.verify_residues(f)
    T = phi.cutoff()

    def quad(edges):
        return nodes.integral(f, phi, edges)

    if not f.has_pole0():
        return quad(_graded_edges(-T, T, None, None)), 0.0
    values = [_excised_axis(quad, T, delta) for delta in deltas]
    # the symmetric excision defect is an odd series in delta, so fit 1, d, d^3, ..., one power per rung
    est, err = _extrapolate_odd(list(deltas), values)
    if err > tol:
        raise NoConvergence(f"principal value ladder did not settle: error {err}")
    return est, err


def _extrapolate_odd(xs: Sequence[float], ys: Sequence[complex]) -> tuple[complex, float]:
    powers = [0, *range(1, 2 * len(xs) - 2, 2)]
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


def shifted_integral(f: ScalarFn, phi: TestFunction, eps: float, nodes: LineNodes | None = None) -> complex:
    """Integral over the line Re z = -eps (the pole at the origin lies to its right), on the node sets of
    nodes (a table of its own if None)."""
    if eps <= 0:
        raise BadShift("shift must be positive")
    T = phi.cutoff()
    edges = [-T, T]
    if f.has_pole0():
        for k in (0.0, eps / 4, eps / 2, eps, 2 * eps, 4 * eps):
            for s in (-1, 1):
                x = 0.0 + s * k  # 0.0 + keeps -0.0 out of the edges
                if -T < x < T:
                    edges.append(x)
    return (LineNodes() if nodes is None else nodes).integral(f, phi, _capped(sorted(set(edges))), eps)


def residue_identity_1d(
    f: ScalarFn,
    phi: TestFunction,
    eps: float,
    deltas: Sequence[float] = (1e-1, 1e-2, 1e-3),
    tol: float = 1e-6,
    nodes: LineNodes | None = None,
) -> dict:
    """Check shifted = (n/2) phi(0) + principal value for f's pole -n/z at 0, on the node sets of nodes (each
    side a table of its own if None)."""
    lhs = shifted_integral(f, phi, eps, nodes)
    pv, pv_err = pv_integral(f, phi, deltas, tol, nodes)
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


def _dot(xs, ys):
    """The sum of the products x * y, each in that operand order, added from the first on.

    Python's sum would start from 0, a pass over the whole array that can
    change nothing but the sign of a zero.
    """
    products = map(operator.mul, xs, ys)
    return sum(products, next(products))


class FlatTestFunction:
    """phi(lam) = (c0 + c1 <lam, v0> + c2 <lam, lam>) exp(scale <lam, lam>).

    Written in invariant pairings so no basis choice enters; entire in lam and
    Paley-Wiener-like on every shifted imaginary slice.  v0 is read only
    through c1, so it is () when c1 is 0: functions equal as functions then
    compare equal and share one evaluation on a grid.  gram is the datum's
    float form (RootDatum.float_gram).
    """

    __slots__ = ("c0", "c1", "c2", "scale", "v0")

    def __init__(self, c0: float, c1: float, c2: float, scale: float, v0: tuple[float, ...]):
        self.c0, self.c1, self.c2, self.scale, self.v0 = c0, c1, c2, scale, v0 if c1 != 0 else ()

    def _fields(self) -> tuple:
        return self.c0, self.c1, self.c2, self.scale, self.v0

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __call__(self, gram, lam_coords, imaginary: bool = False):
        """The values at the nodes lam_coords, or with imaginary at the nodes iy for y in lam_coords: then
        the real array of the real part where c1 is 0, else the complex values (see the module docstring)."""
        gl = [_dot(row, lam_coords) for row in gram]
        qq = _dot(lam_coords, gl)
        # at iy, <lam, lam> is -qq: (-c) * qq has the bits of c * <lam, lam>
        sign = -1.0 if imaginary else 1.0
        pre = self.c0  # a term with a zero coefficient would add only signed zeros
        if self.c1 != 0:
            lin = self.c1 * _dot(self.v0, gl)
            pre = pre + (1j * lin if imaginary else lin)
        if self.c2 != 0:
            pre = pre + (sign * self.c2) * qq
        gauss = (sign * self.scale) * qq
        if imaginary:  # numpy's real exp differs from the real part of its complex exp in the last bit of some values
            gauss = gauss + 0j
        gauss = np.exp(gauss, out=gauss if isinstance(gauss, np.ndarray) else None)
        # pre * np.exp(...) would let numpy write into the temporary exponential and swap the order
        return np.multiply(pre, gauss.real if imaginary and self.c1 == 0 else gauss)

    def cutoff(self) -> float:
        # on imaginary slices <lam, lam> = -|y|^2, so positive scale decays
        return 8.0 / math.sqrt(self.scale)


@kept
def _float_basis(L: Levi) -> tuple[np.ndarray, ...]:
    """The basis rows of a_L as floats, x / den for x in each integer row, converted once per Levi."""
    return tuple(np.array([x / L.den for x in row]) for row in L.rows)


def _orthonormal_basis(L: Levi, first_dirs: Sequence[RatVec]) -> list[np.ndarray]:
    """Float Gram-Schmidt basis of the flat, the given directions first."""
    S = np.array(L.datum.float_gram)
    vecs = [np.array(v.floats()) for v in first_dirs] + list(_float_basis(L))
    out: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for e in out:
            w = w - (e @ S @ w) * e
        norm2 = w @ S @ w
        if norm2 > 1e-18:
            out.append(w / math.sqrt(norm2))
        if len(out) == L.dim:
            break
    return out


class _MTermData(NamedTuple):
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


def _by_pairing(terms: Iterable[_MTermData]) -> dict[tuple[float, ...], dict]:
    """Each distinct density of the terms, keyed by its value key, grouped by its pairing row gd."""
    by_gd: dict[tuple[float, ...], dict] = {}
    for term in terms:
        for fn, _, gd in term.factors:
            by_gd.setdefault(gd, {}).setdefault(fn.key, fn)
    return by_gd


def _reads(term_lists: Iterable[list[_MTermData]], by_gd: dict[tuple[float, ...], dict]) -> list[tuple]:
    """For each list of terms, each term's covolume and the places of its densities in
    _density_table(by_gd, ...): read once per grid, so that no density key is hashed on each slab.
    A place stands for one (density key, pairing row), so equal reads mean equal m-term sums."""
    place = {(key, gd): i for i, (gd, key) in enumerate((gd, key) for gd, fns in by_gd.items() for key in fns)}
    return [tuple((term.vol, tuple(place[fn.key, gd] for fn, _, gd in term.factors)) for term in terms)
            for terms in term_lists]


def _density_table(by_gd: dict[tuple[float, ...], dict], lam_coords: list, imaginary: bool = False) -> list[np.ndarray]:
    """Each density of by_gd (see _by_pairing) on the nodes, in the order of by_gd; with imaginary, on
    the nodes iy for y in lam_coords, each density with on_axis as its imaginary part.

    Each distinct pairing z = <lam, dual> is computed once, every density
    read through it is evaluated on it, and it is dropped before the next.
    The pole term -n / z is computed once per residue n on the pairing and
    shared by the densities with that n, and the analytic part once per
    template (gmfamily.values_sharing_poles).
    """
    table = []
    for gd, fns in by_gd.items():
        table += values_sharing_poles(fns.values(), _dot(lam_coords, gd), imaginary)
    return table


def _signed_reads(reads: tuple, on_axis: list[bool]) -> tuple[tuple, int | None]:
    """The reads of an m-term sum on an imaginary grid in real arithmetic, and the part of the sum they give
    (0 its real part, 1 its imaginary part); the reads and None where the sum must stay complex.

    Each factor read through on_axis is i times a real array, so a term of k
    factors is i^k times the real product: i^(k % 2) times it with the sign of
    i^k, which goes into the covolume.  Every term must give the same part.
    """
    parts = {len(places) % 2 for _, places in reads}
    if len(parts) != 1 or not all(on_axis[place] for _, places in reads for place in places):
        return reads, None
    return tuple((-vol if len(places) % 4 > 1 else vol, places) for vol, places in reads), parts.pop()


def _eval_m_terms(reads: tuple[tuple[float, tuple[int, ...]], ...], table: list[np.ndarray]) -> np.ndarray | complex:
    """The sum of the m-terms, each factor read from table (see _reads and _density_table).

    Each factor is density * val, written into val once val is an array of
    its own, and total + val is written into total once total is, so the
    table is never written (see the module docstring).  A term with no
    factors is its covolume.
    """
    total = None
    for vol, places in reads:
        val = vol
        for place in places:
            val = np.multiply(table[place], val, out=val if isinstance(val, np.ndarray) else None)
        if isinstance(total, np.ndarray):
            np.add(total, val, out=total)
        else:
            total = val if total is None else total + val
    if total is None:
        return 0j
    return total


def _integrand(phi, m, part: int | None, weight: np.ndarray, last: bool) -> np.ndarray:
    """phi * m times the weights, as the complex array _MirrorSum reads; m is complex (part None) or the real
    array of its real or imaginary part (see _signed_reads).

    A real phi meets such an m in real arithmetic, written into that part of
    the array; a complex phi meets the complex m rebuilt from it.  A complex
    m that no later phi reads (last) takes the product in place (peak memory).
    """
    if part is not None and not np.iscomplexobj(phi):
        vals = np.zeros(weight.shape, complex)
        out = vals.imag if part else vals.real
        np.multiply(phi, m, out=out)
        np.multiply(out, weight, out=out)
        return vals
    if part is not None:
        m = 1j * m if part else m + 0j
    # phi * m, the order of the per-integral form phi(gram, lam) * m(lam), then the weights
    vals = np.multiply(phi, m, out=m if last and isinstance(m, np.ndarray) else None)
    return np.multiply(vals, weight, out=vals)


class _Grid(NamedTuple):
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

    def axes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The 1-d nodes and weights of each axis, axis 0 its half below 0 only.

        Every axis is symmetric about 0 and onb and shift are real, so
        reversing every axis of the grid maps the node at t to its conjugate
        at -t, with the same weight: the other half is the conjugate mirror of
        the first half of axis 0 (see the module docstring).
        """

        def half_axis(start: float, fine: float):
            nodes, halves = _panels(_graded_edges(start, self.T, fine, None))
            return nodes.ravel(), (halves[:, None] * _GL_WEIGHTS).ravel()

        axes = []
        for axis in range(len(self.onb)):
            if axis < self.pole_axes:
                xs, ws = half_axis(self.delta, self.delta)
            else:
                # smooth axes still need refinement around 0 at the feature scale
                xs, ws = half_axis(0.0, self.fine_scale)
            if axis == 0:
                axes.append((-xs[::-1], ws[::-1]))
            else:
                axes.append((np.concatenate([-xs[::-1], xs]), np.concatenate([ws[::-1], ws])))
        return axes

    def slabs(self, axes, imaginary: bool = False) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
        """The nodes (one complex array per ambient coordinate) and weights of the half grid on
        axes, slab by slab: runs of axis-0 rows of at most _SLAB nodes (one row if a row is longer).
        With imaginary (an unshifted grid), each coordinate comes as the real array of its imaginary part."""
        row = math.prod(len(ws) for _, ws in axes[1:])
        step = max(1, _SLAB // row)
        for start in range(0, len(axes[0][0]), step):
            rows = slice(start, start + step)
            weight = axes[0][1][rows]
            for a in axes[1:]:
                weight = np.multiply.outer(weight, a[1])
            # i*t (or t) on each 1-d axis, shaped to broadcast along its own grid axis
            its = []
            for j, (xs, _) in enumerate(axes):
                t = xs[rows] if j == 0 else xs
                its.append((t if imaginary else 1j * t).reshape([-1 if a == j else 1 for a in range(len(axes))]))
            lam = []
            for i in range(len(self.onb[0])):
                comp = 0.0 if imaginary else 0j
                for axis_index, it in enumerate(its):
                    comp = comp + it * self.onb[axis_index][i]
                if self.shift is not None:
                    comp = comp + self.shift[i]
                lam.append(comp)
            yield lam, weight


def _pairwise_leaves(start: int, n: int) -> Iterator[tuple[int, int]]:
    """The leaves of numpy's pairwise sum of n elements from start, cut at _LEAF, in order."""
    if n <= _LEAF:
        yield start, start + n
        return
    split = (n - n % 8) // 2
    yield from _pairwise_leaves(start, split)
    yield from _pairwise_leaves(start + split, n - split)


def _pairwise_join(sums: Iterator[complex], n: int) -> complex:
    """The leaf sums of _pairwise_leaves(0, n), added in numpy's tree order."""
    if n <= _LEAF:
        return next(sums)
    split = (n - n % 8) // 2
    return _pairwise_join(sums, split) + _pairwise_join(sums, n - split)


class _MirrorLeaves(NamedTuple):
    """The leaves of the sum of [half, conj(flip(half))] for n values of half (see _MirrorSum).

    leaves[i] is (k, (h0, h1), (m0, m1)): leaf k of _pairwise_leaves(0, 2n)
    reads half[h0:h1] and then half[m0:m1] reversed and conjugated (either
    range may be empty).  The leaves are in the order their values are
    complete: leaves[i] needs half[:ready[i]], and the leaves from i on read
    nothing before keep[i].
    """

    n: int
    leaves: list[tuple[int, tuple[int, int], tuple[int, int]]]
    ready: list[int]
    keep: list[int]

    @classmethod
    def of(cls, n: int) -> _MirrorLeaves:
        leaves = []
        for k, (a, b) in enumerate(_pairwise_leaves(0, 2 * n)):
            parts = ((min(a, n), min(b, n)), (min(2 * n - b, n), 2 * n - max(a, n)))
            spans = [r for r in parts if r[0] < r[1]]
            leaves.append((max(r[1] for r in spans), min(r[0] for r in spans), k, parts))
        leaves.sort()
        keep = [n] * (len(leaves) + 1)
        for i in reversed(range(len(leaves))):
            keep[i] = min(keep[i + 1], leaves[i][1])
        return cls(n, [(k, *parts) for _, _, k, parts in leaves], [leaf[0] for leaf in leaves], keep)


class _MirrorSum:
    """complex(np.sum(np.concatenate([half, np.conjugate(np.flip(half))]))), bit for bit, from the
    n values of half fed in order, holding only the values of leaves not yet summed.

    numpy sums a contiguous complex array as 0 + PW(array), where PW adds a
    run of at most 64 elements in a fixed order and splits a longer run of n
    at (n - n % 8) // 2 (it splits the 2n doubles at a multiple of 8).  So
    each leaf of that tree cut at _LEAF elements is summed by np.add.reduce
    of its values, and the leaf sums are added in tree order, then to 0j.
    np.add.reduce gives 0 + PW(leaf), which differs from PW(leaf) at most in
    the sign of a zero, as does the conjugate of the sum of a leaf's
    unconjugated values; no addition turns that sign into a nonzero bit, and
    the 0j + of the total removes it.  Past index n a leaf reads a range of
    half reversed and conjugated, summed from the reversed view; a leaf
    that straddles n (the whole array when 2n <= _LEAF) joins both parts.
    """

    def __init__(self, plan: _MirrorLeaves):
        self.plan = plan
        self.sums = [0j] * len(plan.leaves)
        self.done = 0
        self.start = 0
        self.held = np.empty(0, complex)  # half[start:], read by leaves not yet summed

    def add(self, values: np.ndarray) -> None:
        """Feed the next values of half, in C order."""
        plan, start, held, new = self.plan, self.start, self.held, values.ravel()
        mid = start + len(held)
        end = mid + len(new)

        def take(lo: int, hi: int) -> np.ndarray:
            if lo >= mid:
                return new[lo - mid:hi - mid]
            if hi <= mid:
                return held[lo - start:hi - start]
            return np.concatenate([held[lo - start:], new[:hi - mid]])

        done = self.done
        while done < len(plan.leaves) and plan.ready[done] <= end:
            k, (h0, h1), (m0, m1) = plan.leaves[done]
            if h0 == h1:
                # a mirrored leaf is summed from its reversed view: conjugation commutes with rounding
                self.sums[k] = complex(np.add.reduce(take(m0, m1)[::-1])).conjugate()
            else:
                leaf = take(h0, h1) if m0 == m1 else np.concatenate([take(h0, h1), np.conjugate(take(m0, m1)[::-1])])
                self.sums[k] = complex(np.add.reduce(leaf))
            done += 1
        self.done = done
        self.start = plan.keep[done]
        # a copy, so that no view keeps the fed array alive
        self.held = take(self.start, end).copy()

    def total(self) -> complex:
        """The sum, once all n values are fed."""
        return 0j + _pairwise_join(iter(self.sums), 2 * self.plan.n)


class _Integral(NamedTuple):
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


class _ShiftPlan(NamedTuple):
    """The integrals of one case: one per shift, then per (L, S) term of the sum."""

    lhs: list[_Integral]
    rhs: list[tuple[QuadConst, Fraction, list[_Integral]]]  # d, n^L, integrals

    def integrals(self) -> list[_Integral]:
        return self.lhs + [it for _, _, its in self.rhs for it in its]


def require_clear_shifts(cases: Iterable[ShiftCase]) -> None:
    """BadShift unless every shift of the cases stops short of the real poles of the densities on its
    shifted contour.

    At the shift eps * x (x the chamber point of Q1) a factor's pairing
    <lam, dual> has real part eps * <x, dual>.  Past a real pole of the
    density between that and 0, the identity would gain the pole's residue,
    and on it the integral diverges: either way the check would fail falsely.
    Only the farthest reach of each template on each side is tested.
    """
    far: dict[tuple, tuple[Fraction, ScalarFn, float]] = {}
    for case in cases:
        t, fns = case.t, case.fns
        if fns.levi != t.levi_L:
            continue  # planning rejects the case
        d, eps = t.datum, max(case.epsilons)
        Q1 = chamber_below(case.P, t.levi_L)
        for _, factors in split_subsets(t.levi_L, case.M, gfull(d), Q1):
            for rep, dual in factors:
                fn = fns.fn(rep)
                reach = Fraction(eps) * d.pair(Q1.chamber_point, dual)
                side = (fn.key[0], reach > 0)
                if side not in far or abs(reach) > abs(far[side][0]):
                    far[side] = reach, fn, eps
    for reach, fn, eps in far.values():
        if fn.real_pole_between(reach):
            raise BadShift(f"epsilons must keep the lemma-shift contours off the real poles of the densities:"
                           f" at {eps} a pairing reaches real part {float(reach):.6g}, onto or past a pole of {fn.label}")


def _require_orthogonal(d: RootDatum, dirs: Sequence[RatVec]) -> None:
    for a in range(len(dirs)):
        for b in range(a + 1, len(dirs)):
            if d.pair(dirs[a], dirs[b]) != 0:
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
    wall_dirs = [ray.dual for ray in t.tau_rays]
    _require_orthogonal(d, wall_dirs)
    onb = _orthonormal_basis(L1, wall_dirs)
    T = phi.cutoff()

    def integral(terms, basis, pole_axes, shift, fine_scale=0.01) -> _Integral:
        """Iterated quadrature over the flat spanned by basis; the first
        pole_axes coordinates carry principal-value excisions at 0."""
        if not basis:
            lam = [complex(x) for x in (shift if shift is not None else np.zeros(d.rank))]
            by_gd = _by_pairing(terms)
            point = complex(phi(d.float_gram, lam) * _eval_m_terms(_reads([terms], by_gd)[0], _density_table(by_gd, lam)))
            return _Integral(case_index, d, phi, terms, [], None, [point])
        axes = tuple(tuple(float(x) for x in v) for v in basis)
        ladder = list(deltas) if pole_axes else None
        grids = [_Grid(axes, pole_axes, delta, shift, T, fine_scale) for delta in ladder or [None]]
        return _Integral(case_index, d, phi, terms, grids, ladder, [None] * len(grids))

    lhs = []
    for eps0 in epsilons:
        shift = tuple(eps0 * x for x in Q1.chamber_point.floats())
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
                        proj = int_mat_vec(proj_l, dual.row)
                        if any(proj):
                            pole_dirs.append(RatVec.over(proj, den_l * dual.den))
                _require_orthogonal(d, pole_dirs)
                onb_l = _orthonormal_basis(L, pole_dirs)
                integrals.append(integral([term], onb_l, len(pole_dirs), None))
            rhs.append((dc, nl, integrals))
    return _ShiftPlan(lhs, rhs)


def _charge(runtimes: list[float], cases: set[int], seconds: float) -> None:
    """Split seconds evenly over the cases."""
    share = seconds / len(cases)
    for case in cases:
        runtimes[case] += share


def _evaluate(integrals: list[_Integral], runtimes: list[float]) -> dict[str, int]:
    """Fill the grid values of every planned integral, grid by grid and slab by slab.

    On each distinct grid, each distinct phi and each distinct density (with
    its pairing) is evaluated once per slab.  The grid's integrals are
    grouped by their reads of the density table (see _reads) and then by
    phi: each distinct m-term sum is computed once per slab, and each
    distinct phi times it is weighted and fed to one _MirrorSum, whose total
    is the value the group shares (see the module docstring).  A grid's
    build, phi and density time is split evenly over the cases that use it,
    and an m-term sum's time, with its integrands, likewise.
    """
    users: dict[_Grid, list[tuple[_Integral, int]]] = {}
    for it in integrals:
        for slot, grid in enumerate(it.grids):
            users.setdefault(grid, []).append((it, slot))
    plans: dict[int, _MirrorLeaves] = {}
    phi_evals = pairings = densities = pole_quotients = m_sums = integrands = nodes = imaginary_nodes = 0
    for grid, uses in users.items():
        imaginary = grid.shift is None
        by_gd = _by_pairing(term for it, _ in uses for term in it.terms)
        on_axis = [fn.on_axis is not None for fns in by_gd.values() for fn in fns.values()]
        by_m: dict[tuple, dict] = {}
        for (it, slot), reads in zip(uses, _reads([it.terms for it, _ in uses], by_gd)):
            by_m.setdefault(reads, {}).setdefault((it.d, it.phi), []).append((it, slot))
        axes = grid.axes()
        size = math.prod(len(ws) for _, ws in axes)
        if size not in plans:
            plans[size] = _MirrorLeaves.of(size)
        # per distinct m-term sum: its reads and part (see _signed_reads), and per distinct phi the sum of
        # phi * m and its integrals
        sums = [
            (*(_signed_reads(reads, on_axis) if imaginary else (reads, None)),
             [(key, _MirrorSum(plans[size]), group) for key, group in by_phi.items()])
            for reads, by_phi in by_m.items()
        ]
        build_s = 0.0
        m_s = [0.0] * len(sums)
        clock = time.monotonic()
        for lam, weight in grid.slabs(axes, imaginary):
            phi_vals = {}
            for it, _ in uses:
                if (it.d, it.phi) not in phi_vals:
                    phi_vals[it.d, it.phi] = it.phi(it.d.float_gram, lam, imaginary)
            table = _density_table(by_gd, lam, imaginary)
            complex_table = None
            now = time.monotonic()
            build_s, clock = build_s + now - clock, now
            for index, (reads, part, phis) in enumerate(sums):
                if imaginary and part is None:  # a complex sum reads each density as its complex value
                    complex_table = complex_table or [1j * v if on else v for v, on in zip(table, on_axis)]
                    m = _eval_m_terms(reads, complex_table)
                else:
                    m = _eval_m_terms(reads, table)
                for index_phi, (key, acc, _) in enumerate(phis):
                    acc.add(_integrand(phi_vals[key], m, part, weight, index_phi == len(phis) - 1))
                now = time.monotonic()
                m_s[index], clock = m_s[index] + now - clock, now
                del m  # before the next sum is computed (peak memory)
            del lam, phi_vals, table, complex_table  # before the next slab is built (peak memory)
        _charge(runtimes, {it.case for it, _ in uses}, build_s)
        norm = (2 * np.pi) ** len(grid.onb)
        for (_, _, phis), seconds in zip(sums, m_s):
            for _, acc, group in phis:
                value = acc.total() / norm
                for it, slot in group:
                    it.values[slot] = value
            _charge(runtimes, {it.case for _, _, group in phis for it, _ in group}, seconds)
        phi_evals += len({(it.d, it.phi) for it, _ in uses})
        pairings += len(by_gd)
        densities += sum(map(len, by_gd.values()))
        pole_quotients += sum(len({fn.n for fn in fns.values() if fn.has_pole0()}) for fns in by_gd.values())
        m_sums += len(sums)
        integrands += sum(len(phis) for _, _, phis in sums)
        nodes += size
        imaginary_nodes += size if imaginary else 0
    return {
        "lemma_shift.integrals": sum(len(uses) for uses in users.values()),
        "lemma_shift.grids": len(users),
        "lemma_shift.phi_evals": phi_evals,
        "lemma_shift.pairings": pairings,
        "lemma_shift.densities": densities,
        "lemma_shift.pole_quotients": pole_quotients,
        "lemma_shift.m_sums": m_sums,
        "lemma_shift.integrands": integrands,
        "lemma_shift.nodes": nodes,
        "lemma_shift.imaginary_nodes": imaginary_nodes,
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


class ShiftBatch(NamedTuple):
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
