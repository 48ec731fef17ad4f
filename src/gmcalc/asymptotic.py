"""Closed-form example evaluations: multipliers, minimality, Weyl denominators,
coefficient formulas and the split-torus formal expansion.

The opaque basis symbols of the expansion are never evaluated; they are
carried as canonical tags next to their numeric coefficients.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import IncompleteInput, NotDiscrete, NotPRegular
from .exactlin import mat_vec
from .gmfamily import ScalarRootFns, split_terms
from .levilattice import (
    Levi,
    ParabolicChamber,
    contains,
    conjugate_levi,
    d_constant,
    enumerate_levis,
    mzero,
    parabolics,
    restricted_rays,
    weyl_cosets,
)
from .lp import in_cone_nonzero
from .rootdatum import RatVec, RootDatum, WeylElement, act, invert, reflect_subgroup, weyl_group
from .spectral import TauClass, classify_tau, discrete_constants


# ---------------------------------------------------------------------------
# infinitesimal-character orbits and minimality


@dataclass(frozen=True)
class InfinitesimalOrbit:
    base_mu: RatVec
    orbit: tuple[RatVec, ...]
    stabilizer_orders: tuple[int, ...]


def make_orbit(d: RootDatum, mu: RatVec) -> InfinitesimalOrbit:
    seen: dict = {}
    for w in weyl_group(d):
        img = act(w, mu)
        seen[img.coords] = seen.get(img.coords, 0) + 1
    points = tuple(RatVec(c) for c in sorted(seen))
    stabs = tuple(seen[p.coords] for p in points)
    return InfinitesimalOrbit(mu, points, stabs)


def _nilradical_roots(P: ParabolicChamber) -> list[RatVec]:
    d = P.levi.datum
    return [d.roots[i] for i in P.positive_roots]


def p_minimality(orbit: InfinitesimalOrbit, P: ParabolicChamber) -> dict[int, bool]:
    """Which orbit elements admit no other element below them along the cone of P.

    mu fails to be minimal exactly when some other nu has mu - nu a nonzero
    nonnegative combination of the roots in the unipotent radical; membership
    is decided by exact rational linear programming.
    """
    gens = [r.coords for r in _nilradical_roots(P)]
    out = {}
    for i, mu in enumerate(orbit.orbit):
        minimal = True
        for j, nu in enumerate(orbit.orbit):
            if i == j:
                continue
            if in_cone_nonzero((mu - nu).coords, gens):
                minimal = False
                break
        out[i] = minimal
    return out


def p_closed(orbit: InfinitesimalOrbit, subset: Sequence[int], P: ParabolicChamber) -> bool:
    """Is the subset closed under subtracting nonzero nonnegative root sums?"""
    gens = [r.coords for r in _nilradical_roots(P)]
    inside = set(subset)
    for i in inside:
        for j in range(len(orbit.orbit)):
            if j in inside:
                continue
            diff = orbit.orbit[i] - orbit.orbit[j]
            if in_cone_nonzero(diff.coords, gens):
                return False
    return True


# ---------------------------------------------------------------------------
# multipliers, Weyl denominators, signs


def multiplier_alpha(M1: Levi, nu_im: RatVec, X: RatVec) -> complex:
    """Average of exp((w nu)(X)) over the Weyl group of M1; modulus at most 1."""
    d = M1.datum
    sub = reflect_subgroup(d, M1.root_subset)
    total = 0j
    for w in sub:
        total += cmath.exp(1j * float(d.pair(act(w, nu_im), X)))
    return total / len(sub)


def _pair_complex(d: RootDatum, alpha: RatVec, Y: Sequence[complex]) -> complex:
    ga = mat_vec(d.gram, alpha.coords)
    return sum(complex(g) * complex(y) for g, y in zip(ga, Y))


def weyl_denominator(d: RootDatum, sigma: Sequence[int], Y: Sequence[complex]) -> complex:
    """Product of e^{a(Y)/2} - e^{-a(Y)/2} over the positive system sigma."""
    total = 1.0 + 0j
    for i in sigma:
        u = _pair_complex(d, d.roots[i], Y) / 2
        total *= cmath.exp(u) - cmath.exp(-u)
    return total


def eps_M_sign(d: RootDatum, w: WeylElement, sigma: Sequence[int]) -> int:
    """Parity of the inversions of w inside the given positive system."""
    neg = {d.neg_of[i] for i in sigma}
    count = sum(1 for i in sigma if w.perm[i] in neg)
    return -1 if count % 2 else 1


# ---------------------------------------------------------------------------
# the sigma model: class + densities + evaluation offset


@dataclass(frozen=True)
class SigmaModel:
    """Combinatorial class, its densities, and a generic imaginary offset.

    mu_im is the differential of the character (the orbit base point); eval_im
    keeps density arguments off the poles.
    """

    tau: TauClass
    fns: ScalarRootFns
    mu_im: RatVec
    eval_im: RatVec

    def m_rel(
        self,
        M: Levi,
        S: Levi,
        Q1: ParabolicChamber,
        w: WeylElement | None = None,
        conj: bool = True,
    ) -> complex:
        d = self.tau.datum
        y = act(w, self.eval_im) if w is not None else self.eval_im

        def lam_eval(dual: RatVec) -> complex:
            return 1j * float(d.pair(y, dual))

        return split_terms(self.fns, M, S, Q1, lam_eval, w=w, conj=conj)


def _chamber_at(M: Levi, point: RatVec) -> ParabolicChamber:
    d = M.datum
    rays = restricted_rays(M)
    for P in parabolics(M):
        if all(
            (d.pair(r.rep, point) > 0) == (d.pair(r.rep, P.chamber_point) > 0)
            for r in rays
        ):
            return P
    raise IncompleteInput("point does not lie in an open chamber")


def weyl_sequence_orders(d: RootDatum, M: Levi) -> tuple[int, int, int]:
    """(|W_T^M|, |W_M^G|, |W_T^G|) in the split model; the product identity must hold."""
    wm = len(reflect_subgroup(d, M.root_subset))
    subset = M.root_subset
    stab = 0
    for w in weyl_group(d):
        if frozenset(w.perm[i] for i in subset) == subset:
            stab += 1
    return wm, stab // wm, len(weyl_group(d))


def phi_minimal_levi(
    Y: Sequence[complex],
    mu_im: RatVec,
    model: SigmaModel,
    L: Levi,
    P: ParabolicChamber,
    u_sign: complex,
) -> complex:
    """Minimal-Levi evaluation of the limiting coefficient function.

    Requires the class to be discrete after induction to L; the unit u_sign is
    the opaque fourth root of unity attached to the chosen real component.
    """
    d = model.tau.datum
    home = model.tau.levi_L
    if home != mzero(d):
        raise IncompleteInput("the minimal-Levi formula needs a class based at M0")
    if abs(u_sign ** 4 - 1) > 1e-12:
        raise IncompleteInput("u_sign must be a fourth root of unity")
    if not classify_tau(model.tau, G_levi=L)["discrete"]:
        raise NotDiscrete(f"class does not induce discretely to {L.label}")
    wm, wq, wg = weyl_sequence_orders(d, home)
    if wm * wq != wg:
        raise IncompleteInput("split exact sequence cardinality fails")
    nl = discrete_constants(model.tau, L)["nL"]
    M = home
    sigma_m = [i for i in M.root_subset if i in set(d.pos_indices)]
    total = 0j
    for w in weyl_group(d):
        phase = cmath.exp(_pair_complex(d, mu_im, [complex(y) for y in mat_vec_complex(w, Y)]) * 1j)
        inner = 0j
        wp = _chamber_at(M, act(w, P.chamber_point))
        for S in enumerate_levis(d, lower=M):
            dc = d_constant(M, L, S)
            if dc.is_zero():
                continue
            inner += float(dc) * model.m_rel(M, S, wp, conj=True)
        total += eps_M_sign(d, w, sigma_m) * phase * inner
    return float(nl) * u_sign * total


def mat_vec_complex(w: WeylElement, Y: Sequence[complex]) -> list[complex]:
    return [
        sum(complex(w.matrix[i][j]) * complex(Y[j]) for j in range(len(Y)))
        for i in range(len(Y))
    ]


def c_coefficient_example(
    model: SigmaModel,
    w: WeylElement,
    mu_im: RatVec,
    P: ParabolicChamber,
    u_sign: complex,
    L: Levi,
    M: Levi,
) -> complex:
    """Coefficient value n^L eps_U eps^M(w) sum_S d(L,S) m^S at the w-translate.

    mu_im only labels which coefficient is being produced; the value does not
    depend on it.
    """
    d = model.tau.datum
    if abs(u_sign ** 4 - 1) > 1e-12:
        raise IncompleteInput("u_sign must be a fourth root of unity")
    if not classify_tau(model.tau, G_levi=L)["discrete"]:
        raise NotDiscrete(f"class does not induce discretely to {L.label}")
    nl = discrete_constants(model.tau, L)["nL"]
    sigma_m = [i for i in M.root_subset if i in set(d.pos_indices)]
    winv = d.element(invert(w.perm))
    q1 = _chamber_at(M, act(winv, P.chamber_point))
    inner = 0j
    for S in enumerate_levis(d, lower=M):
        dc = d_constant(M, L, S)
        if dc.is_zero():
            continue
        inner += float(dc) * model.m_rel(M, S, q1, conj=True)
    return float(nl) * u_sign * eps_M_sign(d, w, sigma_m) * inner


def assemble_PhiP(
    inputs: Mapping[str, complex],
    L1: Levi,
    L: Levi,
    model: SigmaModel,
    P: ParabolicChamber,
    gamma_tag: str = "",
) -> complex:
    """Assembly of the limit coefficient from lower-rank inputs.

    inputs are keyed by the label of the sandwiched Levi wM; the result
    vanishes when no Weyl conjugate of L1 is contained in M.
    """
    d = model.tau.datum
    M = P.levi
    if not any(contains(conjugate_levi(w, L1), M) for w in weyl_group(d)):
        return 0j
    k_l = discrete_constants(model.tau, L)["kL"]
    k_l1 = discrete_constants(model.tau, L1)["kL"]
    nl = discrete_constants(model.tau, L)["nL"]
    total = 0j
    for S in enumerate_levis(d, lower=L1):
        dc = d_constant(L1, L, S)
        if dc.is_zero():
            continue
        reps = weyl_cosets(filters={"L1": L1, "M": M, "S": S})
        for w in reps:
            wm = conjugate_levi(w, M)
            if wm.label not in inputs:
                raise IncompleteInput(f"missing input for {wm.label}")
            wp = _chamber_at(wm, act(w, P.chamber_point))
            total += float(dc) * complex(inputs[wm.label]) * model.m_rel(wm, S, wp, conj=True)
    return (k_l / k_l1) * float(nl) * total


# ---------------------------------------------------------------------------
# the split-torus formal expansion


@dataclass(frozen=True)
class FormalTerm:
    coefficient: complex
    levi_label: str
    w_index: int
    mu_image: tuple
    psi_tag: str


@dataclass(frozen=True)
class FormalExpansion:
    terms: tuple[FormalTerm, ...]
    domain_tag: str

    def serialize(self) -> list[dict]:
        return [
            {
                "S": t.levi_label,
                "w": t.w_index,
                "mu": [str(x) for x in t.mu_image],
                "coefficient_re": t.coefficient.real,
                "coefficient_im": t.coefficient.imag,
                "psi_tag": t.psi_tag,
            }
            for t in self.terms
        ]


def phi_TT_expansion(model: SigmaModel, P: ParabolicChamber, domain_tag: str = "U0") -> FormalExpansion:
    """Formal expansion over Levi subgroups and Weyl elements with numeric
    coefficients and opaque basis tags, for a class based at the split torus."""
    d = model.tau.datum
    home = model.tau.levi_L
    if home != mzero(d) or P.levi != home:
        raise NotPRegular("expansion requires the minimal Levi and one of its chambers")
    # mu is the differential of a unitary character, i.e. purely imaginary, so
    # distinct orbit points are never cone-comparable and minimality reduces to
    # regularity of the orbit
    orbit = make_orbit(d, model.mu_im)
    if len(orbit.orbit) < len(weyl_group(d)):
        raise NotPRegular("orbit is not regular: some elements coincide")
    terms = []
    group = weyl_group(d)
    for S in enumerate_levis(d, lower=home):
        for idx, w in enumerate(group):
            coeff = model.m_rel(home, S, P, w=w, conj=True)
            mu_img = act(w, model.mu_im)
            terms.append(
                FormalTerm(
                    coefficient=coeff,
                    levi_label=S.label,
                    w_index=idx,
                    mu_image=tuple(mu_img.coords),
                    psi_tag=f"Psi[{S.label}|P{P.index}](Y, w{idx}.mu)",
                )
            )
    terms.sort(key=lambda t: (t.levi_label, t.w_index))
    return FormalExpansion(tuple(terms), domain_tag)
