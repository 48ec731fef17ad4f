"""Closed-form example evaluations: multipliers, Weyl denominators and their
signs, the coefficient formula with its sum over S >= M of d_M(L, S) m^S, the
assembly of the limit coefficient from lower-rank inputs, and the split-torus
formal expansion.

The opaque basis symbols of the expansion are never evaluated; they are
carried as canonical tags next to their numeric coefficients.
"""
from __future__ import annotations

import cmath
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionError, IncompleteInput, NotDiscrete, NotPRegular
from .exactlin import idot, int_mat_vec
from .gmfamily import ScalarRootFns, split_terms
from .levilattice import (
    Levi,
    ParabolicChamber,
    chamber_at,
    contains,
    conjugate_levi,
    d_constant,
    enumerate_levis,
    mzero,
    weyl_cosets,
)
from .rootdatum import RatVec, RootDatum, WeylElement, act, invert, reflect_subgroup, weyl_group
from .spectral import TauClass, classify_tau, discrete_constants, n_constant


# ---------------------------------------------------------------------------
# multipliers, Weyl denominators, signs


def multiplier_alpha(M1: Levi, nu_im: RatVec, X: RatVec) -> complex:
    """Average of exp((w nu)(X)) over the Weyl group of M1; modulus at most 1.

    Each <w nu, X> is one integer dot, of w nu's row with S X's, over one
    denominator (S the form, symmetric).  int true division rounds the
    exact quotient correctly, so it is float(d.pair(act(w, nu), X)).
    """
    d = M1.datum
    if len(nu_im.row) != d.rank or len(X.row) != d.rank:
        raise DimensionError(f"expected vectors of length {d.rank}")
    sub = reflect_subgroup(d, M1.root_subset)
    gram, den = d.int_gram
    sx, q = int_mat_vec(gram, X.row), den * nu_im.den * X.den
    total = 0j
    for w in sub:
        total += cmath.exp(1j * (idot(int_mat_vec(w.matrix, nu_im.row), sx) / q))
    return total / len(sub)


def _pair_complex(d: RootDatum, i: int, Y: Sequence[complex]) -> complex:
    """The pairing of root i with the complex point Y, read off its integer form over the form's denominator."""
    _, den = d.int_gram
    return sum(complex(f / den) * complex(y) for f, y in zip(d.root_forms[i], Y))


def weyl_denominator(d: RootDatum, sigma: Sequence[int], Y: Sequence[complex]) -> complex:
    """Product of e^{a(Y)/2} - e^{-a(Y)/2} over the positive system sigma."""
    total = 1.0 + 0j
    for i in sigma:
        u = _pair_complex(d, i, Y) / 2
        total *= cmath.exp(u) - cmath.exp(-u)
    return total


def eps_M_sign(d: RootDatum, w: WeylElement, sigma: Sequence[int]) -> int:
    """Parity of the inversions of w inside the given positive system."""
    neg = {d.neg_of[i] for i in sigma}
    count = sum(1 for i in sigma if w.perm[i] in neg)
    return -1 if count % 2 else 1


# ---------------------------------------------------------------------------
# the sigma model: class + densities + evaluation offset


class SigmaModel(NamedTuple):
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
    ) -> complex:
        d = self.tau.datum
        y = act(w, self.eval_im) if w is not None else self.eval_im

        def lam_eval(dual: RatVec) -> complex:
            return 1j * float(d.pair(y, dual))

        return split_terms(self.fns, M, S, Q1, lam_eval, w=w, conj=True)


def _discrete_nl(model: SigmaModel, L: Levi, u_sign: complex):
    """n^L of the class, once u_sign is a fourth root of unity and the class induces discretely to L."""
    if abs(u_sign ** 4 - 1) > 1e-12:
        raise IncompleteInput("u_sign must be a fourth root of unity")
    if not classify_tau(model.tau, G_levi=L):
        raise NotDiscrete(f"class does not induce discretely to {L.label}")
    return n_constant(model.tau, L)


def _split_sum(model: SigmaModel, L: Levi, M: Levi, Q1: ParabolicChamber) -> complex:
    """The sum over S >= M of d_M(L, S) m^S at the chamber Q1."""
    inner = 0j
    for S in enumerate_levis(model.tau.datum, lower=M):
        dc = d_constant(M, L, S)
        if not dc.is_zero():
            inner += float(dc) * model.m_rel(M, S, Q1)
    return inner


def c_coefficient_example(
    model: SigmaModel,
    w: WeylElement,
    P: ParabolicChamber,
    u_sign: complex,
    L: Levi,
    M: Levi,
) -> complex:
    """Coefficient value n^L eps_U eps^M(w) sum_S d(L,S) m^S at the w-translate."""
    d = model.tau.datum
    nl = _discrete_nl(model, L, u_sign)
    sigma_m = [i for i in M.root_subset if i in set(d.pos_indices)]
    winv = d.element(invert(w.perm))
    inner = _split_sum(model, L, M, chamber_at(M, act(winv, P.chamber_point)))
    return float(nl) * u_sign * eps_M_sign(d, w, sigma_m) * inner


def assemble_PhiP(
    inputs: Mapping[str, complex],
    L1: Levi,
    L: Levi,
    model: SigmaModel,
    P: ParabolicChamber,
) -> complex:
    """Assembly of the limit coefficient from lower-rank inputs.

    inputs are keyed by the label of the sandwiched Levi wM, for the coset
    representatives w of W_M with L1 <= wM <= S; the result vanishes when no
    Weyl conjugate of L1 is contained in M.
    """
    d = model.tau.datum
    M = P.levi
    if not any(contains(conjugate_levi(w, L1), M) for w in weyl_group(d)):
        return 0j
    consts = discrete_constants(model.tau, L)
    k_l, nl = consts["kL"], consts["nL"]
    k_l1 = discrete_constants(model.tau, L1)["kL"]
    total = 0j
    for S in enumerate_levis(d, lower=L1):
        dc = d_constant(L1, L, S)
        if dc.is_zero():
            continue
        for w in weyl_cosets(M):
            wm = conjugate_levi(w, M)
            if not (contains(L1, wm) and contains(wm, S)):
                continue
            if wm.label not in inputs:
                raise IncompleteInput(f"missing input for {wm.label}")
            wp = chamber_at(wm, act(w, P.chamber_point))
            total += float(dc) * complex(inputs[wm.label]) * model.m_rel(wm, S, wp)
    return (k_l / k_l1) * float(nl) * total


# ---------------------------------------------------------------------------
# the split-torus formal expansion


class FormalTerm(NamedTuple):
    coefficient: complex
    levi_label: str
    w_index: int
    mu_image: tuple
    psi_tag: str


class FormalExpansion(NamedTuple):
    terms: tuple[FormalTerm, ...]

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


def phi_TT_expansion(model: SigmaModel, P: ParabolicChamber) -> FormalExpansion:
    """Formal expansion over Levi subgroups and Weyl elements with numeric
    coefficients and opaque basis tags, for a class based at the split torus."""
    d = model.tau.datum
    home = model.tau.levi_L
    if home != mzero(d) or P.levi != home:
        raise NotPRegular("expansion requires the minimal Levi and one of its chambers")
    # mu is the differential of a unitary character, i.e. purely imaginary, so
    # distinct orbit points are never cone-comparable and minimality reduces to
    # regularity of the orbit
    group = weyl_group(d)
    if len({act(w, model.mu_im) for w in group}) < len(group):
        raise NotPRegular("orbit is not regular: some elements coincide")
    terms = []
    for S in enumerate_levis(d, lower=home):
        for idx, w in enumerate(group):
            coeff = model.m_rel(home, S, P, w=w)
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
    return FormalExpansion(tuple(terms))
