"""Exact workbench for root-system combinatorics and residue-calculus identity checks."""

from .rootdatum import RatVec, RootDatum, WeylElement, act, build_root_system, weyl_group
from .levilattice import (
    Levi,
    ParabolicChamber,
    QuadConst,
    d_constant,
    enumerate_levis,
    levi_lattice,
    parabolics,
    theta,
    trand_check,
    weyl_cosets,
)
from .gmfamily import (
    ExpPolyFamily,
    OrthogonalSet,
    ScalarRootFns,
    descent_sum,
    family_limit,
    hull_volume,
    orthogonal_set,
    split_formula,
)
from .spectral import (
    TauClass,
    build_spectral_triple,
    classify_tau,
    discrete_constants,
    eps_tau,
    n_beta,
    r_group,
    tau_class,
    tempext_check,
)
from .contour import (
    MeromorphicLine,
    TestFunction,
    lemma_shift_check,
    pv_integral,
    residue_identity_1d,
    shifted_integral,
)
from .asymptotic import (
    FormalExpansion,
    InfinitesimalOrbit,
    SigmaModel,
    assemble_PhiP,
    c_coefficient_example,
    eps_M_sign,
    multiplier_alpha,
    p_minimality,
    phi_TT_expansion,
    phi_minimal_levi,
    weyl_denominator,
)

__all__ = [
    "RatVec", "RootDatum", "WeylElement", "act", "build_root_system", "weyl_group",
    "Levi", "ParabolicChamber", "QuadConst", "d_constant", "enumerate_levis",
    "levi_lattice", "parabolics", "theta", "trand_check", "weyl_cosets",
    "ExpPolyFamily", "OrthogonalSet", "ScalarRootFns", "descent_sum",
    "family_limit", "hull_volume", "orthogonal_set", "split_formula",
    "TauClass", "build_spectral_triple", "classify_tau", "discrete_constants",
    "eps_tau", "n_beta", "r_group", "tau_class", "tempext_check",
    "MeromorphicLine", "TestFunction", "lemma_shift_check", "pv_integral",
    "residue_identity_1d", "shifted_integral",
    "FormalExpansion", "InfinitesimalOrbit", "SigmaModel", "assemble_PhiP",
    "c_coefficient_example", "eps_M_sign", "multiplier_alpha", "p_minimality",
    "phi_TT_expansion", "phi_minimal_levi", "weyl_denominator",
]

__version__ = "0.1.0"
