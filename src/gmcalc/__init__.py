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
    family_limit,
    hull_volume,
    orthogonal_set,
)
from .spectral import (
    TauClass,
    build_spectral_triple,
    classify_tau,
    discrete_constants,
    n_beta,
    tau_class,
    tempext_check,
)
from .asymptotic import (
    FormalExpansion,
    SigmaModel,
    assemble_PhiP,
    c_coefficient_example,
    eps_M_sign,
    multiplier_alpha,
    phi_TT_expansion,
    weyl_denominator,
)

__all__ = [
    "RatVec", "RootDatum", "WeylElement", "act", "build_root_system", "weyl_group",
    "Levi", "ParabolicChamber", "QuadConst", "d_constant", "enumerate_levis",
    "levi_lattice", "parabolics", "theta", "trand_check", "weyl_cosets",
    "ExpPolyFamily", "OrthogonalSet", "ScalarRootFns",
    "family_limit", "hull_volume", "orthogonal_set",
    "TauClass", "build_spectral_triple", "classify_tau", "discrete_constants",
    "n_beta", "tau_class", "tempext_check",
    "FormalExpansion", "SigmaModel", "assemble_PhiP",
    "c_coefficient_example", "eps_M_sign", "multiplier_alpha",
    "phi_TT_expansion", "weyl_denominator",
]

__version__ = "0.1.0"
