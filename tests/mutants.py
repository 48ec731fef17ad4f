"""Deliberately wrong versions of gmcalc functions, for tests that show a check can fail.

Each mutant is a plain function with the signature of the one it replaces.
A test either calls it directly or binds it under every gmcalc name of the
original, and builds a fresh datum so that no kept fact carries an
unmutated value.
"""
from gmcalc.levilattice import QuadConst, theta


def doubled_theta_covolume(P, lam):
    """theta with the covolume doubled on every flat of dimension above 1."""
    val = theta(P, lam)
    return val._replace(covol=val.covol * QuadConst.from_square(4)) if P.levi.dim > 1 else val
