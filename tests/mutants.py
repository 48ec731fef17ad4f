"""Deliberately wrong versions of gmcalc functions, for tests that show a check can fail.

Each mutant is a plain function with the signature of the one it replaces.
A test either calls it directly or binds it with ``rebind`` under every
gmcalc name of the original, and builds a fresh datum so that no kept fact
carries an unmutated value.
"""
import sys

from gmcalc.gmfamily import hull_volume
from gmcalc.levilattice import QuadConst, d_constant, theta


def rebind(monkeypatch, module, name, replacement):
    """Bind replacement under every gmcalc name bound to module.name, the walk bench/spans.py makes."""
    orig = getattr(module, name)
    for mod_name, ns in list(sys.modules.items()):
        if mod_name.startswith("gmcalc"):
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    monkeypatch.setattr(ns, attr, replacement)


def doubled_theta_covolume(P, lam):
    """theta with the covolume doubled on every flat of dimension above 1."""
    val = theta(P, lam)
    return val._replace(covol=val.covol * QuadConst.from_square(4)) if P.levi.dim > 1 else val


def doubled_hull_volume(pts):
    """hull_volume with the volume doubled on every flat of dimension above 1."""
    val = hull_volume(pts)
    return val * QuadConst.from_square(4) if pts.levi.dim > 1 else val


def negated_d(L1, L, S, upper=None):
    """d_constant with the sign of every nonzero constant flipped."""
    val = d_constant(L1, L, S, upper)
    return val if val.is_zero() else QuadConst(val.square, -val.sign)
