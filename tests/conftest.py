from fractions import Fraction

import pytest
from hypothesis import settings

from gmcalc.levilattice import restricted_rays

# The same examples on every run, and no per-example deadline on a loaded host.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def _nl_elementary(t, L):
    """n^L as e_need of the n_beta/2 of the home rays lying in L.

    This holds when any `need` distinct rays are independent, as on every
    group of rank at most 2; it is read off prod (1 + x n_beta/2), with no
    subsets and no rank test.
    """
    d = t.datum
    nb = t.nbeta_map()
    e = [Fraction(1)]
    for ray in restricted_rays(t.levi_L):
        if all(d.pair(ray.rep, b) == 0 for b in L.basis):
            e = [a + nb[ray.key] / 2 * b for a, b in zip(e + [0], [0] + e)]
    need = t.levi_L.dim - L.dim
    return e[need] if need < len(e) else Fraction(0)


@pytest.fixture
def nl_elementary():
    return _nl_elementary
