import pytest
from hypothesis import settings

from gmcalc.spectral import nl_elementary as _nl_elementary

# The same examples on every run, and no per-example deadline on a loaded host.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def nl_elementary():
    """n^L as e_need of the n_beta/2 (gmcalc.spectral.nl_elementary)."""
    return _nl_elementary
