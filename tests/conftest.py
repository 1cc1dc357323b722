import numpy as np
import pytest
from hypothesis import settings

from curvopt import CurvatureClass

# Every property draws the same examples on each run and keeps no example database;
# no deadline, since an example's time follows the host's load.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=[-1, 1], ids=["hyperbolic", "spherical"])
def space(request):
    if request.param < 0:
        return CurvatureClass.hyperbolic()
    return CurvatureClass.spherical()
