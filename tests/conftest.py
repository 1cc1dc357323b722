import numpy as np
import pytest

from curvopt import CurvatureClass


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=[-1, 1], ids=["hyperbolic", "spherical"])
def space(request):
    if request.param < 0:
        return CurvatureClass.hyperbolic()
    return CurvatureClass.spherical()
