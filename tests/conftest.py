import math

import numpy as np
import pytest

from specang import AngleSet, pair_indices
from specang.dynamics import random_interior_gaps as interior_gaps


def random_angles(n, rng, with_torus=False):
    pairs = pair_indices(n)
    theta = {k: float(rng.random() * math.pi) for k in pairs}
    phi = {k: float(rng.random() * 2.0 * math.pi) for k in pairs}
    torus = tuple(rng.random(n - 1) * 2.0 * math.pi) if with_torus else None
    return AngleSet(n, theta, phi, torus)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
