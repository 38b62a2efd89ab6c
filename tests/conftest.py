import math

import numpy as np
import pytest

from specang import AngleSet, GapVector, pair_indices


def random_angles(n, rng, with_torus=False):
    pairs = pair_indices(n)
    theta = {k: float(rng.random() * math.pi) for k in pairs}
    phi = {k: float(rng.random() * 2.0 * math.pi) for k in pairs}
    torus = tuple(rng.random(n - 1) * 2.0 * math.pi) if with_torus else None
    return AngleSet(n, theta, phi, torus)


def interior_gaps(n, rng, fill=0.75):
    """Gap vector with every component bounded away from zero."""
    x = 0.5 + rng.random(n - 1)
    return GapVector(n, x * fill / float(np.arange(1, n) @ x))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
