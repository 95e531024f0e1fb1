import numpy as np
import pytest

from isoclinic.generators import direct_sum, graph_subspace
from isoclinic.subspaces import orthonormalize


def unit(n: int, q: int) -> np.ndarray:
    """Real unit vector of quaternionic coordinate q in H^n."""
    v = np.zeros(4 * n)
    v[4 * q] = 1.0
    return v


def perturbed_graph_sum(seed, parts):
    """`parts` copies of one random graph subspace, moved by 3e-9 noise."""
    rng = np.random.default_rng(seed)
    base = direct_sum([graph_subspace(rng.standard_normal(4))] * parts)
    return orthonormalize(base.vectors + 3e-9 * rng.standard_normal(base.vectors.shape))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
