import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from isoclinic.analysis import (
    IsoclinicProfile,
    build_chains,
    certify_isoclinic,
    companions,
    gamma_delta,
)
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


def random_unit_in(U, rng):
    """Random unit vector of span(U)."""
    v = rng.standard_normal(U.dim) @ U.vectors
    return v / np.linalg.norm(v)


@functools.cache
def bench_workloads():
    """bench/workloads.py, loaded by path: the benchmark's input families
    and its labelling rule label_from_invariants."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain_profile(U, leading):
    """The invariant set measured on the chains centred on `leading`: the
    companions in dim 2, build_chains and gamma_delta otherwise."""
    angles = certify_isoclinic(U)
    if U.dim == 2:
        comp = companions(U, leading, angles)
        xi, chi, eta, gamma, delta = comp.xi, comp.chi, comp.eta, 1.0, 0.0
    else:
        chains = build_chains(U, leading, angles)
        xi, chi, eta = chains.xi, chains.chi, chains.eta
        gamma, delta = gamma_delta(chains)
    return IsoclinicProfile(U.dim, *angles, xi, chi, eta, gamma, delta)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
