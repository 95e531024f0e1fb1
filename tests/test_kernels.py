"""The vectorized numeric kernels against the straightforward loops they
replace.

Each reference below is the plain formulation: Gram-Schmidt one kept row
at a time, the structure action as stacked signed slices, companions
through the projector onto AU, the oracle's sampled structures through a
fresh image AU per structure, Sp(n) sampling as left-looking
Gram-Schmidt one column pair at a time, the profile, orbit label and
decision measured on 4n-dim chains (the label at two leading vectors),
and decompose on 4n-dim chains. The gate's reference polarises the 3 x 3
quadratic forms Q_ij of the pair defect from six fresh images AU and
takes their sup over all structures with np.linalg.eigh. Inputs are
unit-norm and agreement is required to 1e-13 (bitwise where the kernel
performs the same operations in the same order). The complement of W in
U is checked against its characterisation instead, since its basis is
not the Gram-Schmidt one.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from isoclinic import analysis, cli, generators, orbits
from isoclinic.analysis import (
    _angle,
    _combined_defects,
    _companion,
    _forms,
    _gate,
    _pair_defects,
    _pm1,
    _third,
    _witness,
    build_chains,
    certify_isoclinic,
    companions,
    full_profile,
    isoclinic_pair,
    isoclinic_profile_angles,
    omega_matrix,
    theta_of_A,
)
from isoclinic.errors import (
    DimensionError,
    FalsificationError,
    IsoclinicError,
    NotIsoclinicError,
    RankDeficiencyError,
)
from isoclinic.generators import (
    SpElement,
    _profile_vector,
    direct_sum,
    embed,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_profile_4,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
    random_sp,
)
from isoclinic.io import document_from_frame, parse_document, serialize_document
from isoclinic.quaternions import (
    CompatibleStructure,
    I,
    J,
    K,
    _blocks,
    _unblocks,
    apply_structure,
    left_mult_matrix,
    qarr_conj,
    qarr_mul,
    structure_matrix,
)
from isoclinic.subspaces import (
    Frame,
    _mgs,
    gram,
    orthonormalize,
    project,
    random_frame,
    restrict_complement,
    structure_image,
)
from isoclinic.orbits import (
    OrbitLabel,
    _clean_union,
    _rounded_sign,
    decompose,
    orbit_label,
    same_orbit,
)
from isoclinic.tolerances import EPS_ISO, EPS_ORBIT, EPS_PM1, EPS_RANK
from conftest import chain_profile, perturbed_graph_sum, random_unit_in

TOL = 1e-13


# --- references -------------------------------------------------------------

def mgs_reference(rows, tol):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    scale = max(float(np.max(np.linalg.norm(rows, axis=1))), 1.0)
    out, kept = [], []
    for idx, r in enumerate(rows):
        v = r.copy()
        for _ in range(2):
            for q in out:
                v -= (q @ v) * q
        nv = float(np.linalg.norm(v))
        if nv > tol * scale:
            out.append(v / nv)
            kept.append(idx)
    return (np.array(out) if out else np.zeros((0, rows.shape[1]))), kept


def residual_reference(U, W):
    """The rows of U projected against W twice: one pass leaves roundoff
    of the reference's own up to about 1e-13 in the projector."""
    rows = U.vectors - (U.vectors @ W.vectors.T) @ W.vectors
    return rows - (rows @ W.vectors.T) @ W.vectors


def apply_structure_reference(A, x):
    b = _blocks(x)
    out = np.zeros_like(b)
    if A.a != 0.0:
        out += A.a * np.stack([b[..., 1], -b[..., 0], -b[..., 3], b[..., 2]], axis=-1)
    if A.b != 0.0:
        out += A.b * np.stack([b[..., 2], b[..., 3], -b[..., 0], -b[..., 1]], axis=-1)
    if A.c != 0.0:
        out += A.c * np.stack([b[..., 3], -b[..., 2], b[..., 1], -b[..., 0]], axis=-1)
    return _unblocks(out)


def companion_reference(U, A, cos_a, v):
    """A^{-1} Pr_{AU} v / cos_a with A^{-1} = -A."""
    return -apply_structure(A, project(structure_image(A, U), v)) / cos_a


def pair_defect_reference(U, A):
    G = gram(U, structure_image(A, U))
    M = G @ G.T
    c2 = float(np.trace(M)) / U.dim
    return float(np.max(np.abs(M - c2 * np.eye(U.dim))))


def defect_matrix_reference(U, coefficients):
    """Traceless part of G G^T for G = <U, AU> on a fresh image AU."""
    G = gram(U, structure_image(CompatibleStructure(*coefficients), U))
    M = G @ G.T
    return M - np.trace(M) / U.dim * np.eye(U.dim)


def sup_defect_reference(U):
    """(max over unit (a, b, c) of the pair defect, a structure attaining it).

    Entry (i, j) of the traceless G_A G_A^T is a^T Q_ij a. Each Q_ij is
    polarised from six fresh images (I, J, K and the (e_p + e_q) / sqrt 2),
    and np.linalg.eigh gives the sup max_ij rho(Q_ij) with its eigenvector.
    """
    k, E = U.dim, np.eye(3)
    Q = np.zeros((k, k, 3, 3))
    for p in range(3):
        Q[:, :, p, p] = defect_matrix_reference(U, E[p])
    for p, q in ((0, 1), (0, 2), (1, 2)):
        mixed = defect_matrix_reference(U, (E[p] + E[q]) / np.sqrt(2.0))
        Q[:, :, p, q] = Q[:, :, q, p] = mixed - (Q[:, :, p, p] + Q[:, :, q, q]) / 2
    values, vectors = np.linalg.eigh(Q)
    i, j, m = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    return float(abs(values[i, j, m])), vectors[i, j, :, m]


def gate_reference(U, tol=EPS_ISO):
    rho, vector = sup_defect_reference(U)
    if rho >= tol:
        return None, (vector, rho)
    cos2 = [np.trace(G @ G.T) / U.dim for G in (gram(U, structure_image(A, U)) for A in (I, J, K))]
    return tuple(float(np.arccos(np.sqrt(np.clip(c, 0.0, 1.0)))) for c in cos2), None


def random_sp_reference(n, seed):
    """Column q is orthogonalized against the final columns r < q in turn."""
    M = np.random.default_rng(seed).standard_normal((n, n, 4))
    for q in range(n):
        for r in range(q):
            coef = qarr_mul(qarr_conj(M[:, r]), M[:, q]).sum(axis=0)
            M[:, q] -= qarr_mul(M[:, r], coef)
        M[:, q] /= np.sqrt(np.sum(M[:, q] ** 2))
    return M


def oracle_reference(U, trials, seed, tol=1e-6):
    """invariance_oracle with every profile measured on chains and each
    sampled pair tested on a fresh image A gU; returns the report fields as
    a tuple."""
    base_vec = _profile_vector(chain_profile(U, U.vectors[0]))
    rng = np.random.default_rng(seed)
    max_dev = max_theta = max_eta = 0.0
    failures = []
    for t in range(trials):
        gU = random_sp(U.n, seed=int(rng.integers(0, 2**63 - 1))).apply_frame(U)
        try:
            prof = chain_profile(gU, gU.vectors[0])
        except NotIsoclinicError as exc:
            failures.append(f"trial {t}: gate failure after motion: {exc}")
            continue
        dev = float(np.max(np.abs(_profile_vector(prof) - base_vec)))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(f"trial {t}: profile deviation {dev:.3e}")
        for _ in range(8):
            v = rng.standard_normal(3)
            A = CompatibleStructure(*(v / np.linalg.norm(v)))
            th = isoclinic_pair(gU, structure_image(A, gU))
            if th is None:
                failures.append(f"trial {t}: pair (gU, A gU) not isoclinic")
                continue
            err = abs(np.cos(th) ** 2 - np.cos(theta_of_A(prof, A)) ** 2)
            max_theta = max(max_theta, float(err))
            if err > tol:
                failures.append(f"trial {t}: theta_A formula error {err:.3e}")
        if not any(_pm1(v) for v in (prof.xi, prof.chi, prof.eta)):
            res = abs(prof.eta - prof.xi * prof.chi
                      - np.sqrt((1 - prof.xi**2) * (1 - prof.chi**2)) * prof.gamma)
            max_eta = max(max_eta, float(res))
            if res > tol:
                failures.append(f"trial {t}: eta relation residual {res:.3e}")
    return max_dev, max_theta, max_eta, tuple(failures)


def chain_lead(U, seed):
    """The first frame vector, or for a seed a random unit vector of U."""
    return U.vectors[0] if seed is None else random_unit_in(U, np.random.default_rng(seed))


def orbit_label_reference(U, seed=None):
    """orbit_label from chains at two leading vectors, refused when the
    invariants drift between them."""
    profile = chain_profile(U, chain_lead(U, seed))
    other = chain_profile(U, chain_lead(U, (seed or 0) + 101))
    drift = max(abs(getattr(profile, f) - getattr(other, f))
                for f in ("xi", "chi", "eta", "gamma", "delta"))
    if drift > EPS_ORBIT:
        raise FalsificationError(f"invariants drift {drift:.3e}")
    xi, chi, eta, delta = profile.xi, profile.chi, profile.eta, profile.delta
    if profile.dim_class == 2:
        if not all(abs(v) > 1.0 - EPS_PM1 for v in (xi, chi, eta)):
            raise FalsificationError("dim = 2 mod 4 mandates xi, chi, eta at +/-1")
        xi, chi = _rounded_sign(xi), _rounded_sign(chi)
        eta, delta = xi * chi, 0.0
    else:
        if profile.dim_class == 4 and abs(profile.gamma**2 + delta**2 - 1.0) > EPS_ORBIT:
            raise FalsificationError("dim = 4 mod 8 mandates Gamma^2 + Delta^2 = 1")
        if any(abs(v) > 1.0 - EPS_PM1 for v in (xi, chi, eta)):
            snap = lambda v: _rounded_sign(v) if abs(v) > 1.0 - EPS_PM1 else v
            xi, chi, eta, delta = snap(xi), snap(chi), snap(eta), 0.0
    return OrbitLabel(U.dim, profile.theta_i, profile.theta_j, profile.theta_k,
                      xi, chi, eta, delta)


def same_orbit_reference(U, W, tol=EPS_ORBIT):
    """The decision with every label measured from scratch."""
    return orbit_label_reference(U).agrees(orbit_label_reference(W), tol)


def eight_dim_addend_reference(U, X1, angles):
    """The 8-dim addend on 4n-dim chains: four standard 2-planes peeled from
    shrinking complements, or two omega^I chain spans."""
    chains = build_chains(U, X1, angles)
    if chains.convention != "decomposable":
        first = _clean_union([chains.chain_x])
        rest = restrict_complement(U, first, expect=U.dim - 4)
        return _clean_union([chains.chain_x, build_chains(U, rest.vectors[0], angles).chain_x])
    current, lead, planes = U, X1, []
    for step in range(4):
        planes.append(_clean_union([lead, companions(current, lead, angles).X2]))
        if step < 3:
            current = restrict_complement(current, planes[-1], expect=current.dim - 2)
            lead = current.vectors[0]
    return _clean_union([p.vectors for p in planes])


def decompose_reference(U, seed=None):
    """decompose's addends built on 4n-dim chains, each complement a
    restrict_complement of the ambient frames (no checks)."""
    profile = chain_profile(U, U.vectors[0])
    angles = (profile.theta_i, profile.theta_j, profile.theta_k)
    rng = np.random.default_rng(seed) if seed is not None else None
    addends, current = [], U
    while current is not None:
        x1 = current.vectors[0] if rng is None else random_unit_in(current, rng)
        if profile.dim_class == 2:
            addend = _clean_union([x1, companions(current, x1, angles).X2])
        elif profile.dim_class == 4:
            addend = _clean_union([build_chains(current, x1, angles).chain_x])
        else:
            addend = eight_dim_addend_reference(current, x1, angles)
        addends.append(addend)
        left = current.dim - addend.dim
        current = restrict_complement(current, addend, expect=left) if left else None
    return addends


def real_matrix_reference(g):
    n = g.n
    R = np.zeros((4 * n, 4 * n))
    for p in range(n):
        for q in range(n):
            R[4 * p : 4 * p + 4, 4 * q : 4 * q + 4] = left_mult_matrix(g.matrix[p, q])
    return R


# --- inputs -----------------------------------------------------------------

def unit_rows(rng, k, d):
    X = rng.standard_normal((k, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def random_structure(rng):
    v = rng.standard_normal(3)
    return CompatibleStructure(*(v / np.linalg.norm(v)))


def moved(U, seed):
    return random_sp(U.n, seed).apply_frame(U)


def graph_sum(parts):
    return direct_sum([graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))] * parts)


def near_pm1_profile():
    """xi = 1 - 1e-8, at the +/-1 convention edge: Delta snaps under motions,
    so the oracle records profile deviations."""
    xi, chi, gamma = 1 - 1e-8, 0.2, 0.5
    eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
    return make_profile_4(1.2, 1.3, 1.4, xi, chi, eta)


def mixed_sign_sum(signs):
    """Sum of standard 2-planes with equal angles and the given xi signs."""
    planes = [make_two_plane(2, 0.9, 1.1, 1.2, s, 1.0) for s in signs]
    n = 2 * len(planes)
    return Frame(np.vstack([embed(p, n, 2 * i).vectors for i, p in enumerate(planes)]))


def mixed_delta_sum():
    """Parts that agree in angles and (xi, chi, eta) but carry opposite Delta:
    isoclinic, without well-defined chain invariants."""
    args = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)
    vectors = np.zeros((8, 32))
    vectors[:4, :16] = make_profile_4(*args, delta_sign=+1).vectors
    vectors[4:, 16:] = make_profile_4(*args, delta_sign=-1).vectors
    return Frame(vectors)


GATE_INPUTS = {
    "graph-4": lambda: moved(graph_sum(1), 1),
    "graph-8": lambda: moved(graph_sum(2), 2),
    "graph-16": lambda: moved(graph_sum(4), 3),
    "mixed-4": lambda: mixed_sign_sum([1, -1]),
    "mixed-8": lambda: moved(mixed_sign_sum([1, -1, 1, -1]), 4),
    "mixed-16": lambda: moved(mixed_sign_sum([1, -1] * 4), 5),
    "random-4": lambda: random_frame(3, 4, np.random.default_rng(6)),
    "random-8": lambda: random_frame(4, 8, np.random.default_rng(7)),
    "random-16": lambda: random_frame(6, 16, np.random.default_rng(8)),
    "unpaired-4": lambda: Frame(np.eye(8)[[0, 2, 4, 5]]),
}


def assert_complement(U, W, V, rank):
    """V is an orthonormal basis of {u in span U : u orthogonal to W}."""
    assert V.dim == U.dim - rank
    npt.assert_allclose(V.vectors @ V.vectors.T, np.eye(V.dim), rtol=0, atol=TOL)
    assert np.linalg.norm(V.vectors - V.vectors @ U.vectors.T @ U.vectors) <= TOL
    assert np.linalg.norm(V.vectors @ W.vectors.T) <= TOL


def complement_case(seed, case, n, k, m):
    """(U, W, rank of U W^T) for one kind of overlap of W with span U."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((4 * n, 4 * n)))[0].T
    U = Frame(basis[:k])
    if case == "inside":
        # W a random m-dim subspace of span U
        m = min(m, k)
        W = Frame(np.linalg.qr(rng.standard_normal((k, m)))[0].T @ U.vectors)
        return U, W, m
    if case == "rows":
        # some rows of U lie in W, the other rows of W are orthogonal to U
        shared = min(m, k)
        W = Frame(basis[[*range(k - shared, k), *range(k, k + m - shared)]])
        return U, W, shared
    # partial overlap: m - 1 rows of W mix span U with its complement, the
    # last one is orthogonal to U
    inside = min(m - 1, k)
    outside = basis[k:]
    rows = np.vstack([
        rng.standard_normal((inside, k)) @ U.vectors
        + rng.standard_normal((inside, len(outside))) @ outside,
        rng.standard_normal(len(outside)) @ outside,
    ])
    return U, Frame(np.linalg.qr(rows.T)[0].T), inside


# --- tests ------------------------------------------------------------------

class TestGramSchmidt:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 5), (4, 16), (8, 20)])
    def test_random_rows(self, rng, n, k):
        rows = unit_rows(rng, k, 4 * n)
        Q, kept = _mgs(rows, EPS_RANK)
        Q_ref, kept_ref = mgs_reference(rows, EPS_RANK)
        assert kept == kept_ref
        npt.assert_allclose(Q, Q_ref, rtol=0, atol=TOL)

    def test_exact_dependencies_drop_the_same_rows(self, rng):
        r = unit_rows(rng, 4, 16)
        rows = np.vstack([r[0], r[1], (r[0] + r[1]) / np.sqrt(2), r[2], r[1], r[3]])
        Q, kept = _mgs(rows, EPS_RANK)
        Q_ref, kept_ref = mgs_reference(rows, EPS_RANK)
        assert kept == kept_ref == [0, 1, 3, 5]
        npt.assert_allclose(Q, Q_ref, rtol=0, atol=TOL)

    def test_near_dependent_rows_stay_orthonormal(self, rng):
        # residuals of 1e-7 relative: one projection pass alone would leave
        # the kept rows visibly non-orthogonal
        r = unit_rows(rng, 3, 16)
        rows = np.vstack([r[0], r[0] + 1e-7 * r[1], r[1], r[1] + 1e-7 * r[2]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        Q, kept = _mgs(rows, EPS_RANK)
        assert kept == mgs_reference(rows, EPS_RANK)[1] == [0, 1, 2, 3]
        npt.assert_allclose(Q @ Q.T, np.eye(4), rtol=0, atol=TOL)

    def test_drop_rule_is_relative_to_largest_row(self, rng):
        r = unit_rows(rng, 3, 16)
        # the third residual is 1e-8 absolute but 1e-11 relative to |row 0|
        rows = np.vstack([1e3 * r[0], r[1], r[1] + 1e-8 * r[2]])
        assert _mgs(rows, EPS_RANK)[1] == mgs_reference(rows, EPS_RANK)[1] == [0, 1]

    def test_rank_deficient_restrict_complement(self, rng):
        Q0, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        basis = Q0.T
        # rows 0, 2 and 5 of U lie in W, so their residuals vanish
        U = Frame(basis[[0, 5, 1, 6, 7, 2]])
        W = Frame(basis[[0, 1, 2, 3]])
        rows = residual_reference(U, W)
        _, kept = _mgs(rows, EPS_RANK * 10)
        Q_ref, kept_ref = mgs_reference(rows, EPS_RANK * 10)
        assert kept == kept_ref == [1, 3, 4]
        V = restrict_complement(U, W, expect=3)
        assert_complement(U, W, V, rank=3)
        # W lies in span U here, so the Gram-Schmidt residuals span the same set
        npt.assert_allclose(V.vectors.T @ V.vectors, Q_ref.T @ Q_ref, rtol=0, atol=TOL)


class TestRestrictComplement:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(["inside", "rows", "partial"]),
        n=st.integers(3, 8),
        k=st.integers(1, 8),
        m=st.integers(1, 4),
    )
    @example(seed=4294967295, case="inside", n=3, k=3, m=1)
    def test_characterised(self, seed, case, n, k, m):
        U, W, rank = complement_case(seed, case, n, k, m)
        if rank == k:
            with pytest.raises(DimensionError):
                restrict_complement(U, W, expect=0)
            return
        V = restrict_complement(U, W, expect=k - rank)
        assert_complement(U, W, V, rank)
        # the complement is the null space of G^T in U's coordinates
        N = np.linalg.svd(gram(W, U))[2][rank:] @ U.vectors
        npt.assert_allclose(V.vectors.T @ V.vectors, N.T @ N, rtol=0, atol=TOL)
        if case != "partial":
            # each row of W lies in span U or is orthogonal to it, so the
            # Gram-Schmidt residuals stay in span U
            rows = residual_reference(U, W)
            Q_ref, _ = mgs_reference(rows, EPS_RANK * 10)
            npt.assert_allclose(V.vectors.T @ V.vectors, Q_ref.T @ Q_ref, rtol=0, atol=TOL)

    def test_wrong_expectation_raises(self):
        U, W, rank = complement_case(1, "inside", 4, 6, 2)
        with pytest.raises(RankDeficiencyError) as info:
            restrict_complement(U, W, expect=5)
        assert info.value.detected_rank == 4


class TestApplyStructure:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_coordinate_structures_exact(self, rng, n):
        x = unit_rows(rng, 5, 4 * n)
        for A in (I, J, K):
            npt.assert_array_equal(apply_structure(A, x), apply_structure_reference(A, x))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_general_structures(self, rng, n):
        x = unit_rows(rng, 5, 4 * n)
        for _ in range(20):
            A = random_structure(rng)
            npt.assert_allclose(
                apply_structure(A, x), apply_structure_reference(A, x), rtol=0, atol=TOL
            )
            npt.assert_allclose(
                apply_structure(A, x[0]), apply_structure_reference(A, x[0]),
                rtol=0, atol=TOL,
            )


class TestCompanions:
    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_against_projector_onto_image(self, rng, parts):
        U = moved(graph_sum(parts), parts)
        cosines = np.cos(gate_reference(U)[0])
        forms = _forms(U)
        for p, (A, cos_a) in enumerate(zip((I, J, K), cosines)):
            u = rng.standard_normal(U.dim)
            u /= np.linalg.norm(u)
            v = u @ U.vectors
            ref = companion_reference(U, A, cos_a, v)
            npt.assert_allclose(_companion(U, A, cos_a, v), ref, rtol=0, atol=TOL)
            npt.assert_allclose(_third(U, A, cos_a, v), -ref, rtol=0, atol=TOL)
            # in U's coordinates Pr_U(A_p x) is omega_p u
            npt.assert_allclose(-(forms[p] @ u) / cos_a @ U.vectors, ref, rtol=0, atol=TOL)

    def test_general_structure_any_subspace(self, rng):
        # the identity A^{-1} Pr_{AU} = -Pr_U A needs no isoclinicity
        U = random_frame(4, 6, rng)
        v = unit_rows(rng, 1, 16)[0]
        for _ in range(10):
            A = random_structure(rng)
            npt.assert_allclose(
                _companion(U, A, 1.0, v), companion_reference(U, A, 1.0, v),
                rtol=0, atol=TOL,
            )


def assert_gate_matches_reference(U):
    """Same verdict as the eigh reference; a witness attains the sup and its
    deviation is its own pair defect; certified angles are bitwise those of
    trace(omega_p omega_p^T) / k."""
    angles, witness = _gate(U, EPS_ISO)
    angles_ref, witness_ref = gate_reference(U)
    assert (angles is None) == (angles_ref is None)
    if angles is None:
        coeffs, deviation = witness
        assert deviation == pytest.approx(witness_ref[1], rel=0, abs=TOL)
        assert deviation == _combined_defects(coeffs[None], _forms(U))[0][0]
        assert pair_defect_reference(U, CompatibleStructure(*coeffs)) == pytest.approx(
            deviation, rel=0, abs=TOL)
    else:
        npt.assert_allclose(angles, angles_ref, rtol=0, atol=TOL)
        assert angles == tuple(_angle(c) for c in _pair_defects(_forms(U))[1])
    return angles, witness


def perturbed(base, seed, eps):
    rng = np.random.default_rng(seed)
    return orthonormalize(base.vectors + eps * rng.standard_normal(base.vectors.shape))


PERTURBED_BASES = {
    4: lambda: moved(graph_sum(1), 61),
    6: lambda: two_plane_sum(3, 62),
    8: lambda: moved(graph_sum(2), 63),
    16: lambda: moved(graph_sum(4), 64),
}


class TestGate:
    @pytest.mark.parametrize("name", sorted(GATE_INPUTS))
    def test_matches_image_per_structure(self, name):
        assert_gate_matches_reference(GATE_INPUTS[name]())

    def test_expected_verdicts(self):
        verdicts = {name: _gate(make(), EPS_ISO)[0] is not None
                    for name, make in GATE_INPUTS.items()}
        assert {name for name, ok in verdicts.items() if ok} == {
            "graph-4", "graph-8", "graph-16"}

    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from(sorted(PERTURBED_BASES)), seed=st.integers(0, 2**32 - 1),
           log_eps=st.floats(-10.0, -7.0))
    def test_perturbed_sums_across_tolerance(self, dim, seed, log_eps):
        U = perturbed(PERTURBED_BASES[dim](), seed, 10.0**log_eps)
        # a sup within roundoff of the tolerance may be decided either way
        assume(abs(sup_defect_reference(U)[0] - EPS_ISO) > 1e-15)
        angles, witness = assert_gate_matches_reference(U)
        if angles is None:
            assert witness[1] >= EPS_ISO

    @pytest.mark.parametrize("name", ["mixed-4", "mixed-8", "random-4", "random-8", "random-16"])
    def test_verdict_flips_at_the_sup(self, name):
        U = GATE_INPUTS[name]()
        sup = sup_defect_reference(U)[0]
        angles, (_, deviation) = _gate(U, sup * (1 - 1e-9))
        assert angles is None and deviation == pytest.approx(sup, rel=0, abs=TOL)
        assert _gate(U, sup * (1 + 1e-9))[0] is not None

    def test_extreme_vector_repeated_eigenvalues(self, rng):
        # the closed-form eigenvalue keeps about half the digits at a repeated
        # root (arccos at +/-1); the vector is checked at the exact eigenvalue
        n = unit_rows(rng, 1, 3)[0]
        for Q, lam, eig_tol in [
            (-2.0 * np.eye(3) + 1.5 * np.outer(n, n), -2.0, 1e-7),  # double, eigenspace n-perp
            (np.diag([0.7, 0.7, -0.2]), 0.7, 1e-7),  # double, axes in its eigenspace
            (0.4 * np.eye(3), 0.4, TOL),  # triple
            (np.diag([0.1, -0.9, 0.3]), -0.9, TOL),  # simple, an axis
        ]:
            v = analysis._extreme_vector(Q, lam)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=TOL)
            npt.assert_allclose(Q @ v, lam * v, rtol=0, atol=TOL)
            assert v[np.argmax(np.abs(v))] > 0
            assert analysis._extreme_eigenvalue(Q[None])[0] == pytest.approx(lam, abs=eig_tol)

    def test_witness_at_near_tied_band_entries(self):
        # the closed form reads the double root 0.7 as ~0.7000000063, above
        # the simple radius 0.700000003 of the other entry: the Rayleigh
        # quotients pick the entry whose true radius is larger
        double = np.diag([0.7, 0.7, -0.2])
        simple = np.diag([0.1, -0.3, 0.700000003])
        lam = analysis._extreme_eigenvalue(np.stack([double, simple]))
        assert abs(lam[0]) > abs(lam[1])
        for band in (np.stack([double, simple]), np.stack([simple, double])):
            npt.assert_array_equal(_witness(band), [0.0, 0.0, 1.0])
        # an exact tie keeps the closed form's choice, then the lower index
        npt.assert_array_equal(_witness(np.stack([simple, simple[::-1, ::-1]])), [0.0, 0.0, 1.0])

    def test_no_linalg_call(self, monkeypatch):
        inputs = [make() for make in GATE_INPUTS.values()]

        def refuse(*args, **kwargs):
            raise AssertionError("the gate called numpy.linalg")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and name[0].islower():
                monkeypatch.setattr(np.linalg, name, refuse)
        verdicts = [_gate(U, EPS_ISO)[0] is not None for U in inputs]
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_sampled_forms_are_combinations(self, rng, parts):
        for U in (moved(graph_sum(parts), 10 + parts),
                  random_frame(4 * parts, 4 * parts, rng)):
            forms = np.array([omega_matrix(U, A) for A in (I, J, K)])
            for _ in range(8):
                A = random_structure(rng)
                npt.assert_allclose(
                    np.tensordot(A.coefficients(), forms, 1),
                    gram(U, structure_image(A, U)),
                    rtol=0, atol=TOL,
                )


class TestRealMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_equals_blockwise_loop(self, n):
        for seed in range(4):
            g = random_sp(n, seed)
            npt.assert_array_equal(g.real_matrix(), real_matrix_reference(g))
        g = SpElement(np.random.default_rng(n).standard_normal((n, n, 4)))
        npt.assert_array_equal(g.real_matrix(), real_matrix_reference(g))

    def test_built_once_and_read_only(self):
        g = random_sp(3, 1)
        R = g.real_matrix()
        assert g.real_matrix() is R
        assert not R.flags.writeable
        U = random_frame(3, 4, np.random.default_rng(2))
        npt.assert_array_equal(g.apply_frame(U).vectors, U.vectors @ R.T)


class TestRandomSp:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 64])
    def test_bitwise_equal_to_left_looking_loop(self, n):
        for seed in range(20):
            npt.assert_array_equal(random_sp(n, seed).matrix, random_sp_reference(n, seed))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**63 - 1))
    def test_orthogonal_and_commutes_with_structures(self, n, seed):
        R = random_sp(n, seed).real_matrix()
        npt.assert_allclose(R.T @ R, np.eye(4 * n), rtol=0, atol=1e-13)
        for A in (I, J, K):
            S = structure_matrix(A, n)
            npt.assert_allclose(R @ S, S @ R, rtol=0, atol=1e-14)


class TestForms:
    @pytest.mark.parametrize("name", sorted(GATE_INPUTS))
    def test_equal_to_omega_matrix(self, name):
        U = GATE_INPUTS[name]()
        forms = _forms(U)
        assert forms.shape == (3, U.dim, U.dim)
        for A, w in zip((I, J, K), forms):
            npt.assert_array_equal(w, omega_matrix(U, A))


class TestOracle:
    @pytest.mark.parametrize("make,trials,seed", [
        (lambda: graph_sum(1), 6, 1),
        (lambda: moved(graph_sum(2), 2), 4, 2),
        (lambda: graph_sum(4), 2, 3),
        (lambda: make_two_plane(3, 0.9, 1.1, 1.2, -1.0, 1.0), 6, 4),
        (lambda: make_profile_4(1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656), 6, 5),
        (near_pm1_profile, 10, 1),
    ])
    def test_matches_image_per_structure(self, make, trials, seed):
        U = make()
        report = invariance_oracle(U, trials, seed)
        max_dev, max_theta, max_eta, failures = oracle_reference(U, trials, seed)
        assert report.trials == trials
        if make is near_pm1_profile:
            # each route's side of the +/-1 convention, hence Delta, is decided
            # by roundoff: the same deviation, at trials of its own; the eta
            # relation, evaluated through 1 - xi^2 ~ 2e-8, keeps ~8 digits
            kinds = [{f.split(": ", 1)[1] for f in fs} for fs in (report.failures, failures)]
            assert kinds == [{"profile deviation 8.660e-01"}] * 2
            npt.assert_allclose([report.max_profile_deviation, report.max_theta_formula_error],
                                [max_dev, max_theta], rtol=0, atol=1e-14)
            assert max(report.max_eta_relation_error, max_eta) < 1e-6
            return
        assert report.failures == failures
        npt.assert_allclose(
            [report.max_profile_deviation, report.max_theta_formula_error,
             report.max_eta_relation_error],
            [max_dev, max_theta, max_eta], rtol=0, atol=1e-14,
        )

    def test_forms_built_once_per_trial(self, monkeypatch):
        built = []
        real = analysis._forms

        def counting(V):
            built.append(V.dim)
            return real(V)

        U = moved(graph_sum(2), 2)
        monkeypatch.setattr(analysis, "_forms", counting)
        assert invariance_oracle(U, 3, 2).passed
        # one for the input's own gate, then one per trial
        assert built == [8] * 4

    def test_near_pm1_records_failures(self):
        assert invariance_oracle(near_pm1_profile(), 10, 1).failures


def two_plane_sum(count, seed):
    plane = make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0)
    return moved(direct_sum([plane] * count), seed)


PROFILE_4 = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)

ORBIT_INPUTS = {
    "plane": lambda: make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0),
    "plane-moved": lambda: two_plane_sum(1, 21),
    "planes-4": lambda: two_plane_sum(2, 22),
    "planes-6": lambda: two_plane_sum(3, 23),
    "planes-10": lambda: two_plane_sum(5, 24),
    "profile-4": lambda: make_profile_4(*PROFILE_4),
    "profile-4-moved": lambda: moved(make_profile_4(*PROFILE_4), 25),
    "profile-4-lower": lambda: moved(make_profile_4(*PROFILE_4, delta_sign=+1), 26),
    "graph-4": lambda: moved(graph_sum(1), 27),
    "graph-8": lambda: moved(graph_sum(2), 28),
    "graph-12": lambda: moved(graph_sum(3), 29),
    "graph-16": lambda: moved(graph_sum(4), 30),
    "rhp-4": lambda: moved(make_rhp(4, 4), 31),
    "rhp-6": lambda: make_rhp(6, 6),
    "tcomplex-4": lambda: moved(make_totally_complex_4(4), 32),
    "near-pm1": near_pm1_profile,
    "near-pm1-moved": lambda: moved(near_pm1_profile(), 33),
    "mixed-delta": mixed_delta_sum,
    "mixed-sign-8": lambda: moved(mixed_sign_sum([1, -1, 1, -1]), 34),
}

# (U, W) pairs of one ambient space: W is a motion of U or another orbit;
# a name paired with itself stands for a motion of that input
ORBIT_PAIRS = [
    ("plane", "plane-moved"),
    ("planes-4", "rhp-4"),
    ("profile-4", "profile-4-moved"),
    ("profile-4", "profile-4-lower"),
    ("profile-4", "tcomplex-4"),
    ("rhp-4", "tcomplex-4"),
    ("graph-8", "graph-8"),
    ("graph-12", "graph-12"),
    ("graph-16", "graph-16"),
    ("near-pm1", "near-pm1-moved"),
    ("mixed-delta", "mixed-sign-8"),
    ("mixed-sign-8", "mixed-delta"),
]


def outcome(fn, *args):
    try:
        return fn(*args)
    except IsoclinicError as exc:
        return type(exc)


class TestOrbitDecision:
    """One gate per input gives the labels and decisions that chains give
    at two leading vectors; the forms refuse what the chains' drift test
    let through or refused at the +/-1 convention edge."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("name", sorted(ORBIT_INPUTS))
    def test_label_matches_chain_reference(self, name, seed):
        U = ORBIT_INPUTS[name]()
        got, ref = outcome(orbit_label, U), outcome(orbit_label_reference, U, seed)
        if name.startswith("near-pm1"):
            # the chains' side of the convention is decided by roundoff
            assert got is FalsificationError
        elif isinstance(ref, OrbitLabel):
            assert got.dim == ref.dim
            npt.assert_allclose(got.as_array(), ref.as_array(), rtol=0, atol=TOL)
        else:
            assert got is ref

    def test_expected_outcomes(self):
        assert outcome(orbit_label, mixed_delta_sum()) is FalsificationError
        assert outcome(orbit_label, ORBIT_INPUTS["mixed-sign-8"]()) is NotIsoclinicError
        with pytest.raises(FalsificationError, match=r"\|xi\| lies [0-9.e+-]+ from 1 - EPS_PM1, "
                           r"within its error bound [0-9.e+-]+"):
            orbit_label(near_pm1_profile())

    @pytest.mark.parametrize("u,w", ORBIT_PAIRS)
    def test_decision_and_deviation_equal(self, u, w):
        # the canonical matrices are closed forms of the labels' own
        # numbers, so the decision is all same_orbit returns
        U, W = ORBIT_INPUTS[u](), ORBIT_INPUTS[w]()
        if w == u:
            W = moved(W, 40)
        if u.startswith("near-pm1"):
            # either side of the convention gives one verdict for a motion
            assert same_orbit(U, W) is True
        else:
            assert outcome(same_orbit, U, W) is outcome(same_orbit_reference, U, W)

    def test_pairs_cover_both_decisions(self):
        decisions = {outcome(same_orbit_reference, ORBIT_INPUTS[u](),
                             moved(ORBIT_INPUTS[w](), 40) if u == w else ORBIT_INPUTS[w]())
                     for u, w in ORBIT_PAIRS}
        assert {True, False, FalsificationError, NotIsoclinicError} <= decisions

    def test_one_gate_per_input(self, monkeypatch):
        U, W = moved(graph_sum(2), 1), moved(graph_sum(2), 2)
        gated = []
        real = analysis._gate

        def counting(V, *args):
            gated.append(id(V))
            return real(V, *args)

        monkeypatch.setattr(analysis, "_gate", counting)
        orbit_label(U)
        orbit_label(W)
        assert gated == [id(U), id(W)]
        gated.clear()
        assert same_orbit(U, W)
        assert gated == [id(U), id(W)]
        gated.clear()
        full_profile(U)
        assert gated == [id(U)]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("u,w", ORBIT_PAIRS)
    def test_cli_compare_gates_each_input_once(self, monkeypatch, capsys, tmp_path,
                                               u, w, json_flag):
        U, W = ORBIT_INPUTS[u](), ORBIT_INPUTS[w]()
        if w == u:
            W = moved(W, 40)
        paths, loaded = [], []
        for name, V in (("a", U), ("b", W)):
            text = serialize_document(document_from_frame(V))
            (tmp_path / f"{name}.json").write_text(text)
            paths.append(str(tmp_path / f"{name}.json"))
            loaded.append(parse_document(text).to_frame())
        A, B = loaded
        # the output of labelling each input (on its measured side of the +/-1
        # convention, which is orbit_label off the convention's edge) and then
        # calling same_orbit
        try:
            label_a, label_b = (orbits._measured(V).label() for V in (A, B))
            verdict = same_orbit(A, B)
        except IsoclinicError as exc:
            expected = (2, "", f"rejected: {exc}\n")
        else:
            if json_flag:
                out = json.dumps({"same_orbit": verdict,
                                  "label_a": list(label_a.as_array()),
                                  "label_b": list(label_b.as_array())}, indent=2) + "\n"
            else:
                out = "".join([
                    f"same orbit: {'yes' if verdict else 'no'}\n",
                    "label A: [" + ", ".join(cli._fmt(v) for v in label_a.as_array()) + "]\n",
                    "label B: [" + ", ".join(cli._fmt(v) for v in label_b.as_array()) + "]\n",
                ])
            expected = (0, out, "")
        gated = []
        real = analysis._gate

        def counting(V, *args):
            gated.append(V.dim)
            return real(V, *args)

        monkeypatch.setattr(analysis, "_gate", counting)
        code = cli.main(["compare", *paths, *json_flag])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        assert gated == [U.dim, W.dim][: len(gated)]
        if code == 0:
            assert len(gated) == 2


BATCH_INPUTS = {
    "mixed-6": lambda: moved(mixed_sign_sum([1, -1, 1]), 41),
    "mixed-8": lambda: moved(mixed_sign_sum([1, 1, -1, 1]), 42),
    "mixed-12": lambda: moved(mixed_sign_sum([1, -1, 1, 1, -1, 1]), 43),
    "mixed-16": lambda: moved(mixed_sign_sum([1, 1, 1, -1] * 2), 44),
    "graph-8": lambda: moved(graph_sum(2), 45),
    "graph-12": lambda: moved(graph_sum(3), 46),
    "graph-16": lambda: moved(graph_sum(4), 47),
    "planes-6": lambda: two_plane_sum(3, 48),
    "planes-10": lambda: two_plane_sum(5, 49),
}


class TestBatchedGate:
    @pytest.mark.parametrize("name", sorted(BATCH_INPUTS))
    def test_matches_per_structure_gate(self, name):
        angles, witness = assert_gate_matches_reference(BATCH_INPUTS[name]())
        assert (angles is None) == name.startswith("mixed")
        if angles is None:
            # the coordinate pairs pass: a mixed structure is the witness
            assert np.count_nonzero(witness[0]) > 1


def profile_sum(args, parts, seed):
    return moved(direct_sum([make_profile_4(*args)] * parts), seed)


# every stratum of decompose: 2-plane sums of each class (decomposable),
# generic graph and make_profile_4 sums, cos theta_p = 0 (i-complex and
# r.h.p.), a single invariant at +/-1, and certified perturbed sums
DECOMPOSE_INPUTS = {
    "planes-10": lambda: two_plane_sum(5, 51),
    "planes-12": lambda: two_plane_sum(6, 52),
    "planes-16": lambda: two_plane_sum(8, 53),
    "graph-12": lambda: moved(graph_sum(3), 54),
    "graph-16": lambda: moved(graph_sum(4), 55),
    "profile-16": lambda: profile_sum(PROFILE_4, 4, 56),
    "icomplex-8": lambda: moved(direct_sum([make_i_complex_4(2, np.pi / 2)] * 2), 57),
    "icomplex-12": lambda: moved(direct_sum([make_i_complex_4(2, 0.7)] * 3), 58),
    "single-pm1-8": lambda: profile_sum((1.3091, 1.1711, 1.2413, 1.0, -0.849, -0.849), 2, 59),
    "rhp-6": lambda: moved(make_rhp(6, 6), 60),
    "rhp-12": lambda: moved(make_rhp(12, 12), 61),
    "perturbed-4": lambda: perturbed_graph_sum(1, 1),
    "perturbed-8": lambda: perturbed_graph_sum(1, 2),
    "tcomplex-8": lambda: moved(direct_sum([make_totally_complex_4(2)] * 2), 62),
}

# how many of the three Kaehler forms survive orthonormalization on each
# stratum: none on r.h.p. sums; one (the algebra C) on 2-plane sums and
# totally complex sums, i-complex at theta = pi/2 included; two (H) with a
# single invariant at +/-1; three (Cl_{0,3}) on graph, profile, generic
# i-complex and perturbed sums
GENERATORS = {
    "rhp-6": 0, "rhp-12": 0,
    "planes-10": 1, "planes-12": 1, "planes-16": 1, "icomplex-8": 1, "tcomplex-8": 1,
    "single-pm1-8": 2,
    "graph-12": 3, "graph-16": 3, "profile-16": 3, "icomplex-12": 3,
    "perturbed-4": 3, "perturbed-8": 3,
}


def projector_distance(A, B):
    return float(np.max(np.abs(A.vectors.T @ A.vectors - B.vectors.T @ B.vectors)))


class TestDecomposeInCoordinates:
    """decompose builds its addends in U's coordinates; they span what the
    4n-dim chain route spans."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_addends_match_chain_route(self, name, seed):
        U = DECOMPOSE_INPUTS[name]()
        ref = decompose_reference(U, seed)
        try:
            got = decompose(U, seed=seed).addends
        except FalsificationError as exc:
            # basis-dependent re-certification at the edge of EPS_ISO
            assert name == "perturbed-8" and "re-certification" in str(exc)
            return
        assert [a.dim for a in got] == [a.dim for a in ref]
        assert max(projector_distance(a, b) for a, b in zip(got, ref)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_generators_per_stratum(self, name):
        E = orbits._generators(_forms(DECOMPOSE_INPUTS[name]()))
        assert len(E) == GENERATORS[name]
        k = E.shape[-1]
        npt.assert_allclose(np.einsum("pij,qij->pq", E, E) / k, np.eye(len(E)),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_addends_are_submodules(self, name, seed):
        # each addend's coordinate projector P is invariant under every form
        U = DECOMPOSE_INPUTS[name]()
        forms = _forms(U)
        for addend in decompose(U, seed=seed).addends:
            C = addend.vectors @ U.vectors.T
            P = C.T @ C
            leak = max(np.linalg.norm((np.eye(U.dim) - P) @ w @ P, 2) for w in forms)
            assert leak <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        part=st.sampled_from(["graph", "profile", "planes", "icomplex", "rhp"]),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        lead=st.sampled_from([None, 0, 1, 2]),
    )
    def test_addends_are_hermitian_orthogonal_isoclinic_parts(self, part, count, seed, lead):
        base = {
            "graph": lambda: graph_subspace(np.random.default_rng(seed).standard_normal(4)),
            "profile": lambda: make_profile_4(*PROFILE_4),
            "planes": lambda: make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0),
            "icomplex": lambda: make_i_complex_4(2, 0.7),
            "rhp": lambda: make_rhp(2, 2),
        }[part]()
        U = moved(direct_sum([base] * count), seed)
        dec = decompose(U, seed=lead)
        V = np.vstack([a.vectors for a in dec.addends])
        npt.assert_allclose(V @ V.T, np.eye(U.dim), rtol=0, atol=1e-12)
        assert np.max(np.abs(U.vectors - (U.vectors @ V.T) @ V)) <= 1e-12
        parent = np.cos(certify_isoclinic(U))
        for i, a in enumerate(dec.addends):
            npt.assert_allclose(np.cos(isoclinic_profile_angles(a)), parent, rtol=0, atol=1e-12)
            for b in dec.addends[i + 1:]:
                for A in (I, J, K):
                    assert np.max(np.abs(a.vectors @ apply_structure(A, b.vectors).T)) <= 1e-12
