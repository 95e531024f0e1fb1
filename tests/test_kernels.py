"""The vectorized numeric kernels against the straightforward loops they
replace.

Each reference below is the plain formulation: Gram-Schmidt one kept row
at a time, the structure action as stacked signed slices, companions
through the projector onto AU, the gate's and the oracle's sampled
structures through a fresh image AU per structure, Sp(n) sampling as
left-looking Gram-Schmidt one column pair at a time, and the orbit label
and decision with a full profile (gate included) per leading vector and
per canonical-matrix cross-check. Inputs are unit-norm and agreement is
required to 1e-13 (bitwise where the kernel performs the same operations
in the same order).
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from isoclinic import analysis, orbits
from isoclinic.analysis import (
    _companion,
    _forms,
    _gate,
    _pattern_choices,
    _pm1,
    _sample_coefficients,
    _third,
    full_profile,
    isoclinic_pair,
    omega_matrix,
    theta_of_A,
)
from isoclinic.errors import FalsificationError, IsoclinicError, NotIsoclinicError
from isoclinic.generators import (
    SpElement,
    _profile_vector,
    direct_sum,
    embed,
    graph_subspace,
    invariance_oracle,
    make_profile_4,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
    random_sp,
)
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
    project,
    random_frame,
    restrict_complement,
    structure_image,
)
from isoclinic.orbits import (
    OrbitLabel,
    _rounded_sign,
    canonical_matrices,
    orbit_label,
    same_orbit,
)
from isoclinic.tolerances import EPS_ISO, EPS_ORBIT, EPS_PM1, EPS_RANK

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


def random_structures_reference(count, seed):
    """The gate's seeded structures, drawn and normalized one at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        out.append(CompatibleStructure(*v))
    return out


def gate_reference(U, check_samples=8, tol=EPS_ISO, seed=0):
    thetas = []
    for A in (I, J, K):
        th = isoclinic_pair(U, structure_image(A, U), tol)
        if th is None:
            return None, (A.coefficients(), pair_defect_reference(U, A))
        thetas.append(th)
    if U.dim == 4:
        choices = {"upper", "lower"}
        for A in (I, J, K):
            w = omega_matrix(U, A)
            fits = _pattern_choices(w, tol)
            if not fits:
                return None, (A.coefficients(), pair_defect_reference(U, A))
            if np.max(np.abs(w)) > tol:
                choices &= fits
        if not choices:
            worst = None
            for A, B in ((I, J), (I, K), (J, K)):
                coef = (A.coefficients() + B.coefficients()) / np.sqrt(2.0)
                defect = pair_defect_reference(U, CompatibleStructure(*coef))
                if worst is None or defect > worst[1]:
                    worst = (coef, defect)
            return None, worst
    if U.dim > 4:
        for A in random_structures_reference(check_samples, seed):
            if isoclinic_pair(U, structure_image(A, U), tol) is None:
                return None, (A.coefficients(), pair_defect_reference(U, A))
    return tuple(thetas), None


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
    """invariance_oracle with each sampled pair tested on a fresh image A gU;
    returns the report fields as a tuple."""
    base_vec = _profile_vector(full_profile(U))
    rng = np.random.default_rng(seed)
    max_dev = max_theta = max_eta = 0.0
    failures = []
    for t in range(trials):
        gU = random_sp(U.n, seed=int(rng.integers(0, 2**63 - 1))).apply_frame(U)
        try:
            prof = full_profile(gU, seed=int(rng.integers(0, 2**63 - 1)))
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


def orbit_label_reference(U, seed=None):
    """orbit_label with a full profile, gate included, per leading vector."""
    profile = full_profile(U, seed=seed)
    other = full_profile(U, seed=(seed or 0) + 101)
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
    """(decision, advisory deviation or None): every label and every
    canonical-matrix cross-check measures its input from scratch."""
    decision = orbit_label_reference(U).agrees(orbit_label_reference(W), tol)
    if not decision:
        return decision, None
    (cu_ij, cu_ik), (cw_ij, cw_ik) = canonical_matrices(U), canonical_matrices(W)
    return decision, max(np.max(np.abs(cu_ij - cw_ij)), np.max(np.abs(cu_ik - cw_ik)))


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
        rows = U.vectors - (U.vectors @ W.vectors.T) @ W.vectors
        _, kept = _mgs(rows, EPS_RANK * 10)
        Q_ref, kept_ref = mgs_reference(rows, EPS_RANK * 10)
        assert kept == kept_ref == [1, 3, 4]
        npt.assert_allclose(
            restrict_complement(U, W, expect=3).vectors, Q_ref, rtol=0, atol=TOL
        )


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
        for A, cos_a in zip((I, J, K), cosines):
            v = rng.standard_normal(U.dim) @ U.vectors
            v /= np.linalg.norm(v)
            ref = companion_reference(U, A, cos_a, v)
            npt.assert_allclose(_companion(U, A, cos_a, v), ref, rtol=0, atol=TOL)
            npt.assert_allclose(_third(U, A, cos_a, v), -ref, rtol=0, atol=TOL)

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


class TestGate:
    @pytest.mark.parametrize("name", sorted(GATE_INPUTS))
    def test_matches_image_per_structure(self, name):
        U = GATE_INPUTS[name]()
        angles, witness = _gate(U, 8, EPS_ISO, 0)
        angles_ref, witness_ref = gate_reference(U)
        assert (angles is None) == (angles_ref is None)
        if angles is None:
            npt.assert_array_equal(witness[0], witness_ref[0])
            assert witness[1] == pytest.approx(witness_ref[1], rel=0, abs=TOL)
        else:
            npt.assert_allclose(angles, angles_ref, rtol=0, atol=TOL)

    def test_expected_verdicts(self):
        verdicts = {name: _gate(make(), 8, EPS_ISO, 0)[0] is not None
                    for name, make in GATE_INPUTS.items()}
        assert {name for name, ok in verdicts.items() if ok} == {
            "graph-4", "graph-8", "graph-16"}

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
        assert report.failures == failures
        assert report.trials == trials
        npt.assert_allclose(
            [report.max_profile_deviation, report.max_theta_formula_error,
             report.max_eta_relation_error],
            [max_dev, max_theta, max_eta], rtol=0, atol=1e-14,
        )

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
    """One gate per input gives the labels, decisions and advisory
    deviations of one full profile per measurement."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("name", sorted(ORBIT_INPUTS))
    def test_label_bitwise_equal(self, name, seed):
        U = ORBIT_INPUTS[name]()
        got, ref = outcome(orbit_label, U, seed), outcome(orbit_label_reference, U, seed)
        if isinstance(ref, OrbitLabel):
            npt.assert_array_equal(got.as_array(), ref.as_array())
            assert got == ref
        else:
            assert got is ref

    def test_expected_outcomes(self):
        assert outcome(orbit_label, mixed_delta_sum()) is FalsificationError
        assert outcome(orbit_label, ORBIT_INPUTS["mixed-sign-8"]()) is NotIsoclinicError
        assert isinstance(outcome(orbit_label, near_pm1_profile()), OrbitLabel)

    @pytest.mark.parametrize("u,w", ORBIT_PAIRS)
    def test_decision_and_deviation_equal(self, monkeypatch, u, w):
        U, W = ORBIT_INPUTS[u](), ORBIT_INPUTS[w]()
        if w == u:
            W = moved(W, 40)
        seen = []
        real = orbits.canonical_matrices

        def recording(V, profile=None):
            seen.append((V, profile, real(V, profile)))
            return seen[-1][2]

        monkeypatch.setattr(orbits, "canonical_matrices", recording)
        got = outcome(same_orbit, U, W)
        monkeypatch.undo()
        ref = outcome(same_orbit_reference, U, W)
        if isinstance(ref, tuple):
            decision, dev = ref
            assert got is decision
            if decision:
                (V1, p1, (cu_ij, cu_ik)), (V2, p2, (cw_ij, cw_ik)) = seen
                assert (V1, V2) == (U, W) and None not in (p1, p2)
                assert max(np.max(np.abs(cu_ij - cw_ij)),
                           np.max(np.abs(cu_ik - cw_ik))) == dev
            else:
                assert seen == []
        else:
            assert got is ref

    def test_pairs_cover_both_decisions(self):
        decisions = {outcome(same_orbit_reference, ORBIT_INPUTS[u](),
                             moved(ORBIT_INPUTS[w](), 40) if u == w else ORBIT_INPUTS[w]())
                     for u, w in ORBIT_PAIRS}
        assert {True, False, FalsificationError, NotIsoclinicError} <= {
            d[0] if isinstance(d, tuple) else d for d in decisions}

    def test_one_gate_per_input(self, monkeypatch):
        U, W = moved(graph_sum(2), 1), moved(graph_sum(2), 2)
        gated = []
        real = analysis._gate

        def counting(V, *args):
            gated.append(id(V))
            return real(V, *args)

        monkeypatch.setattr(analysis, "_gate", counting)
        orbit_label(U)
        orbit_label(W, seed=5)
        assert gated == [id(U), id(W)]
        gated.clear()
        assert same_orbit(U, W)
        assert gated == [id(U), id(W)]
        gated.clear()
        full_profile(U)
        assert gated == [id(U)]


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
        U = BATCH_INPUTS[name]()
        angles, witness = _gate(U, 8, EPS_ISO, 0)
        angles_ref, witness_ref = gate_reference(U)
        assert (angles is None) == (angles_ref is None) == name.startswith("mixed")
        if angles is None:
            npt.assert_array_equal(witness[0], witness_ref[0])
            # the coordinate pairs pass: a sampled structure is the witness
            assert np.count_nonzero(witness[0]) > 1
            assert abs(witness[1] - witness_ref[1]) <= 1e-15
        else:
            npt.assert_allclose(angles, angles_ref, rtol=0, atol=TOL)

    @pytest.mark.parametrize("count,seed", [(8, 0), (3, 7), (0, 0), (64, 11)])
    def test_sample_coefficients_cached_and_read_only(self, count, seed):
        C = _sample_coefficients(count, seed)
        assert C is _sample_coefficients(count, seed)
        assert C.shape == (count, 3) and not C.flags.writeable
        ref = [A.coefficients() for A in random_structures_reference(count, seed)]
        npt.assert_array_equal(C, np.array(ref).reshape(-1, 3))

    def test_witness_is_not_a_view_of_the_cache(self):
        U = BATCH_INPUTS["mixed-8"]()
        coeffs = _gate(U, 8, EPS_ISO, 0)[1][0]
        kept = coeffs.copy()
        coeffs[:] = 0.0
        npt.assert_array_equal(_gate(U, 8, EPS_ISO, 0)[1][0], kept)
