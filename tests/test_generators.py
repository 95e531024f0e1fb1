import numpy as np
import numpy.testing as npt
import pytest

from isoclinic import generators
from isoclinic.analysis import (
    IsoclinicProfile,
    TwoPlaneOrbit,
    full_profile,
    isoclinic_profile_angles,
    two_plane_orbit,
)
from isoclinic.errors import (
    DimensionError,
    FalsificationError,
    InfeasibleParametersError,
    NotIsoclinicError,
)
from isoclinic.generators import (
    _quaternion_cholesky,
    direct_sum,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_profile_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
    random_sp,
)
from isoclinic.orbits import orbit_label
from isoclinic.quaternions import (
    I,
    J,
    K,
    Quaternion,
    basis_change_homothety,
    qarr_conj,
    qarr_mul,
    right_multiply,
    structure_matrix,
)
from isoclinic.subspaces import Frame, gram, orthonormalize, structure_image


class TestRandomSp:
    def test_unitarity_over_seeds(self):
        for seed in range(16):
            g = random_sp(4, seed)
            R = g.real_matrix()
            npt.assert_allclose(R @ R.T, np.eye(16), atol=1e-10)

    def test_commutes_with_structures(self):
        g = random_sp(3, 7)
        R = g.real_matrix()
        for A in (I, J, K):
            M = structure_matrix(A, 3)
            assert np.max(np.abs(R @ M - M @ R)) < 1e-12

    def test_n1_is_left_unit_quaternion(self):
        g = random_sp(1, 3)
        assert abs(np.linalg.norm(g.matrix[0, 0]) - 1.0) < 1e-12
        # preserves the characteristic line H (trivially all of H^1) and norms
        x = np.array([1.0, 2.0, -0.5, 0.25])
        npt.assert_allclose(np.linalg.norm(g.apply(x)), np.linalg.norm(x))

    def test_reproducible(self):
        npt.assert_array_equal(random_sp(2, 11).matrix, random_sp(2, 11).matrix)

    def test_zero_n_rejected(self):
        with pytest.raises(DimensionError):
            random_sp(0, 1)

    def test_nan_draw_fails_self_check(self, monkeypatch):
        class NanRng:
            def standard_normal(self, shape):
                return np.full(shape, np.nan)

        monkeypatch.setattr(generators.np.random, "default_rng", lambda seed: NanRng())
        with pytest.raises(FalsificationError, match="defect nan"):
            random_sp(3, 1)


class TestNanSelfChecks:
    """A NaN measurement fails every generator self-check."""

    def test_two_plane_mismatch(self, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(
            generators, "two_plane_orbit",
            lambda plane: TwoPlaneOrbit(Quaternion(0.0, nan, nan, nan),
                                        (nan, nan, nan), nan, nan, False),
        )
        with pytest.raises(FalsificationError, match="mismatch nan"):
            make_two_plane(2, 0.9, 1.1, 1.2)

    def test_profile_4_mismatch(self, monkeypatch):
        monkeypatch.setattr(
            generators, "full_profile",
            lambda U: IsoclinicProfile(4, *[float("nan")] * 8),
        )
        with pytest.raises(FalsificationError, match="mismatch nan"):
            make_profile_4(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, n=2)

    def test_quaternion_cholesky(self):
        H = np.zeros((2, 2, 4))
        H[0, 0, 0] = H[1, 1, 0] = 1.0
        H[0, 1, 1] = np.nan
        with pytest.raises(InfeasibleParametersError, match="not PSD"):
            _quaternion_cholesky(H)

    def test_quaternion_cholesky_recovers_factor(self, rng):
        k = 5
        R0 = rng.standard_normal((k, k, 4)) * np.triu(np.ones((k, k)))[..., None]
        R0[np.arange(k), np.arange(k)] = [[1.0 + p, 0.0, 0.0, 0.0] for p in range(k)]
        H = np.zeros_like(R0)
        for p in range(k):
            for q in range(k):
                H[p, q] = qarr_mul(qarr_conj(R0[:, p]), R0[:, q]).sum(axis=0)
        npt.assert_allclose(_quaternion_cholesky(H), R0, rtol=0, atol=1e-12)


class TestNonFiniteParameters:
    """NaN or infinite parameters are infeasible, not a frame defect."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("make", [
        lambda x: make_two_plane(2, x, 1.0, 1.0),
        lambda x: make_two_plane(2, 0.9, 1.1, 1.2, x, 1.0),
        lambda x: make_i_complex_4(2, x),
        lambda x: make_profile_4(1.3, 1.4, 0.8, -0.3, x, 0.1),
        lambda x: make_profile_4(x, 1.4, 0.8, -0.3, 0.5, 0.1),
        lambda x: graph_subspace([x, 0.0, 0.0, 0.0]),
        lambda x: graph_subspace(x),
    ], ids=["two_plane-angle", "two_plane-sign", "i_complex_4", "profile_4-chi",
            "profile_4-angle", "graph-vector", "graph-scalar"])
    def test_rejected_as_infeasible(self, make, bad):
        with pytest.raises(InfeasibleParametersError, match="must be finite"):
            make(bad)


class TestExampleFamilies:
    def test_quaternionic_line_profile(self):
        prof = full_profile(make_quaternionic_line(2, 1))
        npt.assert_allclose(prof.cosines, [1, 1, 1], atol=1e-12)
        npt.assert_allclose(
            [prof.xi, prof.chi, prof.eta, prof.gamma, prof.delta],
            [0, 0, 0, 0, -1],
            atol=1e-12,
        )

    def test_i_complex_profile(self):
        theta = 0.9
        prof = full_profile(make_i_complex_4(2, theta))
        npt.assert_allclose(
            prof.cosines, [1, np.cos(theta), np.cos(theta)], atol=1e-9
        )
        npt.assert_allclose([prof.xi, prof.chi, prof.eta], [0, 0, 0], atol=1e-9)
        npt.assert_allclose([prof.gamma, prof.delta], [0, -1], atol=1e-9)

    def test_i_complex_is_i_invariant(self):
        U = make_i_complex_4(2, 0.9)
        IU = structure_image(I, U)
        s = np.linalg.svd(gram(U, IU), compute_uv=False)
        npt.assert_allclose(s, np.ones(4), atol=1e-12)

    def test_totally_complex_profile(self):
        prof = full_profile(make_totally_complex_4(2))
        npt.assert_allclose(prof.cosines, [1, 0, 0], atol=1e-12)

    def test_rhp_profile(self):
        prof = full_profile(make_rhp(3, 2))
        npt.assert_allclose(prof.cosines, [0, 0, 0], atol=1e-12)
        assert (prof.xi, prof.chi, prof.eta) == (1.0, 1.0, 1.0)

    def test_rhp_needs_enough_coordinates(self):
        with pytest.raises(InfeasibleParametersError):
            make_rhp(2, 3)

    def test_two_plane_rhp_measure_vanishes(self):
        P = make_two_plane(2, np.pi / 2, np.pi / 2, np.pi / 2)
        npt.assert_allclose(two_plane_orbit(P).im.as_array(), np.zeros(4), atol=1e-12)

    def test_two_plane_requested_measure(self):
        ti, tj, tk = 0.8, 1.1, 1.3
        P = make_two_plane(2, ti, tj, tk, -1.0, 1.0)
        orb = two_plane_orbit(Frame(P.vectors))
        want = [np.cos(ti), -np.cos(tj), np.cos(tk)]
        got = orb.im.as_array()[1:]
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) < 1e-9

    def test_two_plane_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            make_two_plane(2, 0.1, 0.2, 0.3)
        with pytest.raises(InfeasibleParametersError):
            make_two_plane(2, 0.9, 1.1, 1.2, xi=0.5)


class TestGraphSubspace:
    def test_mu_zero_is_quaternionic_line(self):
        U = graph_subspace(0.0)
        prof = full_profile(U)
        npt.assert_allclose(prof.cosines, [1, 1, 1], atol=1e-12)

    def test_mu_commuting_with_i_is_i_invariant(self):
        U = graph_subspace(np.array([0.7, -0.4, 0.0, 0.0]))
        prof = full_profile(U)
        assert prof.cosines[0] == pytest.approx(1.0, abs=1e-12)

    def test_generic_mu_certified(self, rng):
        for _ in range(4):
            U = graph_subspace(rng.standard_normal(4))
            assert isoclinic_profile_angles(U) is not None


class TestMakeProfile4:
    def test_delta_sign_pair(self):
        args = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)
        up = full_profile(make_profile_4(*args, delta_sign=+1))
        um = full_profile(make_profile_4(*args, delta_sign=-1))
        assert up.delta == pytest.approx(-um.delta, abs=1e-9)
        assert up.delta > 0 > um.delta
        npt.assert_allclose(
            [up.xi, up.chi, up.eta, up.gamma], [um.xi, um.chi, um.eta, um.gamma],
            atol=1e-9,
        )

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleParametersError):
            make_profile_4(0.0, 0.7, 0.7, 0.0, 0.0, 0.0, delta_sign=+1)
        with pytest.raises(InfeasibleParametersError):
            make_profile_4(0.5, 0.9, 1.1, 0.2, -0.3, 1.5)

    def test_self_check_failure_is_package_error(self):
        # eta exactly -1 with chi = -xi needs Gamma = -1, but an invariant
        # exactly at +/-1 builds the convention's (1, 0): the measured eta misses
        with pytest.raises(FalsificationError, match=r"mismatch \d\.\d{3}e[+-]\d+"):
            make_profile_4(1.2, 1.3, 1.4, 0.3, -0.3, -1.0)

    def test_quaternionic_line_reproduced(self):
        U = make_profile_4(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, delta_sign=-1, n=2)
        prof = full_profile(U)
        npt.assert_allclose(prof.cosines, [1, 1, 1], atol=1e-9)
        assert prof.delta == pytest.approx(-1.0, abs=1e-9)


class TestDirectSum:
    def test_two_identical_two_planes(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P])
        prof = full_profile(U)
        assert U.dim == 4 and U.n == 4
        assert (prof.gamma, prof.delta) == (1.0, 0.0)

    def test_two_quaternionic_lines(self):
        U = direct_sum([make_quaternionic_line(1), make_quaternionic_line(1)])
        assert U.dim == 8
        npt.assert_allclose(full_profile(U).cosines, [1, 1, 1], atol=1e-12)

    def test_mismatched_angles_rejected(self):
        P1 = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, 1.0)
        P2 = make_two_plane(2, 0.8, 1.1, 1.2, 1.0, 1.0)
        with pytest.raises(NotIsoclinicError):
            direct_sum([P1, P2])

    def test_opposite_delta_rejected(self):
        args = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)
        up = make_profile_4(*args, delta_sign=+1)
        um = make_profile_4(*args, delta_sign=-1)
        with pytest.raises(NotIsoclinicError):
            direct_sum([up, um])

    def test_hermitian_orthogonal_blocks(self):
        U = direct_sum([make_quaternionic_line(1), make_quaternionic_line(1)])
        # parts land in disjoint quaternionic blocks
        assert np.max(np.abs(U.vectors[:4, 4:])) == 0.0
        assert np.max(np.abs(U.vectors[4:, :4])) == 0.0

    def test_empty_sum_rejected(self):
        with pytest.raises(DimensionError):
            direct_sum([])


class TestRotatedBasisLaws:
    def test_s_invariant_under_rotations(self, rng):
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        base = full_profile(U).s_invariant
        for _ in range(16):
            A = rng.standard_normal((3, 3))
            Q, _ = np.linalg.qr(A)
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            moved = Frame(right_multiply(U.vectors, basis_change_homothety(Q)))
            assert abs(full_profile(moved).s_invariant - base) < 1e-10

    def test_i_complex_xi_transformation_law(self, rng):
        # the rotated invariants carry the sign of alpha1 beta1 and scale
        # with 1 - cos^2 theta over the rotated pair cosines; the triple is
        # genuinely basis dependent
        theta = 0.9
        c = np.cos(theta)
        U = make_i_complex_4(2, theta)

        def pair_cos(x1):
            return np.sqrt(x1**2 + (1 - x1**2) * c**2)

        seen_nonzero = False
        for _ in range(8):
            A = rng.standard_normal((3, 3))
            Q, _ = np.linalg.qr(A)
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            moved = Frame(right_multiply(U.vectors, basis_change_homothety(Q)))
            prof = full_profile(moved)
            a1, b1, g1 = Q[0, 0], Q[0, 1], Q[0, 2]
            want = np.array([
                a1 * b1 * (1 - c**2) / (pair_cos(a1) * pair_cos(b1)),
                a1 * g1 * (1 - c**2) / (pair_cos(a1) * pair_cos(g1)),
                b1 * g1 * (1 - c**2) / (pair_cos(b1) * pair_cos(g1)),
            ])
            npt.assert_allclose([prof.xi, prof.chi, prof.eta], want, atol=1e-8)
            if abs(prof.xi) > 1e-3:
                seen_nonzero = True
        assert seen_nonzero


class TestOracle:
    def test_quaternionic_line(self):
        report = invariance_oracle(make_quaternionic_line(2), trials=10, seed=0)
        assert report.passed
        assert report.max_profile_deviation < 1e-8

    def test_graph_subspace(self):
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        report = invariance_oracle(U, trials=10, seed=1)
        assert report.passed
        assert report.max_profile_deviation < 1e-7

    def test_gate_refusal(self, rng):
        U = orthonormalize(np.eye(8)[[0, 2, 4, 5]])
        with pytest.raises(NotIsoclinicError):
            invariance_oracle(U, trials=1, seed=0)

    def test_failures_are_recorded(self):
        # an impossible tolerance turns ordinary float noise into failures
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        report = invariance_oracle(U, trials=2, seed=0, tol=1e-18)
        assert not report.passed
        assert report.failures


class TestOrbitOfSums:
    def test_group_motion_preserves_label(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P])
        g = random_sp(U.n, seed=5)
        assert orbit_label(U).agrees(orbit_label(g.apply_frame(U)))
