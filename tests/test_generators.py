import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from isoclinic import analysis, generators, subspaces
from isoclinic.analysis import (
    TwoPlaneOrbit,
    build_chains,
    certify_isoclinic,
    companions,
    full_profile,
    gamma_delta,
    isoclinic_pair,
    isoclinic_profile_angles,
    two_plane_orbit,
)
from isoclinic.errors import (
    DegenerateChainError,
    DimensionError,
    FalsificationError,
    FrameError,
    InfeasibleParametersError,
    IsoclinicError,
    NotIsoclinicError,
    RankDeficiencyError,
    StructureError,
)
from isoclinic.generators import (
    SpElement,
    _quaternion_cholesky,
    direct_sum,
    embed,
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
from isoclinic.orbits import (canonical_matrices, decompose, eight_dim_addend, orbit_label,
                              same_orbit)
from isoclinic.quaternions import (
    CompatibleStructure,
    I,
    J,
    K,
    apply_structure,
    hermitian_product,
    qarr_conj,
    qarr_mul,
    quaternion_from_rotation,
    right_multiply,
)
from isoclinic.subspaces import Frame, gram, orthonormalize, project, structure_image
from isoclinic.tolerances import EPS_ISO
from conftest import structure_matrix


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
        # the first column (P; conj R) holds the one entry P + R j
        assert abs(np.linalg.norm(g.matrix[:, 0]) - 1.0) < 1e-12
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


class TestSpElement:
    """The constructor refuses a matrix that is not the complex
    [[P, -R], [conj R, conj P]] of a quaternionic unitary g = P + R j."""

    @pytest.mark.parametrize("matrix", [
        np.eye(4),  # real
        np.eye(3, dtype=complex),  # odd size
        np.eye(4, dtype=complex)[:, :2],  # not square
        np.eye(4, dtype=complex)[None],  # not a matrix
    ])
    def test_shape_and_type_refused(self, matrix):
        with pytest.raises(DimensionError, match="complex"):
            SpElement(matrix)

    def test_not_unitary_refused(self):
        with pytest.raises(FalsificationError, match="unitarity defect"):
            SpElement(1.001 * random_sp(3, 1).matrix)

    def test_unitary_of_another_form_refused(self):
        # complex unitaries that are no quaternionic matrix: a phase on one
        # diagonal block only, and a Haar unitary of U(4)
        with pytest.raises(FalsificationError, match=r"conj P\]\] defect 1\.414"):
            SpElement(np.diag([1.0, 1j]))
        Z = np.random.default_rng(0).standard_normal((4, 8)).view(complex)
        with pytest.raises(FalsificationError, match=r"not an element of Sp\(2\)"):
            SpElement(np.linalg.qr(Z)[0])

    @pytest.mark.parametrize("x", [np.eye(6), np.eye(12)[:2], np.zeros(4), 1.0],
                             ids=["width-6", "width-12", "width-4", "scalar"])
    def test_apply_refuses_other_widths(self, x):
        with pytest.raises(DimensionError, match=r"^expected rows of width 8, got shape"):
            random_sp(2, 1).apply(x)

    def test_accepts_within_tolerance(self):
        M = random_sp(4, 2).matrix
        assert SpElement(M + 1e-12 * np.eye(8)).n == 4
        assert SpElement([[1.0 + 0j, 0.0], [0.0, 1.0]]).n == 1


class TestNanSelfChecks:
    """A NaN measurement fails every generator self-check."""

    def test_two_plane_mismatch(self, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(
            generators, "two_plane_orbit",
            lambda plane: TwoPlaneOrbit(np.array([0.0, nan, nan, nan]),
                                        (nan, nan, nan), nan, nan, False),
        )
        with pytest.raises(FalsificationError, match="mismatch nan"):
            make_two_plane(2, 0.9, 1.1, 1.2)

    def test_profile_4_mismatch(self, monkeypatch):
        monkeypatch.setattr(generators, "_profile_row", lambda U: np.full(8, float("nan")))
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
        npt.assert_allclose(two_plane_orbit(P).im, np.zeros(4), atol=1e-12)

    def test_two_plane_requested_measure(self):
        ti, tj, tk = 0.8, 1.1, 1.3
        P = make_two_plane(2, ti, tj, tk, -1.0, 1.0)
        orb = two_plane_orbit(Frame(P.vectors))
        want = [np.cos(ti), -np.cos(tj), np.cos(tk)]
        got = orb.im[1:]
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) < 1e-9

    def test_two_plane_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            make_two_plane(2, 0.1, 0.2, 0.3)
        with pytest.raises(InfeasibleParametersError):
            make_two_plane(2, 0.9, 1.1, 1.2, xi=0.5)

    @pytest.mark.parametrize("args,name", [
        ((2, 0.9, 2.0, 1.2, 0.5, 1.0), "xi"),
        ((2, 0.9, 1.1, 2.2, 1.0, 0.3), "chi"),
        ((2, np.pi / 2, np.pi, np.pi / 2, 0.5, 0.3), "xi"),
        ((2, 0.9, 2.0, 2.2, 1.0, -0.3), "chi"),
    ])
    def test_two_plane_sign_checked_on_a_negative_cosine(self, args, name):
        # theta in (pi/2, pi] has a negative cosine, which is nonzero too: the
        # sign was let through and the frame failed its Gram check
        with pytest.raises(InfeasibleParametersError, match=f"^{name} must be \\+/-1 when"):
            make_two_plane(*args)

    @pytest.mark.parametrize("args", [
        (2, 0.9, 2.0, 1.2, 1.0, 1.0),
        (2, 0.9, 2.0, 1.2, -1.0, 1.0),
        (2, 0.9, 1.1, 2.2, 1.0, -1.0),
        (2, np.pi / 2, np.pi, np.pi / 2, -1.0, 0.3),
    ])
    def test_two_plane_negative_cosine_with_unit_sign(self, args):
        # the |cos| check keeps the +/-1 signs, and the chi of a zero cosine free
        _, ti, tj, tk, xi, chi = args
        orbit = two_plane_orbit(make_two_plane(*args))
        npt.assert_allclose(orbit.im,
                            [0.0, np.cos(ti), xi * np.cos(tj), chi * np.cos(tk)], atol=1e-12)


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

    @pytest.mark.parametrize("mu", [[1.0, 2.0, 3.0], np.ones((2, 4)), "x", [[1.0, 2.0], [3.0]],
                                    np.ones(5), []],
                             ids=["three", "two-rows", "string", "ragged", "five", "empty"])
    def test_mu_not_four_numbers_refused_by_name(self, mu):
        # not numpy's bare ValueError from the reshape, broadcast or float conversion
        with pytest.raises(InfeasibleParametersError, match="^graph_subspace: mu must be a "):
            graph_subspace(mu)

    @pytest.mark.parametrize("mu", [[0.3, float("nan"), 0.0, 0.0], float("inf"), None],
                             ids=["nan", "inf", "none"])
    def test_mu_not_finite_refused_by_name(self, mu):
        # a scalar None converts to the quaternion (nan, 0, 0, 0)
        with pytest.raises(InfeasibleParametersError,
                           match="^graph_subspace: parameters must be finite$"):
            graph_subspace(mu)

    def test_real_mu_is_its_quaternion(self):
        npt.assert_array_equal(graph_subspace(0.5).vectors,
                               graph_subspace([0.5, 0.0, 0.0, 0.0]).vectors)


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

    @pytest.mark.parametrize("delta_sign", [0, 5, -2, 0.5, float("nan"), float("inf")])
    def test_bad_delta_sign_refused_by_name(self, delta_sign):
        # 0 and 5 reached the Cholesky and were refused as a negative pivot
        with pytest.raises(InfeasibleParametersError,
                           match=f"^delta_sign must be -1 or \\+1, got {delta_sign}$"):
            make_profile_4(1.2, 1.3, 1.4, 0.3, 0.2, 0.1, delta_sign=delta_sign)

    def test_self_check_failure_is_package_error(self, monkeypatch):
        # a built subspace whose measured eta misses the request by 1e-3
        real = generators._profile_row
        monkeypatch.setattr(generators, "_profile_row", lambda U: real(U) + np.eye(8)[5] * 1e-3)
        with pytest.raises(FalsificationError, match=r"mismatch 1\.000e-03"):
            make_profile_4(1.2, 1.3, 1.4, 0.3, -0.3, 0.2)

    @pytest.mark.parametrize("delta_sign", [+1, -1])
    @pytest.mark.parametrize("xi,chi,eta", [(0.1697, -0.1697, -1.0), (0.3, -0.3, -1.0),
                                            (0.1697, 0.1697, 1.0), (-0.6, -0.6, 1.0),
                                            (0.0, 0.0, -1.0)])
    def test_eta_exactly_pm1(self, xi, chi, eta, delta_sign):
        # eta = +/-1 with |xi|, |chi| < 1 needs chi = eta xi and Gamma = eta;
        # the profile then counts eta as its sign, with (Gamma, Delta) = (1, 0)
        prof = full_profile(make_profile_4(1.2042, 1.3262, 1.1837, xi, chi, eta,
                                           delta_sign=delta_sign))
        npt.assert_allclose([prof.xi, prof.chi, prof.eta], [xi, chi, eta], rtol=0, atol=1e-12)
        assert (prof.gamma, prof.delta) == (1.0, 0.0)

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
    def test_cos2_sum_under_rotations(self, rng):
        # cos^2 theta_I + cos^2 theta_J + cos^2 theta_K is basis independent
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        base = np.sum(full_profile(U).cosines**2)
        for _ in range(16):
            A = rng.standard_normal((3, 3))
            Q, _ = np.linalg.qr(A)
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            moved = Frame(right_multiply(U.vectors, quaternion_from_rotation(Q)))
            assert abs(np.sum(full_profile(moved).cosines**2) - base) < 1e-10

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
            moved = Frame(right_multiply(U.vectors, quaternion_from_rotation(Q)))
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

    @pytest.mark.parametrize("rows,error", [([0, 2, 4, 5], NotIsoclinicError),
                                            ([0, 2, 4], DimensionError)],
                             ids=["not-isoclinic", "odd-dim"])
    @pytest.mark.parametrize("trials", [1, 13])
    def test_gate_refusal(self, rows, error, trials):
        # the input is measured in the first block's pass, and refused as
        # full_profile refuses it: the same text, witness and deviation
        U = orthonormalize(np.eye(8)[rows])
        with pytest.raises(error) as want:
            full_profile(U)
        with pytest.raises(error) as got:
            invariance_oracle(U, trials=trials, seed=0)
        assert str(got.value) == str(want.value)
        if error is NotIsoclinicError:
            assert got.value.witness == want.value.witness
            assert got.value.deviation == want.value.deviation

    def test_failures_are_recorded(self, monkeypatch):
        # an impossible tolerance turns ordinary float noise into failures
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        monkeypatch.setattr(generators, "EPS_ORBIT", 1e-18)
        report = invariance_oracle(U, trials=2, seed=0)
        assert not report.passed
        assert report.failures

    def test_pair_defect_at_the_gate_tolerance_is_a_failure(self, monkeypatch):
        # a structure whose pair (gU, A gU) reaches EPS_ISO fails its trial,
        # and no theta_A error is read off it
        combined = generators._combined_defects

        def reaching(C, forms):
            defects, c2 = combined(C, forms)
            defects[0, 3] = EPS_ISO
            return defects, c2

        monkeypatch.setattr(generators, "_combined_defects", reaching)
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        report = invariance_oracle(U, trials=2, seed=0)
        assert report.failures == ("trial 0: pair (gU, A gU) not isoclinic",)
        assert not report.passed

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        # a report of no motions would pass with nothing checked
        with pytest.raises(InfeasibleParametersError, match=f"trials >= 1, got {trials}"):
            invariance_oracle(graph_subspace(0.5), trials=trials, seed=1)


class TestSeeds:
    @pytest.mark.parametrize("call,seed", [
        (lambda s: random_sp(2, s), -1),
        (lambda s: random_sp(2, s), 1.5),
        (lambda s: invariance_oracle(graph_subspace(0.5), 2, s), -1),
        (lambda s: decompose(graph_subspace(0.5), seed=s), -1),
        (lambda s: decompose(direct_sum([graph_subspace(0.5)] * 2), seed=s), -1),
        (lambda s: decompose(graph_subspace(0.5), seed=s), 2.5),
    ])
    def test_refused_seed_is_named(self, call, seed):
        with pytest.raises(InfeasibleParametersError, match=f"seed {seed} is not"):
            call(seed)


class TestCounts:
    @pytest.mark.parametrize("call,error,name", [
        (lambda: random_sp(2.5, 1), DimensionError, "n"),
        (lambda: invariance_oracle(graph_subspace(0.5), 2.5, 1), InfeasibleParametersError,
         "trials"),
        (lambda: make_rhp(2.5, 1), DimensionError, "n"),
        (lambda: make_rhp(4, 2.5), InfeasibleParametersError, "k"),
        (lambda: make_rhp(4, "2"), InfeasibleParametersError, "k"),
        (lambda: make_two_plane(0, 0.0, np.pi / 2, np.pi / 2), DimensionError, "n"),
        (lambda: make_two_plane(-1, 0.0, np.pi / 2, np.pi / 2), DimensionError, "n"),
        (lambda: make_quaternionic_line(2.5), DimensionError, "n"),
        (lambda: make_quaternionic_line(2, 0.5), InfeasibleParametersError, "index"),
        (lambda: make_totally_complex_4(2.5), InfeasibleParametersError, "n"),
        (lambda: make_i_complex_4(2.5, 0.3), InfeasibleParametersError, "n"),
        (lambda: graph_subspace(0.5, 2.5), DimensionError, "n"),
        (lambda: make_profile_4(1.2, 1.3, 1.4, 0.3, 0.2, 0.1, n=4.5), DimensionError, "n"),
        (lambda: embed(graph_subspace(0.5), 2.5, 0), DimensionError, "n"),
        (lambda: embed(graph_subspace(0.5), 3, 0.5), DimensionError, "block_offset"),
    ], ids=["random_sp", "oracle", "rhp-n", "rhp-k", "rhp-k-str", "twoplane-0", "twoplane-neg",
            "qline-n", "qline-index", "tcomplex4", "icomplex4", "graph", "profile4", "embed-n",
            "embed-offset"])
    def test_bad_count_is_refused_by_name(self, call, error, name):
        # not a bare TypeError, IndexError or ValueError from numpy
        with pytest.raises(error, match=f"expected an integer {name} >= "):
            call()

    # only n = 10^18, whose rows numpy refuses to size: a smaller huge n would
    # try to allocate them
    @pytest.mark.parametrize("call", [
        lambda n: make_rhp(n, 2),
        lambda n: make_quaternionic_line(n),
        lambda n: make_totally_complex_4(n),
        lambda n: make_i_complex_4(n, 0.3),
        lambda n: make_two_plane(n, 0.9, 1.1, 1.2),
        lambda n: graph_subspace(0.5, n),
        lambda n: make_profile_4(1.2, 1.3, 1.4, 0.3, 0.2, 0.1, n=n),
        lambda n: embed(graph_subspace(0.5), n, 0),
    ], ids=["rhp", "qline", "tcomplex4", "icomplex4", "twoplane", "graph", "profile4", "embed"])
    def test_n_beyond_any_array_is_refused_by_name(self, call):
        with pytest.raises(InfeasibleParametersError, match=f"^n = {10**18} is too large: a "):
            call(10**18)


def _xi_off_pm1_plane():
    """canonical_matrices of a 2-plane given a profile whose xi is not +/-1."""
    P = make_two_plane(2, 0.9, 1.1, 1.2)
    return canonical_matrices(P, dataclasses.replace(full_profile(P), xi=0.5))


class TestRefusals:
    @pytest.mark.parametrize("call,error,message", [
        (lambda: embed(graph_subspace(0.5), 2, 1), DimensionError, "embedding does not fit"),
        (lambda: Frame(np.eye(3)), DimensionError, "ambient dimension 3 not a multiple of 4"),
        (lambda: Frame(np.ones((5, 4))), DimensionError, "more vectors than ambient dimensions"),
        (lambda: orthonormalize(np.empty((0, 4))), DimensionError, "empty spanning set"),
        (lambda: isoclinic_pair(Frame(np.eye(8)[:2]), Frame(np.eye(8)[:4])), DimensionError,
         "isoclinic_pair needs equal dims, got 2 != 4"),
        (lambda: two_plane_orbit(make_quaternionic_line(1)), DimensionError,
         "two_plane_orbit needs a 2-plane, got dim 4"),
        (lambda: hermitian_product(np.zeros(6), np.zeros(6)), DimensionError,
         "ambient dimension 6 is not a positive multiple of 4"),
        (lambda: hermitian_product(np.eye(4), np.eye(4)), DimensionError,
         "hermitian_product needs two vectors, got shape (4, 4)"),
        (lambda: make_quaternionic_line(2, 2), InfeasibleParametersError,
         "index 2 out of range for n=2"),
        (lambda: make_two_plane(1, 1.2, 1.3, 1.4), InfeasibleParametersError,
         "remainder component needs n >= 2"),
        (lambda: make_profile_4(1.2, 1.3, 1.4, 0.9, -0.9, 0.99), InfeasibleParametersError,
         "(xi, chi, eta) give |Gamma| = 9.473684 > 1"),
        (lambda: same_orbit(graph_subspace(0.5), graph_subspace(0.5), tol="x"),
         InfeasibleParametersError, "expected a finite tol > 0, got 'x'"),
        (_xi_off_pm1_plane, FalsificationError,
         "dim 2 = 2 mod 4 mandates xi, chi, eta in {+1,-1}, got (0.500000, 1.000000, 1.000000)"),
        (lambda: companions(graph_subspace(0.5), [1.0, 0.0, 0.0]), FrameError,
         "leading vector must be a vector of length 8, got shape (3,)"),
        (lambda: build_chains(graph_subspace(0.5), graph_subspace(0.5).vectors[:1]), FrameError,
         "leading vector must be a vector of length 8, got shape (1, 8)"),
        (lambda: eight_dim_addend(direct_sum([graph_subspace(0.5)] * 2), [1.0, 0.0, 0.0]),
         FrameError, "leading vector must be a vector of length 16, got shape (3,)"),
        (lambda: eight_dim_addend(direct_sum([graph_subspace(0.5)] * 2), np.eye(16)[:1]),
         FrameError, "leading vector must be a vector of length 16, got shape (1, 16)"),
        (lambda: project(graph_subspace(0.5), np.ones(12)), DimensionError,
         "expected a vector of length 8, got shape (12,)"),
        (lambda: apply_structure(I, np.ones((2, 6))), DimensionError,
         "ambient dimension 6 is not a positive multiple of 4"),
        (lambda: orthonormalize("abcd"), FrameError,
         "vectors are not a rectangular array of numbers"),
        (lambda: orthonormalize([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), FrameError,
         "vectors are not a rectangular array of numbers"),
        (lambda: orthonormalize(np.ones((2, 2, 4))), DimensionError,
         "vectors must be the rows of one (k, 4n) array, got shape (2, 2, 4)"),
        (lambda: CompatibleStructure("a", 0, 0), StructureError,
         "coefficients ('a', 0, 0) are not numbers"),
    ], ids=["embed-offset", "frame-ambient", "frame-rows", "orthonormalize-empty", "pair-dims",
            "two-plane-dim", "hermitian-ambient", "hermitian-matrices", "qline-index",
            "twoplane-remainder", "profile4-gamma", "same-orbit-tol", "two-plane-mandate",
            "companions-length", "chains-row", "addend-length", "addend-row", "project-length",
            "structure-ambient", "orthonormalize-text", "orthonormalize-ragged",
            "orthonormalize-3d", "structure-text"])
    def test_refused_by_name(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def _outcome(decide, inputs):
    # the value of the call, or the class of the package error it raised
    try:
        return decide(*inputs)
    except IsoclinicError as exc:
        return type(exc)


def _unequal_pair(theta):
    # span(e0, e1) against a plane at angles (0.5, theta): isoclinic only at theta = 0.5
    e = np.eye(4)
    return (Frame(e[[0, 1]]), Frame(np.vstack([np.cos(0.5) * e[0] + np.sin(0.5) * e[2],
                                              np.cos(theta) * e[1] + np.sin(theta) * e[3]])))


def _off_isoclinic():
    # a graph subspace moved off isoclinicity by a defect of order 1e-10
    U = graph_subspace([0.3, 0.4, -0.2, 0.6])
    rng = np.random.default_rng(1)
    return (orthonormalize(U.vectors + 1e-10 * rng.standard_normal(U.vectors.shape)),)


def _near_right_angle_plane():
    # theta_J a hair below pi/2: cos theta_J = 1e-10 counts as 0 at EPS_ANGLE
    P = make_two_plane(2, 0.9, np.pi / 2 - 1e-10, 1.2)
    return P, P.vectors[0]


def _generic_chains():
    U = make_profile_4(1.2, 1.3, 1.4, 0.3, 0.2, 0.1)
    return (build_chains(U, U.vectors[0]),)


class TestTolerances:
    # the thresholds the deleted tol options carried are the table's: each call
    # decides one way at the table's value and the other once the module's
    # constant moves past its input's defect (inputs are built at the table's value)
    @pytest.mark.parametrize("module,constant,moved,make,decide,at_table,at_moved", [
        (subspaces, "EPS_FRAME", 1e-12,
         lambda: (np.eye(8)[[0, 1]] + 1e-10 * np.eye(8)[[1, 0]],),
         lambda v: Frame(v).dim, 2, FrameError),
        (subspaces, "EPS_RANK", 1e-8,
         lambda: (np.eye(8)[[0, 1]].tolist() + [np.eye(8)[0] + 1e-9 * np.eye(8)[2]],),
         lambda rows: orthonormalize(rows).dim, 3, RankDeficiencyError),
        (analysis, "EPS_ISO", 1e-13, lambda: _unequal_pair(0.5 + 1e-10),
         lambda U, W: isoclinic_pair(U, W) is not None, True, False),
        (analysis, "EPS_ISO", 1e-13, _off_isoclinic,
         lambda U: isoclinic_profile_angles(U) is not None, True, False),
        (analysis, "EPS_ISO", 1e-13, _off_isoclinic,
         lambda U: len(certify_isoclinic(U)), 3, NotIsoclinicError),
        (analysis, "EPS_ISO", 1e-13, _off_isoclinic,
         lambda U: full_profile(U).dim_class, 4, NotIsoclinicError),
        (analysis, "EPS_ANGLE", 1e-12, _near_right_angle_plane,
         lambda U, x: companions(U, x).forced,
         ("Y2 identified (cos theta_J = 0)",), ()),
        (analysis, "EPS_ANGLE", 1e-12, lambda: (make_i_complex_4(2, np.pi / 2 - 1e-10),),
         lambda U: build_chains(U, U.vectors[0]).forced,
         ("Y2 identified (cos theta_J = 0)", "Z2 identified (cos theta_K = 0)"), ()),
        (analysis, "EPS_CHAIN", 1e-18, _generic_chains,
         lambda chains: len(gamma_delta(chains)), 2, DegenerateChainError),
        (analysis, "EPS_ANGLE", 1e-12,
         lambda: tuple(two_plane_orbit(make_two_plane(2, t, 1.1, 1.2)) for t in (0.9, 0.9 + 1e-10)),
         lambda a, b: a.same_orbit(b), True, False),
        (generators, "EPS_ANGLE", 1e-12,
         lambda: ([make_i_complex_4(2, 0.8), make_i_complex_4(2, 0.8 + 1e-10)],),
         lambda parts: direct_sum(parts).dim, 8, NotIsoclinicError),
        (generators, "EPS_ORBIT", 1e-18, lambda: (graph_subspace([0.3, 0.4, -0.2, 0.6]),),
         lambda U: invariance_oracle(U, 2, 0).passed, True, False),
    ], ids=["frame", "orthonormalize", "isoclinic_pair", "angles", "certify", "full_profile",
            "companions", "build_chains", "gamma_delta", "two_plane_same_orbit", "direct_sum",
            "oracle"])
    def test_threshold_is_read_from_the_table(self, monkeypatch, module, constant, moved, make,
                                              decide, at_table, at_moved):
        inputs = make()
        assert _outcome(decide, inputs) == at_table
        monkeypatch.setattr(module, constant, moved)
        assert _outcome(decide, inputs) == at_moved

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda U, tol: same_orbit(U, U, tol),
    ], ids=["same_orbit"])
    def test_refused_by_name(self, call, tol):
        # nan made every label comparison false, on an isoclinic input and on
        # one that fails the gate
        for U in (graph_subspace(0.5), orthonormalize(np.eye(8)[[0, 2, 4, 5]])):
            with pytest.raises(InfeasibleParametersError, match=f"finite tol > 0, got {tol}"):
                call(U, tol)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda U, x, tol: orbit_label(U).agrees(orbit_label(U), tol),
    ], ids=["agrees"])
    def test_public_tolerances_refused_by_name(self, call, tol):
        # nan made every comparison false: agrees refused a label itself
        U = graph_subspace(0.5)
        with pytest.raises(InfeasibleParametersError, match=f"finite tol > 0, got {tol}"):
            call(U, U.vectors[0], tol)


class TestOrbitOfSums:
    def test_group_motion_preserves_label(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P])
        g = random_sp(U.n, seed=5)
        assert orbit_label(U).agrees(orbit_label(g.apply_frame(U)))
