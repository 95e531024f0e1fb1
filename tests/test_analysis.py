import numpy as np
import numpy.testing as npt
import pytest

from isoclinic.analysis import (
    build_chains,
    certify_isoclinic,
    cij_block_4,
    cik_block_4,
    companions,
    full_profile,
    gamma_delta,
    isoclinic_pair,
    isoclinic_profile_angles,
    omega_K_on_UIJ,
    omega_matrix,
    omega_pattern_4,
    theta_of_A,
    two_plane_orbit,
)
from isoclinic.errors import DimensionError, FrameError, IsoclinicError, NotIsoclinicError
from isoclinic.generators import (
    direct_sum,
    graph_subspace,
    random_sp,
    make_i_complex_4,
    make_profile_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
)
from isoclinic.quaternions import CompatibleStructure, I, J, K, apply_structure
from isoclinic.subspaces import Frame, OrientedTwoPlane, orthonormalize, structure_image
from conftest import bench_workloads, chain_profile, perturbed_graph_sum, random_unit_in, unit


GENERIC_MU = np.array([0.3, 0.4, -0.2, 0.6])


def random_structure(rng) -> CompatibleStructure:
    v = rng.standard_normal(3)
    return CompatibleStructure(*(v / np.linalg.norm(v)))


def quaternionic_chain_frame(n=2):
    e = unit(n, 0)
    return Frame(np.vstack([
        e, -apply_structure(I, e), -apply_structure(K, e), -apply_structure(J, e),
    ]))


class TestOmegaMatrix:
    def test_rhp_vanishes(self):
        U = make_rhp(4, 4)
        for A in (I, J, K):
            npt.assert_allclose(omega_matrix(U, A), np.zeros((4, 4)), atol=1e-14)

    def test_quaternionic_chain_normal_form(self):
        U = quaternionic_chain_frame()
        npt.assert_allclose(omega_matrix(U, I), omega_pattern_4(1, 0, 0), atol=1e-14)

    def test_standard_two_plane(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        w = omega_matrix(P, I)
        npt.assert_allclose(w, [[0, np.cos(0.9)], [-np.cos(0.9), 0]], atol=1e-12)

    def test_skew(self, rng):
        U = orthonormalize(rng.standard_normal((3, 8)))
        w = omega_matrix(U, J)
        npt.assert_allclose(w + w.T, np.zeros((3, 3)), atol=1e-12)


class TestIsoclinicPair:
    def test_self(self, rng):
        U = orthonormalize(rng.standard_normal((3, 8)))
        assert isoclinic_pair(U, U) == pytest.approx(0.0, abs=1e-7)

    def test_two_plane_always_isoclinic_with_image(self, rng):
        for _ in range(5):
            P = orthonormalize(rng.standard_normal((2, 8)))
            A = random_structure(rng)
            assert isoclinic_pair(P, structure_image(A, P)) is not None

    def test_non_isoclinic_pair(self):
        e = np.eye(8)
        U = Frame(e[[0, 1]])
        W = Frame(e[[0, 2]])
        assert isoclinic_pair(U, W) is None


class TestProfileAngles:
    def test_quaternionic_line(self):
        angles = isoclinic_profile_angles(make_quaternionic_line(2))
        npt.assert_allclose(np.cos(angles), [1, 1, 1], atol=1e-12)

    def test_rhp(self):
        angles = isoclinic_profile_angles(make_rhp(4, 4))
        npt.assert_allclose(angles, [np.pi / 2] * 3, atol=1e-12)

    def test_non_isoclinic_mixture(self):
        # one paired coordinate block plus two unpaired directions: the
        # I-form has singular values 1, 1, 0, 0
        e = np.eye(8)
        U = Frame(e[[0, 2, 4, 5]])
        assert isoclinic_profile_angles(U) is None
        with pytest.raises(NotIsoclinicError) as err:
            certify_isoclinic(U)
        assert err.value.witness is not None

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            isoclinic_profile_angles(make_rhp(4, 3))

    def test_mixed_sign_two_plane_sum_rejected(self):
        # same angles, opposite xi: the three coordinate pairs are all
        # isoclinic, but the two normal forms carry opposite sign choices
        # and mixed structures break; the gate must not certify this
        p_plus = make_two_plane(2, 0.9, 1.1, 1.2, +1.0, 1.0)
        p_minus = make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0)
        V = np.zeros((4, 16))
        V[:2, :8] = p_plus.vectors
        V[2:, 8:] = p_minus.vectors
        U = Frame(V)
        for A in (I, J, K):
            assert isoclinic_pair(U, structure_image(A, U)) is not None
        assert isoclinic_profile_angles(U) is None
        with pytest.raises(NotIsoclinicError) as err:
            certify_isoclinic(U)
        # the witness names a genuinely failing mixed structure
        A = CompatibleStructure(*err.value.witness)
        assert isoclinic_pair(U, structure_image(A, U)) is None

    def test_mixed_sign_sum_rejected_in_dim8(self):
        # the same anomaly in dim 8, where no sign pattern of normal forms applies
        p_plus = make_two_plane(2, 0.9, 1.1, 1.2, +1.0, 1.0)
        p_minus = make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0)
        V = np.zeros((8, 32))
        V[:2, :8] = p_plus.vectors
        V[2:4, 8:16] = p_minus.vectors
        V[4:6, 16:24] = p_plus.vectors
        V[6:, 24:] = p_minus.vectors
        assert isoclinic_profile_angles(Frame(V)) is None


    def test_sup_defect_above_tolerance_rejected(self, rng):
        # sampled structures certified this input; its sup defect is 1.101e-8
        U = perturbed_graph_sum(8, 2)
        with pytest.raises(NotIsoclinicError) as err:
            certify_isoclinic(U)
        assert err.value.deviation == pytest.approx(1.10107e-8, rel=1e-5)
        A = CompatibleStructure(*err.value.witness)
        assert isoclinic_pair(U, structure_image(A, U)) is None
        # no random structure does worse than the witness
        for _ in range(50):
            A = random_structure(rng)
            G = omega_matrix(U, A)
            M = G @ G.T
            defect = np.max(np.abs(M - np.trace(M) / U.dim * np.eye(U.dim)))
            assert defect <= err.value.deviation + 1e-15

    def test_sup_defect_below_tolerance_certified(self, rng):
        # the sign-pattern test rejected this input (J, defect 4.8e-9); its
        # sup defect over all structures is 7.45e-9
        U = perturbed_graph_sum(1, 1)
        assert isoclinic_profile_angles(U) is not None
        for A in [I, J, K] + [random_structure(rng) for _ in range(50)]:
            assert isoclinic_pair(U, structure_image(A, U)) is not None


class TestThetaOfA:
    def test_coordinate_structures(self):
        prof = full_profile(graph_subspace(GENERIC_MU))
        assert theta_of_A(prof, I) == pytest.approx(prof.theta_i, abs=1e-9)
        assert theta_of_A(prof, J) == pytest.approx(prof.theta_j, abs=1e-9)
        assert theta_of_A(prof, K) == pytest.approx(prof.theta_k, abs=1e-9)

    def test_quaternionic_line_all_structures(self, rng):
        prof = full_profile(make_quaternionic_line(2))
        for _ in range(8):
            assert np.cos(theta_of_A(prof, random_structure(rng))) == pytest.approx(1.0)

    def test_three_way_agreement(self, rng):
        # formula vs measured principal angle vs the trace identity (dim 4)
        U = graph_subspace(GENERIC_MU)
        prof = full_profile(U)
        for _ in range(8):
            A = random_structure(rng)
            measured = isoclinic_pair(U, structure_image(A, U))
            predicted = theta_of_A(prof, A)
            assert abs(np.cos(predicted) ** 2 - np.cos(measured) ** 2) < 1e-8
            w = omega_matrix(U, A)
            assert abs(np.cos(predicted) ** 2 + np.trace(w @ w) / 4.0) < 1e-10


class TestCompanions:
    def test_quaternionic_line(self):
        U = make_quaternionic_line(2)
        e = unit(2, 0)
        comp = companions(U, e)
        npt.assert_allclose(comp.X2, -apply_structure(I, e), atol=1e-12)
        npt.assert_allclose(comp.Y2, -apply_structure(J, e), atol=1e-12)
        npt.assert_allclose(comp.Z2, -apply_structure(K, e), atol=1e-12)
        npt.assert_allclose([comp.xi, comp.chi, comp.eta], np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("make,forced", [
        (lambda: make_rhp(4, 4), (True, True, True)),
        (lambda: direct_sum([make_two_plane(2, np.pi / 2, 0.9, 1.1)] * 2), (True, False, False)),
    ], ids=["rhp", "cosI=0"])
    def test_forced_identification(self, make, forced):
        # an invariant of two companions of one source form is reported as
        # exactly 1, not as the squared norm of a normalised vector
        U = make()
        for x in (U.vectors[0], random_unit_in(U, np.random.default_rng(3))):
            comp = companions(U, x)
            values = (comp.xi, comp.chi, comp.eta)
            npt.assert_allclose(values, np.ones(3), atol=1e-12)
            assert all(v == 1.0 for v, exact in zip(values, forced) if exact)
            assert comp.forced

    def test_i_complex_adapted(self):
        U = make_i_complex_4(2, 0.6)
        comp = companions(U, U.vectors[0])
        npt.assert_allclose([comp.xi, comp.chi, comp.eta], np.zeros(3), atol=1e-12)

    def test_leading_vector_outside_subspace(self):
        U = make_quaternionic_line(2, 0)
        with pytest.raises(ValueError):
            companions(U, unit(2, 1))

    @pytest.mark.parametrize("x,match", [
        (2 * unit(2, 0), "must be a unit vector"),
        (unit(2, 1), "does not lie in the subspace"),
    ])
    def test_bad_leading_vector_is_a_package_error(self, x, match):
        U = make_quaternionic_line(2, 0)
        with pytest.raises(FrameError, match=match) as info:
            companions(U, x)
        assert isinstance(info.value, IsoclinicError)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("build", [companions, build_chains], ids=["companions", "chains"])
    def test_nan_leading_vector_refused(self, build):
        # a NaN norm fails every comparison: refused, not measured as xi = nan
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        with pytest.raises(FrameError, match="must be a unit vector"):
            build(U, np.full(U.ambient, np.nan))

    @pytest.mark.parametrize("build", [companions, build_chains], ids=["companions", "chains"])
    def test_frame_failing_its_gate_refused(self, build):
        # read off U's own gate: a frame that fails it is refused, not measured
        U = Frame(np.eye(8)[[0, 2, 4, 5]])
        with pytest.raises(NotIsoclinicError):
            build(U, U.vectors[0])


class TestChains:
    def test_quaternionic_line_chains_match_catalog(self):
        U = make_quaternionic_line(2)
        e = unit(2, 0)
        ch = build_chains(U, e)
        Ie, Je, Ke = (apply_structure(A, e) for A in (I, J, K))
        npt.assert_allclose(ch.chain_x, np.vstack([e, -Ie, -Ke, -Je]), atol=1e-12)
        npt.assert_allclose(ch.chain_y, np.vstack([e, -Je, -Ke, Ie]), atol=1e-12)
        npt.assert_allclose(ch.chain_xt, np.vstack([e, -Ie, Je, -Ke]), atol=1e-12)
        npt.assert_allclose(ch.chain_z, np.vstack([e, -Ke, Je, Ie]), atol=1e-12)

    def test_i_complex_chain_order(self):
        # the omega^I chain of an I-complex subspace is (X1, X2, Z2, Y2)
        U = make_i_complex_4(2, 0.6)
        x1 = U.vectors[0]
        comp = companions(U, x1)
        ch = build_chains(U, x1)
        npt.assert_allclose(ch.chain_x, np.vstack([x1, comp.X2, comp.Z2, comp.Y2]),
                            atol=1e-12)

    def test_chain_third_identities_generic(self, rng):
        U = graph_subspace(GENERIC_MU)
        for _ in range(6):
            x1 = rng.standard_normal(4) @ U.vectors
            x1 /= np.linalg.norm(x1)
            ch = build_chains(U, x1)
            assert max(ch.residuals.values()) < 1e-9

    def test_chains_are_standard_bases(self, rng):
        U = graph_subspace(GENERIC_MU)
        ch = build_chains(U, U.vectors[0])
        cI, cJ, cK = np.cos(ch.angles)
        for chain, A, c in [
            (ch.chain_x, I, cI), (ch.chain_xt, I, cI),
            (ch.chain_y, J, cJ), (ch.chain_yt, J, cJ),
            (ch.chain_z, K, cK), (ch.chain_zt, K, cK),
        ]:
            w = omega_matrix(Frame(chain), A)
            npt.assert_allclose(
                w, [[0, c, 0, 0], [-c, 0, 0, 0], [0, 0, 0, c], [0, 0, -c, 0]],
                atol=1e-10,
            )

    def test_dim_below_four_rejected(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, 1.0)
        with pytest.raises(DimensionError):
            build_chains(P, P.vectors[0])

    def test_decomposable_flagged(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P])
        ch = build_chains(U, U.vectors[0])
        assert ch.convention == "decomposable"
        assert ch.non_canonical


class TestGammaDelta:
    def test_quaternionic_and_i_complex(self):
        for U in (make_quaternionic_line(2), make_i_complex_4(2, 0.8)):
            ch = build_chains(U, U.vectors[0])
            assert gamma_delta(ch) == pytest.approx((0.0, -1.0), abs=1e-12)

    def test_two_planes_decomposable(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P])
        ch = build_chains(U, U.vectors[0])
        assert gamma_delta(ch) == (1.0, 0.0)

    def test_dim4_unit_circle_identity(self):
        U = graph_subspace(GENERIC_MU)
        g, d = gamma_delta(build_chains(U, U.vectors[0]))
        assert g**2 + d**2 == pytest.approx(1.0, abs=1e-10)

    def test_invariance_over_leading_vectors(self, rng):
        U = graph_subspace(GENERIC_MU)
        vals = []
        for _ in range(16):
            x1 = rng.standard_normal(4) @ U.vectors
            x1 /= np.linalg.norm(x1)
            ch = build_chains(U, x1)
            vals.append([ch.xi, ch.chi, ch.eta, *gamma_delta(ch)])
        vals = np.array(vals)
        assert np.max(np.ptp(vals, axis=0)) < 1e-8


def chain_grams(U):
    """C_IJ = <X_i, Y_j> and C_IK = <X_i, Z_j> of the chains through U's
    first vector, checked against their closed forms cij_block_4(xi) and
    cik_block_4(chi, Gamma, Delta)."""
    ch = build_chains(U, U.vectors[0])
    g, d = gamma_delta(ch)
    cij, cik = ch.chain_x @ ch.chain_y.T, ch.chain_x @ ch.chain_z.T
    npt.assert_allclose(cij, cij_block_4(ch.xi), atol=1e-10)
    npt.assert_allclose(cik, cik_block_4(ch.chi, g, d), atol=1e-10)
    return cij, cik


class TestCanonicalMatrices4:
    def test_i_complex_catalog_matrices(self):
        cij, cik = chain_grams(make_i_complex_4(2, 0.8))
        npt.assert_allclose(cij, [[1, 0, 0, 0], [0, 0, 0, -1],
                                  [0, 0, 1, 0], [0, 1, 0, 0]], atol=1e-10)
        npt.assert_allclose(cik, [[1, 0, 0, 0], [0, 0, 0, -1],
                                  [0, 1, 0, 0], [0, 0, -1, 0]], atol=1e-10)

    def test_totally_complex_identity(self):
        cij, cik = chain_grams(make_totally_complex_4(2))
        npt.assert_allclose(cij, np.eye(4), atol=1e-12)
        npt.assert_allclose(cik, np.eye(4), atol=1e-12)

    def test_rhp_identity(self):
        cij, cik = chain_grams(make_rhp(4, 4))
        npt.assert_allclose(cij, np.eye(4), atol=1e-12)
        npt.assert_allclose(cik, np.eye(4), atol=1e-12)

    def test_orthogonality(self, rng):
        cij, cik = chain_grams(graph_subspace(rng.standard_normal(4)))
        npt.assert_allclose(cij @ cij.T, np.eye(4), atol=1e-10)
        npt.assert_allclose(cik @ cik.T, np.eye(4), atol=1e-10)


class TestOmegaKLaw:
    def test_gamma_equals_theta_k_on_unit_circle(self):
        U = graph_subspace(GENERIC_MU)  # dim 4: Gamma^2 + Delta^2 = 1
        ch = build_chains(U, U.vectors[0])
        _, gam = omega_K_on_UIJ(ch)
        assert gam == pytest.approx(ch.angles[2], abs=1e-9)

    def test_chi_pm1_gives_theta_k(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P])
        ch = build_chains(U, U.vectors[0])
        _, gam = omega_K_on_UIJ(ch)
        assert gam == pytest.approx(ch.angles[2], abs=1e-9)

    def test_predicted_matrix_matches_measured(self, rng):
        for _ in range(6):
            U = graph_subspace(rng.standard_normal(4))
            x1 = rng.standard_normal(4) @ U.vectors
            x1 /= np.linalg.norm(x1)
            ch = build_chains(U, x1)
            predicted, _ = omega_K_on_UIJ(ch)
            measured = omega_matrix(Frame(ch.chain_x), K)
            npt.assert_allclose(predicted, measured, atol=1e-9)


class TestSignChoiceCorollary:
    def test_common_sign_pattern(self, rng):
        # all three omega matrices of a dim-4 isoclinic subspace follow the
        # normal form with one common sign choice on any orthonormal basis
        for _ in range(6):
            U = graph_subspace(rng.standard_normal(4))
            Q = orthonormalize(rng.standard_normal((4, 4)) @ U.vectors)
            upper_ok, lower_ok = True, True
            for A in (I, J, K):
                w = omega_matrix(Q, A)
                a, b, c = w[0, 1], w[0, 2], w[0, 3]
                if np.max(np.abs(w - omega_pattern_4(a, b, c))) > 1e-10:
                    upper_ok = False
                # the other sign choice of the dim-4 normal form
                lower = np.array([[0.0, a, b, c], [-a, 0.0, -c, b],
                                  [-b, c, 0.0, -a], [-c, -b, a, 0.0]])
                if np.max(np.abs(w - lower)) > 1e-10:
                    lower_ok = False
            assert upper_ok or lower_ok


class TestTwoPlaneOrbit:
    def test_holomorphic_i_plane(self):
        x = unit(2, 0)
        plane = OrientedTwoPlane(x, -apply_structure(I, x))
        orb = two_plane_orbit(plane)
        npt.assert_allclose(np.abs(orb.im), [0, 1, 0, 0], atol=1e-12)

    def test_rhp_plane(self):
        orb = two_plane_orbit(Frame(np.vstack([unit(2, 0), unit(2, 1)])))
        npt.assert_allclose(orb.im, np.zeros(4), atol=1e-14)
        assert (orb.xi, orb.chi) == (1.0, 1.0)

    def test_standard_plane_measure(self):
        ti, tj, tk, xi, chi = 0.7, 1.1, 1.3, -1.0, 1.0
        P = make_two_plane(2, ti, tj, tk, xi, chi)
        orb = two_plane_orbit(Frame(P.vectors))
        want = np.array([np.cos(ti), xi * np.cos(tj), chi * np.cos(tk)])
        got = orb.im[1:]
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) < 1e-12

    def test_oriented_planes(self):
        # reversing an oriented plane conjugates its imaginary measure, which
        # only an unoriented comparison forgives; Sp(n) keeps the orientation
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1, -1)
        oriented = OrientedTwoPlane(*P.vectors)
        moved = OrientedTwoPlane(*random_sp(2, 5).apply_frame(P).vectors)
        flipped = OrientedTwoPlane(oriented.Y, oriented.X)
        orbit = two_plane_orbit(oriented)
        assert orbit.same_orbit(two_plane_orbit(flipped)) is False
        assert orbit.same_orbit(two_plane_orbit(moved)) is True
        unoriented = two_plane_orbit(P)
        assert unoriented.same_orbit(two_plane_orbit(flipped.frame())) is True

    def test_orbit_consistency_with_invariants(self):
        # measure equality iff (angles, xi, chi) equality, unoriented planes
        planes = [
            make_two_plane(2, 0.7, 1.1, 1.3, 1.0, 1.0),
            make_two_plane(2, 0.7, 1.1, 1.3, 1.0, -1.0),
            make_two_plane(2, 0.7, 1.1, 1.3, -1.0, 1.0),
            make_two_plane(2, 0.8, 1.1, 1.3, 1.0, 1.0),
            make_two_plane(2, 0.7, 1.1, 1.3, 1.0, 1.0),
        ]
        orbs = [two_plane_orbit(Frame(p.vectors)) for p in planes]
        for a in range(len(orbs)):
            for b in range(len(orbs)):
                inv_eq = (
                    np.allclose(orbs[a].thetas, orbs[b].thetas, atol=1e-9)
                    and orbs[a].xi == orbs[b].xi
                    and orbs[a].chi == orbs[b].chi
                )
                assert orbs[a].same_orbit(orbs[b]) == inv_eq


class TestSinglePm1Conventions:
    # feasible invariant sets with exactly one of (xi, chi, eta) at +/-1
    CASES = [
        ("xi", (1.3091, 1.1711, 1.2413, 1.0, -0.849, -0.849)),
        ("xi", (1.3636, 1.154, 1.0234, -1.0, -0.8703, 0.8703)),
        ("chi", (1.3828, 1.3694, 1.3513, -0.2094, -1.0, 0.2094)),
        ("eta", (1.2042, 1.3262, 1.1837, 0.1697, 0.1697, 1.0)),
    ]

    @pytest.mark.parametrize("kind,args", CASES)
    def test_chains_standard_and_gamma_one(self, kind, args):
        U = make_profile_4(*args)
        angles = certify_isoclinic(U)
        ch = build_chains(U, U.vectors[0])
        assert ch.convention == kind
        assert not ch.non_canonical
        cI, cJ, cK = np.cos(angles)
        for chain, A, c in [
            (ch.chain_x, I, cI), (ch.chain_xt, I, cI),
            (ch.chain_y, J, cJ), (ch.chain_yt, J, cJ),
            (ch.chain_z, K, cK), (ch.chain_zt, K, cK),
        ]:
            w = omega_matrix(Frame(chain), A)
            std = np.array(
                [[0, c, 0, 0], [-c, 0, 0, 0], [0, 0, 0, c], [0, 0, -c, 0]]
            )
            npt.assert_allclose(w, std, atol=1e-9)
        assert gamma_delta(ch) == (1.0, 0.0)


class TestProfileDegenerateConventions:
    def test_single_orthogonality_convention(self):
        # cos theta_I = 0 forces xi = 1 and the single-pm1 chain route
        P = make_two_plane(2, np.pi / 2, 0.9, 1.1, 1.0, 1.0)
        U = direct_sum([P, P])
        prof = full_profile(U)
        assert prof.xi == pytest.approx(1.0, abs=1e-12)
        assert (prof.gamma, prof.delta) == (1.0, 0.0)

    @pytest.mark.parametrize("make,forced", [
        (lambda: make_totally_complex_4(2), (True, True, True)),
        (lambda: make_rhp(4, 4), (True, True, True)),
        (lambda: direct_sum([make_two_plane(2, np.pi / 2, 1.1, 0.9, 1.0, -1.0)] * 2),
         (True, False, False)),
    ], ids=["tcomplex", "rhp", "cosI=0"])
    def test_forced_invariants_exact_as_in_companions(self, make, forced):
        # a pair of one source form reads exactly 1 on both routes, also once
        # Sp(n) has moved the frame off its coordinate form
        base = make()
        for seed in (3, 4, 5):
            U = random_sp(base.n, seed).apply_frame(base)
            prof = full_profile(U)
            comp = companions(U, U.vectors[0])
            for got, other, exact in zip((prof.xi, prof.chi, prof.eta),
                                         (comp.xi, comp.chi, comp.eta), forced):
                if exact:
                    assert got == other == 1.0

    def test_profile_of_make_profile_roundtrip(self, rng):
        for _ in range(4):
            # sample a feasible invariant set from a graph subspace, rebuild
            base = full_profile(graph_subspace(rng.standard_normal(4)))
            U = make_profile_4(
                base.theta_i, base.theta_j, base.theta_k,
                base.xi, base.chi, base.eta,
                delta_sign=int(np.sign(base.delta)) or -1,
            )
            prof = full_profile(U)
            npt.assert_allclose(
                [prof.theta_i, prof.theta_j, prof.theta_k, prof.xi, prof.chi,
                 prof.eta, prof.gamma, prof.delta],
                [base.theta_i, base.theta_j, base.theta_k, base.xi, base.chi,
                 base.eta, base.gamma, base.delta],
                atol=1e-9,
            )


W = bench_workloads()
# every input family of the benchmark's catalog, wide and oracle workloads
# except the non-isoclinic and near-threshold ones, with the part counts used
BENCH_FAMILIES = {
    "two-plane": W.two_plane,
    "two-plane-pi/2": lambda rng: W.two_plane(rng, theta_i=np.pi / 2),
    "two-plane-unit-sum-3": lambda rng: W.direct_sum(*W.two_plane(rng, n=1, unit=True), 3),
    "profile-4": W.profile_4,
    "graph": W.graph,
    "qline": lambda rng: W.quaternionic_line(),
    "icomplex": W.i_complex,
    "tcomplex": lambda rng: W.totally_complex(),
    "rhp-2": lambda rng: W.rhp(2, 2),
    "rhp-4": lambda rng: W.rhp(4, 4),
    **{f"graph-sum-{c}": lambda rng, c=c: W.direct_sum(*W.graph(rng), c) for c in (2, 3, 5)},
    **{f"two-plane-sum-{c}": lambda rng, c=c: W.direct_sum(*W.two_plane(rng), c) for c in (4, 9)},
    **{f"profile-sum-{c}": lambda rng, c=c: W.direct_sum(*W.profile_4(rng), c) for c in (4, 8)},
}


class TestFormsProfile:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", sorted(BENCH_FAMILIES))
    def test_equals_chain_profile(self, family, seed):
        # the forms give what the chains measure, at any leading vector
        rng = np.random.default_rng(seed)
        U, _ = BENCH_FAMILIES[family](rng)
        U = random_sp(U.n, seed=seed).apply_frame(U)
        got = full_profile(U)
        for x in (U.vectors[0], random_unit_in(U, rng)):
            want = chain_profile(U, x)
            assert got.dim == want.dim
            npt.assert_allclose(
                [*got.cosines, got.xi, got.chi, got.eta, got.gamma, got.delta],
                [*want.cosines, want.xi, want.chi, want.eta, want.gamma, want.delta],
                rtol=0, atol=1e-12,
            )
