import numpy as np
import numpy.testing as npt
import pytest

from isoclinic.analysis import two_plane_orbit
from isoclinic.errors import DimensionError, FrameError, IsoclinicError, RankDeficiencyError
from isoclinic.quaternions import CompatibleStructure, I, J, K, apply_structure
from isoclinic.subspaces import (
    Frame,
    OrientedTwoPlane,
    complement,
    gram,
    orthonormalize,
    principal_angles,
    project,
    random_frame,
    _mgs,
    structure_image,
)
from isoclinic.tolerances import EPS_RANK
from conftest import unit


class TestOrthonormalize:
    def test_gram_schmidt_order(self):
        e1, e2 = unit(1, 0), np.eye(4)[1]
        F = orthonormalize([e1, e1 + e2])
        npt.assert_allclose(F.vectors, np.vstack([e1, e2]), atol=1e-14)

    def test_rank_deficiency_reported(self):
        e1 = unit(1, 0)
        with pytest.raises(RankDeficiencyError) as err:
            orthonormalize([e1, 2 * e1])
        assert err.value.detected_rank == 1

    def test_random_frame_gram(self, rng):
        F = orthonormalize(rng.standard_normal((4, 8)))
        npt.assert_allclose(F.vectors @ F.vectors.T, np.eye(4), atol=1e-12)

    def test_entries_near_the_float_limit_are_kept(self):
        # the squares of 1e308 overflow: the rows are rescaled by a power of two first
        with np.errstate(all="raise"):
            F = orthonormalize([[1e308, 1e308, 0, 0], [0, 0, -1e308, 0]])
        npt.assert_allclose(F.vectors, [[0.5**0.5, 0.5**0.5, 0, 0], [0, 0, -1, 0]], atol=1e-15)

    @pytest.mark.parametrize("exponent", [-20, 0, 300, 501, 505])
    def test_rescaling_changes_no_bit(self, rng, exponent):
        # below 2^500 nothing is rescaled; above it the power of two is exact
        rows = np.ldexp(rng.standard_normal((3, 8)), exponent)
        with np.errstate(all="raise"):
            npt.assert_array_equal(orthonormalize(rows).vectors, _mgs(rows, EPS_RANK)[0])

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionError):
            Frame(np.zeros((0, 8)))

    def test_non_orthonormal_frame_rejected(self):
        with pytest.raises(ValueError):
            Frame(np.vstack([unit(1, 0), unit(1, 0)]))

    def test_rejection_is_a_package_error(self):
        with pytest.raises(FrameError, match="not orthonormal") as info:
            Frame(np.ones((2, 4)))
        assert isinstance(info.value, IsoclinicError)
        assert isinstance(info.value, ValueError)

    def test_parallel_pair_is_a_package_error(self):
        with pytest.raises(FrameError, match="not orthonormal"):
            OrientedTwoPlane(unit(1, 0), unit(1, 0))

    def test_nan_frame_rejected(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Frame(np.full((2, 8), np.nan))
        V = np.eye(8)[:2].copy()
        V[1, 3] = np.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            Frame(V)


class TestProjectGram:
    def test_member_fixed(self, rng):
        U = random_frame(2, 3, rng)
        x = rng.standard_normal(3) @ U.vectors
        npt.assert_allclose(project(U, x), x, atol=1e-12)

    def test_orthogonal_killed(self, rng):
        U = Frame(np.eye(8)[:3])
        x = np.eye(8)[5]
        npt.assert_allclose(project(U, x), np.zeros(8), atol=1e-14)

    def test_partial(self):
        U = Frame(unit(1, 0))
        x = unit(1, 0) + np.eye(4)[1]
        npt.assert_allclose(project(U, x), unit(1, 0), atol=1e-14)

    def test_gram_identity_and_zero(self, rng):
        U = random_frame(2, 3, rng)
        npt.assert_allclose(gram(U, U), np.eye(3), atol=1e-12)
        W = complement(U)
        npt.assert_allclose(gram(U, W), np.zeros((3, 5)), atol=1e-12)

    def test_gram_across_ambients_rejected(self, rng):
        with pytest.raises(DimensionError, match="different ambient spaces"):
            gram(random_frame(2, 2, rng), random_frame(3, 2, rng))

    def test_gram_singular_values_bounded(self, rng):
        for _ in range(5):
            U = random_frame(2, 3, rng)
            W = random_frame(2, 4, rng)
            s = np.linalg.svd(gram(U, W), compute_uv=False)
            assert np.all(s <= 1 + 1e-12)


class TestPrincipalAngles:
    def test_self(self, rng):
        U = random_frame(2, 3, rng)
        npt.assert_allclose(principal_angles(U, U).angles, np.zeros(3), atol=1e-7)

    def test_two_by_two_hand_example(self):
        e = np.eye(4)
        U = Frame(e[:2])
        W = orthonormalize([e[0], (e[1] + e[2]) / np.sqrt(2)])
        npt.assert_allclose(
            principal_angles(U, W).angles, [0.0, np.pi / 4], atol=1e-12
        )

    def test_full_complement(self, rng):
        U = random_frame(2, 3, rng)
        W = complement(U)
        npt.assert_allclose(
            principal_angles(U, W).angles, np.full(3, np.pi / 2), atol=1e-7
        )

    def test_related_principal_vectors(self, rng):
        U = random_frame(3, 4, rng)
        W = random_frame(3, 5, rng)
        res = principal_angles(U, W)
        G = res.left_vectors @ res.right_vectors.T
        npt.assert_allclose(G, np.diag(np.cos(res.angles)), atol=1e-10)
        assert np.all(np.diag(G) >= -1e-12)

    def test_swap_recorded(self, rng):
        U = random_frame(3, 5, rng)
        W = random_frame(3, 2, rng)
        assert principal_angles(U, W).swapped
        assert not principal_angles(W, U).swapped

    def test_complement_pair_angles_match(self, rng):
        # nonzero principal angles of (U, W) and of their complements agree
        U = random_frame(2, 3, rng)
        W = random_frame(2, 4, rng)
        a = principal_angles(U, W).angles
        b = principal_angles(complement(U), complement(W)).angles
        joined_a = np.sort(np.concatenate([a, np.zeros(len(b))]))[::-1]
        joined_b = np.sort(np.concatenate([b, np.zeros(len(a))]))[::-1]
        npt.assert_allclose(joined_a, joined_b, atol=1e-9)

    def test_complement_right_angles_are_complements(self, rng):
        # sorted angles against the complement are pi/2 minus the originals
        p, q = 4, 3
        U = random_frame(2, p, rng)
        W = random_frame(2, q, rng)
        a_down = np.sort(principal_angles(U, W).angles)[::-1]
        comp = np.sort(principal_angles(U, complement(W)).angles)
        ell = max(p - q, 0)
        lhs = np.concatenate([np.full(ell, np.pi / 2), a_down])
        rhs = np.pi / 2 - comp
        k = min(len(lhs), len(rhs))
        npt.assert_allclose(np.sort(lhs)[::-1][:k], np.sort(rhs)[::-1][:k], atol=1e-9)


def euclidean_cos(U: Frame, W: Frame) -> float:
    """cos of the Euclidean angle between equal-dim subspaces: the product of
    the principal cosines."""
    return float(np.prod(principal_angles(U, W).cosines))


def measure(plane: OrientedTwoPlane) -> np.ndarray:
    """Imaginary measure (0, cos I, cos J, cos K) of an oriented plane."""
    return two_plane_orbit(plane).im


class TestEuclideanAngle:
    def test_self_zero(self, rng):
        U = random_frame(2, 3, rng)
        assert euclidean_cos(U, U) == pytest.approx(1.0, abs=1e-12)

    def test_right_angle_dominates(self):
        e = np.eye(8)
        U = Frame(e[:2])
        W = Frame(np.vstack([e[0], e[5]]))
        assert euclidean_cos(U, W) == pytest.approx(0.0, abs=1e-15)

    def test_plane_vs_structure_image(self, rng):
        # cos of the Euclidean angle between P and I P is the squared
        # Kaehler cosine of the plane
        for _ in range(5):
            P = random_frame(2, 2, rng)
            c = measure(OrientedTwoPlane(P.vectors[0], P.vectors[1]))[1]
            assert abs(euclidean_cos(P, structure_image(I, P)) - c**2) < 1e-9


def rotate_pair(plane: OrientedTwoPlane, t: float) -> OrientedTwoPlane:
    X = np.cos(t) * plane.X + np.sin(t) * plane.Y
    Y = -np.sin(t) * plane.X + np.cos(t) * plane.Y
    return OrientedTwoPlane(X, Y)


class TestKahlerAngle:
    # the A-Kaehler cosine of an oriented plane is A's coefficients against
    # the plane's imaginary measure
    def test_holomorphic_plane(self, rng):
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(3)
        A = CompatibleStructure(*(v / np.linalg.norm(v)))
        plane = OrientedTwoPlane(x, -apply_structure(A, x))
        assert A.coefficients() @ measure(plane)[1:] == pytest.approx(1.0, abs=1e-12)

    def test_totally_real_plane(self):
        plane = OrientedTwoPlane(unit(2, 0), unit(2, 1))
        for A in (I, J, K):
            assert A.coefficients() @ measure(plane)[1:] == pytest.approx(0.0, abs=1e-15)

    def test_orientation_swap_negates_cosine(self, rng):
        P = random_frame(2, 2, rng)
        npt.assert_allclose(measure(OrientedTwoPlane(P.vectors[1], P.vectors[0])),
                            -measure(OrientedTwoPlane(*P.vectors)), atol=1e-12)

    def test_basis_invariance(self, rng):
        P = random_frame(2, 2, rng)
        plane = OrientedTwoPlane(P.vectors[0], P.vectors[1])
        base = J.coefficients() @ measure(plane)[1:]
        for t in rng.uniform(0, 2 * np.pi, 16):
            assert abs(J.coefficients() @ measure(rotate_pair(plane, t))[1:] - base) < 1e-12


class TestImaginaryMeasure:
    def test_holomorphic_i_plane(self):
        x = unit(2, 0)
        plane = OrientedTwoPlane(x, -apply_structure(I, x))
        npt.assert_allclose(measure(plane), [0, 1, 0, 0], atol=1e-14)

    def test_rhp_plane_vanishes(self):
        plane = OrientedTwoPlane(unit(2, 0), unit(2, 1))
        npt.assert_allclose(measure(plane), np.zeros(4), atol=1e-14)

    def test_rotation_invariance(self, rng):
        P = random_frame(2, 2, rng)
        plane = OrientedTwoPlane(P.vectors[0], P.vectors[1])
        base = measure(plane)
        for t in rng.uniform(0, 2 * np.pi, 8):
            npt.assert_allclose(measure(rotate_pair(plane, t)), base, atol=1e-12)

    def test_norm_at_most_one(self, rng):
        for _ in range(20):
            P = random_frame(2, 2, rng)
            m = measure(OrientedTwoPlane(P.vectors[0], P.vectors[1]))
            assert np.linalg.norm(m) <= 1 + 1e-12

    def test_unit_norm_is_holomorphic(self, rng):
        # norm 1 happens exactly for planes holomorphic w.r.t. some unit A
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(3)
        A = CompatibleStructure(*(v / np.linalg.norm(v)))
        plane = OrientedTwoPlane(x, -apply_structure(A, x))
        m = measure(plane)
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(m[1:], A.coefficients(), atol=1e-12)

    def test_boundary_two_plane_is_holomorphic(self):
        # squared cosines summing to 1 force unit measure, and the plane is
        # holomorphic for the structure named by the measure's direction
        from isoclinic.generators import make_two_plane

        ti = 0.9
        tk = 1.2
        cj2 = 1.0 - np.cos(ti) ** 2 - np.cos(tk) ** 2
        tj = np.arccos(np.sqrt(cj2))
        P = make_two_plane(2, ti, tj, tk, 1.0, -1.0)
        m = measure(OrientedTwoPlane(P.vectors[0], P.vectors[1]))
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)
        A = CompatibleStructure(*m[1:])
        img = apply_structure(A, P.vectors)
        # A-image stays inside the plane
        resid = img - (img @ P.vectors.T) @ P.vectors
        npt.assert_allclose(resid, np.zeros_like(resid), atol=1e-10)
