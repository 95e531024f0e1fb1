import numpy as np
import numpy.testing as npt
import pytest

from isoclinic.errors import DimensionError, FrameError, IsoclinicError, StructureError
from isoclinic.quaternions import (
    AdmissibleBasis,
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
from isoclinic.subspaces import Frame, principal_angles
from conftest import structure_matrix, unit


class TestQuaternionArithmetic:
    # quaternions are (..., 4) arrays of their (1, i, j, k) parts
    def test_hamilton_relations(self):
        i, j, k = np.eye(4)[1:]
        npt.assert_array_equal(qarr_mul(i, j), k)
        npt.assert_array_equal(qarr_mul(j, i), -k)
        npt.assert_array_equal(qarr_mul(j, k), i)
        npt.assert_array_equal(qarr_mul(k, i), j)
        for u in (i, j, k):
            npt.assert_array_equal(qarr_mul(u, u), [-1, 0, 0, 0])

    def test_bilinear_expansion(self):
        # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
        npt.assert_array_equal(qarr_mul([1, 1, 0, 0], [1, 0, 1, 0]), [1, 1, 1, 1])

    def test_conj_and_norm(self, rng):
        p = rng.standard_normal(4)
        npt.assert_allclose(qarr_mul(qarr_conj(p), p),
                            [np.linalg.norm(p) ** 2, 0, 0, 0], atol=1e-12)


    @pytest.mark.parametrize("call, error, message", [
        (lambda: qarr_mul([1, 2, 3], [1, 0, 0, 0]), DimensionError,
         "quaternion arrays need a last axis of 4, got (3,), (4,)"),
        (lambda: qarr_mul(np.eye(4), 1.0), DimensionError,
         "quaternion arrays need a last axis of 4, got (4, 4), ()"),
        (lambda: right_multiply(np.ones(8), [1, 0, 0]), DimensionError,
         "quaternion arrays need a last axis of 4, got (2, 4), (3,)"),
        (lambda: right_multiply(np.ones(6), [1, 0, 0, 0]), DimensionError,
         "ambient dimension 6 is not a positive multiple of 4"),
        (lambda: right_multiply(2.0, [1, 0, 0, 0]), DimensionError,
         "ambient dimension 0 is not a positive multiple of 4"),
        (lambda: quaternion_from_rotation(np.eye(2)), StructureError,
         "rotation must be 3x3, got (2, 2)"),
        (lambda: quaternion_from_rotation([["a"] * 3] * 3), StructureError,
         "rotation is not an array of numbers"),
        (lambda: quaternion_from_rotation(-np.eye(3)), StructureError,
         "rotation has determinant -1; not in SO(3)"),
        (lambda: qarr_conj([1, 2, 3]), DimensionError,
         "quaternion arrays need a last axis of 4, got (3,)"),
        (lambda: hermitian_product(["a"] * 4, ["a"] * 4), FrameError,
         "vectors are not a rectangular array of numbers"),
        (lambda: apply_structure(I, ["a"] * 4), FrameError,
         "vectors are not a rectangular array of numbers"),
        (lambda: right_multiply(np.ones(4), ["a"] * 4), FrameError,
         "vectors are not a rectangular array of numbers"),
    ], ids=["qarr_mul-3", "qarr_mul-scalar", "right_multiply-q3", "right_multiply-x6",
            "right_multiply-scalar", "rotation-2x2", "rotation-text", "rotation-improper",
            "qarr_conj-3", "hermitian-text", "structure-text", "right_multiply-text"])
    def test_malformed_input_refused_by_name(self, call, error, message):
        # each raised a bare numpy ValueError or IndexError, or returned a quaternion
        # for a C not in SO(3); a FrameError is still a ValueError
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


class TestStructures:
    def test_apply_I_on_first_unit(self):
        x = unit(2, 0)
        expected = np.zeros(8)
        expected[1] = -1.0
        npt.assert_allclose(apply_structure(I, x), expected)

    def test_square_is_minus_identity(self, rng):
        x = rng.standard_normal(12)
        for A in (I, J, K):
            npt.assert_allclose(apply_structure(A, apply_structure(A, x)), -x, atol=1e-12)

    def test_general_structure_square(self, rng):
        v = rng.standard_normal(3)
        A = CompatibleStructure(*(v / np.linalg.norm(v)))
        x = rng.standard_normal(8)
        npt.assert_allclose(apply_structure(A, apply_structure(A, x)), -x, atol=1e-12)
        npt.assert_allclose(np.linalg.norm(apply_structure(A, x)), np.linalg.norm(x))

    def test_non_unit_coefficients_rejected(self):
        with pytest.raises(StructureError) as info:
            CompatibleStructure(1.0, 1.0, 0.0)
        assert isinstance(info.value, IsoclinicError) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("coeffs", [(np.nan, 0.0, 0.0), (1.0, np.nan, 0.0),
                                        (np.inf, 0.0, 0.0)])
    def test_non_finite_coefficients_rejected(self, coeffs):
        # a NaN defect fails every comparison, so it is refused, not passed
        with pytest.raises(StructureError, match="not unit"):
            CompatibleStructure(*coeffs)

    def test_operator_hamilton_relations(self):
        mI, mJ, mK = (structure_matrix(A, 2) for A in (I, J, K))
        npt.assert_allclose(mI @ mJ, mK, atol=1e-14)
        npt.assert_allclose(mJ @ mI, -mK, atol=1e-14)
        npt.assert_allclose(mJ @ mK, mI, atol=1e-14)
        npt.assert_allclose(mI @ mI, -np.eye(8), atol=1e-14)

    def test_metric_is_hermitian(self, rng):
        x, y = rng.standard_normal((2, 8))
        for _ in range(4):
            v = rng.standard_normal(3)
            A = CompatibleStructure(*(v / np.linalg.norm(v)))
            ax, ay = apply_structure(A, x), apply_structure(A, y)
            assert abs(ax @ ay - x @ y) < 1e-12


class TestHermitianProduct:
    def test_coordinate_line_values(self):
        x = unit(2, 0)
        y = right_multiply(x, np.array([0.0, 1.0, 0.0, 0.0]))  # e1 * i
        npt.assert_array_equal(hermitian_product(x, y), [0, 1, 0, 0])

    def test_positive_definite(self, rng):
        x = rng.standard_normal(8)
        p = hermitian_product(x, x)
        npt.assert_allclose(p, [x @ x, 0, 0, 0], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="shape mismatch"):
            hermitian_product(unit(2, 0), unit(1, 0))

    def test_distinct_coordinates_orthogonal(self):
        npt.assert_array_equal(hermitian_product(unit(2, 0), unit(2, 1)), np.zeros(4))

    def test_conjugate_symmetry(self, rng):
        x, y = rng.standard_normal((2, 8))
        npt.assert_allclose(hermitian_product(y, x), qarr_conj(hermitian_product(x, y)),
                            rtol=0, atol=1e-12)

    def test_sesquilinear_over_right_scalars(self, rng):
        x, y = rng.standard_normal((2, 8))
        p, qq = rng.standard_normal((2, 4))
        lhs = hermitian_product(right_multiply(x, p), right_multiply(y, qq))
        rhs = qarr_mul(qarr_mul(qarr_conj(p), hermitian_product(x, y)), qq)
        npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_additivity(self, rng):
        x1, x2, y = rng.standard_normal((3, 8))
        lhs = hermitian_product(x1 + x2, y)
        rhs = hermitian_product(x1, y) + hermitian_product(x2, y)
        npt.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def quaternionic_line(x):
    """Frame of the quaternionic line x H: x, Ix, Jx, Kx are orthogonal."""
    return Frame(np.vstack([x] + [apply_structure(A, x) for A in (I, J, K)]) / np.linalg.norm(x))


def characteristic_cos(x, y):
    """cos of the Euclidean angle between the quaternionic lines of x and y:
    the product of their principal cosines."""
    return float(np.prod(principal_angles(quaternionic_line(x), quaternionic_line(y)).cosines))


class TestAngles:
    # the characteristic angle phi of X, Y: cos phi = cos^4 psi for the
    # Hermitian angle psi, cos psi = |X.Y| / (|X| |Y|)
    def test_equal_vectors(self, rng):
        x = rng.standard_normal(8)
        assert characteristic_cos(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_orthogonal(self):
        assert np.linalg.norm(hermitian_product(unit(2, 0), unit(2, 1))) == 0.0
        assert characteristic_cos(unit(2, 0), unit(2, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_characteristic_from_fourth_power(self, rng):
        # both footnote formulas computed independently
        for _ in range(10):
            x, y = rng.standard_normal((2, 8))
            cos_psi = np.linalg.norm(hermitian_product(x, y)) / (
                np.linalg.norm(x) * np.linalg.norm(y))
            assert abs(characteristic_cos(x, y) - cos_psi**4) < 1e-12


def random_rotation(rng):
    A = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def rotated_triple(C):
    """The admissible triple (I', J', K') = (I, J, K) C: column a of C holds
    the coefficients of the a-th new structure."""
    return [CompatibleStructure(*C[:, a]) for a in range(3)]


class TestRotateBasis:
    # rotating the admissible basis by C: the rotated triple, and the unit
    # quaternion that lifts C
    def test_identity(self):
        npt.assert_allclose(np.abs(quaternion_from_rotation(np.eye(3))), [1, 0, 0, 0])

    def test_pi_about_k_axis(self):
        # k i conj(k) = -i, k j conj(k) = -j, k k conj(k) = k
        C = np.diag([-1.0, -1.0, 1.0])
        npt.assert_allclose(np.abs(quaternion_from_rotation(C)), [0, 0, 0, 1], atol=1e-15)

    def test_rotated_triple_satisfies_hamilton(self, rng):
        for _ in range(5):
            C = random_rotation(rng)
            mi, mj, mk = (structure_matrix(A, 2) for A in rotated_triple(C))
            npt.assert_allclose(mi @ mj, mk, atol=1e-12)
            npt.assert_allclose(mi @ mj + mj @ mi, np.zeros((8, 8)), atol=1e-12)
            npt.assert_allclose(mi @ mi, -np.eye(8), atol=1e-12)

    def test_improper_rotation_rejected(self):
        with pytest.raises(StructureError, match="determinant"):
            AdmissibleBasis(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(StructureError, match="not orthogonal"):
            AdmissibleBasis(np.ones((3, 3)))

    def test_nan_rotation_rejected(self):
        C = np.eye(3)
        C[1, 2] = np.nan
        with pytest.raises(StructureError, match="not finite"):
            AdmissibleBasis(C)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    def test_infinite_rotation_refused_by_name(self, entry):
        # refused before any arithmetic: C^T C would warn on inf * 0
        C = np.eye(3)
        C[0, 1] = entry
        with pytest.raises(StructureError, match="^rotation has an entry that is not finite$"):
            AdmissibleBasis(C)

    @pytest.mark.parametrize("rotation", ["abc", [[1.0, 0.0], [0.0]], {}])
    def test_non_numeric_rotation_refused_by_type(self, rotation):
        with pytest.raises(StructureError, match="^rotation is not an array of numbers$"):
            AdmissibleBasis(rotation)

    def test_non_square_rotation_rejected(self):
        with pytest.raises(StructureError, match="3x3"):
            AdmissibleBasis(np.eye(2))

    def test_product_components_rotate(self, rng):
        # imaginary components of X.Y in the rotated basis are the
        # C-rotation (transpose action) of the coordinate components
        x, y = rng.standard_normal((2, 8))
        for _ in range(5):
            C = random_rotation(rng)
            rotated = np.array([x @ apply_structure(A, y) for A in rotated_triple(C)])
            base = np.array([x @ apply_structure(A, y) for A in (I, J, K)])
            npt.assert_allclose(rotated, C.T @ base, atol=1e-10)


class TestRotationLift:
    def test_quaternion_realizes_rotation(self, rng):
        for _ in range(8):
            C = random_rotation(rng)
            v = quaternion_from_rotation(C)
            # conjugation action on the imaginary units
            for axis, e in enumerate(np.eye(3)):
                m = np.concatenate([[0.0], e])
                out = qarr_mul(qarr_mul(v, m), np.array([v[0], -v[1], -v[2], -v[3]]))
                npt.assert_allclose(out[0], 0.0, atol=1e-12)
                npt.assert_allclose(out[1:], C[:, axis], atol=1e-10)

    def test_homothety_reproduces_rotated_measurements(self, rng):
        # <X, A'Y> for the rotated triple equals the coordinate measurement
        # of the right-multiplied vectors
        x, y = rng.standard_normal((2, 8))
        for _ in range(5):
            C = random_rotation(rng)
            v = quaternion_from_rotation(C)
            xr, yr = right_multiply(x, v), right_multiply(y, v)
            rotated = np.array([x @ apply_structure(A, y) for A in rotated_triple(C)])
            moved = np.array([xr @ apply_structure(A, yr) for A in (I, J, K)])
            npt.assert_allclose(moved, rotated, atol=1e-10)
