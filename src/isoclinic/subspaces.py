"""Frames, projectors, principal angles and oriented 2-planes.

A subspace is always handled through a Frame: an ordered orthonormal list
of vectors, stored as the rows of a (k, 4n) array. Principal angles come
from the SVD of the mutual Gram matrix, with singular values clamped into
[0, 1] before any arccos.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FrameError, InfeasibleParametersError, RankDeficiencyError
from .quaternions import CompatibleStructure, apply_structure
from .tolerances import EPS_FRAME, EPS_RANK

__all__ = [
    "Frame",
    "orthonormalize",
    "project",
    "gram",
    "PrincipalAngleResult",
    "principal_angles",
    "OrientedTwoPlane",
    "structure_image",
    "complement",
    "random_frame",
]


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered orthonormal spanning set; rows of `vectors` are the vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        V = _rows(self.vectors)
        if V.shape[0] == 0:
            raise DimensionError("dim-0 subspace is rejected")
        if V.shape[1] % 4 != 0:
            raise DimensionError(f"ambient dimension {V.shape[1]} not a multiple of 4")
        if V.shape[0] > V.shape[1]:
            raise DimensionError("more vectors than ambient dimensions")
        _require_orthonormal(V @ V.T)
        object.__setattr__(self, "vectors", V)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient(self) -> int:
        return self.vectors.shape[1]

    @property
    def n(self) -> int:
        return self.vectors.shape[1] // 4


def _rows(vectors) -> np.ndarray:
    """vectors as a (k, d) float array in C order, as every kernel (the complex row
    view included) takes it; FrameError for non-numbers or ragged rows, DimensionError
    for more than two axes."""
    try:
        V = np.atleast_2d(np.ascontiguousarray(vectors, dtype=float))
    except (TypeError, ValueError):
        raise FrameError("vectors are not a rectangular array of numbers") from None
    if V.ndim != 2:
        raise DimensionError(f"vectors must be the rows of one (k, 4n) array, got shape {V.shape}")
    return V


def _require_orthonormal(gram: np.ndarray) -> None:
    """FrameError unless every Gram matrix of the stack (..., k, k) is Id within EPS_FRAME."""
    defect = np.max(np.abs(gram - np.eye(gram.shape[-1])))
    if not defect <= EPS_FRAME:
        raise FrameError(f"frame is not orthonormal: Gram defect {defect:.3e} > {EPS_FRAME:.1e}")


def _mgs(rows: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Two-pass classical Gram-Schmidt in row order; returns the kept
    orthonormal rows and their indices.

    Each pass projects a row against all kept rows at once. A row is
    dropped when its residual norm is at most tol * max(1, largest input
    row norm). The order is part of the result: the first j kept rows span
    the first j kept inputs, which generators and documents rely on.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    scale = max(float(np.max(np.linalg.norm(rows, axis=1))), 1.0) if rows.size else 1.0
    Q = np.empty_like(rows)
    kept: list[int] = []
    for idx, r in enumerate(rows):
        done = Q[: len(kept)]
        v = r - (done @ r) @ done
        # second pass for numerical hygiene
        v -= (done @ v) @ done
        nv = float(np.linalg.norm(v))
        if nv > tol * scale:
            Q[len(kept)] = v / nv
            kept.append(idx)
    return Q[: len(kept)], kept


def orthonormalize(spanning) -> Frame:
    """Frame spanning the same subspace as `spanning` (Gram-Schmidt order).

    Rank-deficient input raises RankDeficiencyError carrying the detected
    rank.
    """
    rows = _rows(spanning)
    if rows.shape[0] == 0:
        raise DimensionError("empty spanning set")
    # the squares of entries beyond 2^500 may overflow the row norms: dividing
    # by a power of two is exact, and leaves the largest entry in [1, 2)
    big = float(np.max(np.abs(rows), initial=0.0))
    if big > 2.0**500:
        rows = np.ldexp(rows, 1 - np.frexp(big)[1])
    Q, kept = _mgs(rows, EPS_RANK)
    if len(kept) != rows.shape[0]:
        raise RankDeficiencyError(detected_rank=len(kept), expected=rows.shape[0])
    return Frame(Q)


def project(U: Frame, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto span(U)."""
    x = np.asarray(x, dtype=float)
    if x.shape[:1] != (U.ambient,):
        raise DimensionError(f"expected a vector of length {U.ambient}, got shape {x.shape}")
    return U.vectors.T @ (U.vectors @ x)


def gram(U: Frame, W: Frame) -> np.ndarray:
    """Matrix of mutual inner products <u_i, w_j>."""
    if U.ambient != W.ambient:
        raise DimensionError("frames live in different ambient spaces")
    return U.vectors @ W.vectors.T


def structure_image(A: CompatibleStructure, U: Frame) -> Frame:
    """Frame of A(span U); A is an isometry so no re-orthonormalization."""
    return Frame(apply_structure(A, U.vectors))


@dataclass(frozen=True, eq=False)
class PrincipalAngleResult:
    """Principal angles (nondecreasing) and related principal vector pairs.

    Rows of left_vectors lie in the first subspace, rows of right_vectors
    in the second; <a_i, b_j> = delta_ij cos(theta_i). `swapped` records
    that the inputs were exchanged to make dim U <= dim W.
    """

    angles: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    swapped: bool = False

    @property
    def cosines(self) -> np.ndarray:
        return np.cos(self.angles)


def principal_angles(U: Frame, W: Frame) -> PrincipalAngleResult:
    """Principal angles via SVD of Gram(U, W), clamped into [0, 1].

    Signs follow the Afriat normalization: every diagonal entry of the
    Gram matrix of related principal vectors is >= 0.
    """
    swapped = U.dim > W.dim
    if swapped:
        U, W = W, U
    G = gram(U, W)
    A, s, Bh = np.linalg.svd(G, full_matrices=False)
    s = np.clip(s, 0.0, 1.0)
    left = A.T @ U.vectors
    right = Bh @ W.vectors
    # SVD orders singular values descending, so angles come out ascending
    return PrincipalAngleResult(
        angles=np.arccos(s), left_vectors=left, right_vectors=right, swapped=swapped
    )


@dataclass(frozen=True, eq=False)
class OrientedTwoPlane:
    """Ordered orthonormal pair (X, Y); the order is the orientation."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X, Y = self.frame().vectors  # validates orthonormality and ambient dim
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    def frame(self) -> Frame:
        return Frame([self.X, self.Y])


def complement(U: Frame) -> Frame:
    """Orthonormal basis of the orthogonal complement in the ambient space."""
    _, _, vh = np.linalg.svd(U.vectors, full_matrices=True)
    return Frame(vh[U.dim:])


def random_frame(n: int, k: int, rng: np.random.Generator) -> Frame:
    """Random k-frame in R^{4n} (orthonormalized Gaussian rows)."""
    return orthonormalize(rng.standard_normal((k, 4 * n)))


def _count(value, name: str, least: int, error=InfeasibleParametersError) -> int:
    """value as an int, refusing a non-integer or one below least by name."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise error(f"expected an integer {name} >= {least}, got {value!r}")
    return count


def _tolerance(value) -> float:
    """value as a float, refusing a tolerance that is not finite and positive."""
    try:
        if 0.0 < float(value) < float("inf"):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise InfeasibleParametersError(f"expected a finite tol > 0, got {value!r}")


def _seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for seed, refusing a negative or non-integer seed by name."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InfeasibleParametersError(f"seed {seed!r} is not a non-negative integer") from None
