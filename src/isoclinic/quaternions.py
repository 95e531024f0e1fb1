"""Arithmetic of quaternion arrays and the hypercomplex structure of R^{4n}.

The ambient space is R^{4n} identified with H^n as a *right* H-module:
real slot 4*q + c (c in 0..3) holds the (1, i, j, k)-component of
quaternionic coordinate q. The three complex structures are the right
multiplications

    I = R_{-i},   J = R_{-j},   K = R_{-k},

which anticommute, satisfy I J = K as operator composition, and are
isometries of the Euclidean metric. Sp(n) acts by quaternionic matrices
on the *left*, so it commutes with I, J, K.

One complex layout of H^n, known only to _complex_rows and _real_rows,
serves the structures, the forms and Sp(n). A block x = z + j w' (z = x0 +
i x1, w' = conj(x2 + i x3)) is the complex pair (z, w'), so with q =
V.reshape(k, n, 4).view(complex) the rows V are C = (q[..., 0], conj q[...,
1]), (k, 2n). apply_structure runs in it: I is multiplication by -i, J is
(z, w') -> (conj w', -conj z) and K = I J. With H = conj(C) C^T and B =
Z W'^T - W' Z^T for the halves Z, W' of C: omega_I = Im H, omega_J = Re B,
omega_K = -Im B. g = P + R j in Sp(n) acts C-linearly, C -> C M^T with
SpElement.matrix M = [[P, -R], [conj R, conj P]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StructureError
from .tolerances import EPS_ORTH

__all__ = [
    "CompatibleStructure",
    "AdmissibleBasis",
    "I",
    "J",
    "K",
    "apply_structure",
    "hermitian_product",
    "qarr_mul",
    "qarr_conj",
]


# --- array quaternion helpers (last axis of length 4 holds 1,i,j,k parts) ---

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def qarr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (...,4) quaternion arrays, broadcasting; C-contiguous,
    so a sum over a leading axis adds its rows in turn (on other layouts numpy
    may sum pairwise)."""
    a0, a1, a2, a3 = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    b0, b1, b2, b3 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.ascontiguousarray(np.stack([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                                          a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                                          a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                                          a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0], axis=-1))


def qarr_conj(a: np.ndarray) -> np.ndarray:
    """Conjugate of a (...,4) quaternion array."""
    return np.asarray(a, dtype=float) * _CONJ


def _complex_rows(x: np.ndarray) -> np.ndarray:
    """Complex rows (z, w') of real rows x (last axis 4n): (..., 2n)."""
    x = np.ascontiguousarray(x, dtype=float)
    q = x.reshape(x.shape[:-1] + (x.shape[-1] // 4, 4)).view(complex)
    return np.concatenate([q[..., 0], q[..., 1].conj()], axis=-1)


def _real_rows(c: np.ndarray) -> np.ndarray:
    """Real rows (last axis 4n) of complex rows (z, w'): _complex_rows inverted."""
    n = c.shape[-1] // 2
    q = np.empty(c.shape[:-1] + (n, 2), dtype=complex)
    q[..., 0] = c[..., :n]
    q[..., 1] = c[..., n:].conj()
    return q.view(float).reshape(c.shape[:-1] + (4 * n,))


@dataclass(frozen=True)
class CompatibleStructure:
    """A = a I + b J + c K with a^2 + b^2 + c^2 = 1; satisfies A^2 = -Id."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        try:
            coeffs = np.array([self.a, self.b, self.c], dtype=float)
        except (TypeError, ValueError):
            raise StructureError(f"coefficients {self.a, self.b, self.c} are not numbers") from None
        if not abs(coeffs @ coeffs - 1.0) <= EPS_ORTH:
            raise StructureError(
                f"coefficient vector {coeffs} is not unit (|a|^2+|b|^2+|c|^2 != 1)"
            )

    def coefficients(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)


I = CompatibleStructure(1.0, 0.0, 0.0)
J = CompatibleStructure(0.0, 1.0, 0.0)
K = CompatibleStructure(0.0, 0.0, 1.0)


def apply_structure(A: CompatibleStructure, x: np.ndarray) -> np.ndarray:
    """Apply A = a I + b J + c K to vectors (last axis 4n); norm preserving. In the
    layout A C = -i a C + (b - i c) jC; adding 0.0 clears the products' -0.0."""
    width = np.shape(x)[-1] if np.ndim(x) else 0
    if width % 4 or not width:
        raise DimensionError(f"ambient dimension {width} is not a positive multiple of 4")
    C = _complex_rows(x)
    n = C.shape[-1] // 2
    jC = np.concatenate([C[..., n:].conj(), -C[..., :n].conj()], axis=-1)
    return _real_rows(-1j * A.a * C + complex(A.b, -A.c) * jC) + 0.0


def hermitian_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """H-valued Hermitian product X.Y = <X,Y> + <X,IY>i + <X,JY>j + <X,KY>k, as
    a (4,) quaternion array.

    Positive definite; Y.X is the conjugate of X.Y, and right scalar
    multiplication moves through as (Xp).(Yq) = conj(p) (X.Y) q.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {y.shape}")
    if x.ndim != 1:  # x @ y of two matrices would be a matrix product
        raise DimensionError(f"hermitian_product needs two vectors, got shape {x.shape}")
    return np.array([x @ y, *(x @ apply_structure(A, y) for A in (I, J, K))])


@dataclass(frozen=True, eq=False)
class AdmissibleBasis:
    """SO(3) rotation relating (I,J,K) to another admissible triple."""

    rotation: np.ndarray

    def __post_init__(self):
        try:
            C = np.asarray(self.rotation, dtype=float)
        except (TypeError, ValueError):
            raise StructureError("rotation is not an array of numbers") from None
        if C.shape != (3, 3):
            raise StructureError(f"rotation must be 3x3, got {C.shape}")
        if not np.isfinite(C).all():  # before C^T C, where inf * 0 warns
            raise StructureError("rotation has an entry that is not finite")
        if not np.max(np.abs(C.T @ C - np.eye(3))) <= EPS_ORTH:
            raise StructureError("rotation is not orthogonal within tolerance")
        if np.linalg.det(C) < 0.0:
            raise StructureError("rotation has determinant -1; not in SO(3)")
        object.__setattr__(self, "rotation", C)


def right_multiply(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Right scalar multiplication X q by a quaternion array q (..., 4),
    blockwise on quaternionic coordinates."""
    out = qarr_mul(np.reshape(x, np.shape(x)[:-1] + (-1, 4)), q)
    return out.reshape(out.shape[:-2] + (-1,))


def quaternion_from_rotation(C: np.ndarray) -> np.ndarray:
    """Unit quaternion v with v a conj(v) realizing the SO(3) rotation C on
    imaginary quaternions (defined up to overall sign).

    Shepperd's method: pick the largest of the four squared components.
    """
    C = np.asarray(C, dtype=float)
    t = np.trace(C)
    cand = np.array([1.0 + t, 1.0 + 2 * C[0, 0] - t, 1.0 + 2 * C[1, 1] - t,
                     1.0 + 2 * C[2, 2] - t])
    k = int(np.argmax(cand))
    # entry (i, j), i != j, is 4 q_i q_j
    P = np.array([[0.0, C[2, 1] - C[1, 2], C[0, 2] - C[2, 0], C[1, 0] - C[0, 1]],
                  [C[2, 1] - C[1, 2], 0.0, C[0, 1] + C[1, 0], C[0, 2] + C[2, 0]],
                  [C[0, 2] - C[2, 0], C[0, 1] + C[1, 0], 0.0, C[1, 2] + C[2, 1]],
                  [C[1, 0] - C[0, 1], C[0, 2] + C[2, 0], C[1, 2] + C[2, 1], 0.0]])
    s = np.sqrt(cand[k]) / 2.0
    q = P[k] / (4 * s)
    q[k] = s
    return q / np.linalg.norm(q)

