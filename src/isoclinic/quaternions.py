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
serves the forms and Sp(n). A block x = z + j w' (z = x0 + i x1, w' =
conj(x2 + i x3)) is the complex pair (z, w'), so with q = V.reshape(k, n,
4).view(complex) the rows V are C = (q[..., 0], conj q[..., 1]), (k, 2n).
I is multiplication by -i. With H = conj(C) C^T and B = Z W'^T - W' Z^T
for the halves Z, W' of C: omega_I = Im H, omega_J = Re B, omega_K = -Im B.
g = P + R j in Sp(n) acts C-linearly, C -> C M^T with SpElement.matrix
M = [[P, -R], [conj R, conj P]].
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
    "ambient_dim",
    "apply_structure",
    "hermitian_product",
    "qarr_mul",
    "qarr_conj",
]


# --- array quaternion helpers (last axis of length 4 holds 1,i,j,k parts) ---

# The Hamilton product as a table: term t of component k of a b is
# _SIGN[t, k] * a[t] * b[t ^ k].
_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                  [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def qarr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (...,4) quaternion arrays, broadcasting; C-contiguous.

    T[..., t, k1, k0] = _SIGN[t, k] * a[..., t], k = 2 k1 + k0. With b's
    last axis split as (k1, k0), b[t ^ k] is b reversed on the axes of
    t's set bits, a view, so each term is one broadcast multiply-add.
    Adding the terms in t order with += rounds as the written-out
    a0 b0 - a1 b1 - a2 b2 - a3 b3 does. The result is C-contiguous, so a
    sum over a leading axis adds its rows in turn (on other layouts numpy
    may sum pairwise).
    """
    T = np.asarray(a, dtype=float)[..., None, None] * _SIGN.reshape(4, 2, 2)
    b = np.asarray(b, dtype=float).reshape(np.shape(b)[:-1] + (2, 2))
    out = np.multiply(T[..., 0, :, :], b, order="C")
    for t in (1, 2, 3):
        out += T[..., t, :, :] * b[..., :: 1 - 2 * (t >> 1), :: 1 - 2 * (t & 1)]
    return out.reshape(out.shape[:-2] + (4,))


def qarr_conj(a: np.ndarray) -> np.ndarray:
    """Conjugate of a (...,4) quaternion array."""
    return np.asarray(a, dtype=float) * _CONJ


def ambient_dim(x: np.ndarray) -> int:
    d = np.asarray(x).shape[-1]
    if d % 4 != 0 or d == 0:
        raise DimensionError(f"ambient dimension {d} is not a positive multiple of 4")
    return d


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


# structure action on quaternionic blocks: X -> X * (-i) etc., per block
# (x0,x1,x2,x3) = x0 + x1 i + x2 j + x3 k

def _blocks(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape[:-1] + (x.shape[-1] // 4, 4))


def _unblocks(b: np.ndarray) -> np.ndarray:
    return b.reshape(b.shape[:-2] + (b.shape[-2] * 4,))


# I, J, K = R_{-i}, R_{-j}, R_{-k} on one block as row-vector factors: b -> b @ _B_I.
# Literal: computing them at import time adds about 0.25 MB to every process.
_B_I = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
_B_J = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                 [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_B_K = np.array([[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0],
                 [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CompatibleStructure:
    """A = a I + b J + c K with a^2 + b^2 + c^2 = 1; satisfies A^2 = -Id."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        coeffs = np.array([self.a, self.b, self.c], dtype=float)
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
    """Apply A = a I + b J + c K to vectors (last axis 4n); norm preserving."""
    b4 = _blocks(x)
    B = A.a * _B_I + A.b * _B_J + A.c * _B_K
    return _unblocks((b4.reshape(-1, 4) @ B).reshape(b4.shape))


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
    ambient_dim(x)
    return np.array([x @ y, *(x @ apply_structure(A, y) for A in (I, J, K))])


@dataclass(frozen=True, eq=False)
class AdmissibleBasis:
    """SO(3) rotation relating (I,J,K) to another admissible triple."""

    rotation: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.rotation, dtype=float)
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
    return _unblocks(qarr_mul(_blocks(x), q))


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

