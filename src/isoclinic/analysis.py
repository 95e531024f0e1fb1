"""Isoclinicity detection, the invariant set and the associated chains.

For a subspace U with (U, AU) isoclinic for every compatible complex
structure A, and a leading unit vector X1 in U, the companions
X2 = I^{-1} Pr_{IU} X1 / cos(theta_I) (and Y2, Z2 for J, K) span the
standard 2-planes through X1. The cosines xi = <X2,Y2>, chi = <X2,Z2>,
eta = <Y2,Z2> and the (Gamma, Delta) of the six chains on X1 do not
depend on X1; with the angles they label the Sp(n)-orbit. full_profile
reads them all off the gate's Kaehler forms, at no leading vector.

In U's coordinates u of X1 the companions are -J_p u, J_p = omega_p /
cos(theta_p), and each chain is a Clifford piece (u, -E_1 u, -E_1 E_2 u,
-E_2 u) of two J_p, orthonormalized to E. A missing J_p (angle pi/2) is
identified with a present one, forcing the matching invariant to 1; an
invariant at +/-1 counts as its sign, and X~ = X, Y~ = Y, Z~ = Z. A
2-planes-decomposable subspace has no canonical chain map (flagged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateChainError,
    DimensionError,
    FalsificationError,
    FrameError,
    NotIsoclinicError,
    RankDeficiencyError,
)
from .quaternions import (
    CompatibleStructure,
    I,
    K,
    _complex_rows,
    _floats,
    apply_structure,
)
from .subspaces import (
    Frame,
    OrientedTwoPlane,
    _mgs,
    gram,
    project,
)
from .tolerances import (EPS_ANGLE, EPS_CHAIN, EPS_ISO, EPS_MEMBER, EPS_PM1, EPS_RANK,
                         EPS_UNION)

__all__ = [
    "omega_matrix",
    "isoclinic_pair",
    "isoclinic_profile_angles",
    "certify_isoclinic",
    "IsoclinicProfile",
    "theta_of_A",
    "Companions",
    "companions",
    "ChainSet",
    "build_chains",
    "gamma_delta",
    "omega_pattern_4",
    "cij_block_4",
    "cik_block_4",
    "omega_K_on_UIJ",
    "TwoPlaneOrbit",
    "two_plane_orbit",
    "full_profile",
]


def omega_matrix(U: Frame, A: CompatibleStructure) -> np.ndarray:
    """Skew matrix of the A-Kaehler form on U: entries <X_p, A X_q>."""
    return np.tensordot(A.coefficients(), _forms(U), 1)


def _forms(U: Frame) -> np.ndarray:
    """(omega_I, omega_J, omega_K) as (3, k, k): _gram_forms of U's complex rows."""
    return _gram_forms(_complex_rows(U.vectors))[1:]


def _gram_forms(C: np.ndarray) -> np.ndarray:
    """(Re H, Im H, Re B, -Im B), the Gram and the three forms, as (4, ..., k, k)
    for complex rows C = (Z, W') (..., k, 2n), as in the quaternions module."""
    n = C.shape[-1] // 2
    H = C.conj() @ C.swapaxes(-1, -2)
    ZW = C[..., :n] @ C[..., n:].swapaxes(-1, -2)
    B = ZW - ZW.swapaxes(-1, -2)
    return np.array([H.real, H.imag, B.real, -B.imag])


# the pairs (p, q) = (I, J), (I, K), (J, K) of the forms
_P, _Q = np.array([0, 0, 1]), np.array([1, 2, 2])


def _pair_defects(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|| G G^T - cos^2 Id ||_inf, cos^2) of each k x k mutual Gram matrix in
    a stack G of shape (..., k, k), with cos^2 = trace(G G^T) / k."""
    k = G.shape[-1]
    M = G @ G.swapaxes(-1, -2)
    c2 = np.trace(M, axis1=-2, axis2=-1) / k
    M.reshape(M.shape[:-2] + (k * k,))[..., :: k + 1] -= c2[..., None]  # the diagonal, in place
    return np.max(np.abs(M, out=M), axis=(-2, -1)), c2


def _trace_gram(forms: np.ndarray) -> np.ndarray:
    """G_pq = tr(omega_p omega_q^T) / k for a stack of _forms (..., 3, k, k): one
    (3, k * k) product per entry, as _gates forms its blocks, so no entry's bits
    depend on the stack."""
    k = forms.shape[-1]
    F = forms.reshape(forms.shape[:-2] + (k * k,))
    return F @ F.swapaxes(-1, -2) / k


def _angle(c2):
    """The angle of each cos^2 in c2, clamped into [0, 1] (np.clip, less dispatch)."""
    return np.arccos(np.sqrt(np.minimum(np.maximum(c2, 0.0), 1.0)))


def isoclinic_pair(U: Frame, W: Frame) -> float | None:
    """Common principal angle of (U, W) if the pair is isoclinic, else None.

    Tests || G G^T - cos^2(theta) Id ||_inf < EPS_ISO with
    cos^2(theta) = trace(G G^T) / k.
    """
    if U.dim != W.dim:
        raise DimensionError(f"isoclinic_pair needs equal dims, got {U.dim} != {W.dim}")
    defect, c2 = _pair_defects(gram(U, W))
    return None if defect >= EPS_ISO else float(_angle(c2))


def _witness(band: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the eigenvalue of largest modulus over the band
    entries (N, 3, 3), from one batched eigh (the lowest entry on a tie),
    signed so that its largest coefficient is positive."""
    values, vectors = np.linalg.eigh(band)
    entry, m = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    a = vectors[entry, :, m]
    return a * np.sign(a[np.argmax(np.abs(a))])


def _gate(forms: np.ndarray, tol: float):
    """_gates of U's _forms (3, k, k) alone."""
    return _gates(forms[None], tol)[0]


def _gates(forms: np.ndarray, tol: float) -> list:
    """(angles, witness) of the isoclinicity test of (U, AU) for every unit
    A = aI + bJ + cK, for each U of a stack of _forms (T, 3, k, k): witness is
    (coefficients, deviation) of the worst structure, or (None, max ||Q||_F)
    when no entry reaches the band; the deviation bounds every pair defect,
    and angles is None when it fails.

    Entry (i, j) of the traceless part of omega_A omega_A^T is a^T Q_ij a
    for the symmetric 3 x 3 matrix Q_ij of the traceless, symmetrised
    blocks omega_p omega_q^T (the six pair identities), so the sup defect
    over all structures is max_ij rho(Q_ij), attained at an eigenvector of
    the worst entry. As rho <= ||Q||_F <= sqrt(3) rho, only entries in the
    top Frobenius band get eigenvalues, and only stack entries whose top
    ||Q||_F reaches tol get an eigh. The verdict is the witness's own pair
    defect against tol.
    """
    k = forms.shape[-1]
    if k % 2 == 1:
        raise DimensionError(
            "odd-dimensional isoclinic subspaces are exactly the real Hermitian "
            "product subspaces and share a single orbit; even dimension required"
        )
    # the diagonal blocks as _pair_defects forms them: the angles keep their bits
    M = forms @ forms.swapaxes(-1, -2)
    angles = _angle(M.trace(axis1=-2, axis2=-1) / k)
    # blocks (p, q) in the order 00, 11, 22, 01, 02, 12
    S = np.concatenate([M, forms[:, _P] @ forms[:, _Q].swapaxes(-1, -2)], axis=1)
    S += S.swapaxes(-1, -2)
    S /= 2
    trace = S.trace(axis1=-2, axis2=-1)
    S.reshape(S.shape[:-2] + (k * k,))[..., :: k + 1] -= trace[..., None] / k  # the diagonal
    fro = np.sqrt(np.add.reduce(S[:, :3] ** 2, axis=1) + 2 * np.add.reduce(S[:, 3:] ** 2, axis=1))
    gates = []
    for i, (a, top) in enumerate(zip(angles.tolist(), fro.max(axis=(1, 2)).tolist())):
        if top < tol:
            gates.append((tuple(a), (None, top)))
            continue
        rows, cols = np.nonzero(fro[i] >= max(tol, top / np.sqrt(3.0)))
        coeffs = _witness(S[i][:, rows, cols][[0, 3, 4, 3, 1, 5, 4, 5, 2]].T.reshape(-1, 3, 3))
        deviation = float(_pair_defects(np.tensordot(coeffs, forms[i], 1))[0])
        # the sup is below tol, or reaches it only by roundoff
        gates.append(((tuple(a) if deviation < tol else None), (coeffs, deviation)))
    return gates


def isoclinic_profile_angles(U: Frame) -> tuple[float, float, float] | None:
    """(theta_I, theta_J, theta_K) if (U, AU) is isoclinic within EPS_ISO for
    every compatible structure A = aI + bJ + cK, else None.

    The test is exact over all unit (a, b, c) in every even dimension: the
    largest pair defect of any structure is the largest spectral radius of
    the 3 x 3 quadratic forms that give the entries of omega_A omega_A^T.
    Odd dimension is rejected.
    """
    return _gate(_forms(U), EPS_ISO)[0]


def certify_isoclinic(U: Frame) -> tuple[float, float, float]:
    """Like isoclinic_profile_angles but raises NotIsoclinicError naming the
    worst structure (`witness`) and its pair defect (`deviation`)."""
    return _certified_forms(U)[0]


def _certified_forms(U: Frame):
    """(certify_isoclinic(U), U's _forms)."""
    forms = _forms(U)
    angles, witness = _gate(forms, EPS_ISO)
    if angles is None:
        raise _not_isoclinic(witness, EPS_ISO)
    return angles, forms


def _not_isoclinic(witness, tol: float) -> NotIsoclinicError:
    """The NotIsoclinicError of a failed gate's witness (coefficients, deviation)."""
    coeffs, dev = [float(c) for c in witness[0]], witness[1]
    text = f"A = {[round(c, 6) for c in coeffs]} (defect {dev:.3e} >= {tol:.1e})"
    return NotIsoclinicError(f"pair (U, AU) is not isoclinic for {text}", coeffs, dev)


@dataclass(frozen=True)
class IsoclinicProfile:
    """Full invariant set of an isoclinic subspace w.r.t. the coordinate basis."""

    dim: int
    theta_i: float
    theta_j: float
    theta_k: float
    xi: float
    chi: float
    eta: float
    gamma: float
    delta: float

    @property
    def cosines(self) -> np.ndarray:
        return np.cos([self.theta_i, self.theta_j, self.theta_k])

    @property
    def dim_class(self) -> int:
        """Theorem-mandated addend dimension: 2, 4 or 8 from dim mod 8."""
        if self.dim % 4 == 2:
            return 2
        if self.dim % 8 == 4:
            return 4
        return 8


def theta_of_A(profile: IsoclinicProfile, A: CompatibleStructure) -> float:
    """Angle of isoclinicity of (U, AU) from the invariants alone.

    cos^2 theta_A = a^T G a for the coefficients a of A and the G of
    _formula_gram; the value is clamped into [0, 1].
    """
    a, p = A.coefficients(), profile
    return float(_angle(a @ _formula_gram(p.cosines, p.xi, p.chi, p.eta) @ a))


def _formula_gram(cos, xi, chi, eta) -> np.ndarray:
    """G = diag(c) X diag(c), X = [[1, xi, chi], [xi, 1, eta], [chi, eta, 1]],
    for cosines c (..., 3) and invariants of shape (...): the _trace_gram of
    the invariants, so cos^2 theta_A = tr(omega_A omega_A^T) / k = a^T G a."""
    one = np.ones_like(xi)
    X = np.moveaxis(np.array([[one, xi, chi], [xi, one, eta], [chi, eta, one]]), (0, 1), (-2, -1))
    return cos[..., :, None] * X * cos[..., None, :]


# ---------------------------------------------------------------------------
# companions and chains


def _check_member(U: Frame, x: np.ndarray, what: str) -> np.ndarray:
    x = _floats(x)
    if x.shape != (U.ambient,):
        raise FrameError(f"{what} must be a vector of length {U.ambient}, got shape {x.shape}")
    nx = np.linalg.norm(x)
    if not abs(nx - 1.0) <= EPS_MEMBER:
        raise FrameError(f"{what} must be a unit vector (norm {nx:.6f})")
    if not np.linalg.norm(project(U, x) - x) <= EPS_MEMBER:
        raise FrameError(f"{what} does not lie in the subspace")
    return x


def _normalised(forms: np.ndarray, angles) -> np.ndarray:
    """J_p = omega_p / c_p for forms (..., 3, ...) and angles (..., 3), entry by
    entry, where c_p = cos(theta_p) > EPS_ANGLE. A missing J_p is identified with a
    present one (J_I := J_J or J_K, then J_J, J_K := J_I), forcing the
    matching invariants to 1; none present (r.h.p.) gives zeros."""
    cos = np.cos(angles)
    have = cos > EPS_ANGLE
    if have.all():  # every J_p present: the rule below, in one division
        return forms / cos.reshape(cos.shape + (1,) * (forms.ndim - cos.ndim))
    # each p's source: itself if present, else the first present one; with
    # none present, a division by inf
    cos, have = cos.reshape(-1, 3), have.reshape(-1, 3)
    entry, src = np.arange(len(cos))[:, None], np.where(have, range(3), have.argmax(1)[:, None])
    c = np.where(have.any(axis=1, keepdims=True), cos[entry, src], np.inf)
    J = forms.reshape(cos.shape + forms.shape[np.ndim(angles):])[entry, src]
    return (J / c.reshape(c.shape + (1,) * (J.ndim - 2))).reshape(forms.shape)


def _generators(forms: np.ndarray) -> np.ndarray:
    """E (r, k, k): the forms (m, k, k) Gram-Schmidt orthonormalized under
    <X, Y> = tr(X^T Y) / k (of the Kaehler forms, E_1 = J_I where c_I > 0).
    A form whose residual is at most EPS_ANGLE is dropped: a cos(theta_p) =
    0, or an invariant xi, chi, eta or Gamma at +/-1."""
    k = forms.shape[-1]
    E, _ = _mgs(forms.reshape(len(forms), -1) / np.sqrt(k), EPS_ANGLE)
    return E.reshape(-1, k, k) * np.sqrt(k)


# the pairs (p, q), p <= q, of r = 0, 1, 2, 3 generators, the r pairs p = q first
_PAIRS = (([], []), ([0], [0]), ([0, 1, 0], [0, 1, 1]), ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]))


def _union_tol(E: np.ndarray) -> float:
    """EPS_UNION plus max |E_p E_q + E_q E_p + 2 delta_pq Id|, which bounds
    the Gram defect of a cyclic piece: on a certified input, its defect
    times the conditioning of the forms. Every E_p E_q, p <= q, comes from
    one product, and E_q E_p = (E_p E_q)^T, as E is skew."""
    p, q = _PAIRS[len(E)]
    k = E.shape[-1]
    P = E[p] @ E[q]
    P += P.swapaxes(1, 2)
    P.reshape(len(P), k * k)[: len(E), :: k + 1] += 2.0  # the diagonals of the pairs p = q
    return EPS_UNION + float(np.max(np.abs(P), initial=0.0))


def _pieces(E: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """Rows u, -E_1 u, -E_1 E_2 u, -E_2 u of the cyclic submodule through
    each lead u of X (m, k), cut to their first p (u or u, -E_1 u when 0 or 1
    generators survive), stacked lead by lead: the omega^I chain [X1, X2, X3,
    X4] through u. One product gives every -E_p u, one more every -E_1 E_2 u."""
    Y = -(E[:2] @ X.T)
    pieces = [X.T, *Y] if len(Y) < 2 else [X.T, Y[0], E[0] @ Y[1], Y[1]]
    return np.stack(pieces[:p]).transpose(2, 0, 1).reshape(-1, X.shape[-1])


def _require_pieces(E: np.ndarray, Z: np.ndarray) -> None:
    """FalsificationError unless every piece of the stack Z (m, p, k) is
    orthonormal within _union_tol(E)."""
    defect = np.max(np.abs(Z @ Z.swapaxes(1, 2) - np.eye(Z.shape[1])))
    if defect <= EPS_UNION and np.isfinite(E).all():
        return  # _union_tol(E) >= EPS_UNION; a NaN in E_3, which only it reads, must raise
    if not defect <= _union_tol(E):
        raise FalsificationError(f"Clifford pieces are not orthogonal (Gram defect {defect:.3e}); "
                                 "construction hypotheses violated")


def _adapted(E: np.ndarray, u, dim: int, cut: int, rng=None) -> np.ndarray:
    """dim orthonormal coordinate rows adapted to the module of the
    generators E, in blocks of cut rows: the Clifford pieces of p =
    min(piece length, cut) rows through dim / p leads, from one product,
    orthonormalised by one QR of their transpose with columns signed by R's
    diagonal (row-order Gram-Schmidt). The rows before a piece span a
    submodule, so the piece projected off them is the piece of its lead so
    projected; the piece through each lead so projected and normalised
    (column jp of Q; u itself first) must be orthonormal (_require_pieces).
    The block L_jj L_jj^T / L_jj[0, 0]^2 of L = R^T would add the leak of
    the lead's part in the rows before it, amplified by that part's ratio to
    the rest. A row within EPS_RANK max(1, largest row norm) of the rows
    before it is a RankDeficiencyError. The first lead is u, or e_0 with u
    and rng None; the others are normalised Gaussian draws from rng (with
    none, from one default_rng(0) made when needed), in one call. A drawn
    lead within EPS_RANK of the rows before it, as only a deliberately
    chosen u makes it, gives way to the stream's next draw, as in a sweep
    drawing one lead at a time. A lone piece is returned as built, checked."""
    k = E.shape[-1]
    p = min(2 ** min(len(E), 2), cut)
    m = dim // p
    u = np.eye(k)[0] if u is None and rng is None else u
    X = np.empty((0, k)) if u is None else u[None]
    given = len(X)

    def draws(n: int) -> np.ndarray:
        G = rng.standard_normal((n, k))
        return G / np.linalg.norm(G, axis=1, keepdims=True)

    if m > given:
        rng = np.random.default_rng(0) if rng is None else rng
        X = np.concatenate([X, draws(m - given)])
    V = _pieces(E, X, p)
    if m == 1:
        _require_pieces(E, V[None])
        return V
    while True:
        Q, R = np.linalg.qr(V.T)
        d = R.diagonal()
        near = np.flatnonzero(np.abs(d[given * p :: p]) <= EPS_RANK)
        if not near.size:
            break
        X = np.concatenate([np.delete(X, given + near[0], axis=0), draws(1)])
        V = _pieces(E, X, p)
    # each drawn lead projected off the rows before it and normalised
    X[given:] = (Q[:, given * p :: p] * np.sign(d[given * p :: p])).T
    _require_pieces(E, _pieces(E, X, p).reshape(m, p, k))
    rank = int(np.sum(np.abs(d) > EPS_RANK * max(1.0, np.linalg.norm(V, axis=1).max())))
    if rank != dim:
        raise RankDeficiencyError(detected_rank=rank, expected=dim)
    return (Q * np.sign(d)).T


@dataclass(frozen=True, eq=False)
class Companions:
    """Standard partners of a leading vector and the cosines between them."""

    X2: np.ndarray
    Y2: np.ndarray
    Z2: np.ndarray
    xi: float
    chi: float
    eta: float
    forced: tuple[str, ...] = ()


def companions(U: Frame, X1: np.ndarray) -> Companions:
    """Companions (X2, Y2, Z2) of X1 and the invariants (xi, chi, eta), read
    off U's one certified gate (raises NotIsoclinicError when it fails).

    X2 = I^{-1} Pr_{IU} X1 / cos(theta_I) is -J_I u in U's coordinates u of
    X1 (Y2, Z2 likewise); a missing J_p is identified as in _normalised,
    reporting the matching invariants as exactly 1, and with all three missing
    (r.h.p.) X2 = Y2 = Z2 is the sweep's second lead from u (_adapted): a
    default_rng(0) Gaussian draw projected off u and normalised.
    """
    return _companions(U, X1, *_certified_forms(U))


def _companions(U: Frame, X1: np.ndarray, angles, forms: np.ndarray) -> Companions:
    """companions(U, X1) from U's certified angles and _forms; two of one source J_p give 1."""
    u = U.vectors @ _check_member(U, X1, "leading vector")
    have = np.cos(angles) > EPS_ANGLE
    forced = (("X2=Y2=Z2 arbitrary (triple orthogonality)",) if not have.any() else
              tuple(f"{x}2 identified (cos theta_{p} = 0)"
                    for x, p, h in zip("XYZ", "IJK", have) if not h))
    rows = (-(_normalised(forms, angles) @ u) if have.any() else
            _adapted(np.zeros((0, U.dim, U.dim)), u, 2, 2)[[1, 1, 1]]) @ U.vectors
    src = np.where(have, range(3), have.argmax())
    values = (1.0 if src[p] == src[q] else float(rows[p] @ rows[q]) for p, q in zip(_P, _Q))
    return Companions(*rows, *values, forced)


@dataclass(frozen=True, eq=False)
class ChainSet:
    """The six chains centered on a leading vector.

    chain_x / chain_xt are omega^I-standard, chain_y / chain_yt are
    omega^J-standard, chain_z / chain_zt are omega^K-standard; each is a
    (4, 4n) array of rows (leading, companion, third, fourth). The third
    elements satisfy X3 = Y3, X~3 = Z3, Y~3 = Z~3 (residuals recorded).

    convention: which chain definition applied --
      "generic"      none of xi, chi, eta at +/-1,
      "xi"/"chi"/"eta" exactly that invariant at +/-1,
      "decomposable" all three at +/-1 (non-canonical third element).
    """

    leading: np.ndarray
    chain_x: np.ndarray
    chain_y: np.ndarray
    chain_xt: np.ndarray
    chain_z: np.ndarray
    chain_yt: np.ndarray
    chain_zt: np.ndarray
    xi: float
    chi: float
    eta: float
    angles: tuple[float, float, float]
    convention: str
    non_canonical: bool
    forced: tuple[str, ...] = ()
    residuals: dict = field(default_factory=dict, compare=False)


def _pm1(v: float) -> bool:
    return abs(v) > 1.0 - EPS_PM1


def build_chains(U: Frame, X1: np.ndarray) -> ChainSet:
    """The six chains of U centered on X1 (dimension of U at least 4), read
    off U's one certified gate (raises NotIsoclinicError when it fails).

    Each chain is the Clifford piece through X1 (see decompose) of the
    _normalised forms in its own order, of which the first two that survive
    Gram-Schmidt are used: X of (J_I, J_J, J_K), Y of (J_J, -J_I, s_xi J_K),
    X~ of (J_I, J_K, J_J), Z of (J_K, -s_eta J_I, s_chi J_J), Y~ of (J_J,
    J_K, J_I), Z~ of (J_K, -J_J, J_I). An invariant v at +/-1 counts as its
    sign s_v (else s_v = 1): J_J := s_xi J_I, J_K := s_chi J_I or s_eta J_J,
    so its chain falls through to the next form, and X~ = X, Y~ = Y, Z~ = Z.
    With all three at +/-1 the subspace is 2-planes decomposable: one form
    survives, the third element is the sweep's next lead (a default_rng(0)
    Gaussian draw projected off the rows built, as in _adapted), the chain
    map is not a function of X1 and the result is flagged non-canonical.
    """
    angles, forms = _certified_forms(U)
    if U.dim < 4:
        raise DimensionError(f"chains need dim >= 4, got {U.dim}")
    comp = _companions(U, X1, angles, forms)
    X1 = np.asarray(X1, dtype=float)
    u = U.vectors @ X1
    J = _normalised(forms, angles)
    values = (comp.xi, comp.chi, comp.eta)
    snaps = [_pm1(v) for v in values]
    if sum(snaps) > 1:  # two at +/-1 leave the third within 4 EPS_PM1 of it
        snaps = [True] * 3
    sx, sc, se = (float(np.sign(v)) if snap else 1.0 for v, snap in zip(values, snaps))
    if snaps[0]:
        J[1] = sx * J[0]
    if snaps[1]:
        J[2] = sc * J[0]
    elif snaps[2]:
        J[2] = se * J[1]
    orders = [(J[0], J[1], J[2]), (J[1], -J[0], sx * J[2]), (J[2], -se * J[0], sc * J[1])]
    if not any(snaps):
        orders += [(J[0], J[2], J[1]), (J[1], J[2], J[0]), (J[2], -J[1], J[0])]
    x, y, z, *tilde = (_adapted(_generators(np.array(o)), u, 4, 4) @ U.vectors for o in orders)
    xt, yt, zt = tilde or (x, y, z)
    res = {} if any(snaps) else {"X3-Y3": float(np.linalg.norm(x[2] - y[2])),
                                 "Xt3-Z3": float(np.linalg.norm(xt[2] - z[2])),
                                 "Yt3-Zt3": float(np.linalg.norm(yt[2] - zt[2]))}
    n_pm = sum(snaps)
    convention = ("generic" if n_pm == 0 else ("xi", "chi", "eta")[snaps.index(True)]
                  if n_pm == 1 else "decomposable")
    return ChainSet(X1, x, y, xt, z, yt, zt, *values, tuple(angles), convention,
                    convention == "decomposable", comp.forced, res)


def gamma_delta(chains: ChainSet) -> tuple[float, float]:
    """(Gamma, Delta) from the chains.

    When any of (xi, chi, eta) is at +/-1 the chains coincide and
    (Gamma, Delta) = (1, 0). Otherwise Gamma = <X3, X~3> (cross-checked
    against the closed form in (xi, chi, eta)) and Delta = <X4, X~3>,
    recomputed through several equivalent expressions; disagreement
    beyond EPS_CHAIN raises DegenerateChainError.
    """
    if chains.convention != "generic":
        return 1.0, 0.0
    X1 = chains.leading
    X3, X4 = chains.chain_x[2], chains.chain_x[3]
    Xt3, Xt4 = chains.chain_xt[2], chains.chain_xt[3]
    Z2 = chains.chain_z[1]
    xi, chi, eta = chains.xi, chains.chi, chains.eta
    cI, _, cK = (float(c) for c in np.cos(chains.angles))

    gamma = float(X3 @ Xt3)
    delta = float(X4 @ Xt3)

    gamma_formula = (eta - xi * chi) / np.sqrt((1.0 - xi**2) * (1.0 - chi**2))
    s_chi = np.sqrt(1.0 - chi**2)
    alternates = {
        "formula(Gamma)": (gamma, gamma_formula),
        "<X4,I Xt4>/cI": (delta, float(X4 @ apply_structure(I, Xt4)) / cI),
        "<X3,I Xt3>/cI": (delta, float(X3 @ apply_structure(I, Xt3)) / cI),
        "-<X3,Z2>/s_chi": (delta, -float(X3 @ Z2) / s_chi),
        "-<X1,K X3>/(cK s_chi)": (
            delta,
            -float(X1 @ apply_structure(K, X3)) / (cK * s_chi),
        ),
        "Gram block": (float(X4 @ Xt4), gamma),
        "skew block": (float(X3 @ Xt4), -delta),
    }
    bad = {k: abs(a - b) for k, (a, b) in alternates.items() if abs(a - b) > EPS_CHAIN}
    if bad:
        raise DegenerateChainError(
            f"equivalent chain expressions disagree beyond {EPS_CHAIN:.1e}: {bad}"
        )
    return gamma, delta


# ---------------------------------------------------------------------------
# canonical matrices (dimension 4) and the omega^K law on type-U^{IJ} spaces


def omega_pattern_4(a: float, b: float, c: float) -> np.ndarray:
    """Skew 4x4 with orthogonal rows; the isoclinic normal form (upper signs)."""
    return np.array(
        [
            [0.0, a, b, c],
            [-a, 0.0, c, -b],
            [-b, -c, 0.0, a],
            [-c, b, -a, 0.0],
        ]
    )


def cij_block_4(xi: float) -> np.ndarray:
    s = np.sqrt(max(0.0, 1.0 - xi**2))
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, xi, 0.0, -s],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, s, 0.0, xi],
        ]
    )


def cik_block_4(chi: float, gamma: float, delta: float) -> np.ndarray:
    s = np.sqrt(max(0.0, 1.0 - chi**2))
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, chi, 0.0, -s],
            [0.0, -delta * s, gamma, -delta * chi],
            [0.0, gamma * s, delta, gamma * chi],
        ]
    )


def omega_K_on_UIJ(chains: ChainSet) -> tuple[np.ndarray, float]:
    """Predicted omega^K on the span of the omega^I chain, plus the angle g
    of the pair (U^{IJ}, K U^{IJ}), from the chains' own gamma_delta.

    The matrix is the isoclinic normal form with first row built from
    (chi, Gamma, Delta, cos theta_K); cos^2 g = cos^2 theta_K *
    (Gamma^2 + Delta^2 + chi^2 (1 - Gamma^2 - Delta^2)).
    """
    gamma, delta = gamma_delta(chains)
    chi = float(np.sign(chains.chi)) if _pm1(chains.chi) else chains.chi
    cK = float(np.cos(chains.angles[2]))
    s = np.sqrt(max(0.0, 1.0 - chi**2))
    mat = omega_pattern_4(chi * cK, -delta * s * cK, gamma * s * cK)
    c2 = cK**2 * (gamma**2 + delta**2 + chi**2 * (1.0 - gamma**2 - delta**2))
    return mat, float(_angle(c2))


# ---------------------------------------------------------------------------
# 2-planes


@dataclass(frozen=True, eq=False)
class TwoPlaneOrbit:
    """Orbit data of a 2-plane: imaginary measure plus (angles, xi, chi).

    The imaginary measure `im` is a (4,) quaternion array with real part 0.
    For an unoriented plane it is only defined up to conjugation; `oriented`
    records which case this is.
    """

    im: np.ndarray
    thetas: tuple[float, float, float]
    xi: float
    chi: float
    oriented: bool

    def same_orbit(self, other: "TwoPlaneOrbit") -> bool:
        d_direct = np.max(np.abs(self.im - other.im))
        if self.oriented and other.oriented:
            return bool(d_direct < EPS_ANGLE)
        d_conj = np.max(np.abs(self.im + other.im))
        return bool(min(d_direct, d_conj) < EPS_ANGLE)


def two_plane_orbit(P: OrientedTwoPlane | Frame) -> TwoPlaneOrbit:
    """Sp(n)-orbit data of a 2-plane (oriented if given an oriented pair), read
    off the plane's gate, which every 2-plane passes: the angles are the
    gate's, the imaginary measure is the forms' entries omega_p[0, 1]."""
    oriented = isinstance(P, OrientedTwoPlane)
    plane = P.frame() if oriented else P
    if plane.dim != 2:
        raise DimensionError(f"two_plane_orbit needs a 2-plane, got dim {plane.dim}")
    thetas, forms = _certified_forms(plane)
    comp = _companions(plane, plane.vectors[0], thetas, forms)
    return TwoPlaneOrbit(
        im=np.array([0.0, *forms[:, 0, 1]]),
        thetas=thetas,
        xi=comp.xi,
        chi=comp.chi,
        oriented=oriented,
    )


# ---------------------------------------------------------------------------
# full profile


def full_profile(U: Frame) -> IsoclinicProfile:
    """Measure the complete invariant set of U (raises if not isoclinic).

    One _profile_pass: its gate, then its Kaehler forms: where c_p = cos(theta_p) > 0,
    J_p = omega_p / c_p (a missing J_p identified as in companions), and
    xi, chi, eta = -tr(J_p J_q) / k. Off dim 2 and +/-1, Gamma =
    (eta - xi chi) / (s_xi s_chi), Delta = tr(J_I J_J J_K) / (k s_xi s_chi)
    with s_v = sqrt(1 - v^2); else (Gamma, Delta) = (1, 0).
    """
    return _as_profile(_profile_row(U), U.dim)


def _profile_row(U: Frame) -> np.ndarray:
    """The _profiles row of full_profile(U): the _profile_pass of U alone."""
    _, _, ((_, witness),), (row,) = _profile_pass(_complex_rows(U.vectors)[None], EPS_ISO)
    if row is None:
        raise _not_isoclinic(witness, EPS_ISO)
    return row


def _profile_pass(C: np.ndarray, tol: float) -> tuple:
    """The measuring pass of complex rows C (T, k, 2n): one _gram_forms, one _gates
    at tol and one _profiles of the entries that pass. Returns (Gram (T, k, k),
    _forms (T, 3, k, k), gates, rows), where rows[t] is entry t's _profiles row,
    None when its gate failed."""
    gram_forms = _gram_forms(C)
    forms = np.ascontiguousarray(gram_forms[1:].swapaxes(0, 1))  # a copy only when T > 1
    gates = _gates(forms, tol)
    ok = [angles is not None for angles, _ in gates]
    pick = slice(None) if all(ok) else np.array(ok)  # no copies when every gate passes
    angles = np.array([angles for angles, _ in gates if angles is not None]).reshape(-1, 3)
    passed = iter(_profiles(angles, forms[pick]))
    return gram_forms[0], forms, gates, [next(passed) if good else None for good in ok]


def _as_profile(row: np.ndarray, k: int) -> IsoclinicProfile:
    """The dim-k IsoclinicProfile of one row of _profiles."""
    return IsoclinicProfile(k, *row.tolist())


def _profiles(angles: np.ndarray, forms: np.ndarray, snaps=None) -> np.ndarray:
    """full_profile after its gate of T entries, from their certified angles (T,
    3) and _forms (T, 3, k, k): rows (theta_I, theta_J, theta_K, xi, chi, eta,
    Gamma, Delta). snaps (T, 3) says whether invariant p counts as +/-1
    (default: its measured side of 1 - EPS_PM1), which decides the (Gamma,
    Delta) branch. Each sum runs over one entry's k * k values, in order."""
    T, _, k, _ = forms.shape
    J = _normalised(forms, angles).reshape(T, 3, k * k)
    # (xi, chi, eta) = -tr(J_p J_q) / k = <J_p, J_q>_F / k, as each J is skew
    out = np.zeros((T, 8))
    out[:, :3], out[:, 6] = angles, 1.0
    v = out[:, 3:6]
    np.divide(np.add.reduce(J[:, _P] * J[:, _Q], axis=2), k, out=v)
    have = np.cos(angles) > EPS_ANGLE
    if not have.all():  # an invariant of two J_p of one source (_normalised) is exactly 1
        src = np.where(have, range(3), have.argmax(1)[:, None])
        v[src[:, _P] == src[:, _Q]] = 1.0
    gen = ~(_pm1(v) if snaps is None else np.asarray(snaps)).any(axis=1)
    if k > 2 and gen.any():
        # the parts P = (PJ, PK) of J_J, J_K orthogonal to J_I give eta - xi chi
        # and s_xi, s_chi with no cancellation near +/-1, and tr(J_I J_J J_K)
        gen = slice(None) if gen.all() else gen  # no copy when every entry is generic
        J = J[gen]
        P = J[:, 1:] - v[gen, :2, None] * J[:, :1]
        n = np.add.reduce(P[:, [0, 1, 0]] * P[:, [0, 1, 1]], axis=2)  # |PJ|^2, |PK|^2, <PJ, PK>
        JI, PJ, PK = (X.reshape(-1, k, k) for X in (J[:, 0], P[:, 0], P[:, 1]))
        ks = k * (np.sqrt(n[:, 0] * n[:, 1]) / k)
        out[gen, 6] = n[:, 2] / ks
        D = ((JI @ PJ) * PK.swapaxes(1, 2)).reshape(-1, k * k)  # tr(J_I PJ PK^T) summands
        out[gen, 7] = np.add.reduce(D, axis=1) / ks
    return out
