"""Isoclinicity detection, the invariant set and the associated chains.

For a subspace U with (U, AU) isoclinic for every compatible complex
structure A, and a leading unit vector X1 in U, the companions
X2 = I^{-1} Pr_{IU} X1 / cos(theta_I) (and Y2, Z2 for J, K) span the
standard 2-planes through X1. The cosines xi = <X2,Y2>, chi = <X2,Z2>,
eta = <Y2,Z2> and the (Gamma, Delta) of the six chains on X1 do not
depend on X1; with the angles they label the Sp(n)-orbit. full_profile
reads them all off the gate's Kaehler forms, at no leading vector.

Degenerate conventions: when an angle is pi/2 the missing companion is
identified with an existing one (forcing the matching invariant to 1),
and when an invariant reaches +/-1 the chains collapse as in the
dedicated definitions below. A 2-planes-decomposable subspace has no
canonical chain map; the returned ChainSet is then flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateChainError,
    DimensionError,
    FrameError,
    NotIsoclinicError,
)
from .quaternions import (
    CompatibleStructure,
    I,
    J,
    K,
    Quaternion,
    apply_structure,
)
from .subspaces import (
    Frame,
    OrientedTwoPlane,
    _householder_complement,
    gram,
    project,
    structure_image,
)
from .tolerances import EPS_ANGLE, EPS_CHAIN, EPS_ISO, EPS_MEMBER, EPS_PM1

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
    "omega_pattern_lower_4",
    "cij_block_4",
    "cik_block_4",
    "canonical_matrices_4",
    "omega_K_on_UIJ",
    "TwoPlaneOrbit",
    "two_plane_orbit",
    "full_profile",
]


def omega_matrix(U: Frame, A: CompatibleStructure) -> np.ndarray:
    """Skew matrix of the A-Kaehler form on U: entries <X_p, A X_q>."""
    return gram(U, structure_image(A, U))


def _forms(U: Frame) -> np.ndarray:
    """(omega_I, omega_J, omega_K) as (3, k, k): omega_matrix without image Frames."""
    V = U.vectors
    return np.array([V @ apply_structure(A, V).T for A in (I, J, K)])


def _pair_defects(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|| G G^T - cos^2 Id ||_inf, cos^2) of each k x k mutual Gram matrix in
    a stack G of shape (..., k, k), with cos^2 = trace(G G^T) / k."""
    k = G.shape[-1]
    M = G @ G.swapaxes(-1, -2)
    c2 = np.trace(M, axis1=-2, axis2=-1) / k
    return np.max(np.abs(M - c2[..., None, None] * np.eye(k)), axis=(-2, -1)), c2


def _combined_defects(C: np.ndarray, forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_pair_defects of a omega_I + b omega_J + c omega_K per row (a, b, c) of C;
    one vector-matrix product per row, as a single row's tensordot does."""
    k = forms.shape[-1]
    return _pair_defects((C[:, None] @ forms.reshape(3, -1)).reshape(-1, k, k))


def _angle(c2: float) -> float:
    return float(np.arccos(np.sqrt(np.clip(c2, 0.0, 1.0))))


def isoclinic_pair(U: Frame, W: Frame, tol: float = EPS_ISO) -> float | None:
    """Common principal angle of (U, W) if the pair is isoclinic, else None.

    Tests || G G^T - cos^2(theta) Id ||_inf < tol with
    cos^2(theta) = trace(G G^T) / k.
    """
    if U.dim != W.dim:
        raise DimensionError(f"isoclinic_pair needs equal dims, got {U.dim} != {W.dim}")
    defect, c2 = _pair_defects(gram(U, W))
    return None if defect >= tol else _angle(c2)


def _extreme_eigenvalue(Q: np.ndarray) -> np.ndarray:
    """The eigenvalue of largest modulus of each symmetric 3 x 3 matrix in Q
    (N, 3, 3), from the trigonometric solution of the characteristic cubic."""
    q = np.trace(Q, axis1=1, axis2=2) / 3
    B = Q - q[:, None, None] * np.eye(3)
    p = np.sqrt(np.sum(B * B, axis=(1, 2)) / 6)
    B /= np.where(p > 0, p, 1.0)[:, None, None]
    half_det = np.sum(B[:, 0] * np.cross(B[:, 1], B[:, 2]), axis=1) / 2
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3
    hi, lo = q + 2 * p * np.cos(phi), q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    return np.where(hi >= -lo, hi, lo)


def _extreme_vector(Q: np.ndarray, lam: float) -> np.ndarray:
    """Unit eigenvector of the symmetric 3 x 3 Q for its eigenvalue lam: of
    the cross products of two rows of Q - lam Id (lam simple), of its longest
    row with each axis (lam double) and the axes (Q = lam Id), the one with
    the largest |v^T Q v|, signed so that its largest entry is positive."""
    R = Q - lam * np.eye(3)
    longest = R[np.argmax(np.sum(R * R, axis=1))]
    V = np.vstack([np.cross(R[[0, 0, 1]], R[[1, 2, 2]]), np.cross(longest, np.eye(3)), np.eye(3)])
    norms = np.sqrt(np.sum(V * V, axis=1))
    V = V[norms > 0] / norms[norms > 0, None]
    v = V[np.argmax(np.abs(np.sum((V @ Q) * V, axis=1)))]
    return v * np.sign(v[np.argmax(np.abs(v))])


def _witness(band: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the band entry (N, 3, 3) of largest spectral radius.
    The closed form keeps about 8 digits at a repeated eigenvalue, so entries
    within 1e-6 relative of the largest |lambda| are ranked by the Rayleigh
    quotient of their own eigenvector; quotients within 1e-12 relative tie,
    and a tie goes to the larger closed-form |lambda|, then the lower index."""
    lam = _extreme_eigenvalue(band)
    top = np.abs(lam)
    near = [i for i in np.argsort(-top, kind="stable") if top[i] >= (1.0 - 1e-6) * top.max()]
    vectors = [_extreme_vector(band[i], lam[i]) for i in near]
    quotients = np.array([abs(v @ band[i] @ v) for i, v in zip(near, vectors)])
    return vectors[int(np.argmax(quotients >= (1.0 - 1e-12) * quotients.max()))]


def _gate(U: Frame, tol: float, forms=None):
    """(angles, witness) of the isoclinicity test of (U, AU) for every unit
    A = aI + bJ + cK: witness is (coefficients, deviation) of the worst
    structure, or (None, max ||Q||_F) when no entry reaches the band; the
    deviation bounds every pair defect, and angles is None when it fails.
    `forms` are U's _forms when the caller already has them.

    Entry (i, j) of the traceless part of omega_A omega_A^T is a^T Q_ij a
    for the symmetric 3 x 3 matrix Q_ij of the traceless, symmetrised
    blocks omega_p omega_q^T (the six pair identities), so the sup defect
    over all structures is max_ij rho(Q_ij), attained at an eigenvector of
    the worst entry. As rho <= ||Q||_F <= sqrt(3) rho, only entries in the
    top Frobenius band get eigenvalues, and none do when every ||Q||_F <
    tol. The verdict is the witness's own pair defect against tol.
    """
    if U.dim % 2 == 1:
        raise DimensionError(
            "odd-dimensional isoclinic subspaces are exactly the real Hermitian "
            "product subspaces and share a single orbit; even dimension required"
        )
    if forms is None:
        forms = _forms(U)
    k = U.dim
    # the diagonal blocks as _pair_defects forms them: the angles keep their bits
    M = forms @ forms.swapaxes(1, 2)
    angles = tuple(_angle(c) for c in np.trace(M, axis1=1, axis2=2) / k)
    # blocks (p, q) in the order 00, 11, 22, 01, 02, 12
    S = np.concatenate([M, forms[[0, 0, 1]] @ forms[[1, 2, 2]].swapaxes(1, 2)])
    S = (S + S.swapaxes(1, 2)) / 2
    S -= np.trace(S, axis1=1, axis2=2)[:, None, None] / k * np.eye(k)
    fro = np.sqrt(np.sum(S[:3] ** 2, axis=0) + 2 * np.sum(S[3:] ** 2, axis=0))
    top = float(np.max(fro))
    if top < tol:
        return angles, (None, top)
    rows, cols = np.nonzero(fro >= max(tol, top / np.sqrt(3.0)))
    band = S[:, rows, cols][[0, 3, 4, 3, 1, 5, 4, 5, 2]].T.reshape(-1, 3, 3)
    a = _witness(band)
    deviation = float(_combined_defects(a[None], forms)[0][0])
    # the sup is below tol, or reaches it only by roundoff
    return (angles if deviation < tol else None), (a, deviation)


def isoclinic_profile_angles(U: Frame, tol: float = EPS_ISO) -> tuple[float, float, float] | None:
    """(theta_I, theta_J, theta_K) if (U, AU) is isoclinic within tol for
    every compatible structure A = aI + bJ + cK, else None.

    The test is exact over all unit (a, b, c) in every even dimension: the
    largest pair defect of any structure is the largest spectral radius of
    the 3 x 3 quadratic forms that give the entries of omega_A omega_A^T.
    Odd dimension is rejected.
    """
    return _gate(U, tol)[0]


def certify_isoclinic(U: Frame, tol: float = EPS_ISO) -> tuple[float, float, float]:
    """Like isoclinic_profile_angles but raises NotIsoclinicError naming the
    worst structure (`witness`) and its pair defect (`deviation`)."""
    return _certified_forms(U, tol)[0]


def _certified_forms(U: Frame, tol: float = EPS_ISO):
    """(certify_isoclinic(U, tol), U's _forms, the gate's defect bound)."""
    forms = _forms(U)
    angles, (coeffs, dev) = _gate(U, tol, forms)
    if angles is None:
        coeffs = [float(c) for c in coeffs]
        raise NotIsoclinicError(
            f"pair (U, AU) is not isoclinic for A = {[round(c, 6) for c in coeffs]} "
            f"(defect {dev:.3e} >= {tol:.1e})",
            witness=coeffs,
            deviation=dev,
        )
    return angles, forms, dev


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
    def s_invariant(self) -> float:
        """cos^2 theta_I + cos^2 theta_J + cos^2 theta_K; basis independent."""
        return float(np.sum(self.cosines**2))

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

    cos^2 theta_A is the quadratic form in the coefficients of A with the
    cross terms weighted by xi, chi, eta; the value is clamped into [0,1].
    """
    return _angle(_cos2_of(profile, A.coefficients()))


def _cos2_of(profile: IsoclinicProfile, C: np.ndarray) -> np.ndarray:
    """Unclamped cos^2 theta_A of theta_of_A for coefficient rows C (..., 3)."""
    a1, a2, a3 = np.transpose(C)
    cI, cJ, cK = profile.cosines
    return (
        a1**2 * cI**2
        + a2**2 * cJ**2
        + a3**2 * cK**2
        + 2 * profile.xi * a1 * a2 * cI * cJ
        + 2 * profile.chi * a1 * a3 * cI * cK
        + 2 * profile.eta * a2 * a3 * cJ * cK
    )


# ---------------------------------------------------------------------------
# companions and chains


def _check_member(U: Frame, x: np.ndarray, what: str, tol: float = EPS_MEMBER) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > tol:
        raise FrameError(f"{what} must be a unit vector (norm {nx:.6f})")
    if np.linalg.norm(project(U, x) - x) > tol:
        raise FrameError(f"{what} does not lie in the subspace")
    return x


def _companion(U: Frame, A: CompatibleStructure, cos_a: float, v: np.ndarray) -> np.ndarray:
    """A^{-1} Pr_{AU} v / cos_a = -Pr_U(A v) / cos_a, as A^{-1} = -A is an
    isometry; the standard partner of v for the A-form."""
    return -project(U, apply_structure(A, v)) / cos_a


def _third(U: Frame, A: CompatibleStructure, cos_a: float, v4: np.ndarray) -> np.ndarray:
    """-A^{-1} Pr_{AU} v4 / cos_a = Pr_U(A v4) / cos_a; third chain element
    from the fourth."""
    return project(U, apply_structure(A, v4)) / cos_a


def _complement_row(U: Frame, W: np.ndarray) -> np.ndarray:
    """First vector of the Householder complement in U of the rows W."""
    return (_householder_complement(U.vectors @ W.T, U.dim - len(W)) @ U.vectors)[0]


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


def companions(
    U: Frame,
    X1: np.ndarray,
    angles: tuple[float, float, float],
    tol: float = EPS_ANGLE,
) -> Companions:
    """Companions (X2, Y2, Z2) of X1 and the invariants (xi, chi, eta).

    When an angle is pi/2 the corresponding companion is identified with
    an available one (or an arbitrary unit vector orthogonal to X1 for
    triple orthogonality), which forces the matching invariants to 1.
    """
    X1 = _check_member(U, X1, "leading vector")
    cos_abc = np.cos(angles)
    have = cos_abc > tol
    X2, Y2, Z2 = (_companion(U, A, float(c), X1) if h else None
                  for A, c, h in zip((I, J, K), cos_abc, have))

    forced = []
    if X2 is None and Y2 is None and Z2 is None:
        # r.h.p. subspace: any unit vector orthogonal to X1 will do
        X2 = _complement_row(U, X1[None])
        Y2 = X2
        Z2 = X2
        forced.append("X2=Y2=Z2 arbitrary (triple orthogonality)")
    else:
        if X2 is None:
            X2 = Y2 if Y2 is not None else Z2
            forced.append("X2 identified (cos theta_I = 0)")
        if Y2 is None:
            Y2 = X2
            forced.append("Y2 identified (cos theta_J = 0)")
        if Z2 is None:
            Z2 = X2
            forced.append("Z2 identified (cos theta_K = 0)")

    return Companions(
        X2=X2,
        Y2=Y2,
        Z2=Z2,
        xi=float(X2 @ Y2),
        chi=float(X2 @ Z2),
        eta=float(Y2 @ Z2),
        forced=tuple(forced),
    )


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

    def frames(self) -> dict:
        return {
            "X": Frame(self.chain_x),
            "Y": Frame(self.chain_y),
            "Xt": Frame(self.chain_xt),
            "Z": Frame(self.chain_z),
            "Yt": Frame(self.chain_yt),
            "Zt": Frame(self.chain_zt),
        }


def _pm1(v: float, tol: float = EPS_PM1) -> bool:
    return abs(v) > 1.0 - tol


def _fourths(P2: np.ndarray, Q2: np.ndarray, cos: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourth elements of the chains through companions P2, Q2 with <P2, Q2> = cos."""
    s = np.sqrt(1.0 - cos**2)
    return (Q2 - cos * P2) / s, (-P2 + cos * Q2) / s


def build_chains(
    U: Frame,
    X1: np.ndarray,
    angles: tuple[float, float, float] | None = None,
    tol: float = EPS_ANGLE,
) -> ChainSet:
    """The six chains of U centered on X1 (dimension of U at least 4).

    If all of (xi, chi, eta) are at +/-1 the subspace is 2-planes
    decomposable, the chain map is not a function of X1, and the result is
    flagged non-canonical (third element chosen deterministically from the
    frame, which is an admissible choice).
    """
    if angles is None:
        angles = certify_isoclinic(U)
    if U.dim < 4:
        raise DimensionError(f"chains need dim >= 4, got {U.dim}")
    comp = companions(U, X1, angles, tol)
    X1 = np.asarray(X1, dtype=float)
    X2, Y2, Z2 = comp.X2, comp.Y2, comp.Z2
    xi, chi, eta = comp.xi, comp.chi, comp.eta
    cI, cJ, cK = (float(c) for c in np.cos(angles))
    have_i, have_j, have_k = (c > tol for c in (cI, cJ, cK))
    res: dict = {}

    n_pm = sum(_pm1(v) for v in (xi, chi, eta))

    if n_pm == 0:
        X4, Y4 = _fourths(X2, Y2, xi)
        Xt4, Z4 = _fourths(X2, Z2, chi)
        Yt4, Zt4 = _fourths(Y2, Z2, eta)
        X3, Y3 = _third(U, I, cI, X4), _third(U, J, cJ, Y4)
        Xt3, Z3 = _third(U, I, cI, Xt4), _third(U, K, cK, Z4)
        Yt3, Zt3 = _third(U, J, cJ, Yt4), _third(U, K, cK, Zt4)


        for name, a, b in (("X3-Y3", X3, Y3), ("Xt3-Z3", Xt3, Z3), ("Yt3-Zt3", Yt3, Zt3)):
            res[name] = float(np.linalg.norm(a - b))
        chains = ([X1, X2, X3, X4], [X1, Y2, Y3, Y4], [X1, X2, Xt3, Xt4],
                  [X1, Z2, Z3, Z4], [X1, Y2, Yt3, Yt4], [X1, Z2, Zt3, Zt4])
        convention = "generic"
    elif n_pm == 1:
        if _pm1(xi):
            # base route through the (X2, Z2) pair
            four, z4 = _fourths(X2, Z2, chi)
            t = _third(U, I, cI, four) if have_i else _third(U, K, cK, z4)
            sgn = float(np.sign(xi))
            x, y, z = [X1, X2, t, four], [X1, sgn * X2, t, sgn * four], [X1, Z2, t, z4]
            convention = "xi"
        else:
            # base route through the (X2, Y2) pair
            four, y4 = _fourths(X2, Y2, xi)
            t = _third(U, I, cI, four) if have_i else _third(U, J, cJ, y4)
            x, y = [X1, X2, t, four], [X1, Y2, t, y4]
            if _pm1(chi):
                sgn = float(np.sign(chi))
                z, convention = [X1, sgn * X2, t, sgn * four], "chi"
            else:
                sgn = float(np.sign(eta))
                z, convention = [X1, sgn * Y2, t, sgn * y4], "eta"
        chains = (x, y, x, z, y, z)
    else:
        # all three at +/-1: 2-planes decomposable, Sigma is not a function of X1
        t = _complement_row(U, np.vstack([X1, X2]))
        if have_i:
            X4 = _companion(U, I, cI, t)
        elif have_j:
            X4 = float(np.sign(xi)) * _companion(U, J, cJ, t)
        elif have_k:
            X4 = float(np.sign(chi)) * _companion(U, K, cK, t)
        else:
            X4 = _complement_row(U, np.vstack([X1, X2, t]))
        sx, sc = float(np.sign(xi)), float(np.sign(chi))
        x, y, z = [X1, X2, t, X4], [X1, sx * X2, t, sx * X4], [X1, sc * X2, t, sc * X4]
        chains = (x, y, x, z, y, z)
        convention = "decomposable"
    return ChainSet(X1, *(np.array(c) for c in chains), xi, chi, eta, tuple(angles),
                    convention, convention == "decomposable", comp.forced, res)


def gamma_delta(chains: ChainSet, tol: float = EPS_CHAIN) -> tuple[float, float]:
    """(Gamma, Delta) from the chains.

    When any of (xi, chi, eta) is at +/-1 the chains coincide and
    (Gamma, Delta) = (1, 0). Otherwise Gamma = <X3, X~3> (cross-checked
    against the closed form in (xi, chi, eta)) and Delta = <X4, X~3>,
    recomputed through several equivalent expressions; disagreement
    beyond `tol` raises DegenerateChainError.
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
    bad = {k: abs(a - b) for k, (a, b) in alternates.items() if abs(a - b) > tol}
    if bad:
        raise DegenerateChainError(
            f"equivalent chain expressions disagree beyond {tol:.1e}: {bad}"
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


def omega_pattern_lower_4(a: float, b: float, c: float) -> np.ndarray:
    """The other sign choice of the dim-4 isoclinic normal form."""
    return np.array(
        [
            [0.0, a, b, c],
            [-a, 0.0, -c, b],
            [-b, c, 0.0, -a],
            [-c, -b, a, 0.0],
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


def canonical_matrices_4(
    chains: ChainSet,
    gamma: float,
    delta: float,
    xi: float,
    chi: float,
    tol: float = EPS_CHAIN,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical matrices C_IJ = <X_i, Y_j>, C_IK = <X_i, Z_j> of a dim-4
    subspace, verified against their closed forms in (xi, chi, Gamma, Delta)."""
    if Frame(chains.chain_x).dim != 4:
        raise DimensionError("canonical_matrices_4 needs 4-element chains")
    cij = chains.chain_x @ chains.chain_y.T
    cik = chains.chain_x @ chains.chain_z.T
    xi_eff = float(np.sign(xi)) if _pm1(xi) else xi
    chi_eff = float(np.sign(chi)) if _pm1(chi) else chi
    pred_ij = cij_block_4(xi_eff)
    pred_ik = cik_block_4(chi_eff, gamma, delta)
    dev = max(np.max(np.abs(cij - pred_ij)), np.max(np.abs(cik - pred_ik)))
    if dev > tol:
        raise DegenerateChainError(
            f"canonical matrices deviate from closed form by {dev:.3e}"
        )
    return cij, cik


def omega_K_on_UIJ(chains: ChainSet, gamma: float, delta: float) -> tuple[np.ndarray, float]:
    """Predicted omega^K on the span of the omega^I chain, plus the angle g
    of the pair (U^{IJ}, K U^{IJ}).

    The matrix is the isoclinic normal form with first row built from
    (chi, Gamma, Delta, cos theta_K); cos^2 g = cos^2 theta_K *
    (Gamma^2 + Delta^2 + chi^2 (1 - Gamma^2 - Delta^2)).
    """
    chi = float(np.sign(chains.chi)) if _pm1(chains.chi) else chains.chi
    cK = float(np.cos(chains.angles[2]))
    s = np.sqrt(max(0.0, 1.0 - chi**2))
    mat = omega_pattern_4(chi * cK, -delta * s * cK, gamma * s * cK)
    c2 = cK**2 * (gamma**2 + delta**2 + chi**2 * (1.0 - gamma**2 - delta**2))
    return mat, _angle(c2)


# ---------------------------------------------------------------------------
# 2-planes


@dataclass(frozen=True)
class TwoPlaneOrbit:
    """Orbit data of a 2-plane: imaginary measure plus (angles, xi, chi).

    For an unoriented plane the imaginary measure is only defined up to
    conjugation; `oriented` records which case this is.
    """

    im: Quaternion
    thetas: tuple[float, float, float]
    xi: float
    chi: float
    oriented: bool

    def same_orbit(self, other: "TwoPlaneOrbit", tol: float = EPS_ANGLE) -> bool:
        d_direct = np.max(np.abs(self.im.as_array() - other.im.as_array()))
        if self.oriented and other.oriented:
            return bool(d_direct < tol)
        d_conj = np.max(np.abs(self.im.as_array() + other.im.as_array()))
        return bool(min(d_direct, d_conj) < tol)


def two_plane_orbit(P: OrientedTwoPlane | Frame) -> TwoPlaneOrbit:
    """Sp(n)-orbit data of a 2-plane (oriented if given an oriented pair)."""
    oriented = isinstance(P, OrientedTwoPlane)
    if oriented:
        V1, V2 = P.X, P.Y
    else:
        if P.dim != 2:
            raise DimensionError(f"two_plane_orbit needs a 2-plane, got dim {P.dim}")
        V1, V2 = P.vectors
    cs = np.array(
        [
            V1 @ apply_structure(I, V2),
            V1 @ apply_structure(J, V2),
            V1 @ apply_structure(K, V2),
        ]
    )
    thetas = tuple(float(t) for t in np.arccos(np.clip(np.abs(cs), 0.0, 1.0)))
    plane = Frame(np.vstack([V1, V2]))
    comp = companions(plane, V1, thetas)
    return TwoPlaneOrbit(
        im=Quaternion(0.0, *cs),
        thetas=thetas,
        xi=comp.xi,
        chi=comp.chi,
        oriented=oriented,
    )


# ---------------------------------------------------------------------------
# full profile


def full_profile(U: Frame, tol: float = EPS_ISO) -> IsoclinicProfile:
    """Measure the complete invariant set of U (raises if not isoclinic).

    One gate, then its Kaehler forms: where c_p = cos(theta_p) > 0,
    J_p = omega_p / c_p (a missing J_p identified as in companions), and
    xi, chi, eta = -tr(J_p J_q) / k. Off dim 2 and +/-1, Gamma =
    (eta - xi chi) / (s_xi s_chi), Delta = tr(J_I J_J J_K) / (k s_xi s_chi)
    with s_v = sqrt(1 - v^2); else (Gamma, Delta) = (1, 0).
    """
    angles, forms, _ = _certified_forms(U, tol)
    return _profile(U, angles, forms)


def _profile(U: Frame, angles, forms, snaps=None) -> IsoclinicProfile:
    """full_profile after its gate, from the certified angles and U's
    _forms; snaps[p] says whether invariant p counts as +/-1 (default: its
    measured side of 1 - EPS_PM1), which decides the (Gamma, Delta) branch."""
    k = U.dim
    JI, JJ, JK = (w / c if c > EPS_ANGLE else None for w, c in zip(forms, np.cos(angles)))
    JI = next((J for J in (JI, JJ, JK) if J is not None), None)
    JJ, JK = (JI if J is None else J for J in (JJ, JK))
    if JI is None:  # r.h.p.: every companion is one arbitrary vector
        xi = chi = eta = 1.0
    else:
        # -tr(J_p J_q) = <J_p, J_q>_F, as each J is skew
        xi, chi, eta = (float(np.sum(a * b)) / k for a, b in ((JI, JJ), (JI, JK), (JJ, JK)))
    if snaps is None:
        snaps = [_pm1(v) for v in (xi, chi, eta)]
    gamma, delta = 1.0, 0.0
    if k > 2 and not any(snaps):
        # the parts of J_J, J_K orthogonal to J_I give eta - xi chi and
        # s_xi, s_chi with no cancellation near +/-1, and tr(J_I J_J J_K)
        PJ, PK = JJ - xi * JI, JK - chi * JI
        s = np.sqrt(np.sum(PJ * PJ) * np.sum(PK * PK)) / k
        gamma = float(np.sum(PJ * PK) / (k * s))
        delta = float(np.sum((JI @ PJ) * PK.T) / (k * s))
    return IsoclinicProfile(k, *angles, xi, chi, eta, gamma, delta)
