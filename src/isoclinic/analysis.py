"""Isoclinicity detection, the invariant set and the associated chains.

For a subspace U with (U, AU) isoclinic for every compatible complex
structure A, and a fixed leading unit vector X1 in U, the companions

    X2 = I^{-1} Pr_{IU} X1 / cos(theta_I)   (and Y2, Z2 for J, K)

span the standard 2-planes through X1. The cosines xi = <X2,Y2>,
chi = <X2,Z2>, eta = <Y2,Z2> do not depend on X1. The six chains built
on X1 give two further invariants (Gamma, Delta); together with the
angles of isoclinicity these label the Sp(n)-orbit.

Degenerate conventions: when an angle is pi/2 the missing companion is
identified with an existing one (forcing the matching invariant to 1),
and when an invariant reaches +/-1 the chains collapse as in the
dedicated definitions below. A 2-planes-decomposable subspace has no
canonical chain map; the returned ChainSet is then flagged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateChainError,
    DimensionError,
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
    gram,
    project,
    restrict_complement,
    structure_image,
)
from .tolerances import EPS_ANGLE, EPS_CHAIN, EPS_ISO, EPS_PM1

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
    "standard_omega",
    "cij_block_4",
    "cik_block_4",
    "canonical_matrices_4",
    "omega_K_on_UIJ",
    "TwoPlaneOrbit",
    "two_plane_orbit",
    "full_profile",
    "random_unit_in",
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


def _unit_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """count random unit coefficient rows (a, b, c): the stream and the
    scaling of count draws v = rng.standard_normal(3), v / ||v||."""
    C = rng.standard_normal((count, 3))
    C /= np.sqrt(C[:, None] @ C[:, :, None])[:, 0]
    return C


@functools.lru_cache(maxsize=32)
def _sample_coefficients(count: int, seed: int) -> np.ndarray:
    """Read-only coefficient rows of the gate's seeded random structures."""
    C = _unit_rows(np.random.default_rng(seed), count)
    C.flags.writeable = False
    return C


def _pattern_choices(w: np.ndarray, tol: float) -> set[str]:
    """Which sign choices of the dim-4 normal form a skew matrix fits."""
    a, b, c = w[0, 1], w[0, 2], w[0, 3]
    out = set()
    if np.max(np.abs(w - omega_pattern_4(a, b, c))) < tol:
        out.add("upper")
    if np.max(np.abs(w - omega_pattern_lower_4(a, b, c))) < tol:
        out.add("lower")
    return out


def _gate(U: Frame, check_samples: int, tol: float, seed: int):
    """(angles, witness): witness is (coefficients, deviation) of the first
    failing pair, angles is None in that case. Every structure other than
    I, J, K is tested through omega_A = a omega_I + b omega_J + c omega_K."""
    if U.dim % 2 == 1:
        raise DimensionError(
            "odd-dimensional isoclinic subspaces are exactly the real Hermitian "
            "product subspaces and share a single orbit; even dimension required"
        )
    forms = _forms(U)
    defects, c2 = _pair_defects(forms)
    for A, defect in zip((I, J, K), defects):
        if defect >= tol:
            return None, (A.coefficients(), float(defect))
    if U.dim == 4:
        # pair isoclinicity puts each form into the normal pattern; linear
        # combinations stay isoclinic only under one COMMON sign choice.
        # Without this check, sums of same-angle opposite-sign 2-planes
        # would be falsely certified.
        choices = {"upper", "lower"}
        for A, w, defect in zip((I, J, K), forms, defects):
            fits = _pattern_choices(w, tol)
            if not fits:
                return None, (A.coefficients(), float(defect))
            if np.max(np.abs(w)) > tol:  # a zero form fits both choices
                choices &= fits
        if not choices:
            # witness: the worst equal-weight mixture of two coordinate forms
            mixes = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]) / np.sqrt(2.0)
            defects, _ = _combined_defects(mixes, forms)
            worst = int(np.argmax(defects))
            return None, (mixes[worst], float(defects[worst]))
    if U.dim > 4:
        C = _sample_coefficients(check_samples, seed)
        defects, _ = _combined_defects(C, forms)
        failing = np.flatnonzero(defects >= tol)
        if failing.size:
            return None, (C[failing[0]].copy(), float(defects[failing[0]]))
    return tuple(_angle(c) for c in c2), None


def isoclinic_profile_angles(
    U: Frame, check_samples: int = 8, tol: float = EPS_ISO, seed: int = 0
) -> tuple[float, float, float] | None:
    """(theta_I, theta_J, theta_K) if U passes the isoclinicity gate.

    The three coordinate pairs are always tested. In dimension 4 a
    deterministic sign-consistency test of the three normal forms then
    settles every other structure exactly; above dimension 4
    `check_samples` extra random unit structures are tested. Odd dimension
    is rejected.
    """
    angles, _ = _gate(U, check_samples, tol, seed)
    return angles


def certify_isoclinic(
    U: Frame, check_samples: int = 8, tol: float = EPS_ISO, seed: int = 0
) -> tuple[float, float, float]:
    """Like isoclinic_profile_angles but raises with the failing witness."""
    angles, witness = _gate(U, check_samples, tol, seed)
    if angles is None:
        coeffs, dev = witness
        coeffs = [float(c) for c in coeffs]
        raise NotIsoclinicError(
            f"pair (U, AU) is not isoclinic for A = {[round(c, 6) for c in coeffs]} "
            f"(defect {dev:.3e} >= {tol:.1e})",
            witness=coeffs,
            deviation=dev,
        )
    return angles


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


def _check_member(U: Frame, x: np.ndarray, what: str, tol: float = 1e-8) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if abs(nx - 1.0) > tol:
        raise ValueError(f"{what} must be a unit vector (norm {nx:.6f})")
    if np.linalg.norm(project(U, x) - x) > tol:
        raise ValueError(f"{what} does not lie in the subspace")
    return x


def _companion(U: Frame, A: CompatibleStructure, cos_a: float, v: np.ndarray) -> np.ndarray:
    """A^{-1} Pr_{AU} v / cos_a = -Pr_U(A v) / cos_a, as A^{-1} = -A is an
    isometry; the standard partner of v for the A-form."""
    return -project(U, apply_structure(A, v)) / cos_a


def _third(U: Frame, A: CompatibleStructure, cos_a: float, v4: np.ndarray) -> np.ndarray:
    """-A^{-1} Pr_{AU} v4 / cos_a = Pr_U(A v4) / cos_a; third chain element
    from the fourth."""
    return project(U, apply_structure(A, v4)) / cos_a


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
    cI, cJ, cK = (float(c) for c in cos_abc)

    X2 = _companion(U, I, cI, X1) if have[0] else None
    Y2 = _companion(U, J, cJ, X1) if have[1] else None
    Z2 = _companion(U, K, cK, X1) if have[2] else None

    forced = []
    if X2 is None and Y2 is None and Z2 is None:
        # r.h.p. subspace: any unit vector orthogonal to X1 will do
        X2 = restrict_complement(U, Frame(X1), expect=U.dim - 1).vectors[0]
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
    if U.dim < 4:
        raise DimensionError(f"chains need dim >= 4, got {U.dim}")
    if angles is None:
        angles = certify_isoclinic(U)
    comp = companions(U, X1, angles, tol)
    X1 = np.asarray(X1, dtype=float)
    X2, Y2, Z2 = comp.X2, comp.Y2, comp.Z2
    xi, chi, eta = comp.xi, comp.chi, comp.eta
    cI, cJ, cK = (float(c) for c in np.cos(angles))
    have_i, have_j, have_k = (c > tol for c in (cI, cJ, cK))
    res: dict = {}

    n_pm = sum(_pm1(v) for v in (xi, chi, eta))

    if n_pm == 0:
        sx = np.sqrt(1.0 - xi**2)
        X4 = (Y2 - xi * X2) / sx
        Y4 = (-X2 + xi * Y2) / sx
        X3 = _third(U, I, cI, X4)
        Y3 = _third(U, J, cJ, Y4)
        res["X3-Y3"] = float(np.linalg.norm(X3 - Y3))

        sc = np.sqrt(1.0 - chi**2)
        Xt4 = (Z2 - chi * X2) / sc
        Z4 = (-X2 + chi * Z2) / sc
        Xt3 = _third(U, I, cI, Xt4)
        Z3 = _third(U, K, cK, Z4)
        res["Xt3-Z3"] = float(np.linalg.norm(Xt3 - Z3))

        se = np.sqrt(1.0 - eta**2)
        Yt4 = (Z2 - eta * Y2) / se
        Zt4 = (-Y2 + eta * Z2) / se
        Yt3 = _third(U, J, cJ, Yt4)
        Zt3 = _third(U, K, cK, Zt4)
        res["Yt3-Zt3"] = float(np.linalg.norm(Yt3 - Zt3))

        return ChainSet(
            leading=X1,
            chain_x=np.vstack([X1, X2, X3, X4]),
            chain_y=np.vstack([X1, Y2, Y3, Y4]),
            chain_xt=np.vstack([X1, X2, Xt3, Xt4]),
            chain_z=np.vstack([X1, Z2, Z3, Z4]),
            chain_yt=np.vstack([X1, Y2, Yt3, Yt4]),
            chain_zt=np.vstack([X1, Z2, Zt3, Zt4]),
            xi=xi,
            chi=chi,
            eta=eta,
            angles=tuple(angles),
            convention="generic",
            non_canonical=False,
            forced=comp.forced,
            residuals=res,
        )

    if n_pm == 1:
        if _pm1(xi):
            # base route through the (X2, Z2) pair
            s = np.sqrt(1.0 - chi**2)
            four = (Z2 - chi * X2) / s
            z4 = (-X2 + chi * Z2) / s
            if have_i:
                t = _third(U, I, cI, four)
            else:
                t = _third(U, K, cK, z4)
            sgn = float(np.sign(xi))
            chains = dict(
                x=np.vstack([X1, X2, t, four]),
                y=np.vstack([X1, sgn * X2, t, sgn * four]),
                z=np.vstack([X1, Z2, t, z4]),
            )
            convention = "xi"
        else:
            # base route through the (X2, Y2) pair
            s = np.sqrt(1.0 - xi**2)
            four = (Y2 - xi * X2) / s
            y4 = (-X2 + xi * Y2) / s
            if have_i:
                t = _third(U, I, cI, four)
            else:
                t = _third(U, J, cJ, y4)
            if _pm1(chi):
                sgn = float(np.sign(chi))
                zc = np.vstack([X1, sgn * X2, t, sgn * four])
                convention = "chi"
            else:
                sgn = float(np.sign(eta))
                zc = np.vstack([X1, sgn * Y2, t, sgn * y4])
                convention = "eta"
            chains = dict(
                x=np.vstack([X1, X2, t, four]),
                y=np.vstack([X1, Y2, t, y4]),
                z=zc,
            )
        return ChainSet(
            leading=X1,
            chain_x=chains["x"],
            chain_y=chains["y"],
            chain_xt=chains["x"],
            chain_z=chains["z"],
            chain_yt=chains["y"],
            chain_zt=chains["z"],
            xi=xi,
            chi=chi,
            eta=eta,
            angles=tuple(angles),
            convention=convention,
            non_canonical=False,
            forced=comp.forced,
            residuals=res,
        )

    # all three at +/-1: 2-planes decomposable, Sigma is not a function of X1
    first = restrict_complement(U, Frame(np.vstack([X1, X2])), expect=U.dim - 2)
    t = first.vectors[0]
    if have_i:
        X4 = _companion(U, I, cI, t)
    elif have_j:
        X4 = float(np.sign(xi)) * _companion(U, J, cJ, t)
    elif have_k:
        X4 = float(np.sign(chi)) * _companion(U, K, cK, t)
    else:
        X4 = restrict_complement(
            U, Frame(np.vstack([X1, X2, t])), expect=U.dim - 3
        ).vectors[0]
    sx, sc = float(np.sign(xi)), float(np.sign(chi))
    cx = np.vstack([X1, X2, t, X4])
    cy = np.vstack([X1, sx * X2, t, sx * X4])
    cz = np.vstack([X1, sc * X2, t, sc * X4])
    return ChainSet(
        leading=X1,
        chain_x=cx,
        chain_y=cy,
        chain_xt=cx,
        chain_z=cz,
        chain_yt=cy,
        chain_zt=cz,
        xi=xi,
        chi=chi,
        eta=eta,
        angles=tuple(angles),
        convention="decomposable",
        non_canonical=True,
        forced=comp.forced,
        residuals=res,
    )


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


def standard_omega(k: int, cos_theta: float) -> np.ndarray:
    """Block-diagonal standard form of a skew form on a dim-k standard basis."""
    if k % 2:
        raise DimensionError("standard form needs even dimension")
    out = np.zeros((k, k))
    for p in range(0, k, 2):
        out[p, p + 1] = cos_theta
        out[p + 1, p] = -cos_theta
    return out


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


def random_unit_in(U: Frame, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector of span(U)."""
    v = rng.standard_normal(U.dim) @ U.vectors
    return v / np.linalg.norm(v)


def full_profile(
    U: Frame,
    check_samples: int = 8,
    tol: float = EPS_ISO,
    leading: np.ndarray | None = None,
    seed: int | None = None,
) -> IsoclinicProfile:
    """Measure the complete invariant set of U (raises if not isoclinic).

    The leading vector defaults to the first frame vector; pass `seed` to
    draw it at random instead, or `leading` to fix it.
    """
    angles = certify_isoclinic(U, check_samples=check_samples, tol=tol)
    return _measure(U, angles, leading, seed)


def _measure(U: Frame, angles, leading=None, seed=None) -> IsoclinicProfile:
    """full_profile after its gate, from the certified angles."""
    if leading is None:
        if seed is not None:
            leading = random_unit_in(U, np.random.default_rng(seed))
        else:
            leading = U.vectors[0]
    if U.dim == 2:
        comp = companions(U, leading, angles)
        xi, chi, eta = comp.xi, comp.chi, comp.eta
        gamma, delta = 1.0, 0.0
    else:
        chains = build_chains(U, leading, angles)
        xi, chi, eta = chains.xi, chains.chi, chains.eta
        gamma, delta = gamma_delta(chains)
    return IsoclinicProfile(
        dim=U.dim,
        theta_i=angles[0],
        theta_j=angles[1],
        theta_k=angles[2],
        xi=xi,
        chi=chi,
        eta=eta,
        gamma=gamma,
        delta=delta,
    )
