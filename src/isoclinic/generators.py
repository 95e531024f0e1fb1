"""Constructors for the example families, random Sp(n) elements and the
randomized invariance oracle.

Every generator's output is measured after construction; a mismatch with
the requested parameters is a bug, not a warning, so it raises. All
randomness flows through explicit integer seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    IsoclinicProfile,
    _certified_forms,
    _combined_defects,
    _cos2_of,
    _pm1,
    _profile,
    certify_isoclinic,
    full_profile,
    omega_pattern_4,
    two_plane_orbit,
)
from .errors import (DimensionError, FalsificationError, InfeasibleParametersError,
                     NotIsoclinicError)
from .quaternions import (
    I,
    J,
    K,
    apply_structure,
    left_mult_matrix,
    qarr_conj,
    qarr_mul,
    real_from_quaternion_vectors,
)
from .subspaces import Frame, orthonormalize
from .tolerances import (EPS_ANGLE, EPS_BUILD, EPS_FACTOR, EPS_FEASIBLE, EPS_ISO, EPS_ORTH,
                         EPS_PIVOT, EPS_REMAINDER)

__all__ = [
    "SpElement",
    "random_sp",
    "make_rhp",
    "make_quaternionic_line",
    "make_totally_complex_4",
    "make_i_complex_4",
    "make_two_plane",
    "make_profile_4",
    "graph_subspace",
    "direct_sum",
    "embed",
    "OracleReport",
    "invariance_oracle",
]


# ---------------------------------------------------------------------------
# Sp(n)


# left_mult_matrix(m) = sum_c m[c] * _LEFT_BASIS[c], flattened to (4, 16)
_LEFT_BASIS = np.array([left_mult_matrix(e).ravel() for e in np.eye(4)])


@dataclass(frozen=True, eq=False)
class SpElement:
    """Quaternionic unitary matrix acting on H^n by left multiplication.

    `matrix` has shape (n, n, 4). The real representation is a 4n x 4n
    orthogonal matrix commuting with I, J, K entrywise.
    """

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def real_matrix(self) -> np.ndarray:
        """Block (p, q) is left_mult_matrix(matrix[p, q]); built on first use
        and shared read-only afterwards."""
        R = self.__dict__.get("_real")
        if R is None:
            n = self.n
            blocks = (self.matrix.reshape(-1, 4) @ _LEFT_BASIS).reshape(n, n, 4, 4)
            R = blocks.transpose(0, 2, 1, 3).reshape(4 * n, 4 * n)
            R.flags.writeable = False
            object.__setattr__(self, "_real", R)
        return R

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.real_matrix() @ np.asarray(x, dtype=float)

    def apply_frame(self, U: Frame) -> Frame:
        return Frame(U.vectors @ self.real_matrix().T)


def random_sp(n: int, seed: int) -> SpElement:
    """Orthogonalization of an entrywise-Gaussian quaternionic matrix."""
    if n < 1:
        raise DimensionError("n must be a positive integer")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n, 4))
    # right-looking Gram-Schmidt on columns: each final column is projected out
    # of all later ones at once; scalar coefficients multiply on the right
    for r in range(n):
        M[:, r] /= np.sqrt(np.sum(M[:, r] ** 2))
        coef = qarr_mul(qarr_conj(M[:, r, None]), M[:, r + 1 :]).sum(axis=0)
        M[:, r + 1 :] -= qarr_mul(M[:, r, None], coef)
    el = SpElement(M)
    R = el.real_matrix()
    defect = float(np.max(np.abs(R.T @ R - np.eye(4 * n))))
    if not defect <= EPS_ORTH * 100:
        raise FalsificationError(f"random_sp failed orthogonalization (defect {defect:.3e})")
    return el


# ---------------------------------------------------------------------------
# coordinate helpers


def _unit(n: int, q: int) -> np.ndarray:
    v = np.zeros(4 * n)
    v[4 * q] = 1.0
    return v


def _require_finite(name: str, *values: float) -> None:
    """NaN or infinite parameters are infeasible; downstream they would only
    surface as a frame defect or a rank deficiency."""
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise InfeasibleParametersError(f"{name}: parameters must be finite")


def embed(U: Frame, n: int, block_offset: int) -> Frame:
    """Embed a frame of H^m into H^n with its blocks shifted by block_offset."""
    m = U.n
    if block_offset + m > n:
        raise DimensionError("embedding does not fit")
    V = np.zeros((U.dim, 4 * n))
    V[:, 4 * block_offset : 4 * (block_offset + m)] = U.vectors
    return Frame(V)


# ---------------------------------------------------------------------------
# example families


def make_rhp(n: int, k: int) -> Frame:
    """Real Hermitian product subspace of dimension k (needs k <= n)."""
    if k < 1 or k > n:
        raise InfeasibleParametersError(f"r.h.p. of dim {k} needs 1 <= k <= n={n}")
    return Frame(np.vstack([_unit(n, q) for q in range(k)]))


def make_quaternionic_line(n: int, index: int = 0) -> Frame:
    """The characteristic line H*e_index, i.e. one quaternionic coordinate."""
    if not 0 <= index < n:
        raise InfeasibleParametersError(f"index {index} out of range for n={n}")
    V = np.zeros((4, 4 * n))
    V[:, 4 * index : 4 * index + 4] = np.eye(4)
    return Frame(V)


def make_totally_complex_4(n: int) -> Frame:
    """I-invariant 4-dim subspace orthogonal to its J and K images."""
    if n < 2:
        raise InfeasibleParametersError("totally complex 4-dim subspace needs n >= 2")
    e0, e1 = _unit(n, 0), _unit(n, 1)
    return Frame(
        np.vstack([e0, -apply_structure(I, e0), e1, -apply_structure(I, e1)])
    )


def make_i_complex_4(n: int, theta: float) -> Frame:
    """I-complex 4-dim subspace whose pair with JU = KU has angle theta.

    theta = 0 gives a quaternionic line, theta = pi/2 a totally complex
    subspace; the adapted-basis invariants are xi = chi = eta = 0.
    """
    _require_finite("make_i_complex_4", theta)
    if n < 2:
        raise InfeasibleParametersError("I-complex 4-dim subspace needs n >= 2")
    x1 = _unit(n, 0)
    y2 = np.cos(theta) * (-apply_structure(J, x1)) + np.sin(theta) * _unit(n, 1)
    return Frame(
        np.vstack([x1, -apply_structure(I, x1), y2, apply_structure(I, y2)])
    )


def make_two_plane(
    n: int,
    theta_i: float,
    theta_j: float,
    theta_k: float,
    xi: float = 1.0,
    chi: float = 1.0,
) -> Frame:
    """Standard 2-plane with prescribed angles and signs.

    The companion of the leading vector carries components cos(theta_I),
    xi cos(theta_J), chi cos(theta_K) along -I X1, -J X1, -K X1 plus a real
    remainder, so feasibility requires the squared cosines to sum to at
    most 1; xi and chi must be +/-1 where the matching cosine is nonzero.
    """
    _require_finite("make_two_plane", theta_i, theta_j, theta_k, xi, chi)
    cs = np.cos([theta_i, theta_j, theta_k])
    if float(np.sum(cs**2)) > 1.0 + EPS_FEASIBLE:
        raise InfeasibleParametersError(
            "cos^2 theta_I + cos^2 theta_J + cos^2 theta_K must be <= 1"
        )
    for name, sgn, c in (("xi", xi, cs[1]), ("chi", chi, cs[2])):
        if c > EPS_ANGLE and abs(abs(sgn) - 1.0) > EPS_FEASIBLE:
            raise InfeasibleParametersError(f"{name} must be +/-1 when its cosine is nonzero")
    r2 = max(0.0, 1.0 - float(np.sum(cs**2)))
    need_rest = r2 > EPS_REMAINDER
    if n < 2 and need_rest:
        raise InfeasibleParametersError("remainder component needs n >= 2")
    x1 = _unit(n, 0)
    x2 = (
        cs[0] * (-apply_structure(I, x1))
        + xi * cs[1] * (-apply_structure(J, x1))
        + chi * cs[2] * (-apply_structure(K, x1))
    )
    if need_rest:
        x2 = x2 + np.sqrt(r2) * _unit(n, 1)
    plane = Frame(np.vstack([x1, x2]))
    orbit = two_plane_orbit(plane)
    want = np.array([cs[0], xi * cs[1], chi * cs[2]])
    got = orbit.im.as_array()[1:]
    mismatch = float(np.max(np.abs(got - want)))
    if not mismatch <= EPS_BUILD:
        raise FalsificationError(
            f"constructed 2-plane misses the requested parameters (mismatch {mismatch:.3e})"
        )
    return plane


def graph_subspace(mu, n: int = 2) -> Frame:
    """Graph {(q, q mu)} in H^2, embedded in H^n; always isoclinic.

    Left multiplication by unit quaternions is transitive on its unit
    sphere and commutes with I, J, K, which forces isoclinicity with every
    compatible structure.
    """
    if n < 2:
        raise DimensionError("graph subspace lives in H^2 at least")
    if isinstance(mu, (int, float)):
        mu = np.array([float(mu), 0.0, 0.0, 0.0])
    mu = np.asarray(mu, dtype=float)
    _require_finite("graph_subspace", *mu.ravel())
    rows = []
    for q in np.eye(4):
        v = np.zeros(4 * n)
        v[:4] = q
        v[4:8] = qarr_mul(q, mu)
        rows.append(v)
    U = orthonormalize(rows)
    certify_isoclinic(U)
    return U


# ---------------------------------------------------------------------------
# arbitrary 4-dimensional profiles via quaternionic Cholesky


def _quaternion_cholesky(H: np.ndarray, tol: float = EPS_PIVOT) -> np.ndarray:
    """Factor a quaternionic Hermitian PSD matrix as R* R (R upper triangular).

    H has shape (k, k, 4). Zero pivots are skipped, so quaternionic rank
    deficiency (fewer coordinates than vectors) is allowed. Raises
    InfeasibleParametersError if H is not positive semidefinite.
    """
    k = H.shape[0]
    R = np.zeros((k, k, 4))
    for p in range(k):
        d = H[p, p, 0] - float(np.sum(R[:p, p] ** 2))
        if d < -tol:
            raise InfeasibleParametersError(
                f"requested invariants are not realizable (pivot {p}: {d:.3e} < 0)"
            )
        if d <= tol:
            continue
        s = np.sqrt(d)
        R[p, p, 0] = s
        for q in range(p + 1, k):
            acc = H[p, q].copy()
            if p:
                acc -= qarr_mul(qarr_conj(R[:p, p]), R[:p, q]).sum(axis=0)
            R[p, q] = acc / s
    # verify the factorization; catches indefinite H that slipped past pivots
    G = qarr_mul(qarr_conj(R)[:, :, None], R[:, None]).sum(axis=0)
    if not np.max(np.abs(G - H)) <= EPS_FACTOR:
        raise InfeasibleParametersError(
            "requested invariants are not realizable (Gram not PSD)"
        )
    return R


def _frame_from_omegas(omegas: tuple[np.ndarray, np.ndarray, np.ndarray], n: int) -> Frame:
    """Vectors realizing Gram = Id and the three prescribed Kaehler forms.

    Only the nonzero rows of the factor are embedded, so the quaternionic
    rank of the Gram (not the real dimension) bounds the needed n.
    """
    wI, wJ, wK = omegas
    k = wI.shape[0]
    H = np.zeros((k, k, 4))
    H[..., 0] = np.eye(k)
    H[..., 1] = wI
    H[..., 2] = wJ
    H[..., 3] = wK
    R = _quaternion_cholesky(H)
    used = [p for p in range(k) if np.max(np.abs(R[p])) > 0.0]
    if n < len(used):
        raise DimensionError(f"need n >= {len(used)} quaternionic coordinates")
    cols = np.zeros((n, k, 4))
    cols[: len(used)] = R[used]
    return Frame(real_from_quaternion_vectors(cols))


def make_profile_4(
    theta_i: float,
    theta_j: float,
    theta_k: float,
    xi: float,
    chi: float,
    eta: float,
    delta_sign: int = -1,
    n: int = 4,
) -> Frame:
    """4-dim isoclinic subspace with the full prescribed invariant set.

    Gamma is the closed-form function of (xi, chi, eta) and Delta =
    delta_sign * sqrt(1 - Gamma^2), or (1, 0) with an invariant exactly
    +/-1. Infeasible parameter sets (non-PSD quaternionic Gram) raise
    InfeasibleParametersError.
    """
    _require_finite("make_profile_4", theta_i, theta_j, theta_k, xi, chi, eta)
    cI, cJ, cK = np.cos([theta_i, theta_j, theta_k])
    if abs(xi) > 1 or abs(chi) > 1 or abs(eta) > 1:
        raise InfeasibleParametersError("xi, chi, eta must lie in [-1, 1]")
    if 1.0 in (abs(xi), abs(chi), abs(eta)):
        gamma, delta = 1.0, 0.0
    else:
        gamma = (eta - xi * chi) / np.sqrt((1 - xi**2) * (1 - chi**2))
        if abs(gamma) > 1 + EPS_FEASIBLE:
            raise InfeasibleParametersError(f"(xi, chi, eta) give |Gamma| = {abs(gamma):.6f} > 1")
        gamma = float(np.clip(gamma, -1.0, 1.0))
        delta = float(delta_sign) * np.sqrt(max(0.0, 1.0 - gamma**2))
    s_xi = np.sqrt(max(0.0, 1.0 - xi**2))
    s_chi = np.sqrt(max(0.0, 1.0 - chi**2))
    wI = omega_pattern_4(cI, 0.0, 0.0)
    wJ = omega_pattern_4(xi * cJ, 0.0, s_xi * cJ)
    wK = omega_pattern_4(chi * cK, -delta * s_chi * cK, gamma * s_chi * cK)
    U = _frame_from_omegas((wI, wJ, wK), n)
    got = _part_invariants(U)
    if any(_pm1(v) for v in got[3:6]):
        gamma, delta = 1.0, 0.0
    want = np.array([theta_i, theta_j, theta_k, xi, chi, eta, gamma, delta])
    mismatch = float(np.max(np.abs(got - want)))
    if not mismatch <= EPS_BUILD:
        raise FalsificationError(
            f"constructed profile {np.round(got, 6)} does not match requested "
            f"{np.round(want, 6)} (mismatch {mismatch:.3e})"
        )
    return U


# ---------------------------------------------------------------------------
# direct sums


def _part_invariants(U: Frame) -> np.ndarray:
    p = full_profile(U)
    return np.array([p.theta_i, p.theta_j, p.theta_k, p.xi, p.chi, p.eta, p.gamma, p.delta])


def direct_sum(parts: list[Frame], tol: float = EPS_ANGLE) -> Frame:
    """Hermitian-orthogonal sum: parts go into disjoint quaternionic blocks.

    All parts must carry one full IsoclinicProfile within tol. Matching the
    angles and (xi, chi, eta) already makes the sum isoclinic, but parts
    with opposite Delta would mix both module types and leave the sum
    without an orbit label, so the whole profile is required to agree.
    """
    if not parts:
        raise DimensionError("empty direct sum")
    invs = [_part_invariants(p) for p in parts]
    for i, inv in enumerate(invs[1:], start=1):
        if np.max(np.abs(inv - invs[0])) > tol:
            raise NotIsoclinicError(
                f"part {i} profile {np.round(inv, 8)} does not match part 0 "
                f"{np.round(invs[0], 8)}; the sum would not be isoclinic"
            )
    n_total = sum(p.n for p in parts)
    rows = []
    offset = 0
    for p in parts:
        rows.append(embed(p, n_total, offset).vectors)
        offset += p.n
    U = Frame(np.vstack(rows))
    certify_isoclinic(U)
    return U


# ---------------------------------------------------------------------------
# oracle


@dataclass(frozen=True)
class OracleReport:
    """Outcome of a run of the randomized invariance oracle."""

    trials: int
    max_profile_deviation: float
    max_theta_formula_error: float
    max_eta_relation_error: float
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _profile_vector(p: IsoclinicProfile) -> np.ndarray:
    # angle components enter through their cosines: the arccos at an exact-0
    # angle would turn double-precision noise into sqrt-scale angle noise
    return np.array([*p.cosines, p.xi, p.chi, p.eta, p.gamma, p.delta])


def _unit_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """count random unit coefficient rows (a, b, c): the stream and the
    scaling of count draws v = rng.standard_normal(3), v / ||v||."""
    C = rng.standard_normal((count, 3))
    C /= np.sqrt(C[:, None] @ C[:, :, None])[:, 0]
    return C


def _cos2_angle(c2: np.ndarray) -> np.ndarray:
    """cos^2 of the angle analysis._angle gives each entry of c2."""
    return np.cos(np.arccos(np.sqrt(np.clip(c2, 0.0, 1.0)))) ** 2


def invariance_oracle(
    U: Frame,
    trials: int,
    seed: int,
    tol: float = 1e-6,
) -> OracleReport:
    """Re-derive the full profile under random Sp(n) motions of U.

    Refuses (raises NotIsoclinicError) if U itself fails the isoclinicity
    gate. Each trial also validates the quadratic form for theta_A against
    measured angles for 8 random structures, and the eta relation
    eta = xi chi + sqrt(1-xi^2) sqrt(1-chi^2) Gamma.
    """
    base = full_profile(U)
    base_vec = _profile_vector(base)
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    max_theta = 0.0
    max_eta = 0.0
    failures: list[str] = []
    for t in range(trials):
        g = random_sp(U.n, seed=int(rng.integers(0, 2**63 - 1)))
        gU = g.apply_frame(U)
        # full_profile(gU), keeping the forms its gate builds
        try:
            angles, forms, _ = _certified_forms(gU)
        except NotIsoclinicError as exc:
            failures.append(f"trial {t}: gate failure after motion: {exc}")
            continue
        prof = _profile(gU, angles, forms)
        dev = float(np.max(np.abs(_profile_vector(prof) - base_vec)))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(f"trial {t}: profile deviation {dev:.3e}")
        C = _unit_rows(rng, 8)
        defects, c2 = _combined_defects(C, forms)
        errs = np.abs(_cos2_angle(c2) - _cos2_angle(_cos2_of(prof, C)))
        for defect, err in zip(defects, errs):
            if defect >= EPS_ISO:
                failures.append(f"trial {t}: pair (gU, A gU) not isoclinic")
                continue
            max_theta = max(max_theta, float(err))
            if err > tol:
                failures.append(f"trial {t}: theta_A formula error {err:.3e}")
        if not any(_pm1(v) for v in (prof.xi, prof.chi, prof.eta)):
            res = abs(
                prof.eta
                - prof.xi * prof.chi
                - np.sqrt((1 - prof.xi**2) * (1 - prof.chi**2)) * prof.gamma
            )
            max_eta = max(max_eta, float(res))
            if res > tol:
                failures.append(f"trial {t}: eta relation residual {res:.3e}")
    return OracleReport(
        trials=trials,
        max_profile_deviation=max_dev,
        max_theta_formula_error=max_theta,
        max_eta_relation_error=max_eta,
        failures=tuple(failures),
    )
