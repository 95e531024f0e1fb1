"""Constructors for the example families, random Sp(n) elements and the
randomized invariance oracle.

make_two_plane, make_profile_4, graph_subspace and direct_sum measure their
output after construction; a mismatch with the requested parameters is a
bug, not a warning, so it raises. make_rhp, make_quaternionic_line,
make_totally_complex_4 and make_i_complex_4 are coordinate constructions
that only Frame's orthonormality check covers. All randomness flows through
explicit integer seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    IsoclinicProfile,
    _angle,
    _as_profile,
    _combined_defects,
    _cos2_of,
    _not_isoclinic,
    _pm1,
    _profile_pass,
    _profile_row,
    _profiles,
    certify_isoclinic,
    omega_pattern_4,
    two_plane_orbit,
)
from .errors import (DimensionError, FalsificationError, InfeasibleParametersError,
                     NotIsoclinicError)
from .quaternions import (
    I,
    J,
    K,
    _complex_rows,
    _real_rows,
    apply_structure,
    qarr_conj,
    qarr_mul,
)
from .subspaces import Frame, orthonormalize, _count, _require_orthonormal, _seeded_rng
from .tolerances import (EPS_ANGLE, EPS_BUILD, EPS_FACTOR, EPS_FEASIBLE, EPS_ISO, EPS_ORBIT,
                         EPS_ORTH, EPS_PIVOT, EPS_REMAINDER)

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


@dataclass(frozen=True, eq=False)
class SpElement:
    """g = P + R j in Sp(n) as its complex matrix [[P, -R], [conj R, conj P]],
    acting on complex rows (see the quaternions module); checked unitary and
    of this form within EPS_ORTH * 100 on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix)
        object.__setattr__(self, "matrix", M)
        if M.dtype != complex or M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise DimensionError(f"expected a complex (2n, 2n) matrix, got {M.dtype} {M.shape}")
        _require_sp(M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def apply(self, x: np.ndarray) -> np.ndarray:
        """g x for real vectors x (last axis 4n)."""
        if np.shape(x)[-1:] != (4 * self.n,):
            raise DimensionError(f"expected rows of width {4 * self.n}, got shape {np.shape(x)}")
        return _real_rows(_complex_rows(x) @ self.matrix.T)

    def real_matrix(self) -> np.ndarray:
        """The real orthogonal 4n x 4n matrix of g, built on each call."""
        return self.apply(np.eye(4 * self.n)).T

    def apply_frame(self, U: Frame) -> Frame:
        return Frame(self.apply(U.vectors))


def _require_sp(M: np.ndarray) -> None:
    """FalsificationError unless every M (..., 2n, 2n) of the stack is unitary
    and [[P, -R], [conj R, conj P]] within EPS_ORTH * 100 (largest defects given)."""
    n = M.shape[-1] // 2
    unitary = float(np.max(np.abs(M.conj().swapaxes(-1, -2) @ M - np.eye(2 * n))))
    P, R = M[..., :n, :n], M[..., n:, :n].conj()
    form = float(np.max(np.abs(M[..., n:, n:] - P.conj()) + np.abs(M[..., :n, n:] + R)))
    if not (unitary <= EPS_ORTH * 100 and form <= EPS_ORTH * 100):
        raise FalsificationError(f"not an element of Sp({n}): unitarity defect {unitary:.3e}, "
                                 f"[[P, -R], [conj R, conj P]] defect {form:.3e}")


def random_sp(n: int, seed: int) -> SpElement:
    """Quaternionic Gram-Schmidt of the columns of a Gaussian Z = A + B j,
    as one QR of the complex matrix C with columns (A_q; conj B_q) for Z_q
    and (-B_q; conj A_q) for Z_q j in turn: C's first 2q columns span over
    C what Z_0..Z_{q-1} span over H. Q's even columns, turned to a positive
    real diagonal of R, are the columns (P; conj R) of g = P + R j, and
    the rest of its matrix [[P, -R], [conj R, conj P]] is sliced from them."""
    return SpElement(_sp_draws(_count(n, "n", 1, DimensionError), [seed])[0])


def _sp_draws(n: int, seeds) -> np.ndarray:
    """The unchecked matrices (T, 2n, 2n) of random_sp(n, s) for T seeds s,
    each drawn from its own seed's stream, from one batched QR."""
    W = np.array([_seeded_rng(s).standard_normal((n, n, 4)) for s in seeds]).view(complex)
    C = np.empty((len(W), 2 * n, 2 * n), dtype=complex)
    C[:, :n, 0::2], C[:, n:, 0::2] = W[..., 0], W[..., 1].conj()
    C[:, :n, 1::2], C[:, n:, 1::2] = -W[..., 1], W[..., 0].conj()
    Q, R = np.linalg.qr(C)
    M = np.empty_like(Q)
    M[..., :n] = Q[..., 0::2] * np.sign(R.diagonal(0, -2, -1)[:, None, 0::2].real)
    M[:, :n, n:] = -M[:, n:, :n].conj()
    M[:, n:, n:] = M[:, :n, :n].conj()
    return M


# ---------------------------------------------------------------------------
# coordinate helpers


def _zeros(n: int, rows: int = 1) -> np.ndarray:
    """rows zero rows of H^n; rows no numpy array can hold are refused by name."""
    if rows * 32 * n > np.iinfo(np.intp).max:  # a row: 4n float64 values, 32 n bytes
        raise InfeasibleParametersError(f"n = {n} is too large: a ({rows}, 4n) float64 array "
                                        "exceeds numpy's largest")
    return np.zeros((rows, 4 * n))


def _unit(n: int, q: int) -> np.ndarray:
    v = _zeros(n)[0]
    v[4 * q] = 1.0
    return v


def _require_finite(name: str, *values: float) -> None:
    """NaN or infinite parameters are infeasible; downstream they would only
    surface as a frame defect or a rank deficiency."""
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise InfeasibleParametersError(f"{name}: parameters must be finite")


def embed(U: Frame, n: int, block_offset: int) -> Frame:
    """Embed a frame of H^m into H^n with its blocks shifted by block_offset."""
    end = _count(block_offset, "block_offset", 0, DimensionError) + U.n
    if end > _count(n, "n", 1, DimensionError):
        raise DimensionError("embedding does not fit")
    V = _zeros(n, U.dim)
    V[:, 4 * block_offset : 4 * end] = U.vectors
    return Frame(V)


# ---------------------------------------------------------------------------
# example families


def make_rhp(n: int, k: int) -> Frame:
    """Real Hermitian product subspace of dimension k (needs k <= n)."""
    if _count(k, "k", 1) > _count(n, "n", 1, DimensionError):
        raise InfeasibleParametersError(f"r.h.p. of dim {k} needs 1 <= k <= n={n}")
    return Frame(np.vstack([_unit(n, q) for q in range(k)]))


def make_quaternionic_line(n: int, index: int = 0) -> Frame:
    """The characteristic line H*e_index, i.e. one quaternionic coordinate."""
    if _count(index, "index", 0) >= _count(n, "n", 1, DimensionError):
        raise InfeasibleParametersError(f"index {index} out of range for n={n}")
    V = _zeros(n, 4)
    V[:, 4 * index : 4 * index + 4] = np.eye(4)
    return Frame(V)


def make_totally_complex_4(n: int) -> Frame:
    """I-invariant 4-dim subspace orthogonal to its J and K images."""
    _count(n, "n", 2)
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
    _count(n, "n", 2)
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
    _count(n, "n", 1, DimensionError)
    _require_finite("make_two_plane", theta_i, theta_j, theta_k, xi, chi)
    cs = np.cos([theta_i, theta_j, theta_k])
    if float(np.sum(cs**2)) > 1.0 + EPS_FEASIBLE:
        raise InfeasibleParametersError(
            "cos^2 theta_I + cos^2 theta_J + cos^2 theta_K must be <= 1"
        )
    for name, sgn, c in (("xi", xi, cs[1]), ("chi", chi, cs[2])):
        if abs(c) > EPS_ANGLE and abs(abs(sgn) - 1.0) > EPS_FEASIBLE:
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
    got = orbit.im[1:]
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
    _count(n, "n", 2, DimensionError)
    try:  # a real number is the quaternion (mu, 0, 0, 0)
        value = np.asarray(mu if np.ndim(mu) else [mu, 0.0, 0.0, 0.0], dtype=float)
    except (TypeError, ValueError):
        value = None
    if value is None or value.shape != (4,):
        raise InfeasibleParametersError(f"graph_subspace: mu must be a number or 4 numbers, "
                                        f"got {mu!r}")
    _require_finite("graph_subspace", *value)
    V = _zeros(n, 4)
    V[:, :4] = np.eye(4)
    V[:, 4:8] = qarr_mul(np.eye(4), value)
    U = orthonormalize(V)
    certify_isoclinic(U)
    return U


# ---------------------------------------------------------------------------
# arbitrary 4-dimensional profiles via quaternionic Cholesky


def _quaternion_cholesky(H: np.ndarray) -> np.ndarray:
    """Factor a quaternionic Hermitian PSD matrix as R* R (R upper triangular).

    H has shape (k, k, 4). Zero pivots are skipped, so quaternionic rank
    deficiency (fewer coordinates than vectors) is allowed. Raises
    InfeasibleParametersError if H is not positive semidefinite.
    """
    k = H.shape[0]
    R = np.zeros((k, k, 4))
    for p in range(k):
        d = H[p, p, 0] - float(np.sum(R[:p, p] ** 2))
        if d < -EPS_PIVOT:
            raise InfeasibleParametersError(
                f"requested invariants are not realizable (pivot {p}: {d:.3e} < 0)"
            )
        if d <= EPS_PIVOT:
            continue
        s = np.sqrt(d)
        R[p, p, 0] = s
        acc = qarr_mul(qarr_conj(R[:p, p, None]), R[:p, p + 1 :]).sum(axis=0)
        R[p, p + 1 :] = (H[p, p + 1 :] - acc) / s
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
    k = len(omegas[0])
    R = _quaternion_cholesky(np.stack([np.eye(k), *omegas], axis=-1))
    used = [p for p in range(k) if np.max(np.abs(R[p])) > 0.0]
    V = _zeros(_count(n, "n", len(used), DimensionError), k)
    V[:, : 4 * len(used)] = R[used].transpose(1, 0, 2).reshape(k, -1)
    return Frame(V)


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
    delta_sign * sqrt(1 - Gamma^2), or (1, 0) with xi or chi exactly
    +/-1. Infeasible parameter sets (non-PSD quaternionic Gram) raise
    InfeasibleParametersError.
    """
    _require_finite("make_profile_4", theta_i, theta_j, theta_k, xi, chi, eta)
    if delta_sign not in (-1, 1):
        raise InfeasibleParametersError(f"delta_sign must be -1 or +1, got {delta_sign!r}")
    cI, cJ, cK = np.cos([theta_i, theta_j, theta_k])
    if abs(xi) > 1 or abs(chi) > 1 or abs(eta) > 1:
        raise InfeasibleParametersError("xi, chi, eta must lie in [-1, 1]")
    if 1.0 in (abs(xi), abs(chi)):
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
    got = _profile_row(U)
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


def direct_sum(parts: list[Frame]) -> Frame:
    """Hermitian-orthogonal sum: parts go into disjoint quaternionic blocks.

    All parts must carry one full IsoclinicProfile within EPS_ANGLE. Matching the
    angles and (xi, chi, eta) already makes the sum isoclinic, but parts
    with opposite Delta would mix both module types and leave the sum
    without an orbit label, so the whole profile is required to agree.
    """
    if not parts:
        raise DimensionError("empty direct sum")
    invs = [_profile_row(p) for p in parts]
    for i, inv in enumerate(invs[1:], start=1):
        if np.max(np.abs(inv - invs[0])) > EPS_ANGLE:
            raise NotIsoclinicError(
                f"part {i} profile {np.round(inv, 8)} does not match part 0 "
                f"{np.round(invs[0], 8)}; the sum would not be isoclinic"
            )
    V = _zeros(sum(p.n for p in parts), sum(p.dim for p in parts))
    rows = offset = 0
    for p in parts:  # part p in rows and quaternionic blocks of its own
        V[rows : rows + p.dim, 4 * offset : 4 * (offset + p.n)] = p.vectors
        rows, offset = rows + p.dim, offset + p.n
    U = Frame(V)
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


# trials per stacked pass of invariance_oracle: at n = 16 the time per trial
# stops falling here, and a block's arrays stay near 2 MB; the first block's
# pass holds one entry more, the input itself
_ORACLE_BLOCK = 12


def invariance_oracle(U: Frame, trials: int, seed: int) -> OracleReport:
    """Re-derive the full profile under random Sp(n) motions of U.

    Refuses a U that fails the isoclinicity gate (NotIsoclinicError), and
    trials < 1 or a seed numpy refuses (InfeasibleParametersError). Every
    motion is profiled on U's side of the +/-1 convention, so roundoff that
    moves an invariant across 1 - EPS_PM1 flips no (Gamma, Delta). Each
    trial also validates the quadratic form for theta_A against measured
    angles for 8 random structures, and, with no invariant at +/-1, the eta
    relation eta = xi chi + sqrt(1-xi^2) sqrt(1-chi^2) Gamma. Any of these
    off by more than EPS_ORBIT is a failure.

    Trials run in blocks of at most _ORACLE_BLOCK as one stacked pass (one
    batched QR, one complex product, one measuring pass and one structure
    check kernel each), with the seeds, motions and failure texts of a
    trial-by-trial run; the maxima may move from it by roundoff. U itself
    is entry 0 of the first block's measuring pass, which refuses it as
    full_profile(U) does; a motion measured on the other side of 1 - EPS_PM1
    is profiled again, on U's side.
    """
    trials = _count(trials, "trials", 1)
    rng = _seeded_rng(seed)
    rows = _complex_rows(U.vectors)
    max_dev = max_theta = max_eta = 0.0
    failures: list[str] = []
    for start in range(0, trials, _ORACLE_BLOCK):
        block = range(start, min(start + _ORACLE_BLOCK, trials))
        draws = [(int(rng.integers(0, 2**63 - 1)), rng.standard_normal((8, 3))) for _ in block]
        M = _sp_draws(U.n, [s for s, _ in draws])
        _require_sp(M)
        stack = rows @ M.swapaxes(-1, -2)
        if not start:  # U is entry 0 of the first block's pass
            stack = np.concatenate([rows[None], stack])
        gram, forms, gates, profiled = _profile_pass(stack, EPS_ISO)
        if not start:
            if profiled[0] is None:
                raise _not_isoclinic(gates[0][1], EPS_ISO)
            base_vec = _profile_vector(_as_profile(profiled[0], U.dim))
            snaps = _pm1(profiled[0][3:6])
            gram, forms, gates, profiled = gram[1:], forms[1:], gates[1:], profiled[1:]
        _require_orthonormal(gram)  # each gU is a frame, with no Frame built
        ok = [row is not None for row in profiled]
        R = np.reshape([r for r in profiled if r is not None], (-1, 8))
        forms_ok = forms[ok]
        flip = (_pm1(R[:, 3:6]) != snaps).any(axis=1)
        if flip.any():
            R[flip] = _profiles(R[flip, :3], forms_ok[flip], np.tile(snaps, (flip.sum(), 1)))
        # one profile of the block: each field a (T,) array, as _profile_vector and _cos2_of take
        prof = IsoclinicProfile(U.dim, *R.T)
        dev = np.max(np.abs(_profile_vector(prof).T - base_vec), axis=1)
        C = np.array([c for _, c in draws])[ok]
        C /= np.sqrt(C[..., None, :] @ C[..., None])[..., 0]  # unit rows (a, b, c)
        defects, c2 = _combined_defects(C, forms_ok)
        errs = np.abs(np.cos(_angle(c2)) ** 2 - np.cos(_angle(_cos2_of(prof, C).T)) ** 2)
        xi, chi = prof.xi, prof.chi
        res = np.zeros(len(dev)) if any(snaps) else np.abs(
            prof.eta - xi * chi - np.sqrt((1 - xi**2) * (1 - chi**2)) * prof.gamma)
        checked = zip(dev.tolist(), defects.tolist(), errs.tolist(), res.tolist())
        for t, (angles, witness) in zip(block, gates):
            if angles is None:
                failures.append(f"trial {t}: gate failure after motion: "
                                f"{_not_isoclinic(witness, EPS_ISO)}")
                continue
            d, pair_defects, pair_errs, r = next(checked)
            max_dev = max(max_dev, d)
            if d > EPS_ORBIT:
                failures.append(f"trial {t}: profile deviation {d:.3e}")
            for defect, err in zip(pair_defects, pair_errs):
                if defect >= EPS_ISO:
                    failures.append(f"trial {t}: pair (gU, A gU) not isoclinic")
                    continue
                max_theta = max(max_theta, err)
                if err > EPS_ORBIT:
                    failures.append(f"trial {t}: theta_A formula error {err:.3e}")
            if not any(snaps):
                max_eta = max(max_eta, r)
                if r > EPS_ORBIT:
                    failures.append(f"trial {t}: eta relation residual {r:.3e}")
    return OracleReport(trials, max_dev, max_theta, max_eta, tuple(failures))
