"""Typed subspaces, the 8-dimensional addend construction, orthogonal
decomposition into isoclinic addends, block canonical matrices and the
Sp(n)-orbit decision.

The decomposition follows the dimension class: dim = 2 mod 4 forces a
2-planes decomposition (and invariants at +/-1), dim = 4 mod 8 forces
4-dim addends, dim = 0 mod 8 uses 8-dim addends. Outside class 2 every
labelled subspace has Sigma^2 = 1 - Gamma^2 - Delta^2 = 0: where all
cos(theta_p) > 0, J_p = omega_p / cos(theta_p) make U a Cl_{0,3}-module
whose volume element vol is central, symmetric and squares to Id, and
Sigma^2 = (1 - Gamma^2)(1 - <x, vol x>^2) at the leading vector x. That
vanishes when U carries one module type and depends on x when U mixes
both, which is exactly when the orbit label is undefined; the +/-1 and
cos = 0 conventions set (Gamma, Delta) = (1, 0). So the 8-dim addend is
two 4-dim chain spans and the canonical matrices tile 4x4 blocks, and
decompose tests vol = +/-Id itself, at no leading vector. A
theorem-mandated identity failing beyond tolerance raises
FalsificationError instead of being absorbed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analysis import (
    IsoclinicProfile,
    _Span,
    _ambient,
    _build_chains,
    _certified_forms,
    _companions,
    _gamma_delta,
    _measure,
    build_chains,
    certify_isoclinic,
    cij_block_4,
    cik_block_4,
    full_profile,
    isoclinic_profile_angles,
)
from .errors import DimensionError, FalsificationError
from .subspaces import Frame, orthonormalize, restrict_complement
from .tolerances import EPS_ANGLE, EPS_FRAME, EPS_ISO, EPS_ORBIT, EPS_PM1, EPS_RECERT, EPS_UNION

__all__ = [
    "TypedSubspace",
    "associated_subspaces",
    "eight_dim_addend",
    "Decomposition",
    "decompose",
    "split_addend_4",
    "canonical_matrices",
    "OrbitLabel",
    "orbit_label",
    "same_orbit",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TypedSubspace:
    """4-dim subspace whose two defining structure pairs are isoclinic with
    the parent's angles; kind is 'UIJ', 'UIK' or 'UJK'."""

    frame: Frame
    kind: str
    leading: np.ndarray


def associated_subspaces(
    U: Frame,
    X1: np.ndarray,
    angles: tuple[float, float, float] | None = None,
) -> tuple[TypedSubspace, TypedSubspace, TypedSubspace]:
    """The three associated subspaces spanned by the chains centered on X1.

    If any of (xi, chi, eta) is at +/-1 the three coincide and form a
    4-dim isoclinic subspace with the parent's angles.
    """
    chains = build_chains(U, X1, angles)
    return (
        TypedSubspace(_clean_union([chains.chain_x]), "UIJ", chains.leading),
        TypedSubspace(_clean_union([chains.chain_xt]), "UIK", chains.leading),
        TypedSubspace(_clean_union([chains.chain_yt]), "UJK", chains.leading),
    )


def _clean_union(parts: list[np.ndarray], tol: float = EPS_UNION) -> Frame:
    """Stack chain blocks into one frame, absorbing roundoff only.

    The blocks are orthonormal by theorem: a Gram defect within EPS_FRAME
    keeps the rows as they are, one within tol is orthonormalized away,
    and one beyond tol means the construction's hypotheses failed.
    """
    V = np.vstack(parts)
    defect = np.max(np.abs(V @ V.T - np.eye(V.shape[0])))
    if defect <= EPS_FRAME:
        return Frame(V)
    if not defect <= tol:
        raise FalsificationError(
            f"addend blocks are not orthogonal (defect {defect:.3e}); "
            "construction hypotheses violated"
        )
    return orthonormalize(V)


def _require_sigma_zero(gamma: float, delta: float, dim: int) -> None:
    """Refuse Sigma^2 = 1 - Gamma^2 - Delta^2 != 0 (see the module docstring):
    a nonzero value measures how much U mixes the two Cl_{0,3}-module types."""
    sigma2 = 1.0 - gamma**2 - delta**2
    if not abs(sigma2) <= EPS_ORBIT:
        raise FalsificationError(
            f"dim {dim} mandates Sigma^2 = 1 - Gamma^2 - Delta^2 = 0, got "
            f"Sigma^2 = {sigma2:.3e}: the subspace mixes both module types"
        )


def _addend_rows(U: _Span, X1: np.ndarray, angles, klass: int) -> np.ndarray:
    """Rows, in U's host (see analysis._Span), of the klass-dim addend of U
    through X1: a standard 2-plane, the omega^I chain span, or (Sigma = 0 at
    X1 required) four standard 2-planes of a 2-planes decomposable U or the
    omega^I chain spans through X1 and through a vector of its complement."""
    if klass == 2:
        return np.vstack([X1, _companions(U, X1, angles).X2])
    chains = _build_chains(U, X1, angles)
    if klass == 4:
        return chains.chain_x
    gamma, delta = _gamma_delta(chains, U.act)
    _require_sigma_zero(gamma, delta, U.dim)
    if chains.convention != "decomposable":
        rest = U.complement(chains.chain_x, expect=U.dim - 4)
        return np.vstack([chains.chain_x, _build_chains(U, rest.rows[0], angles).chain_x])
    # peel standard 2-planes from a shrinking complement; companions of
    # a vector in the remainder stay in the remainder
    planes = [_addend_rows(U, X1, angles, 2)]
    for _ in range(3):
        U = U.complement(planes[-1], expect=U.dim - 2)
        planes.append(_addend_rows(U, U.rows[0], angles, 2))
    return np.vstack(planes)


def _recertified(addend: Frame, angles, what: str) -> Frame:
    """The addend, once the gate finds it isoclinic with the parent's angles."""
    got = isoclinic_profile_angles(addend)
    if got is None or np.max(np.abs(np.array(got) - np.array(angles))) > EPS_RECERT:
        raise FalsificationError(
            f"{what} failed re-certification against the parent angles "
            f"(got {got}, parent {tuple(angles)})"
        )
    return addend


def eight_dim_addend(
    U: Frame,
    X1: np.ndarray,
    angles: tuple[float, float, float] | None = None,
) -> Frame:
    """8-dim isoclinic subspace through X1 with the parent's angles.

    A 2-planes decomposable parent sums four standard 2-planes; otherwise
    Sigma = 0 is required at X1 and the addend sums the omega^I chain
    span through X1 and the one through a vector of its complement.
    """
    if U.dim < 8:
        raise DimensionError(f"eight_dim_addend needs dim >= 8, got {U.dim}")
    if angles is None:
        angles = certify_isoclinic(U)
    rows = _addend_rows(_ambient(U), np.asarray(X1, dtype=float), angles, 8)
    return _recertified(_clean_union([rows]), angles, "constructed 8-dim addend")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Orthogonal decomposition into isoclinic addends of one dimension."""

    addends: tuple[Frame, ...]
    addend_dim: int
    profile: IsoclinicProfile


def _require_one_type(forms: np.ndarray, profile: IsoclinicProfile) -> None:
    """Refuse a U that mixes both Cl_{0,3}-module types where the forms
    generate Cl_{0,3} (every cos(theta_p) > EPS_ANGLE, none of xi, chi, eta,
    Gamma at +/-1): vol = E_1 E_2 E_3 must be +/-Id, where E = L^{-1} J for
    J_p = omega_p / cos(theta_p) and g = L L^T, i.e. the Gram-Schmidt
    orthonormalization of the forms under <X, Y> = tr(X^T Y) / dim. The
    mixedness is max |s vol - Id| with s = tr(vol) / dim."""
    invariants = (profile.xi, profile.chi, profile.eta, profile.gamma)
    if min(profile.cosines) <= EPS_ANGLE or any(abs(v) > 1.0 - EPS_PM1 for v in invariants):
        return
    k = profile.dim
    E: list[np.ndarray] = []
    for J in forms:
        for F in E:
            J = J - np.sum(F * J) / k * F
        E.append(J / np.sqrt(np.sum(J * J) / k))
    vol = E[0] @ E[1] @ E[2]
    mixed = float(np.max(np.abs(np.trace(vol) / k * vol - np.eye(k))))
    if not mixed <= EPS_ORBIT:
        raise FalsificationError(
            f"dim {k}: the volume element is not +/-Id (mixedness "
            f"max|s vol - Id| = {mixed:.3e}): the subspace mixes both module types"
        )


def _lead(rows: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return rows[0]
    v = rng.standard_normal(len(rows)) @ rows
    return v / np.linalg.norm(v)


def decompose(U: Frame, seed: int | None = None) -> Decomposition:
    """Decompose U into addends of the theorem-mandated dimension.

    dim = 2 mod 4: isoclinic 2-planes (requires xi, chi, eta at +/-1);
    dim = 4 mod 8: 4-dim addends; dim = 0 mod 8: 8-dim addends, each
    requiring Sigma = 0 at its own leading vector. Outside dim = 2 mod 4
    the profile must have Sigma = 0, and U must not mix both module types.
    `seed` randomizes the leading vectors. The addends are built in U's
    coordinates from its three Kaehler forms (an addend and its complement
    in U are submodules), become Frames at the end and are re-certified
    isoclinic with the parent's angles.
    """
    angles, forms = _certified_forms(U)
    profile = _measure(U, angles, seed=seed)
    rng = np.random.default_rng(seed) if seed is not None else None
    klass = profile.dim_class

    if klass == 2 and not all(
        abs(v) > 1.0 - EPS_PM1 for v in (profile.xi, profile.chi, profile.eta)
    ):
        raise FalsificationError(
            f"dim {U.dim} = 2 mod 4 mandates xi, chi, eta in {{+1,-1}}, got "
            f"({profile.xi:.6f}, {profile.chi:.6f}, {profile.eta:.6f})"
        )
    if klass != 2:
        _require_sigma_zero(profile.gamma, profile.delta, U.dim)
        _require_one_type(forms, profile)

    addends: list[Frame] = []
    current = _Span(np.eye(U.dim), lambda p, u: forms[p] @ u)
    while True:
        rows = _addend_rows(current, _lead(current.rows, rng), angles, klass)
        what = "constructed 8-dim addend" if klass == 8 else f"addend {len(addends)}"
        addends.append(_recertified(_clean_union([rows @ U.vectors]), angles, what))
        if current.dim == len(rows):
            return Decomposition(addends=tuple(addends), addend_dim=klass, profile=profile)
        current = current.complement(rows, expect=current.dim - len(rows))


def split_addend_4(addend: Frame, seed: int | None = None) -> tuple[Frame, Frame] | None:
    """Split an 8-dim addend with Gamma^2 + Delta^2 = 1 into two 4-dim
    isoclinic halves; None when the addend does not split that way."""
    if addend.dim != 8:
        raise DimensionError("split_addend_4 expects an 8-dim addend")
    profile = full_profile(addend, seed=seed)
    if abs(profile.gamma**2 + profile.delta**2 - 1.0) > EPS_ORBIT:
        return None
    angles = (profile.theta_i, profile.theta_j, profile.theta_k)
    rng = np.random.default_rng(seed) if seed is not None else None
    first = _clean_union([build_chains(addend, _lead(addend.vectors, rng), angles).chain_x])
    second = restrict_complement(addend, first, expect=4)
    return first, second


# ---------------------------------------------------------------------------
# block canonical matrices


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total))
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out


def _rounded_sign(v: float) -> float:
    return 1.0 if v >= 0 else -1.0


def canonical_matrices(
    U: Frame, profile: IsoclinicProfile | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal canonical matrices (C_IJ, C_IK) of an isoclinic U.

    dim = 2 mod 4 tiles 2x2 sign blocks; every other dimension requires
    Sigma = 0 and tiles the 4x4 closed forms in (xi, chi, Gamma, Delta).
    The result depends only on the measured invariants, hence not on the
    decomposition used.
    """
    if profile is None:
        profile = full_profile(U)
    if profile.dim_class == 2:
        xi, chi = _rounded_sign(profile.xi), _rounded_sign(profile.chi)
        bij = np.array([[1.0, 0.0], [0.0, xi]])
        bik = np.array([[1.0, 0.0], [0.0, chi]])
    else:
        _require_sigma_zero(profile.gamma, profile.delta, profile.dim)
        bij = cij_block_4(profile.xi)
        bik = cik_block_4(profile.chi, profile.gamma, profile.delta)
    count = profile.dim // bij.shape[0]
    return _block_diag([bij] * count), _block_diag([bik] * count)


# ---------------------------------------------------------------------------
# orbit labels


@dataclass(frozen=True)
class OrbitLabel:
    """Complete Sp(n)-orbit label of an isoclinic subspace."""

    dim: int
    theta_i: float
    theta_j: float
    theta_k: float
    xi: float
    chi: float
    eta: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.theta_i, self.theta_j, self.theta_k, self.xi, self.chi,
             self.eta, self.delta]
        )

    def agrees(self, other: "OrbitLabel", tol: float = EPS_ORBIT) -> bool:
        if self.dim != other.dim:
            return False
        return bool(np.max(np.abs(self.as_array() - other.as_array())) < tol)


def orbit_label(U: Frame, seed: int | None = None) -> OrbitLabel:
    """Orbit label per the classification theorem's three branches.

    dim = 2 mod 4 normalizes eta to xi*chi and Delta to 0 (after checking
    xi, chi at +/-1); every other dimension requires Sigma = 0. After one
    gate the invariants are measured at two independent leading vectors; a
    mismatch (possible only for inputs outside the theorem's reach, such
    as hand-built sums of opposite-Delta parts) raises FalsificationError.
    """
    return _labelled(U, seed)[0]


def _labelled(
    U: Frame, seed: int | None = None, tol: float = EPS_ISO
) -> tuple[OrbitLabel, IsoclinicProfile]:
    """orbit_label(U, seed) and the profile it was read from; `tol` is the
    isoclinicity gate's."""
    angles = certify_isoclinic(U, tol=tol)
    profile = _measure(U, angles, seed=seed)
    other = _measure(U, angles, seed=(seed or 0) + 101)
    drift = max(
        abs(profile.xi - other.xi),
        abs(profile.chi - other.chi),
        abs(profile.eta - other.eta),
        abs(profile.gamma - other.gamma),
        abs(profile.delta - other.delta),
    )
    if drift > EPS_ORBIT:
        raise FalsificationError(
            f"invariants drift {drift:.3e} between leading vectors; "
            "no well-defined orbit label"
        )
    xi, chi, eta, delta = profile.xi, profile.chi, profile.eta, profile.delta
    if profile.dim_class == 2:
        if not all(abs(v) > 1.0 - EPS_PM1 for v in (xi, chi, eta)):
            raise FalsificationError(
                f"dim {U.dim} = 2 mod 4 mandates xi, chi, eta in {{+1,-1}}, got "
                f"({xi:.6f}, {chi:.6f}, {eta:.6f})"
            )
        xi, chi = _rounded_sign(xi), _rounded_sign(chi)
        eta, delta = xi * chi, 0.0
    else:
        _require_sigma_zero(profile.gamma, delta, U.dim)
        if any(abs(v) > 1.0 - EPS_PM1 for v in (xi, chi, eta)):
            # chains collapse and Delta = 0; only components actually at
            # +/-1 are snapped to their exact sign
            snap = lambda v: _rounded_sign(v) if abs(v) > 1.0 - EPS_PM1 else v
            xi, chi, eta = snap(xi), snap(chi), snap(eta)
            delta = 0.0
    return OrbitLabel(
        dim=U.dim,
        theta_i=profile.theta_i,
        theta_j=profile.theta_j,
        theta_k=profile.theta_k,
        xi=xi,
        chi=chi,
        eta=eta,
        delta=delta,
    ), profile


def same_orbit(U: Frame, W: Frame, tol: float = EPS_ORBIT) -> bool:
    """Sp(n)-orbit equivalence by orbit-label equality.

    Both inputs must be isoclinic and of equal dimension. When the labels
    agree, the canonical matrices are compared as an advisory cross-check
    of the mutual-position condition and any discrepancy is logged; the
    decision itself is the label comparison. Each input is certified once:
    the cross-check reuses the profile its label was read from.
    """
    return _same_orbit(U, W, tol)


def _same_orbit(U: Frame, W: Frame, tol: float, labelled=None) -> bool:
    """same_orbit(U, W, tol); `labelled` is (_labelled(U), _labelled(W)) when
    the caller has already labelled both inputs."""
    if U.dim != W.dim:
        raise DimensionError(f"same_orbit needs equal dims, got {U.dim} != {W.dim}")
    if U.ambient != W.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    (label_u, profile_u), (label_w, profile_w) = labelled or (_labelled(U), _labelled(W))
    decision = label_u.agrees(label_w, tol)
    if decision:
        cu_ij, cu_ik = canonical_matrices(U, profile_u)
        cw_ij, cw_ik = canonical_matrices(W, profile_w)
        dev = max(np.max(np.abs(cu_ij - cw_ij)), np.max(np.abs(cu_ik - cw_ik)))
        if dev > 100 * tol:
            log.warning(
                "same_orbit: labels agree but canonical matrices deviate by %.3e",
                dev,
            )
    return decision
