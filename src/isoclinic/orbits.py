"""Typed subspaces, the 8-dimensional addend construction, orthogonal
decomposition into isoclinic addends, block canonical matrices and the
Sp(n)-orbit decision.

The decomposition follows the dimension class: dim = 2 mod 4 forces a
2-planes decomposition (and invariants at +/-1), dim = 4 mod 8 forces
4-dim addends with Gamma^2 + Delta^2 = 1, dim = 0 mod 8 uses the
constructive 8-dim addend. A theorem-mandated identity failing beyond
tolerance raises FalsificationError instead of being absorbed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analysis import (
    IsoclinicProfile,
    _measure,
    build_chains,
    certify_isoclinic,
    cij_block_4,
    cik_block_4,
    companions,
    full_profile,
    gamma_delta,
    isoclinic_profile_angles,
    random_unit_in,
)
from .errors import DimensionError, FalsificationError
from .subspaces import Frame, orthonormalize, principal_angles, restrict_complement
from .tolerances import EPS_ORBIT, EPS_PM1, EPS_PRINCIPAL, EPS_RECERT, EPS_UNION

__all__ = [
    "TypedSubspace",
    "associated_subspaces",
    "eight_dim_addend",
    "Decomposition",
    "decompose",
    "split_addend_4",
    "cij_block_8",
    "cik_block_8",
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
        TypedSubspace(Frame(chains.chain_x), "UIJ", chains.leading),
        TypedSubspace(Frame(chains.chain_xt), "UIK", chains.leading),
        TypedSubspace(Frame(chains.chain_yt), "UJK", chains.leading),
    )


def _clean_union(parts: list[np.ndarray], tol: float = EPS_UNION) -> Frame:
    """Stack chain blocks into one frame, absorbing roundoff only.

    The blocks are orthogonal by theorem; a Gram defect beyond tol means
    the construction's hypotheses failed.
    """
    V = np.vstack(parts)
    defect = np.max(np.abs(V @ V.T - np.eye(V.shape[0])))
    if not defect <= tol:
        raise FalsificationError(
            f"addend blocks are not orthogonal (defect {defect:.3e}); "
            "construction hypotheses violated"
        )
    return orthonormalize(V)


def _standard_two_plane(U: Frame, X1: np.ndarray, angles) -> Frame:
    comp = companions(U, X1, angles)
    return Frame(np.vstack([X1, comp.X2]))


def eight_dim_addend(
    U: Frame,
    X1: np.ndarray,
    angles: tuple[float, float, float] | None = None,
) -> Frame:
    """8-dim isoclinic subspace through X1 with the parent's angles.

    Branches follow the constructive proof: a 2-planes decomposable parent
    sums four standard 2-planes; Gamma^2 + Delta^2 = 1 sums two 4-dim
    chain spans; otherwise the two non-unit principal directions of the
    pair of chain-span complements single out the second 4-dim block.
    """
    if U.dim < 8:
        raise DimensionError(f"eight_dim_addend needs dim >= 8, got {U.dim}")
    if angles is None:
        angles = certify_isoclinic(U)
    chains = build_chains(U, X1, angles)
    gamma, delta = gamma_delta(chains)

    if chains.convention == "decomposable":
        # peel standard 2-planes from a shrinking complement; companions of
        # a vector in the remainder stay in the remainder
        current = U
        lead = np.asarray(X1, dtype=float)
        planes = []
        for step in range(4):
            plane = _standard_two_plane(current, lead, angles)
            planes.append(plane)
            if step < 3:
                current = restrict_complement(current, plane, expect=current.dim - 2)
                lead = current.vectors[0]
        addend = _clean_union([p.vectors for p in planes])
    elif gamma**2 + delta**2 > 1.0 - EPS_PM1:
        first = Frame(chains.chain_x)
        rest = restrict_complement(U, first, expect=U.dim - 4)
        second = build_chains(U, rest.vectors[0], angles)
        addend = _clean_union([chains.chain_x, second.chain_x])
    else:
        u_ij = Frame(chains.chain_x)
        u_ik = Frame(chains.chain_xt)
        comp_ij = restrict_complement(U, u_ij, expect=U.dim - 4)
        comp_ik = restrict_complement(U, u_ik, expect=U.dim - 4)
        pa = principal_angles(comp_ij, comp_ik)
        g = np.sqrt(gamma**2 + delta**2)
        cos = pa.cosines
        if (
            np.max(np.abs(cos[-2:] - g)) > EPS_PRINCIPAL
            or (len(cos) > 2 and cos[-3] < 1.0 - EPS_PRINCIPAL)
        ):
            raise FalsificationError(
                "complement pair does not show the mandated principal cosines "
                f"(1,...,1,g,g) with g = {g:.6f}; got {np.round(cos, 6)}"
            )
        x7 = pa.left_vectors[-2] if not pa.swapped else pa.right_vectors[-2]
        second = build_chains(U, x7, angles)
        addend = _clean_union([chains.chain_x, second.chain_x])

    got = isoclinic_profile_angles(addend)
    if got is None or np.max(np.abs(np.array(got) - np.array(angles))) > EPS_RECERT:
        raise FalsificationError(
            "constructed 8-dim addend failed re-certification against the "
            f"parent angles (got {got}, parent {tuple(angles)})"
        )
    return addend


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Orthogonal decomposition into isoclinic addends of one dimension."""

    addends: tuple[Frame, ...]
    addend_dim: int
    profile: IsoclinicProfile


def _lead(current: Frame, rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return current.vectors[0]
    return random_unit_in(current, rng)


def decompose(U: Frame, seed: int | None = None) -> Decomposition:
    """Decompose U into addends of the theorem-mandated dimension.

    dim = 2 mod 4: isoclinic 2-planes (requires xi, chi, eta at +/-1);
    dim = 4 mod 8: 4-dim addends (requires Gamma^2 + Delta^2 = 1);
    dim = 0 mod 8: 8-dim addends. Every addend is re-certified isoclinic
    with the parent's angles. `seed` randomizes the leading vectors.
    """
    profile = full_profile(U, seed=seed)
    angles = (profile.theta_i, profile.theta_j, profile.theta_k)
    rng = np.random.default_rng(seed) if seed is not None else None
    klass = profile.dim_class

    if klass == 2 and not all(
        abs(v) > 1.0 - EPS_PM1 for v in (profile.xi, profile.chi, profile.eta)
    ):
        raise FalsificationError(
            f"dim {U.dim} = 2 mod 4 mandates xi, chi, eta in {{+1,-1}}, got "
            f"({profile.xi:.6f}, {profile.chi:.6f}, {profile.eta:.6f})"
        )
    if klass == 4 and abs(profile.gamma**2 + profile.delta**2 - 1.0) > EPS_ORBIT:
        raise FalsificationError(
            f"dim {U.dim} = 4 mod 8 mandates Gamma^2 + Delta^2 = 1, got "
            f"{profile.gamma**2 + profile.delta**2:.8f}"
        )

    addends: list[Frame] = []
    current: Frame | None = U
    while current is not None:
        x1 = _lead(current, rng)
        if klass == 2:
            addend = _standard_two_plane(current, x1, angles)
        elif klass == 4:
            addend = Frame(build_chains(current, x1, angles).chain_x)
        else:
            addend = eight_dim_addend(current, x1, angles)
        got = isoclinic_profile_angles(addend)
        if got is None or np.max(np.abs(np.array(got) - np.array(angles))) > EPS_RECERT:
            raise FalsificationError(
                f"addend {len(addends)} failed re-certification with parent angles"
            )
        addends.append(addend)
        left = current.dim - addend.dim
        current = restrict_complement(current, addend, expect=left) if left else None
    return Decomposition(addends=tuple(addends), addend_dim=klass, profile=profile)


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
    first = Frame(build_chains(addend, _lead(addend, rng), angles).chain_x)
    second = restrict_complement(addend, first, expect=4)
    return first, second


# ---------------------------------------------------------------------------
# block canonical matrices


def cij_block_8(xi: float) -> np.ndarray:
    out = np.zeros((8, 8))
    out[:4, :4] = cij_block_4(xi)
    out[4:, 4:] = cij_block_4(xi)
    return out


def cik_block_8(chi: float, gamma: float, delta: float) -> np.ndarray:
    """8x8 canonical C_IK block; orthogonal for every admissible argument.

    Sigma = sqrt(1 - Gamma^2 - Delta^2) couples the two 4-dim halves; at
    Sigma = 0 the block is two copies of the 4x4 form. Values of Sigma^2
    below EPS_PM1 are snapped to zero: the square root would otherwise
    amplify measurement noise of (Gamma, Delta) at the boundary.
    """
    s = np.sqrt(max(0.0, 1.0 - chi**2))
    sig2 = 1.0 - gamma**2 - delta**2
    sig = np.sqrt(sig2) if sig2 > EPS_PM1 else 0.0
    out = np.zeros((8, 8))
    out[:4, :4] = cik_block_4(chi, gamma, delta)
    out[4:, 4:] = cik_block_4(chi, gamma, delta)
    out[2, 6] = -sig
    out[3, 5] = sig * s
    out[3, 7] = sig * chi
    out[6, 2] = sig
    out[7, 1] = -sig * s
    out[7, 3] = -sig * chi
    return out


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

    Block size follows the dimension class; entries are the closed-form
    functions of (xi, chi, Gamma, Delta). The result depends only on the
    measured invariants, hence not on the decomposition used.
    """
    if profile is None:
        profile = full_profile(U)
    klass = profile.dim_class
    count = profile.dim // klass
    if klass == 2:
        xi, chi = _rounded_sign(profile.xi), _rounded_sign(profile.chi)
        bij = np.array([[1.0, 0.0], [0.0, xi]])
        bik = np.array([[1.0, 0.0], [0.0, chi]])
    elif klass == 4:
        bij = cij_block_4(profile.xi)
        bik = cik_block_4(profile.chi, profile.gamma, profile.delta)
    else:
        bij = cij_block_8(profile.xi)
        bik = cik_block_8(profile.chi, profile.gamma, profile.delta)
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
    xi, chi at +/-1); dim = 4 mod 8 checks Gamma^2 + Delta^2 = 1. After one
    gate the invariants are measured at two independent leading vectors; a
    mismatch (possible only for inputs outside the theorem's reach, such
    as hand-built sums of opposite-Delta parts) raises FalsificationError.
    """
    return _labelled(U, seed)[0]


def _labelled(U: Frame, seed: int | None = None) -> tuple[OrbitLabel, IsoclinicProfile]:
    """orbit_label(U, seed) and the profile it was read from."""
    angles = certify_isoclinic(U)
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
        if profile.dim_class == 4 and abs(profile.gamma**2 + delta**2 - 1.0) > EPS_ORBIT:
            raise FalsificationError(
                f"dim {U.dim} = 4 mod 8 mandates Gamma^2 + Delta^2 = 1, got "
                f"{profile.gamma**2 + delta**2:.8f}"
            )
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
    if U.dim != W.dim:
        raise DimensionError(f"same_orbit needs equal dims, got {U.dim} != {W.dim}")
    if U.ambient != W.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    label_u, profile_u = _labelled(U)
    label_w, profile_w = _labelled(W)
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
