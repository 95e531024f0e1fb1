"""Typed subspaces, the 8-dimensional addend construction, orthogonal
decomposition into isoclinic addends, block canonical matrices and the
Sp(n)-orbit decision.

The addend dimension follows dim mod 8: 2 (which forces invariants at +/-1),
4 or 8. In U's coordinates the Kaehler forms, orthonormalized to r <= 3
generators E_p, make U a Clifford module (Atiyah-Bott-Shapiro); a form is
dropped where cos(theta_p) = 0 or an invariant is at +/-1. Every addend is a
sum of cyclic submodules span{u, E_1 u, E_2 u, E_1 E_2 u} (the omega^I chain
through u, cut to 1 or 2 vectors when r < 2), and so is its complement.
For r = 3, vol = E_1 E_2 E_3 is central with vol^2 = Id, and at a leading
vector x, Sigma^2 = 1 - Gamma^2 - Delta^2 = (1 - Gamma^2)(1 - <x, vol x>^2):
0 on one module type (vol = +/-Id), x-dependent when U mixes both, which is
exactly when the orbit label is undefined. So outside class 2 Sigma = 0,
the canonical matrices tile 4x4 blocks, and decompose tests vol = +/-Id at
no leading vector. A theorem-mandated identity failing beyond tolerance
raises FalsificationError instead of being absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    IsoclinicProfile,
    _certified_forms,
    _check_member,
    _forms,
    _measure,
    build_chains,
    certify_isoclinic,
    cij_block_4,
    cik_block_4,
    full_profile,
    isoclinic_profile_angles,
)
from .errors import DimensionError, FalsificationError
from .subspaces import Frame, _householder_complement, _mgs, orthonormalize, restrict_complement
from .tolerances import EPS_ANGLE, EPS_ISO, EPS_ORBIT, EPS_PM1, EPS_RECERT, EPS_UNION

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

    The blocks are orthonormal by theorem: a Gram defect within tol is
    orthonormalized away, whatever its size, so the frame does not depend on
    how close to orthonormal the rows came out; one beyond tol means the
    construction's hypotheses failed.
    """
    V = np.vstack(parts)
    defect = np.max(np.abs(V @ V.T - np.eye(V.shape[0])))
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


def _generators(forms: np.ndarray) -> np.ndarray:
    """E (r, k, k): the Kaehler forms (3, k, k) Gram-Schmidt orthonormalized
    under <X, Y> = tr(X^T Y) / k, so E_1 = omega_I / cos(theta_I) when that
    cosine is positive. A form whose residual is at most EPS_ANGLE is dropped:
    a cos(theta_p) = 0, or an invariant xi, chi, eta or Gamma at +/-1."""
    k = forms.shape[-1]
    E, _ = _mgs(forms.reshape(3, -1) / np.sqrt(k), EPS_ANGLE)
    return E.reshape(-1, k, k) * np.sqrt(k)


def _require_one_type(E: np.ndarray) -> None:
    """Refuse a U that mixes both Cl_{0,3}-module types. With fewer than three
    generators the algebra (R, C or H) has one module type; with three,
    vol = E_1 E_2 E_3 must be +/-Id. The mixedness is max |s vol - Id| with
    s = tr(vol) / dim."""
    if len(E) < 3:
        return
    k = E.shape[-1]
    vol = E[0] @ E[1] @ E[2]
    mixed = float(np.max(np.abs(np.trace(vol) / k * vol - np.eye(k))))
    if not mixed <= EPS_ORBIT:
        raise FalsificationError(
            f"dim {k}: the volume element is not +/-Id (mixedness "
            f"max|s vol - Id| = {mixed:.3e}): the subspace mixes both module types"
        )


def _piece(E: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows u, -E_1 u, -E_1 E_2 u, -E_2 u of the cyclic submodule through u,
    cut to u or u, -E_1 u when 0 or 1 generators survive: the omega^I chain
    [X1, X2, X3, X4] through u."""
    if len(E) == 0:
        return u[None]
    if len(E) == 1:
        return np.vstack([u, -E[0] @ u])
    x4 = -E[1] @ u
    return np.vstack([u, -E[0] @ u, E[0] @ x4, x4])


def _addend_rows(E: np.ndarray, Q: np.ndarray, u: np.ndarray, dim: int) -> np.ndarray:
    """Coordinate rows of the dim-dim addend through u inside the span of the
    orthonormal coordinate rows Q: the piece through u, grown with the piece
    through the first row of the Householder complement of what is built.
    Each piece is projected onto span Q, which it leaves only by the
    input's isoclinicity defect, so addends come out mutually orthogonal."""
    rows = _piece(E, u)[:dim] @ Q.T @ Q
    while len(rows) < dim:
        rest = _householder_complement(Q @ rows.T, len(Q) - len(rows))[0] @ Q
        rows = np.vstack([rows, _piece(E, rest)[: dim - len(rows)] @ Q.T @ Q])
    return rows


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

    U must carry one Cl_{0,3}-module type. The addend is the submodule
    through X1 built in U's coordinates (see decompose): the 4-dim piece
    through X1 and the one through a vector of its complement, or as many
    2-dim or 1-dim pieces when the forms generate only C or R.
    """
    if U.dim < 8:
        raise DimensionError(f"eight_dim_addend needs dim >= 8, got {U.dim}")
    if angles is None:
        angles, forms = _certified_forms(U)
    else:
        forms = _forms(U)
    E = _generators(forms)
    _require_one_type(E)
    u = U.vectors @ _check_member(U, X1, "leading vector")
    rows = _addend_rows(E, np.eye(U.dim), u, 8)
    return _recertified(_clean_union([rows @ U.vectors]), angles, "constructed 8-dim addend")


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Orthogonal decomposition into isoclinic addends of one dimension."""

    addends: tuple[Frame, ...]
    addend_dim: int
    profile: IsoclinicProfile


def _lead(rows: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return rows[0]
    v = rng.standard_normal(len(rows)) @ rows
    return v / np.linalg.norm(v)


def decompose(U: Frame, seed: int | None = None) -> Decomposition:
    """Decompose U into addends of the theorem-mandated dimension.

    dim = 2 mod 4: isoclinic 2-planes (requires xi, chi, eta at +/-1);
    dim = 4 mod 8: 4-dim addends; dim = 0 mod 8: 8-dim addends. Outside
    dim = 2 mod 4 the profile must have Sigma = 0, and U must not mix both
    module types. `seed` randomizes the leading vectors.

    Everything happens in U's coordinates, where the gate's three Kaehler
    forms, orthonormalized to generators E, make U a Clifford module: each
    addend is a sum of cyclic submodules span{u, E_1 u, E_2 u, E_1 E_2 u}
    (cut to span{u, E_1 u} or span{u} when fewer generators survive), and
    its complement in U is again a submodule. The addends become Frames at
    the end and are re-certified isoclinic with the parent's angles.
    """
    angles, forms = _certified_forms(U)
    profile = _measure(U, angles, seed=seed)
    rng = np.random.default_rng(seed) if seed is not None else None
    klass = profile.dim_class
    E = _generators(forms)

    if klass == 2 and not all(
        abs(v) > 1.0 - EPS_PM1 for v in (profile.xi, profile.chi, profile.eta)
    ):
        raise FalsificationError(
            f"dim {U.dim} = 2 mod 4 mandates xi, chi, eta in {{+1,-1}}, got "
            f"({profile.xi:.6f}, {profile.chi:.6f}, {profile.eta:.6f})"
        )
    if klass != 2:
        _require_sigma_zero(profile.gamma, profile.delta, U.dim)
        _require_one_type(E)

    addends: list[Frame] = []
    Q = np.eye(U.dim)
    while True:
        rows = _addend_rows(E, Q, _lead(Q, rng), klass)
        what = "constructed 8-dim addend" if klass == 8 else f"addend {len(addends)}"
        addends.append(_recertified(_clean_union([rows @ U.vectors]), angles, what))
        if len(Q) == len(rows):
            return Decomposition(addends=tuple(addends), addend_dim=klass, profile=profile)
        Q = _householder_complement(Q @ rows.T, len(Q) - len(rows)) @ Q


def split_addend_4(addend: Frame, seed: int | None = None) -> tuple[Frame, Frame] | None:
    """Split an 8-dim addend with Gamma^2 + Delta^2 = 1 into two 4-dim
    isoclinic halves, the submodule through a leading vector and its
    complement; None when the addend does not split that way."""
    if addend.dim != 8:
        raise DimensionError("split_addend_4 expects an 8-dim addend")
    angles, forms = _certified_forms(addend)
    profile = _measure(addend, angles, seed=seed)
    if abs(profile.gamma**2 + profile.delta**2 - 1.0) > EPS_ORBIT:
        return None
    rng = np.random.default_rng(seed) if seed is not None else None
    Q = np.eye(8)
    first = _clean_union([_addend_rows(_generators(forms), Q, _lead(Q, rng), 4) @ addend.vectors])
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

    Both inputs must be isoclinic and of equal dimension; each is certified
    once. The canonical matrices are closed forms of a label's own numbers,
    so equal labels already give equal canonical matrices.
    """
    return _same_orbit(U, W, tol)


def _same_orbit(U: Frame, W: Frame, tol: float, labelled=None) -> bool:
    """same_orbit(U, W, tol); `labelled` is (_labelled(U), _labelled(W)) when
    the caller has already labelled both inputs."""
    if U.dim != W.dim:
        raise DimensionError(f"same_orbit needs equal dims, got {U.dim} != {W.dim}")
    if U.ambient != W.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    (label_u, _), (label_w, _) = labelled or (_labelled(U), _labelled(W))
    return label_u.agrees(label_w, tol)
