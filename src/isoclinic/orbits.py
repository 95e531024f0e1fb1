"""Typed subspaces, the 8-dimensional addend construction, orthogonal
decomposition into isoclinic addends, block canonical matrices and the
Sp(n)-orbit decision.

The addend dimension follows dim mod 8: 2 (which forces invariants at +/-1),
4 or 8. In U's coordinates the Kaehler forms, orthonormalized to r <= 3
generators E_p, make U a Clifford module (Atiyah-Bott-Shapiro); a form is
dropped where cos(theta_p) = 0 or an invariant is at +/-1. Every addend is a
sum of cyclic submodules span{u, E_1 u, E_2 u, E_1 E_2 u} (the omega^I chain
through u, cut to 1 or 2 vectors when r < 2), and so is its complement.
For r = 3, vol = E_1 E_2 E_3 is central with vol^2 = Id, and the profile
of the forms (full_profile) has Sigma^2 = 1 - Gamma^2 - Delta^2 =
(1 - Gamma^2)(1 - (tr vol / dim)^2): 0 on one module type (vol = +/-Id),
positive when U mixes both, which is exactly when the orbit label is
undefined. So outside class 2 Sigma = 0, the canonical matrices tile 4x4
blocks, and labels and decompose also test vol = +/-Id. A theorem-mandated
identity failing beyond tolerance, or a label on an undecided side of the
+/-1 convention, raises FalsificationError instead of being absorbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import (
    IsoclinicProfile,
    _certified_forms,
    _check_member,
    _forms,
    _pm1,
    _profile,
    build_chains,
    cij_block_4,
    cik_block_4,
    full_profile,
)
from .errors import DimensionError, FalsificationError, NotIsoclinicError
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


def _require_mandates(profile: IsoclinicProfile, snaps=None) -> None:
    """xi, chi, eta all at +/-1 (as snaps says, default by their measured
    side) in dim = 2 mod 4, else Sigma^2 = 1 - Gamma^2 - Delta^2 = 0."""
    values = (profile.xi, profile.chi, profile.eta)
    sigma2 = 1.0 - profile.gamma**2 - profile.delta**2
    if profile.dim_class == 2 and not all([_pm1(v) for v in values] if snaps is None else snaps):
        raise FalsificationError(
            f"dim {profile.dim} = 2 mod 4 mandates xi, chi, eta in {{+1,-1}}, got "
            "(%.6f, %.6f, %.6f)" % values
        )
    if profile.dim_class != 2 and not abs(sigma2) <= EPS_ORBIT:
        raise FalsificationError(
            f"dim {profile.dim} mandates Sigma^2 = 1 - Gamma^2 - Delta^2 = 0, got "
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


def _union_tol(E: np.ndarray) -> float:
    """EPS_UNION plus max |E_p E_q + E_q E_p + 2 delta_pq Id|, which bounds
    the Gram defect of a cyclic piece: on a certified input, its defect
    times the conditioning of the forms. E_q E_p = (E_p E_q)^T, as E is skew."""
    p, q = np.triu_indices(len(E))
    P = E[p] @ E[q]
    P += P.swapaxes(1, 2) + 2 * (p == q)[:, None, None] * np.eye(E.shape[-1])
    return EPS_UNION + float(np.max(np.abs(P), initial=0.0))


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


def _recertified(addend: Frame, angles, what: str):
    """The (angles, forms) of the addend's gate, once it finds the parent's."""
    try:
        got, forms, _ = _certified_forms(addend)
    except NotIsoclinicError:
        got = None
    if got is None or np.max(np.abs(np.array(got) - np.array(angles))) > EPS_RECERT:
        raise FalsificationError(
            f"{what} failed re-certification against the parent angles "
            f"(got {got}, parent {tuple(angles)})"
        )
    return got, forms


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
        angles, forms, _ = _certified_forms(U)
    else:
        forms = _forms(U)
    E = _generators(forms)
    _require_one_type(E)
    u = U.vectors @ _check_member(U, X1, "leading vector")
    rows = _addend_rows(E, np.eye(U.dim), u, 8)
    addend = _clean_union([rows @ U.vectors], _union_tol(E))
    _recertified(addend, angles, "constructed 8-dim addend")
    return addend


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Orthogonal decomposition into isoclinic addends of one dimension;
    `gated` holds each addend's (angles, forms) from its re-certification."""

    addends: tuple[Frame, ...]
    addend_dim: int
    profile: IsoclinicProfile
    gated: tuple = field(repr=False)

    @cached_property
    def addend_profiles(self) -> tuple[IsoclinicProfile, ...]:
        """Each addend's profile, read off the forms of its one gate."""
        return tuple(_profile(a, *g) for a, g in zip(self.addends, self.gated))


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
    the end, each gated once against the parent's angles; addend_profiles
    reads that gate's forms.
    """
    measured = _measured(U)
    rng = np.random.default_rng(seed) if seed is not None else None
    klass = measured.profile.dim_class
    E = _generators(measured.forms)
    tol = _union_tol(E)

    addends, gated = [], []
    Q = np.eye(U.dim)
    while True:
        rows = _addend_rows(E, Q, _lead(Q, rng), klass)
        what = "constructed 8-dim addend" if klass == 8 else f"addend {len(addends)}"
        addends.append(_clean_union([rows @ U.vectors], tol))
        gated.append(_recertified(addends[-1], measured.angles, what))
        if len(Q) == len(rows):
            return Decomposition(tuple(addends), klass, measured.profile, tuple(gated))
        Q = _householder_complement(Q @ rows.T, len(Q) - len(rows)) @ Q


def split_addend_4(addend: Frame, seed: int | None = None) -> tuple[Frame, Frame] | None:
    """Split an 8-dim addend with Gamma^2 + Delta^2 = 1 into two 4-dim
    isoclinic halves, the submodule through a leading vector and its
    complement; None when the addend does not split that way."""
    if addend.dim != 8:
        raise DimensionError("split_addend_4 expects an 8-dim addend")
    angles, forms, _ = _certified_forms(addend)
    profile = _profile(addend, angles, forms)
    if abs(profile.gamma**2 + profile.delta**2 - 1.0) > EPS_ORBIT:
        return None
    rng = np.random.default_rng(seed) if seed is not None else None
    Q = np.eye(8)
    E = _generators(forms)
    first = _clean_union([_addend_rows(E, Q, _lead(Q, rng), 4) @ addend.vectors], _union_tol(E))
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
    _require_mandates(profile)
    if profile.dim_class == 2:
        xi, chi = _rounded_sign(profile.xi), _rounded_sign(profile.chi)
        bij = np.array([[1.0, 0.0], [0.0, xi]])
        bik = np.array([[1.0, 0.0], [0.0, chi]])
    else:
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
        return np.array([self.theta_i, self.theta_j, self.theta_k, self.xi, self.chi,
                         self.eta, self.delta])

    def agrees(self, other: "OrbitLabel", tol: float = EPS_ORBIT) -> bool:
        if self.dim != other.dim:
            return False
        return bool(np.max(np.abs(self.as_array() - other.as_array())) < tol)


def orbit_label(U: Frame) -> OrbitLabel:
    """Orbit label per the classification theorem's three branches: dim =
    2 mod 4 normalizes eta to xi*chi and Delta to 0 (xi, chi, eta at +/-1
    required); other dimensions require Sigma = 0 and vol = +/-Id, and an
    invariant at +/-1 snaps to its sign and sets Delta = 0. From one gate's
    forms; an invariant within its error bound (1e-14 + 10 x the gate's
    defect) of 1 - EPS_PM1 raises FalsificationError naming its distance."""
    return _measured(U).decided()


@dataclass(frozen=True, eq=False)
class _Measured:
    """U's profile from one gate, meeting the mandates, with the angles and
    forms it came from; `near` maps each of xi, chi, eta (0, 1, 2) whose
    |.| lies within `bound` of 1 - EPS_PM1 to that distance."""

    frame: Frame
    angles: tuple[float, float, float]
    forms: np.ndarray
    profile: IsoclinicProfile
    bound: float
    near: dict

    def label(self, choice=None) -> OrbitLabel:
        """The label with each near invariant counted as +/-1 or not as
        `choice` (index -> bool) says, and every other by its measured side."""
        p = self.profile
        values = (p.xi, p.chi, p.eta)
        measured = [_pm1(v) for v in values]
        snaps = [(choice or {}).get(i, m) if i in self.near else m for i, m in enumerate(measured)]
        if snaps != measured:
            p = _profile(self.frame, self.angles, self.forms, snaps)
            _require_mandates(p, snaps)
        xi, chi, eta = (_rounded_sign(v) if snap else v for v, snap in zip(values, snaps))
        if p.dim_class == 2:
            eta = xi * chi
        delta = 0.0 if any(snaps) else p.delta
        return OrbitLabel(p.dim, p.theta_i, p.theta_j, p.theta_k, xi, chi, eta, delta)

    def decided(self) -> OrbitLabel:
        """label(); FalsificationError naming the margins when an invariant is near."""
        if self.near:
            raise FalsificationError(f"no decided orbit label: {self.margins()}")
        return self.label()

    def margins(self) -> str:
        return "; ".join(f"|{('xi', 'chi', 'eta')[i]}| lies {gap:.3e} from 1 - EPS_PM1, within "
                         f"its error bound {self.bound:.3e}" for i, gap in self.near.items())


def _measured(U: Frame, tol: float = EPS_ISO) -> _Measured:
    """U's _Measured from one gate at `tol`."""
    angles, forms, defect = _certified_forms(U, tol)
    profile = _profile(U, angles, forms)
    _require_mandates(profile)
    if profile.dim_class != 2:
        _require_one_type(_generators(forms))
    bound = 1e-14 + 10.0 * defect  # how far roundoff and the defect move xi, chi, eta
    gaps = enumerate(abs(abs(v) - (1.0 - EPS_PM1)) for v in (profile.xi, profile.chi, profile.eta))
    return _Measured(U, angles, forms, profile, bound, {i: g for i, g in gaps if g <= bound})


def same_orbit(U: Frame, W: Frame, tol: float = EPS_ORBIT) -> bool:
    """Sp(n)-orbit equivalence of two isoclinic subspaces of one dimension
    by orbit-label equality, one gate per input. Invariants near the +/-1
    convention (see orbit_label) take each side in turn, the same in both
    inputs; differing verdicts raise FalsificationError with the margins.
    Equal labels give equal canonical matrices (closed forms of them)."""
    return _same_orbit(_measured(U), _measured(W), tol)


def _same_orbit(mu: _Measured, mw: _Measured, tol: float) -> bool:
    """same_orbit of the frames of mu and mw."""
    U, W = mu.frame, mw.frame
    if U.dim != W.dim:
        raise DimensionError(f"same_orbit needs equal dims, got {U.dim} != {W.dim}")
    if U.ambient != W.ambient:
        raise DimensionError("subspaces live in different ambient spaces")
    near = sorted(set(mu.near) | set(mw.near))
    choices = (dict(zip(near, s)) for s in itertools.product((False, True), repeat=len(near)))
    verdicts = {mu.label(choice).agrees(mw.label(choice), tol) for choice in choices}
    if len(verdicts) > 1:
        raise FalsificationError("the verdict depends on the +/-1 convention: " + "; ".join(
            f"{name}: {m.margins()}" for name, m in (("U", mu), ("W", mw)) if m.near))
    return verdicts.pop()
