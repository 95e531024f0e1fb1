"""The 8-dimensional addend construction, orthogonal decomposition into
isoclinic addends, block canonical matrices and the Sp(n)-orbit decision.

The addend dimension follows dim mod 8: 2 (which forces invariants at +/-1),
4 or 8. In U's coordinates the Kaehler forms, orthonormalized to r <= 3
generators E_p, make U a Clifford module (Atiyah-Bott-Shapiro); a form is
dropped where cos(theta_p) = 0 or an invariant is at +/-1. Every addend is a
sum of cyclic submodules span{u, E_1 u, E_2 u, E_1 E_2 u} (the omega^I chain
through u, cut to 1 or 2 vectors when r < 2), and so is its complement: all
addends are blocks of one sweep (analysis._adapted) that builds such pieces
through all its Gaussian leads in one product and orthonormalises them in
row order by one QR: a piece projected off the ones before it is the piece
of its lead so projected.
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

from . import analysis
from .analysis import (
    IsoclinicProfile,
    _adapted,
    _as_profile,
    _check_member,
    _not_isoclinic,
    _pm1,
    _profiles,
    cij_block_4,
    cik_block_4,
    full_profile,
)
from .errors import DimensionError, FalsificationError
from .quaternions import _complex_rows
from .subspaces import Frame, _seeded_rng, _tolerance
from .tolerances import EPS_ISO, EPS_ORBIT, EPS_PM1, EPS_RECERT

__all__ = [
    "eight_dim_addend",
    "Decomposition",
    "decompose",
    "canonical_matrices",
    "OrbitLabel",
    "orbit_label",
    "same_orbit",
]


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


def _require_one_type(E: np.ndarray) -> None:
    """Refuse a U that mixes both Cl_{0,3}-module types. With fewer than three
    generators the algebra (R, C or H) has one module type; with three,
    vol = E_1 E_2 E_3 must be +/-Id. The mixedness is max |s vol - Id| with
    s = tr(vol) / dim."""
    if len(E) < 3:
        return
    k = E.shape[-1]
    vol = E[0] @ E[1] @ E[2]
    mixed = float(np.abs(vol.trace() / k * vol - np.eye(k)).max())
    if not mixed <= EPS_ORBIT:
        raise FalsificationError(
            f"dim {k}: the volume element is not +/-Id (mixedness "
            f"max|s vol - Id| = {mixed:.3e}): the subspace mixes both module types"
        )


def _submodules(m: _Measured, u, dim: int, cut: int, what: str, rng=None) -> tuple:
    """(Frames B V, gated) of the blocks B (dim / cut, cut, k) of the rows _adapted(E, u,
    dim, cut, rng) of the measured U's coordinates, each orthonormalised under U's Gram
    V V^T by one stacked Cholesky, so that B V is orthonormal to roundoff whatever V's
    defect; gated _recertifies their forms B omega B^T, naming a failure as what."""
    E = m.generators
    B = _adapted(E, u, dim, cut, rng).reshape(-1, cut, E.shape[-1])
    B = np.linalg.solve(np.linalg.cholesky(B @ m.gram @ B.swapaxes(-1, -2)), B)
    forms = B[:, None] @ m.forms @ B[:, None].swapaxes(-1, -2)
    return [Frame(b) for b in B @ m.frame.vectors], _recertified(forms, m.angles, what)


def _recertified(forms: np.ndarray, angles, what: str) -> tuple:
    """(angles, forms) of each addend of the stack forms from one stacked gate, via the
    module, held to the parent's angles in one comparison; the first addend off them
    raises as what.format(index)."""
    got = [a for a, _ in analysis._gates(forms, EPS_ISO)]
    off = ~(np.abs(np.array([a or (np.nan,) * 3 for a in got]) - angles) <= EPS_RECERT).all(1)
    if off.any():
        i = int(off.argmax())
        raise FalsificationError(f"{what.format(i)} failed re-certification against the "
                                 f"parent angles (got {got[i]}, parent {tuple(angles)})")
    return tuple(zip(got, forms))


def eight_dim_addend(U: Frame, X1: np.ndarray) -> Frame:
    """8-dim isoclinic subspace through X1 with the parent's angles.

    The first block of decompose's sweep from X1: the 4-dim piece through X1
    and the one through a default_rng(0) Gaussian lead in its complement (or
    as many 2-dim or 1-dim pieces when the forms generate only C or R); so
    eight_dim_addend(U, U.vectors[0]) is decompose(U)'s first addend, and it
    refuses what decompose refuses.
    """
    if U.dim < 8:
        raise DimensionError(f"eight_dim_addend needs dim >= 8, got {U.dim}")
    (measured,) = _measured([U])
    u = U.vectors @ _check_member(U, X1, "leading vector")
    (addend,), _ = _submodules(measured, u, 8, 8, "constructed 8-dim addend")
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
        """Each addend's profile off the forms of its one gate, in one _profiles."""
        angles, forms = zip(*self.gated)
        rows = _profiles(np.array(angles), np.array(forms))
        return tuple(_as_profile(row, self.addend_dim) for row in rows)


def decompose(U: Frame, seed: int | None = None) -> Decomposition:
    """Decompose U into addends of the theorem-mandated dimension.

    dim = 2 mod 4: isoclinic 2-planes (requires xi, chi, eta at +/-1);
    dim = 4 mod 8: 4-dim addends; dim = 0 mod 8: 8-dim addends. Outside
    dim = 2 mod 4 the profile must have Sigma = 0, and U must not mix both
    module types. The first lead is U's first vector, or a draw of `seed`'s
    stream; each next one a draw of it (of default_rng(0) with no seed).

    Everything happens in U's coordinates, where the gate's three Kaehler
    forms, orthonormalized to generators E, make U a Clifford module. One
    sweep (analysis._adapted) builds the cyclic submodules span{u, E_1 u,
    E_2 u, E_1 E_2 u} (or span{u, E_1 u}, span{u} with fewer generators)
    through all leads in one product, orthonormalises them in row order by
    one QR, with each piece through its projected lead checked orthonormal,
    and cuts them into addends, each then orthonormalised under U's Gram; an
    addend is a Frame B V, and one stacked gate re-certifies all addends on
    their blocks B omega B^T of U's forms against the parent's angles in one
    comparison; addend_profiles reads its forms.
    """
    rng = _seeded_rng(seed) if seed is not None else None
    (measured,) = _measured([U])
    klass = measured.profile.dim_class
    addends, gated = _submodules(measured, None, U.dim, klass, "addend {}", rng)
    return Decomposition(tuple(addends), klass, measured.profile, gated)


# ---------------------------------------------------------------------------
# block canonical matrices


def canonical_matrices(
    U: Frame, profile: IsoclinicProfile | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal canonical matrices (C_IJ, C_IK) of an isoclinic U.

    dim = 2 mod 4 tiles 2x2 sign blocks; every other dimension requires
    Sigma = 0 and tiles the 4x4 closed forms in (xi, chi, Gamma, Delta).
    The result depends only on the measured invariants, hence not on the
    decomposition used; adding 0.0 clears the blocks' -0.0.
    """
    if profile is None:
        profile = full_profile(U)
    elif profile.dim != U.dim:
        raise DimensionError(f"a dim-{profile.dim} profile given for a dim-{U.dim} subspace")
    _require_mandates(profile)
    if profile.dim_class == 2:
        xi, chi = float(np.sign(profile.xi)), float(np.sign(profile.chi))
        bij = np.array([[1.0, 0.0], [0.0, xi]])
        bik = np.array([[1.0, 0.0], [0.0, chi]])
    else:
        bij = cij_block_4(profile.xi)
        bik = cik_block_4(profile.chi, profile.gamma, profile.delta)
    m = len(bij)
    count = profile.dim // m
    tiles = np.zeros((2, count, m, count, m))
    tiles[:, range(count), :, range(count)] = (bij, bik)
    return tuple(tiles.reshape(2, profile.dim, profile.dim) + 0.0)


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
        tol = _tolerance(tol)
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
    return _measured([U])[0].decided()


@dataclass(frozen=True, eq=False)
class _Measured:
    """U's profile from one gate, meeting the mandates, with the angles, the
    Gram and the forms it came from; `near` maps each of xi, chi, eta (0, 1, 2) whose
    |.| lies within `bound` of 1 - EPS_PM1 to that distance."""

    frame: Frame
    angles: tuple[float, float, float]
    gram: np.ndarray
    forms: np.ndarray
    profile: IsoclinicProfile
    bound: float
    near: dict

    @cached_property
    def generators(self) -> np.ndarray:
        """The forms' generators E, built on first use."""
        return analysis._generators(self.forms)  # via the module: a wrapped one sees it

    def snaps(self, choice=None) -> list:
        """Whether xi, chi, eta count as +/-1: a near one as `choice` (index -> bool) says."""
        values = (self.profile.xi, self.profile.chi, self.profile.eta)
        return [choice[i] if choice and i in self.near else _pm1(v) for i, v in enumerate(values)]

    def label(self, snaps=None, row=None) -> OrbitLabel:
        """The label with xi, chi, eta counted as +/-1 as `snaps` (default snaps())
        says, off the _profiles `row` read under them, if given, held to the mandates."""
        p = self.profile if row is None else _as_profile(row, self.profile.dim)
        snaps = self.snaps() if snaps is None else snaps
        if row is not None:
            _require_mandates(p, snaps)
        values = (p.xi, p.chi, p.eta)
        xi, chi, eta = (float(np.sign(v)) if snap else v for v, snap in zip(values, snaps))
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


def _measured(frames, tol: float = EPS_ISO) -> list[_Measured]:
    """The _Measured of frames of one (dim, ambient) from one _profile_pass of their
    stacked _complex_rows at `tol`. Unequal dims or ambients raise first, then the
    first entry in input order to fail its gate, mandates or one type."""
    for W in frames[1:]:
        if frames[0].dim != W.dim:
            raise DimensionError(f"same_orbit needs equal dims, got {frames[0].dim} != {W.dim}")
        if frames[0].ambient != W.ambient:
            raise DimensionError("subspaces live in different ambient spaces")
    G, forms, gates, rows = analysis._profile_pass(_complex_rows([F.vectors for F in frames]), tol)
    measured = []
    for F, g, f, row, (angles, witness) in zip(frames, G, forms, rows, gates):
        if row is None:
            raise _not_isoclinic(witness, tol)
        p = _as_profile(row, F.dim)
        _require_mandates(p)
        bound = 1e-14 + 10.0 * witness[1]  # how far roundoff and the defect move xi, chi, eta
        gaps = enumerate(abs(abs(v) - (1.0 - EPS_PM1)) for v in (p.xi, p.chi, p.eta))
        measured.append(_Measured(F, angles, g, f, p, bound, {i: d for i, d in gaps if d <= bound}))
        if p.dim_class != 2:
            _require_one_type(measured[-1].generators)
    return measured


def same_orbit(U: Frame, W: Frame, tol: float = EPS_ORBIT) -> bool:
    """Sp(n)-orbit equivalence of two isoclinic subspaces of one dimension
    by orbit-label equality, one stacked gate for both. Invariants near the
    +/-1 convention (see orbit_label) take each side in turn, the same in both
    inputs; differing verdicts raise FalsificationError with the margins.
    Equal labels give equal canonical matrices (closed forms of them)."""
    tol = _tolerance(tol)
    return _same_orbit(*_measured([U, W]), tol)


def _same_orbit(mu: _Measured, mw: _Measured, tol: float) -> bool:
    """same_orbit of the frames of mu and mw; with invariants near, every
    (input, choice) pair is relabelled in one _profiles."""
    near = sorted(set(mu.near) | set(mw.near))
    choices = [dict(zip(near, s)) for s in itertools.product((False, True), repeat=len(near))]
    ms, snaps = zip(*[(m, m.snaps(choice)) for choice in choices for m in (mu, mw)])
    rows = (_profiles(np.array([m.angles for m in ms]), np.array([m.forms for m in ms]), snaps)
            if near else [None] * len(ms))
    labels = [m.label(s, row) for m, s, row in zip(ms, snaps, rows)]
    verdicts = {a.agrees(b, tol) for a, b in zip(labels[::2], labels[1::2])}
    if len(verdicts) > 1:
        raise FalsificationError("the verdict depends on the +/-1 convention: " + "; ".join(
            f"{name}: {m.margins()}" for name, m in (("U", mu), ("W", mw)) if m.near))
    return verdicts.pop()
