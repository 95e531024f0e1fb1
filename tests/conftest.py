import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from isoclinic.analysis import (
    ChainSet,
    Companions,
    IsoclinicProfile,
    _as_profile,
    _check_member,
    _forms,
    _formula_gram,
    _gate,
    _not_isoclinic,
    _pm1,
    _profiles,
    _trace_gram,
    certify_isoclinic,
    cij_block_4,
    cik_block_4,
    full_profile,
    gamma_delta,
)
from isoclinic.errors import (DimensionError, FalsificationError, InfeasibleParametersError,
                              RankDeficiencyError)
from isoclinic.generators import (OracleReport, _profile_vector, direct_sum, graph_subspace,
                                  random_sp)
from isoclinic.quaternions import I, J, K, apply_structure
from isoclinic.subspaces import Frame, orthonormalize, project
from isoclinic.tolerances import EPS_ANGLE, EPS_ISO, EPS_PIVOT, EPS_RANK, EPS_UNION


def unit(n: int, q: int) -> np.ndarray:
    """Real unit vector of quaternionic coordinate q in H^n."""
    v = np.zeros(4 * n)
    v[4 * q] = 1.0
    return v


def structure_matrix(A, n: int) -> np.ndarray:
    """Dense 4n x 4n matrix of the structure A (block sparse by construction)."""
    return apply_structure(A, np.eye(4 * n)).T


def mgs_reference(rows, tol):
    """Two-pass Gram-Schmidt in row order, one projection at a time: (kept
    orthonormal rows, their indices), dropping a residual at most tol * max(1,
    largest row norm)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    scale = max(float(np.max(np.linalg.norm(rows, axis=1))), 1.0)
    out, kept = [], []
    for idx, r in enumerate(rows):
        v = r.copy()
        for _ in range(2):
            for q in out:
                v -= (q @ v) * q
        nv = float(np.linalg.norm(v))
        if nv > tol * scale:
            out.append(v / nv)
            kept.append(idx)
    return (np.array(out) if out else np.zeros((0, rows.shape[1]))), kept


def clean_rows(V, tol=EPS_UNION):
    """Rows V, orthonormal by theorem, orthonormalized: a Gram defect within
    tol is absorbed, one beyond it raises FalsificationError. One QR of V^T
    signed by R's diagonal is row-order Gram-Schmidt; |R_jj| <= EPS_RANK
    max(1, largest row norm) is rank loss. The chain-route references'
    orthonormaliser."""
    G = V @ V.T
    defect = np.max(np.abs(G - np.eye(len(V))))
    if not defect <= tol:
        raise FalsificationError(f"rows are not orthogonal (defect {defect:.3e})")
    Q, R = np.linalg.qr(V.T)
    rank = int(np.sum(np.abs(R.diagonal()) > EPS_RANK * np.sqrt(max(G.diagonal().max(), 1.0))))
    if rank != len(V):
        raise RankDeficiencyError(detected_rank=rank, expected=len(V))
    return (Q * np.sign(R.diagonal())).T


def perturbed_graph_sum(seed, parts):
    """`parts` copies of one random graph subspace, moved by 3e-9 noise."""
    rng = np.random.default_rng(seed)
    base = direct_sum([graph_subspace(rng.standard_normal(4))] * parts)
    return orthonormalize(base.vectors + 3e-9 * rng.standard_normal(base.vectors.shape))


def random_unit_in(U, rng):
    """Random unit vector of span(U)."""
    v = rng.standard_normal(U.dim) @ U.vectors
    return v / np.linalg.norm(v)


def apply_structure_reference(A, x):
    """A = a I + b J + c K on real rows (last axis 4n), one quaternionic block
    (x0, x1, x2, x3) at a time: I, J, K are x -> x (-i), x (-j), x (-k)."""
    x = np.asarray(x, dtype=float)
    b = x.reshape(x.shape[:-1] + (x.shape[-1] // 4, 4))
    out = np.zeros_like(b)
    if A.a != 0.0:
        out += A.a * np.stack([b[..., 1], -b[..., 0], -b[..., 3], b[..., 2]], axis=-1)
    if A.b != 0.0:
        out += A.b * np.stack([b[..., 2], b[..., 3], -b[..., 0], -b[..., 1]], axis=-1)
    if A.c != 0.0:
        out += A.c * np.stack([b[..., 3], -b[..., 2], b[..., 1], -b[..., 0]], axis=-1)
    return out.reshape(x.shape)


def omega_reference(U, A):
    """The A-Kaehler form on U through the real structure action: entries
    <X_p, A X_q> = V (A V)^T, with no complex layout."""
    V = U.vectors
    return V @ apply_structure_reference(A, V).T


def qarr_mul_reference(a, b):
    """The Hamilton product written out, one component at a time."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


# The Hamilton product as a sign table, the kernel qarr_mul ran before it was
# written out: term t of component k of a b is _SIGN[t, k] * a[t] * b[t ^ k].
_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                  [-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])


def qarr_mul_table_reference(a, b):
    """The Hamilton product from _SIGN, C-contiguous. With b's last axis split as
    (k1, k0), k = 2 k1 + k0, b[t ^ k] is b reversed on the axes of t's set bits;
    the terms are added in t order with +=."""
    T = np.asarray(a, dtype=float)[..., None, None] * _SIGN.reshape(4, 2, 2)
    b = np.asarray(b, dtype=float).reshape(np.shape(b)[:-1] + (2, 2))
    out = np.multiply(T[..., 0, :, :], b, order="C")
    for t in (1, 2, 3):
        out += T[..., t, :, :] * b[..., :: 1 - 2 * (t >> 1), :: 1 - 2 * (t & 1)]
    return out.reshape(out.shape[:-2] + (4,))


def quaternion_cholesky_reference(H):
    """_quaternion_cholesky one entry R[p, q] at a time, on the sign-table product."""
    k = H.shape[0]
    R = np.zeros((k, k, 4))
    for p in range(k):
        d = H[p, p, 0] - float(np.sum(R[:p, p] ** 2))
        if d < -EPS_PIVOT:
            raise InfeasibleParametersError(f"pivot {p}: {d:.3e} < 0")
        if d <= EPS_PIVOT:
            continue
        s = np.sqrt(d)
        R[p, p, 0] = s
        for q in range(p + 1, k):
            acc = H[p, q].copy()
            if p:
                acc -= qarr_mul_table_reference(qarr_conj_reference(R[:p, p]), R[:p, q]).sum(axis=0)
            R[p, q] = acc / s
    return R


def canonical_matrices_reference(profile):
    """(C_IJ, C_IK) tiled one block at a time into zeros, -0.0 cleared: 2x2 sign
    blocks in dim = 2 mod 4, the 4x4 closed forms otherwise."""
    if profile.dim_class == 2:
        blocks = [np.diag([1.0, float(np.sign(v))]) for v in (profile.xi, profile.chi)]
    else:
        blocks = [cij_block_4(profile.xi), cik_block_4(profile.chi, profile.gamma, profile.delta)]
    mats = []
    for b in blocks:
        M = np.zeros((profile.dim, profile.dim))
        for at in range(0, profile.dim, len(b)):
            M[at : at + len(b), at : at + len(b)] = b
        mats.append(M + 0.0)
    return tuple(mats)


def qarr_conj_reference(a):
    return np.asarray(a, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def sp_entries(g):
    """The (n, n, 4) quaternion entries P + R j of an SpElement, read from the
    first n columns (P; conj R) of its complex matrix."""
    n = g.n
    return np.stack([g.matrix[:n, :n], g.matrix[n:, :n].conj()], axis=-1).view(float)


def sp_matrix(entries):
    """The complex matrix [[P, -R], [conj R, conj P]] of the (n, n, 4)
    quaternion entries P + R j."""
    q = np.ascontiguousarray(entries, dtype=float).view(complex)
    P, R = q[..., 0], q[..., 1]
    return np.block([[P, -R], [R.conj(), P.conj()]])


def real_matrix_reference(g):
    """Real 4n x 4n matrix of x -> g x: column 4q + c is g applied to the unit
    (1, i, j, k)[c] at coordinate q, entry by entry with the written-out
    Hamilton product."""
    n = g.n
    T = qarr_mul_reference(sp_entries(g)[:, :, None, :], np.eye(4))  # (p, q, c, d)
    return T.transpose(0, 3, 1, 2).reshape(4 * n, 4 * n)


def profile_of(angles, forms, snaps=None):
    """The IsoclinicProfile of one entry's certified angles and _forms (3, k, k)
    from _profiles of that entry alone (snaps, if given, its three flags)."""
    row = _profiles(np.array([angles]), forms[None], None if snaps is None else [snaps])[0]
    return _as_profile(row, forms.shape[-1])


def oracle_loop_reference(U, trials, seed, tol=1e-6):
    """invariance_oracle one trial at a time: each trial draws its motion's
    seed from the stream, moves U with random_sp's Frame, and runs the
    single-input gate, profile and theta_A formula checks."""
    rng = np.random.default_rng(seed)
    base = full_profile(U)
    base_vec = _profile_vector(base)
    snaps = [_pm1(v) for v in (base.xi, base.chi, base.eta)]
    max_dev = max_theta = max_eta = 0.0
    failures = []
    for t in range(trials):
        g = random_sp(U.n, seed=int(rng.integers(0, 2**63 - 1)))
        forms = _forms(g.apply_frame(U))
        angles, witness = _gate(forms, EPS_ISO)
        if angles is None:
            failures.append(f"trial {t}: gate failure after motion: "
                            f"{_not_isoclinic(witness, EPS_ISO)}")
            continue
        prof = profile_of(angles, forms, snaps)
        dev = float(np.max(np.abs(_profile_vector(prof) - base_vec)))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(f"trial {t}: profile deviation {dev:.3e}")
        F = _formula_gram(prof.cosines, prof.xi, prof.chi, prof.eta)
        err = float(np.max(np.abs(np.linalg.eigvalsh(_trace_gram(forms) - F))))
        max_theta = max(max_theta, err)
        if err > tol:
            failures.append(f"trial {t}: theta_A formula error {err:.3e}")
        if not any(snaps):
            res = abs(prof.eta - prof.xi * prof.chi
                      - np.sqrt((1 - prof.xi**2) * (1 - prof.chi**2)) * prof.gamma)
            max_eta = max(max_eta, float(res))
            if res > tol:
                failures.append(f"trial {t}: eta relation residual {res:.3e}")
    return OracleReport(trials, max_dev, max_theta, max_eta, tuple(failures))


@functools.cache
def bench_workloads():
    """bench/workloads.py, loaded by path: the benchmark's input families
    and its labelling rule label_from_invariants."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- the chains in ambient R^{4n}, one hand-coded branch per convention ------
#
# The references for companions and build_chains, which build the same rows
# as Clifford pieces in U's coordinates: every companion is a projection
# A^{-1} Pr_{AU} onto U, and each +/-1 convention has its own branch.


def projected_companion(U, A, cos_a, v):
    """A^{-1} Pr_{AU} v / cos_a = -Pr_U(A v) / cos_a, as A^{-1} = -A is an
    isometry; the standard partner of v for the A-form."""
    return -project(U, apply_structure(A, v)) / cos_a


def projected_third(U, A, cos_a, v4):
    """-A^{-1} Pr_{AU} v4 / cos_a = Pr_U(A v4) / cos_a; third chain element
    from the fourth."""
    return project(U, apply_structure(A, v4)) / cos_a


def complement_in(U, W):
    """Frame of the complement in span U of the rows W, which lie in span U
    with full rank: the trailing columns of the complete QR of U W^T."""
    G = U.vectors @ np.atleast_2d(W).T
    return Frame(np.linalg.qr(G, mode="complete")[0][:, G.shape[1]:].T @ U.vectors)


def sweep_leads(U, rng=None):
    """The sweep's leads after the first, in the ambient space: leads(W) is a
    unit Gaussian combination of U's rows from rng (default_rng(0) if None),
    projected onto the frame W inside span U and normalised, drawn again
    while the projection's norm is at most EPS_RANK. One leads object is one
    stream: pass it on to draw where the sweep draws next."""
    rng = np.random.default_rng(0) if rng is None else rng

    def leads(W):
        while True:
            g = rng.standard_normal(U.dim) @ U.vectors
            v = project(W, g / np.linalg.norm(g))
            if np.linalg.norm(v) > EPS_RANK:
                return v / np.linalg.norm(v)

    return leads


def fourths(P2, Q2, cos):
    """Fourth elements of the chains through companions P2, Q2 with <P2, Q2> = cos."""
    s = np.sqrt(1.0 - cos**2)
    return (Q2 - cos * P2) / s, (-P2 + cos * Q2) / s


def companions_reference(U, X1, angles, leads=None):
    """companions through the projector onto U, one structure at a time; the
    r.h.p. companion is the next of leads (default sweep_leads(U))."""
    X1 = _check_member(U, X1, "leading vector")
    cos_abc = np.cos(angles)
    have = cos_abc > EPS_ANGLE
    X2, Y2, Z2 = (projected_companion(U, A, float(c), X1) if h else None
                  for A, c, h in zip((I, J, K), cos_abc, have))
    forced = []
    if X2 is None and Y2 is None and Z2 is None:
        # r.h.p. subspace: any unit vector orthogonal to X1 will do
        leads = sweep_leads(U) if leads is None else leads
        X2 = Y2 = Z2 = leads(complement_in(U, X1[None]))
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
    return Companions(X2=X2, Y2=Y2, Z2=Z2, xi=float(X2 @ Y2), chi=float(X2 @ Z2),
                      eta=float(Y2 @ Z2), forced=tuple(forced))


def build_chains_reference(U, X1, angles=None, leads=None):
    """build_chains with fourths from pairs of companions, thirds projected
    back through a structure, and a branch per convention: none at +/-1,
    exactly one of xi, chi, eta at +/-1 (its chains collapse onto the
    others), or all three (the third element the next of leads, default
    sweep_leads(U), after the one an r.h.p. companion took)."""
    if angles is None:
        angles = certify_isoclinic(U)
    if U.dim < 4:
        raise DimensionError(f"chains need dim >= 4, got {U.dim}")
    leads = sweep_leads(U) if leads is None else leads
    comp = companions_reference(U, X1, angles, leads)
    X1 = np.asarray(X1, dtype=float)
    X2, Y2, Z2 = comp.X2, comp.Y2, comp.Z2
    xi, chi, eta = comp.xi, comp.chi, comp.eta
    cI, cJ, cK = (float(c) for c in np.cos(angles))
    have_i, have_j, have_k = (c > EPS_ANGLE for c in (cI, cJ, cK))
    third = projected_third
    res = {}
    n_pm = sum(_pm1(v) for v in (xi, chi, eta))
    if n_pm == 0:
        X4, Y4 = fourths(X2, Y2, xi)
        Xt4, Z4 = fourths(X2, Z2, chi)
        Yt4, Zt4 = fourths(Y2, Z2, eta)
        X3, Y3 = third(U, I, cI, X4), third(U, J, cJ, Y4)
        Xt3, Z3 = third(U, I, cI, Xt4), third(U, K, cK, Z4)
        Yt3, Zt3 = third(U, J, cJ, Yt4), third(U, K, cK, Zt4)
        for name, a, b in (("X3-Y3", X3, Y3), ("Xt3-Z3", Xt3, Z3), ("Yt3-Zt3", Yt3, Zt3)):
            res[name] = float(np.linalg.norm(a - b))
        chains = ([X1, X2, X3, X4], [X1, Y2, Y3, Y4], [X1, X2, Xt3, Xt4],
                  [X1, Z2, Z3, Z4], [X1, Y2, Yt3, Yt4], [X1, Z2, Zt3, Zt4])
        convention = "generic"
    elif n_pm == 1:
        if _pm1(xi):
            # base route through the (X2, Z2) pair
            four, z4 = fourths(X2, Z2, chi)
            t = third(U, I, cI, four) if have_i else third(U, K, cK, z4)
            sgn = float(np.sign(xi))
            x, y, z = [X1, X2, t, four], [X1, sgn * X2, t, sgn * four], [X1, Z2, t, z4]
            convention = "xi"
        else:
            # base route through the (X2, Y2) pair
            four, y4 = fourths(X2, Y2, xi)
            t = third(U, I, cI, four) if have_i else third(U, J, cJ, y4)
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
        t = leads(complement_in(U, np.vstack([X1, X2])))
        if have_i:
            X4 = projected_companion(U, I, cI, t)
        elif have_j:
            X4 = float(np.sign(xi)) * projected_companion(U, J, cJ, t)
        elif have_k:
            X4 = float(np.sign(chi)) * projected_companion(U, K, cK, t)
        else:
            X4 = leads(complement_in(U, np.vstack([X1, X2, t])))
        sx, sc = float(np.sign(xi)), float(np.sign(chi))
        x, y, z = [X1, X2, t, X4], [X1, sx * X2, t, sx * X4], [X1, sc * X2, t, sc * X4]
        chains = (x, y, x, z, y, z)
        convention = "decomposable"
    return ChainSet(X1, *(np.array(c) for c in chains), xi, chi, eta, tuple(angles),
                    convention, convention == "decomposable", comp.forced, res)


def chain_profile(U, leading):
    """The invariant set measured on the reference chains centred on
    `leading`: the companions in dim 2, the chains and gamma_delta otherwise."""
    angles = certify_isoclinic(U)
    if U.dim == 2:
        comp = companions_reference(U, leading, angles)
        xi, chi, eta, gamma, delta = comp.xi, comp.chi, comp.eta, 1.0, 0.0
    else:
        chains = build_chains_reference(U, leading, angles)
        xi, chi, eta = chains.xi, chains.chi, chains.eta
        gamma, delta = gamma_delta(chains)
    return IsoclinicProfile(U.dim, *angles, xi, chi, eta, gamma, delta)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
