"""The vectorized numeric kernels against the straightforward loops they
replace.

Each reference below is the plain formulation: Gram-Schmidt one kept row
at a time (conftest; decompose's sweep, its Clifford pieces built one lead
and one matrix-vector product at a time, is checked against it too), the
structure action as stacked signed slices, companions through the
projector onto AU, the oracle's sampled structures through a
fresh image AU per structure, the Hamilton product written out one
component at a time (qarr_mul, written out too, against the sign table it
replaced), the quaternionic Cholesky one entry at a time, the canonical
matrices one block at a time, Sp(n) sampling as left-looking Gram-Schmidt one
column pair at a time on that product, an element's real 4n x 4n matrix
entry by entry through that product and the Kaehler forms through the
real structure action (conftest; neither uses the complex layout), the
profile, orbit label and decision measured on 4n-dim chains (the label
at two leading vectors),
decompose on 4n-dim chains, each complement taken of the ambient frames
and every lead after the first the same Gaussian draw projected there
(conftest), and the chains themselves through projected companions with
one branch per +/-1 convention (conftest). The
gate's reference polarises the 3 x 3 quadratic forms Q_ij of the pair
defect from six fresh images AU and takes their sup over all structures
with np.linalg.eigh, which the gate's witness also calls: its tests check
that the witness attains that sup. Inputs are unit-norm and agreement is
required to 1e-13 (bitwise where the kernel performs the same operations
in the same order). The oracle's stacked blocks are checked
against the same oracle run one trial at a time (conftest), and each
stacked kernel against its single-input call, bitwise.
"""

import json
from dataclasses import astuple

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from isoclinic import analysis, cli, generators, orbits
from isoclinic.analysis import (
    _angle,
    _combined_defects,
    _forms,
    _gate,
    _gates,
    _normalised,
    _pair_defects,
    _profiles,
    _pm1,
    _witness,
    build_chains,
    certify_isoclinic,
    companions,
    full_profile,
    isoclinic_pair,
    isoclinic_profile_angles,
    omega_matrix,
    theta_of_A,
)
from isoclinic.errors import (
    DimensionError,
    FalsificationError,
    InfeasibleParametersError,
    IsoclinicError,
    NotIsoclinicError,
    RankDeficiencyError,
)
from isoclinic.generators import (
    SpElement,
    _profile_vector,
    _quaternion_cholesky,
    direct_sum,
    embed,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_profile_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
    random_sp,
)
from isoclinic.io import document_from_frame, parse_document, serialize_document
from isoclinic.quaternions import (
    CompatibleStructure,
    I,
    J,
    K,
    _complex_rows,
    apply_structure,
    qarr_conj,
    qarr_mul,
)
from isoclinic.subspaces import (
    Frame,
    _mgs,
    gram,
    orthonormalize,
    project,
    random_frame,
    structure_image,
)
from isoclinic.orbits import (
    OrbitLabel,
    canonical_matrices,
    decompose,
    eight_dim_addend,
    orbit_label,
    same_orbit,
)
from isoclinic.tolerances import (EPS_ANGLE, EPS_FRAME, EPS_ISO, EPS_ORBIT, EPS_PM1, EPS_RANK,
                                  EPS_UNION)
from conftest import (apply_structure_reference, bench_workloads, build_chains_reference,
                      canonical_matrices_reference, chain_profile, clean_rows,
                      companions_reference, complement_in, mgs_reference, omega_reference,
                      oracle_loop_reference, perturbed_graph_sum, profile_of,
                      qarr_conj_reference, qarr_mul_reference, qarr_mul_table_reference,
                      quaternion_cholesky_reference, random_unit_in, real_matrix_reference,
                      sp_entries, sp_matrix, structure_matrix, sweep_leads)

TOL = 1e-13


# --- references -------------------------------------------------------------

def companion_reference(U, A, cos_a, v):
    """A^{-1} Pr_{AU} v / cos_a with A^{-1} = -A."""
    return -apply_structure(A, project(structure_image(A, U), v)) / cos_a


def pair_defect_reference(U, A):
    G = gram(U, structure_image(A, U))
    M = G @ G.T
    c2 = float(np.trace(M)) / U.dim
    return float(np.max(np.abs(M - c2 * np.eye(U.dim))))


def defect_matrix_reference(U, coefficients):
    """Traceless part of G G^T for G = <U, AU> on a fresh image AU."""
    G = gram(U, structure_image(CompatibleStructure(*coefficients), U))
    M = G @ G.T
    return M - np.trace(M) / U.dim * np.eye(U.dim)


def sup_defect_reference(U):
    """(max over unit (a, b, c) of the pair defect, a structure attaining it).

    Entry (i, j) of the traceless G_A G_A^T is a^T Q_ij a. Each Q_ij is
    polarised from six fresh images (I, J, K and the (e_p + e_q) / sqrt 2),
    and np.linalg.eigh gives the sup max_ij rho(Q_ij) with its eigenvector.
    """
    k, E = U.dim, np.eye(3)
    Q = np.zeros((k, k, 3, 3))
    for p in range(3):
        Q[:, :, p, p] = defect_matrix_reference(U, E[p])
    for p, q in ((0, 1), (0, 2), (1, 2)):
        mixed = defect_matrix_reference(U, (E[p] + E[q]) / np.sqrt(2.0))
        Q[:, :, p, q] = Q[:, :, q, p] = mixed - (Q[:, :, p, p] + Q[:, :, q, q]) / 2
    values, vectors = np.linalg.eigh(Q)
    i, j, m = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    return float(abs(values[i, j, m])), vectors[i, j, :, m]


def gate_reference(U, tol=EPS_ISO):
    rho, vector = sup_defect_reference(U)
    if rho >= tol:
        return None, (vector, rho)
    cos2 = [np.trace(G @ G.T) / U.dim for G in (gram(U, structure_image(A, U)) for A in (I, J, K))]
    return tuple(float(np.arccos(np.sqrt(np.clip(c, 0.0, 1.0)))) for c in cos2), None


def random_sp_reference(n, seed):
    """Column q is orthogonalized against the final columns r < q in turn."""
    M = np.random.default_rng(seed).standard_normal((n, n, 4))
    for q in range(n):
        for r in range(q):
            coef = qarr_mul_reference(qarr_conj_reference(M[:, r]), M[:, q]).sum(axis=0)
            M[:, q] -= qarr_mul_reference(M[:, r], coef)
        M[:, q] /= np.sqrt(np.sum(M[:, q] ** 2))
    return M


def oracle_reference(U, trials, seed, tol=1e-6):
    """invariance_oracle with every profile measured on chains and each
    sampled pair tested on a fresh image A gU; returns the report fields as
    a tuple."""
    base_vec = _profile_vector(chain_profile(U, U.vectors[0]))
    rng = np.random.default_rng(seed)
    max_dev = max_theta = max_eta = 0.0
    failures = []
    for t in range(trials):
        gU = random_sp(U.n, seed=int(rng.integers(0, 2**63 - 1))).apply_frame(U)
        try:
            prof = chain_profile(gU, gU.vectors[0])
        except NotIsoclinicError as exc:
            failures.append(f"trial {t}: gate failure after motion: {exc}")
            continue
        dev = float(np.max(np.abs(_profile_vector(prof) - base_vec)))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(f"trial {t}: profile deviation {dev:.3e}")
        for _ in range(8):
            v = rng.standard_normal(3)
            A = CompatibleStructure(*(v / np.linalg.norm(v)))
            th = isoclinic_pair(gU, structure_image(A, gU))
            if th is None:
                failures.append(f"trial {t}: pair (gU, A gU) not isoclinic")
                continue
            err = abs(np.cos(th) ** 2 - np.cos(theta_of_A(prof, A)) ** 2)
            max_theta = max(max_theta, float(err))
            if err > tol:
                failures.append(f"trial {t}: theta_A formula error {err:.3e}")
        if not any(_pm1(v) for v in (prof.xi, prof.chi, prof.eta)):
            res = abs(prof.eta - prof.xi * prof.chi
                      - np.sqrt((1 - prof.xi**2) * (1 - prof.chi**2)) * prof.gamma)
            max_eta = max(max_eta, float(res))
            if res > tol:
                failures.append(f"trial {t}: eta relation residual {res:.3e}")
    return max_dev, max_theta, max_eta, tuple(failures)


def chain_lead(U, seed):
    """The first frame vector, or for a seed a random unit vector of U."""
    return U.vectors[0] if seed is None else random_unit_in(U, np.random.default_rng(seed))


def orbit_label_reference(U, seed=None):
    """orbit_label from chains at two leading vectors, refused when the
    invariants drift between them."""
    profile = chain_profile(U, chain_lead(U, seed))
    other = chain_profile(U, chain_lead(U, (seed or 0) + 101))
    drift = max(abs(getattr(profile, f) - getattr(other, f))
                for f in ("xi", "chi", "eta", "gamma", "delta"))
    if drift > EPS_ORBIT:
        raise FalsificationError(f"invariants drift {drift:.3e}")
    xi, chi, eta, delta = profile.xi, profile.chi, profile.eta, profile.delta
    if profile.dim_class == 2:
        if not all(abs(v) > 1.0 - EPS_PM1 for v in (xi, chi, eta)):
            raise FalsificationError("dim = 2 mod 4 mandates xi, chi, eta at +/-1")
        xi, chi = np.copysign(1.0, xi), np.copysign(1.0, chi)
        eta, delta = xi * chi, 0.0
    else:
        if profile.dim_class == 4 and abs(profile.gamma**2 + delta**2 - 1.0) > EPS_ORBIT:
            raise FalsificationError("dim = 4 mod 8 mandates Gamma^2 + Delta^2 = 1")
        if any(abs(v) > 1.0 - EPS_PM1 for v in (xi, chi, eta)):
            snap = lambda v: np.copysign(1.0, v) if abs(v) > 1.0 - EPS_PM1 else v
            xi, chi, eta, delta = snap(xi), snap(chi), snap(eta), 0.0
    return OrbitLabel(U.dim, profile.theta_i, profile.theta_j, profile.theta_k,
                      xi, chi, eta, delta)


def same_orbit_reference(U, W, tol=EPS_ORBIT):
    """The decision with every label measured from scratch."""
    return orbit_label_reference(U).agrees(orbit_label_reference(W), tol)


def eight_dim_addend_reference(U, X1, angles, leads):
    """The 8-dim addend on 4n-dim chains: four standard 2-planes peeled from
    shrinking complements, or two omega^I chain spans, each next lead drawn
    from leads (conftest's sweep_leads); the chains draw none of them."""
    chains = build_chains_reference(U, X1, angles)
    if chains.convention != "decomposable":
        first = Frame(clean_rows(chains.chain_x))
        rest = complement_in(U, first.vectors)
        second = build_chains_reference(U, leads(rest), angles).chain_x
        return Frame(clean_rows(np.vstack([chains.chain_x, second])))
    current, lead, planes = U, X1, []
    for step in range(4):
        partner = companions_reference(current, lead, angles, leads).X2
        planes.append(Frame(clean_rows(np.vstack([lead, partner]))))
        if step < 3:
            current = complement_in(current, planes[-1].vectors)
            lead = leads(current)
    return Frame(clean_rows(np.vstack([p.vectors for p in planes])))


def decompose_reference(U, seed=None):
    """decompose's addends built on 4n-dim chains, each complement taken of
    the ambient frames (conftest's complement_in, no checks). The first lead
    is U's first vector, or with a seed a draw from its stream; every next
    one is a draw from that stream, or with no seed from default_rng(0)."""
    profile = chain_profile(U, U.vectors[0])
    angles = (profile.theta_i, profile.theta_j, profile.theta_k)
    leads = sweep_leads(U, None if seed is None else np.random.default_rng(seed))
    addends, current = [], U
    while current is not None:
        x1 = U.vectors[0] if seed is None and current is U else leads(current)
        if profile.dim_class == 2:
            partner = companions_reference(current, x1, angles, leads).X2
            addend = Frame(clean_rows(np.vstack([x1, partner])))
        elif profile.dim_class == 4:
            addend = Frame(clean_rows(build_chains_reference(current, x1, angles, leads).chain_x))
        else:
            addend = eight_dim_addend_reference(current, x1, angles, leads)
        addends.append(addend)
        left = current.dim - addend.dim
        current = complement_in(current, addend.vectors) if left else None
    return addends


# --- inputs -----------------------------------------------------------------

def unit_rows(rng, k, d):
    X = rng.standard_normal((k, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def random_structure(rng):
    v = rng.standard_normal(3)
    return CompatibleStructure(*(v / np.linalg.norm(v)))


def moved(U, seed):
    return random_sp(U.n, seed).apply_frame(U)


def graph_sum(parts):
    return direct_sum([graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))] * parts)


def near_pm1_profile(gap=0.0, gamma=0.5):
    """xi = 1 - 1e-8 + gap, at the +/-1 convention edge: whether xi counts
    as +/-1, and with it (Gamma, Delta), is decided by roundoff under motions."""
    xi, chi = 1 - 1e-8 + gap, 0.2
    eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
    return make_profile_4(1.2, 1.3, 1.4, xi, chi, eta)


def mixed_sign_sum(signs):
    """Sum of standard 2-planes with equal angles and the given xi signs."""
    planes = [make_two_plane(2, 0.9, 1.1, 1.2, s, 1.0) for s in signs]
    n = 2 * len(planes)
    return Frame(np.vstack([embed(p, n, 2 * i).vectors for i, p in enumerate(planes)]))


def mixed_delta_sum():
    """Parts that agree in angles and (xi, chi, eta) but carry opposite Delta:
    isoclinic, without well-defined chain invariants."""
    args = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)
    vectors = np.zeros((8, 32))
    vectors[:4, :16] = make_profile_4(*args, delta_sign=+1).vectors
    vectors[4:, 16:] = make_profile_4(*args, delta_sign=-1).vectors
    return Frame(vectors)


GATE_INPUTS = {
    "graph-4": lambda: moved(graph_sum(1), 1),
    "graph-8": lambda: moved(graph_sum(2), 2),
    "graph-16": lambda: moved(graph_sum(4), 3),
    "mixed-4": lambda: mixed_sign_sum([1, -1]),
    "mixed-8": lambda: moved(mixed_sign_sum([1, -1, 1, -1]), 4),
    "mixed-16": lambda: moved(mixed_sign_sum([1, -1] * 4), 5),
    "random-4": lambda: random_frame(3, 4, np.random.default_rng(6)),
    "random-8": lambda: random_frame(4, 8, np.random.default_rng(7)),
    "random-16": lambda: random_frame(6, 16, np.random.default_rng(8)),
    "unpaired-4": lambda: Frame(np.eye(8)[[0, 2, 4, 5]]),
}


# --- tests ------------------------------------------------------------------

class TestGramSchmidt:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 5), (4, 16), (8, 20)])
    def test_random_rows(self, rng, n, k):
        rows = unit_rows(rng, k, 4 * n)
        Q, kept = _mgs(rows, EPS_RANK)
        Q_ref, kept_ref = mgs_reference(rows, EPS_RANK)
        assert kept == kept_ref
        npt.assert_allclose(Q, Q_ref, rtol=0, atol=TOL)

    def test_exact_dependencies_drop_the_same_rows(self, rng):
        r = unit_rows(rng, 4, 16)
        rows = np.vstack([r[0], r[1], (r[0] + r[1]) / np.sqrt(2), r[2], r[1], r[3]])
        Q, kept = _mgs(rows, EPS_RANK)
        Q_ref, kept_ref = mgs_reference(rows, EPS_RANK)
        assert kept == kept_ref == [0, 1, 3, 5]
        npt.assert_allclose(Q, Q_ref, rtol=0, atol=TOL)

    def test_near_dependent_rows_stay_orthonormal(self, rng):
        # residuals of 1e-7 relative: one projection pass alone would leave
        # the kept rows visibly non-orthogonal
        r = unit_rows(rng, 3, 16)
        rows = np.vstack([r[0], r[0] + 1e-7 * r[1], r[1], r[1] + 1e-7 * r[2]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        Q, kept = _mgs(rows, EPS_RANK)
        assert kept == mgs_reference(rows, EPS_RANK)[1] == [0, 1, 2, 3]
        npt.assert_allclose(Q @ Q.T, np.eye(4), rtol=0, atol=TOL)

    def test_drop_rule_is_relative_to_largest_row(self, rng):
        r = unit_rows(rng, 3, 16)
        # the third residual is 1e-8 absolute but 1e-11 relative to |row 0|
        rows = np.vstack([1e3 * r[0], r[1], r[1] + 1e-8 * r[2]])
        assert _mgs(rows, EPS_RANK)[1] == mgs_reference(rows, EPS_RANK)[1] == [0, 1]


def clifford_generators(rng, n, r):
    """The first r of the structures I, J, K as 4n x 4n matrices in a random
    orthonormal basis: exact generators, E_p E_q + E_q E_p = -2 delta_pq Id.
    The basis is Gram-Schmidt of Gaussian rows, so no QR sign is fixed in
    advance."""
    O = mgs_reference(rng.standard_normal((4 * n, 4 * n)), EPS_RANK)[0]
    return np.array([O @ structure_matrix(A, n) @ O.T for A in (I, J, K)[:r]]).reshape(
        r, 4 * n, 4 * n)


def pieces_reference(E, leads, p):
    """Each lead's rows u, -E_1 u, -E_1 E_2 u, -E_2 u cut to its first p, one
    matrix-vector product at a time."""
    rows = []
    for u in leads:
        piece = [u]
        if len(E) == 1:
            piece.append(-(E[0] @ u))
        elif len(E) > 1:
            piece += [-(E[0] @ u), -(E[0] @ (E[1] @ u)), -(E[1] @ u)]
        rows += piece[:p]
    return np.array(rows)


class Stream:
    """A stand-in for a generator whose standard_normal hands out the given
    rows in order."""

    def __init__(self, rows):
        self.rows = list(rows)

    def standard_normal(self, shape):
        out, self.rows = np.array(self.rows[: shape[0]]), self.rows[shape[0]:]
        return out


class TestSweep:
    """analysis._adapted builds the Clifford pieces through all its leads in
    one product and orthonormalises them by one QR: row-order Gram-Schmidt of
    the stacked pieces up to roundoff, each piece's Gram held to _union_tol."""

    @pytest.mark.parametrize("start", ["u", "e0", "drawn"])
    @pytest.mark.parametrize("n,dim", [(2, 8), (4, 8), (4, 16)])
    @pytest.mark.parametrize("r,cut", [(0, 2), (1, 2), (1, 4), (2, 2), (2, 4), (3, 2), (3, 4),
                                       (3, 8)])
    def test_matches_row_order_gram_schmidt(self, rng, r, cut, n, dim, start):
        E = clifford_generators(rng, n, r)
        k, p = 4 * n, min(2 ** min(r, 2), cut)
        u = {"u": unit_rows(rng, 1, k)[0], "e0": np.eye(k)[0], "drawn": None}[start]
        seed = 0 if start == "e0" else 7
        draws = np.random.default_rng(seed)
        leads = [] if u is None else [u]
        while len(leads) < dim // p:
            g = draws.standard_normal(k)
            leads.append(g / np.linalg.norm(g))
        Q, kept = mgs_reference(pieces_reference(E, leads, p), EPS_RANK)
        assert kept == list(range(dim))
        got = (analysis._adapted(E, None, dim, cut) if start == "e0" else
               analysis._adapted(E, u, dim, cut, np.random.default_rng(seed)))
        npt.assert_allclose(got, Q, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("r,cut,dim", [(1, 2, 2), (1, 2, 8), (2, 4, 4), (2, 4, 8), (3, 8, 8)])
    def test_piece_defect_beyond_union_tol_is_falsification(self, rng, r, cut, dim):
        # E_1 + s Id moves <v, -E_1 v> to -s |v|^2 in every piece, while
        # _union_tol reads EPS_UNION + 2 s^2 (and roundoff); dim = cut <= 4 is
        # a lone piece
        E = clifford_generators(rng, 2, r)
        for s, raises in ((1e-9, False), (1e-5, True)):
            F = E.copy()
            F[0] += s * np.eye(8)
            assert analysis._union_tol(F) < EPS_UNION + 3 * s**2 + 1e-12
            for u in (None, unit_rows(rng, 1, 8)[0]):
                sweep = lambda: analysis._adapted(F, u, dim, cut, np.random.default_rng(1))
                if raises:
                    with pytest.raises(FalsificationError, match="not orthogonal"):
                        sweep()
                else:
                    sweep()
        if r == 3:
            # the pieces read only E_1 and E_2: a NaN in E_3 shows in _union_tol alone
            F = E.copy()
            F[2, 0, 1] = np.nan
            for u in (None, unit_rows(rng, 1, 8)[0]):
                with pytest.raises(FalsificationError, match="not orthogonal"):
                    analysis._adapted(F, u, dim, cut, np.random.default_rng(1))

    def test_repeated_leads_are_drawn_again(self, rng):
        # a draw in the span of the rows before it gives way to the stream's
        # next draw, as in a sweep drawing one lead at a time
        E = clifford_generators(rng, 4, 3)
        u = unit_rows(rng, 1, 16)[0]
        G = rng.standard_normal((3, 16))
        want = analysis._adapted(E, u, 16, 4, Stream(G))
        stream = Stream([3 * u, G[0], -2 * G[0], E[0] @ G[0], G[1], G[2]])
        npt.assert_allclose(analysis._adapted(E, u, 16, 4, stream), want, rtol=0, atol=1e-15)
        assert stream.rows == []

    def test_repeated_row_is_rank_deficiency(self, rng):
        # E_1 = -Id repeats each lead in its piece; _union_tol (about 4) lets
        # the pieces' Gram defect 1 through, the rank check refuses them
        u = unit_rows(rng, 1, 8)[0]
        with pytest.raises(RankDeficiencyError) as info:
            analysis._adapted(-np.eye(8)[None], u, 8, 2, np.random.default_rng(1))
        assert (info.value.detected_rank, info.value.expected) == (4, 8)

    def test_lone_piece_is_returned_as_built(self, rng):
        E = clifford_generators(rng, 2, 3)
        u = unit_rows(rng, 1, 8)[0]
        # the same products as one matrix-vector product at a time, bit for bit
        npt.assert_array_equal(analysis._adapted(E, u, 4, 4), pieces_reference(E, [u], 4))


class TestApplyStructure:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_coordinate_structures_exact(self, rng, n):
        x = unit_rows(rng, 5, 4 * n)
        for A in (I, J, K):
            npt.assert_array_equal(apply_structure(A, x), apply_structure_reference(A, x))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_general_structures(self, rng, n):
        x = unit_rows(rng, 5, 4 * n)
        for _ in range(20):
            A = random_structure(rng)
            npt.assert_allclose(
                apply_structure(A, x), apply_structure_reference(A, x), rtol=0, atol=TOL
            )
            npt.assert_allclose(
                apply_structure(A, x[0]), apply_structure_reference(A, x[0]),
                rtol=0, atol=TOL,
            )


class TestCompanions:
    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_against_projector_onto_image(self, rng, parts):
        U = moved(graph_sum(parts), parts)
        angles = gate_reference(U)[0]
        forms = _forms(U)
        u = rng.standard_normal(U.dim)
        u /= np.linalg.norm(u)
        v = u @ U.vectors
        comp = companions(U, v)
        for p, (A, cos_a) in enumerate(zip((I, J, K), np.cos(angles))):
            ref = companion_reference(U, A, cos_a, v)
            npt.assert_allclose((comp.X2, comp.Y2, comp.Z2)[p], ref, rtol=0, atol=TOL)
            # in U's coordinates Pr_U(A_p x) is omega_p u
            npt.assert_allclose(-(forms[p] @ u) / cos_a @ U.vectors, ref, rtol=0, atol=TOL)

    def test_general_structure_any_subspace(self, rng):
        # the identity A^{-1} Pr_{AU} = -Pr_U A that companions read as -J u
        # needs no isoclinicity: -omega_A u in U's coordinates, for every
        # aI + bJ + cK (companions themselves refuse this frame at its gate)
        U = random_frame(4, 6, rng)
        v = random_unit_in(U, rng)
        u = U.vectors @ v
        for _ in range(10):
            A = random_structure(rng)
            npt.assert_allclose(-(omega_matrix(U, A) @ u) @ U.vectors,
                                companion_reference(U, A, 1.0, v), rtol=0, atol=TOL)


def assert_gate_matches_reference(U):
    """Same verdict as the eigh reference; a witness attains the sup and its
    deviation is its own pair defect; certified angles are bitwise those of
    trace(omega_p omega_p^T) / k."""
    angles, witness = _gate(_forms(U), EPS_ISO)
    angles_ref, witness_ref = gate_reference(U)
    assert (angles is None) == (angles_ref is None)
    if angles is None:
        coeffs, deviation = witness
        assert deviation == pytest.approx(witness_ref[1], rel=0, abs=TOL)
        assert deviation == _combined_defects(coeffs[None], _forms(U))[0][0]
        assert pair_defect_reference(U, CompatibleStructure(*coeffs)) == pytest.approx(
            deviation, rel=0, abs=TOL)
    else:
        npt.assert_allclose(angles, angles_ref, rtol=0, atol=TOL)
        assert angles == tuple(_angle(c) for c in _pair_defects(_forms(U))[1])
    return angles, witness


def perturbed(base, seed, eps):
    rng = np.random.default_rng(seed)
    return orthonormalize(base.vectors + eps * rng.standard_normal(base.vectors.shape))


PERTURBED_BASES = {
    4: lambda: moved(graph_sum(1), 61),
    6: lambda: two_plane_sum(3, 62),
    8: lambda: moved(graph_sum(2), 63),
    16: lambda: moved(graph_sum(4), 64),
}


class TestGate:
    @pytest.mark.parametrize("name", sorted(GATE_INPUTS))
    def test_matches_image_per_structure(self, name):
        assert_gate_matches_reference(GATE_INPUTS[name]())

    def test_expected_verdicts(self):
        verdicts = {name: _gate(_forms(make()), EPS_ISO)[0] is not None
                    for name, make in GATE_INPUTS.items()}
        assert {name for name, ok in verdicts.items() if ok} == {
            "graph-4", "graph-8", "graph-16"}

    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from(sorted(PERTURBED_BASES)), seed=st.integers(0, 2**32 - 1),
           log_eps=st.floats(-10.0, -7.0))
    def test_perturbed_sums_across_tolerance(self, dim, seed, log_eps):
        U = perturbed(PERTURBED_BASES[dim](), seed, 10.0**log_eps)
        # a sup within roundoff of the tolerance may be decided either way
        assume(abs(sup_defect_reference(U)[0] - EPS_ISO) > 1e-15)
        angles, witness = assert_gate_matches_reference(U)
        if angles is None:
            assert witness[1] >= EPS_ISO

    @pytest.mark.parametrize("name", ["mixed-4", "mixed-8", "random-4", "random-8", "random-16"])
    def test_verdict_flips_at_the_sup(self, name):
        U = GATE_INPUTS[name]()
        sup = sup_defect_reference(U)[0]
        angles, (_, deviation) = _gate(_forms(U), sup * (1 - 1e-9))
        assert angles is None and deviation == pytest.approx(sup, rel=0, abs=TOL)
        assert _gate(_forms(U), sup * (1 + 1e-9))[0] is not None

    def test_witness_at_repeated_and_tied_eigenvalues(self, rng):
        n = unit_rows(rng, 1, 3)[0]
        double = -2.0 * np.eye(3) + 1.5 * np.outer(n, n)  # -2 twice, eigenspace n-perp
        double_axes = np.diag([0.7, 0.7, -0.2])
        triple = 0.4 * np.eye(3)
        near = np.diag([0.1, -0.3, 0.700000003])  # 3e-9 above double_axes' radius
        for band in (double[None], triple[None], np.stack([triple, double]),
                     np.stack([double_axes, near]), np.stack([near, double_axes])):
            a = _witness(band)
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=TOL)
            assert a[np.argmax(np.abs(a))] > 0
            sup = np.max(np.abs(np.linalg.eigvalsh(band)))
            assert np.max(np.abs(a @ band @ a)) == pytest.approx(sup, rel=0, abs=TOL)
        # an exact tie goes to the lower entry
        simple = np.diag([0.1, -0.3, 0.7])
        npt.assert_array_equal(_witness(np.stack([simple, simple[::-1, ::-1]])), [0.0, 0.0, 1.0])
        npt.assert_array_equal(_witness(np.stack([simple[::-1, ::-1], simple])), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_sampled_forms_are_combinations(self, rng, parts):
        for U in (moved(graph_sum(parts), 10 + parts),
                  random_frame(4 * parts, 4 * parts, rng)):
            forms = np.array([omega_matrix(U, A) for A in (I, J, K)])
            for _ in range(8):
                A = random_structure(rng)
                npt.assert_allclose(
                    np.tensordot(A.coefficients(), forms, 1),
                    gram(U, structure_image(A, U)),
                    rtol=0, atol=TOL,
                )


class TestStacks:
    """The stacked kernels give each entry what the single-input call gives it."""

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_gates_are_the_gate_entry_by_entry(self, dim):
        names = [name for name in sorted(GATE_INPUTS) if name.endswith(f"-{dim}")]
        forms = np.array([_forms(GATE_INPUTS[name]()) for name in names])
        gates = _gates(forms, EPS_ISO)
        assert len(gates) == len(names)
        assert {a is None for a, _ in gates} == {True, False}  # mixed verdicts
        for f, (angles, (coeffs, deviation)) in zip(forms, gates):
            want_angles, (want_coeffs, want_deviation) = _gate(f, EPS_ISO)
            assert angles == want_angles and deviation == want_deviation
            if want_coeffs is None:
                assert coeffs is None
            else:
                npt.assert_array_equal(coeffs, want_coeffs)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sampler_draws_are_random_sp(self, n):
        M = generators._sp_draws(n, range(20))
        assert M.shape == (20, 2 * n, 2 * n)
        for seed, m in enumerate(M):
            npt.assert_array_equal(m, random_sp(n, seed).matrix)

    def test_sp_check_over_a_stack(self):
        M = generators._sp_draws(3, range(4))
        generators._require_sp(M)
        M[2, 0, 0] *= 1.001
        with pytest.raises(FalsificationError, match="unitarity defect"):
            generators._require_sp(M)

    def test_normalised_branch_per_entry(self):
        # c_I just above and just below EPS_ANGLE, and all three below: each
        # entry of a stack gets the branch it gets alone
        forms = np.array([_forms(moved(graph_sum(2), s)) for s in range(4)])
        cosines = [[EPS_ANGLE * (1 + 1e-6), 0.5, 0.3], [EPS_ANGLE * (1 - 1e-6), 0.5, 0.3],
                   [0.2, 0.4, 0.6], [EPS_ANGLE / 2] * 3]
        angles = np.arccos(cosines)
        assert (np.cos(angles[0, 0]) > EPS_ANGLE) and not (np.cos(angles[1, 0]) > EPS_ANGLE)
        J = _normalised(forms, angles)
        for f, a, j in zip(forms, angles, J):
            npt.assert_array_equal(j, _normalised(f, a))
        npt.assert_array_equal(J[0, 0], forms[0, 0] / np.cos(angles[0, 0]))
        npt.assert_array_equal(J[1, 0], J[1, 1])  # J_I := J_J
        npt.assert_array_equal(J[3], 0.0)
        rows = _profiles(angles, forms)
        for row, f, a in zip(rows, forms, angles):
            assert tuple(row[3:]) == astuple(profile_of(tuple(a), f))[4:]

    def test_profiles_branch_per_entry(self):
        # a generic entry, one at +/-1 (xi = -1) and an r.h.p. one: each gets
        # the (Gamma, Delta) branch it gets alone, by default and under snaps
        inputs = [moved(make_profile_4(*PROFILE_4), 1), two_plane_sum(2, 2),
                  moved(make_rhp(4, 4), 3)]
        gated = [certify_isoclinic(U) for U in inputs]
        forms = np.array([_forms(U) for U in inputs])
        for snaps in (None, [[False] * 3, [True, False, False], [True] * 3]):
            rows = _profiles(np.array(gated), forms, snaps)
            for t, (row, a, f) in enumerate(zip(rows, gated, forms)):
                want = profile_of(a, f, None if snaps is None else snaps[t])
                assert tuple(row) == astuple(want)[1:]
        assert [tuple(r[6:]) for r in _profiles(np.array(gated), forms)][1:] == [(1.0, 0.0)] * 2


class TestRealMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_equals_blockwise_loop(self, n):
        for seed in range(4):
            g = random_sp(n, seed)
            npt.assert_array_equal(g.real_matrix(), real_matrix_reference(g))
        g = SpElement(sp_matrix(random_sp_reference(n, n)))
        npt.assert_array_equal(g.real_matrix(), real_matrix_reference(g))

    def test_apply_frame_is_the_real_matrix(self):
        g = random_sp(3, 1)
        U = random_frame(3, 4, np.random.default_rng(2))
        npt.assert_allclose(g.apply_frame(U).vectors, U.vectors @ g.real_matrix().T,
                            rtol=0, atol=1e-15)
        x = np.random.default_rng(3).standard_normal(12)
        npt.assert_allclose(g.apply(x), real_matrix_reference(g) @ x, rtol=0, atol=1e-14)


def _quaternion_arrays(shapes):
    """(a, b) of the given shapes, each optionally a column slice, a
    reversed-stride view or a Fortran-ordered copy."""
    def array(shape, view):
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        return hnp.arrays(float, shape[:-1] + (2 * shape[-1] if view == "slice" else 4,),
                          elements=values).map(VIEWS[view])
    return st.tuples(*(st.sampled_from(sorted(VIEWS)).flatmap(lambda v, s=s: array(s, v))
                       for s in shapes))


VIEWS = {
    "contiguous": lambda x: x,
    "slice": lambda x: x[..., 1::2],  # components 1, 3, 5, 7 of eight: strided
    "reversed": lambda x: np.flip(np.flip(x).copy()),  # x's values, every stride negative
    "fortran": np.asfortranarray,
}


class TestQarrMul:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), m=st.integers(1, 5),
           form=st.sampled_from(["n1 x m", "nm x nm", "scalar x n"]))
    def test_bitwise_equal_to_sign_table_product(self, data, n, m, form):
        shapes = {"n1 x m": [(n, 1, 4), (m, 4)], "nm x nm": [(n, m, 4), (n, m, 4)],
                  "scalar x n": [(4,), (n, 4)]}[form]
        a, b = data.draw(_quaternion_arrays(shapes))
        for x, y in ((a, b), (b, a)):
            got = qarr_mul(x, y)
            assert got.tobytes() == qarr_mul_table_reference(x, y).tobytes()
            assert got.flags.c_contiguous

    def test_conjugate_is_the_sign_row(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        npt.assert_array_equal(qarr_conj(a), qarr_conj_reference(a))


class TestQuaternionCholesky:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 6), rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_entry_loop(self, k, rank, seed):
        # a PSD Gram of quaternionic rank min(k, rank): R^* R of Gaussian rows
        Z = np.random.default_rng(seed).standard_normal((rank, k, 4))
        H = qarr_mul_table_reference(qarr_conj_reference(Z)[:, :, None], Z[:, None]).sum(axis=0)
        want = quaternion_cholesky_reference(H)
        assert _quaternion_cholesky(H).tobytes() == want.tobytes()

    def test_indefinite_gram_is_refused(self):
        H = np.zeros((2, 2, 4))
        H[..., 0] = [[1.0, 2.0], [2.0, 1.0]]
        for factor in (_quaternion_cholesky, quaternion_cholesky_reference):
            with pytest.raises(InfeasibleParametersError, match=r"pivot 1: -3\.000e\+00 < 0"):
                factor(H)


class TestRandomSp:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 64])
    def test_agrees_with_left_looking_loop(self, n):
        # one LAPACK QR orthogonalizes in another order: equal to roundoff
        for seed in range(20):
            npt.assert_allclose(sp_entries(random_sp(n, seed)), random_sp_reference(n, seed),
                                rtol=0, atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**63 - 1))
    def test_triangular_factor_of_the_draws(self, n, seed):
        # Z = Q R with R = Q^* Z upper triangular and a real positive
        # diagonal pins the Gram-Schmidt convention: a sign flip or another
        # column order breaks it
        Z = np.random.default_rng(seed).standard_normal((n, n, 4))
        Q = sp_entries(random_sp(n, seed))
        R = qarr_mul_reference(qarr_conj_reference(Q)[:, :, None], Z[:, None]).sum(axis=0)
        p, q = np.indices((n, n))
        npt.assert_allclose(R[p > q], 0.0, rtol=0, atol=1e-12)
        diagonal = R[np.arange(n), np.arange(n)]
        npt.assert_allclose(diagonal[:, 1:], 0.0, rtol=0, atol=1e-12)
        assert np.all(diagonal[:, 0] > 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**63 - 1))
    def test_orthogonal_and_commutes_with_structures(self, n, seed):
        R = random_sp(n, seed).real_matrix()
        npt.assert_allclose(R.T @ R, np.eye(4 * n), rtol=0, atol=1e-13)
        for A in (I, J, K):
            S = structure_matrix(A, n)
            npt.assert_allclose(R @ S, S @ R, rtol=0, atol=1e-14)


class TestForms:
    @pytest.mark.parametrize("name", sorted(GATE_INPUTS))
    def test_equal_to_omega_matrix(self, name):
        # the complex layout against the real structure action; omega_matrix
        # reads its coordinate structures off the same forms, bit for bit
        U = GATE_INPUTS[name]()
        forms = _forms(U)
        assert forms.shape == (3, U.dim, U.dim)
        for A, w in zip((I, J, K), forms):
            npt.assert_allclose(w, omega_reference(U, A), rtol=0, atol=1e-15)
            npt.assert_array_equal(w, omega_matrix(U, A))


class TestLayouts:
    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("name", ["graph-8", "graph-16"])
    def test_forms_motion_and_profile_bitwise_equal(self, view, name):
        # one frame in four memory layouts: Frame stores it C-ordered, so
        # the complex row view and every kernel see the same bits
        X = GATE_INPUTS[name]().vectors
        Y = VIEWS[view](np.repeat(X, 2, axis=1) if view == "slice" else X)
        npt.assert_array_equal(Y, X)
        U, W = Frame(X), Frame(Y)
        assert W.vectors.flags.c_contiguous
        g = random_sp(U.n, 5)
        npt.assert_array_equal(_forms(W), _forms(U))
        npt.assert_array_equal(g.apply_frame(W).vectors, g.apply_frame(U).vectors)
        npt.assert_array_equal(g.apply(Y), g.apply(X))
        assert full_profile(W) == full_profile(U)


class TestOracle:
    @pytest.mark.parametrize("make,trials,seed", [
        (lambda: graph_sum(1), 6, 1),
        (lambda: moved(graph_sum(2), 2), 4, 2),
        (lambda: graph_sum(4), 2, 3),
        (lambda: make_two_plane(3, 0.9, 1.1, 1.2, -1.0, 1.0), 6, 4),
        (lambda: make_profile_4(1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656), 6, 5),
        (near_pm1_profile, 10, 1),
    ])
    def test_matches_image_per_structure(self, make, trials, seed):
        U = make()
        report = invariance_oracle(U, trials, seed)
        max_dev, max_theta, max_eta, failures = oracle_reference(U, trials, seed)
        assert report.trials == trials
        if make is near_pm1_profile:
            # the chains' side of the +/-1 convention, hence Delta, is decided
            # by roundoff at each motion; the oracle takes every motion on the
            # input's own side, so it passes with the same theta_A errors; the
            # eta relation, evaluated through 1 - xi^2 ~ 2e-8, keeps ~8 digits
            assert {f.split(": ", 1)[1] for f in failures} == {"profile deviation 8.660e-01"}
            assert report.passed and report.max_profile_deviation < 1e-6
            npt.assert_allclose(report.max_theta_formula_error, max_theta, rtol=0, atol=1e-14)
            assert max(report.max_eta_relation_error, max_eta) < 1e-6
            return
        assert report.failures == failures
        npt.assert_allclose(
            [report.max_profile_deviation, report.max_theta_formula_error,
             report.max_eta_relation_error],
            [max_dev, max_theta, max_eta], rtol=0, atol=1e-14,
        )

    @pytest.fixture
    def profiled(self, monkeypatch):
        """The stack size of every _profiles call, the oracle's own included."""
        sizes, real = [], analysis._profiles

        def counting(angles, forms, snaps=None):
            sizes.append(len(forms))
            return real(angles, forms, snaps)

        monkeypatch.setattr(analysis, "_profiles", counting)
        monkeypatch.setattr(generators, "_profiles", counting)
        return sizes

    def test_forms_built_once_per_block(self, monkeypatch, profiled):
        built = []
        real = analysis._gram_forms

        def counting(C):
            built.append(C.shape)
            return real(C)

        U = moved(graph_sum(2), 2)
        monkeypatch.setattr(analysis, "_gram_forms", counting)
        B = generators._ORACLE_BLOCK
        profiled.clear()  # the input's construction measures it
        assert invariance_oracle(U, 2 * B + 1, 2).passed
        # one per block of motions, the input being entry 0 of the first;
        # a generic input's motions are all profiled in their block's pass
        assert built == [(B + 1, 8, 8), (B, 8, 8), (1, 8, 8)]
        assert profiled == [B + 1, B, 1]

    def test_motions_across_pm1_are_read_again(self, profiled):
        # the input's side of 1 - EPS_PM1 is known only after the first pass:
        # the motions measured on the other side are read again, in one call
        U = near_pm1_profile()
        profiled.clear()  # the input's construction measures it
        report = invariance_oracle(U, 10, 1)
        assert profiled == [11, 4]
        assert report == oracle_loop_reference(U, 10, 1)

    @pytest.mark.parametrize("make,seed", [
        (lambda: moved(graph_sum(2), 2), 2),
        (lambda: make_two_plane(3, 0.9, 1.1, 1.2, -1.0, 1.0), 4),
        (lambda: make_profile_4(*PROFILE_4), 5),
        (lambda: moved(make_rhp(4, 4), 6), 6),
        (near_pm1_profile, 1),
    ])
    def test_blocks_equal_the_trial_loop(self, make, seed, monkeypatch):
        # one stacked pass per block gives the report of one trial at a time
        U = make()
        B = generators._ORACLE_BLOCK
        for trials in (1, B, B + 1):
            assert invariance_oracle(U, trials, seed) == oracle_loop_reference(U, trials, seed)
        monkeypatch.setattr(generators, "EPS_ORBIT", 1e-18)
        tight = invariance_oracle(U, B + 1, seed)
        assert tight == oracle_loop_reference(U, B + 1, seed, tol=1e-18) and tight.failures

    def test_gate_failure_on_one_motion(self, monkeypatch):
        # the failure is reported in its trial's place; the other trials are
        # checked as before, here against an impossible tolerance
        real = analysis._gates
        failed = (None, (np.array([0.6, 0.0, -0.8]), 0.25))

        def failing_second(forms, tol):
            # trial 1 is stack entry 2 of the first block, after the input and trial 0
            gates = real(forms, tol)
            return gates[:2] + [failed] + gates[3:] if len(gates) > 2 else gates

        U = moved(graph_sum(2), 2)
        monkeypatch.setattr(analysis, "_gates", failing_second)
        monkeypatch.setattr(generators, "EPS_ORBIT", 1e-18)
        report = invariance_oracle(U, 3, 2)
        trials = [f.split(":", 1)[0] for f in report.failures]
        assert trials == sorted(trials) and {"trial 0", "trial 2"} <= set(trials)
        assert [f for f in report.failures if f.startswith("trial 1:")] == [
            "trial 1: gate failure after motion: pair (U, AU) is not isoclinic for "
            "A = [0.6, 0.0, -0.8] (defect 2.500e-01 >= 1.0e-08)"]
        want = oracle_loop_reference(U, 3, 2, tol=1e-18).failures
        assert [f for f in report.failures if not f.startswith("trial 1:")] == [
            f for f in want if not f.startswith("trial 1:")]

    @pytest.mark.parametrize("gap", [0.0, 1e-12, -1e-12, 1e-10, -1e-10])
    def test_near_pm1_passes(self, gap):
        # every motion is profiled on the input's side of 1 - EPS_PM1, so a
        # side flipped by roundoff is no profile deviation
        for seed, gamma in enumerate((0.5, -0.3, 0.9)):
            report = invariance_oracle(moved(near_pm1_profile(gap, gamma), seed), 10, seed)
            assert report.passed, report.failures


def two_plane_sum(count, seed):
    plane = make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0)
    return moved(direct_sum([plane] * count), seed)


PROFILE_4 = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)

ORBIT_INPUTS = {
    "plane": lambda: make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0),
    "plane-moved": lambda: two_plane_sum(1, 21),
    "planes-4": lambda: two_plane_sum(2, 22),
    "planes-6": lambda: two_plane_sum(3, 23),
    "planes-10": lambda: two_plane_sum(5, 24),
    "profile-4": lambda: make_profile_4(*PROFILE_4),
    "profile-4-moved": lambda: moved(make_profile_4(*PROFILE_4), 25),
    "profile-4-lower": lambda: moved(make_profile_4(*PROFILE_4, delta_sign=+1), 26),
    "graph-4": lambda: moved(graph_sum(1), 27),
    "graph-8": lambda: moved(graph_sum(2), 28),
    "graph-12": lambda: moved(graph_sum(3), 29),
    "graph-16": lambda: moved(graph_sum(4), 30),
    "rhp-4": lambda: moved(make_rhp(4, 4), 31),
    "rhp-6": lambda: make_rhp(6, 6),
    "tcomplex-4": lambda: moved(make_totally_complex_4(4), 32),
    "near-pm1": near_pm1_profile,
    "near-pm1-moved": lambda: moved(near_pm1_profile(), 33),
    "mixed-delta": mixed_delta_sum,
    "mixed-sign-8": lambda: moved(mixed_sign_sum([1, -1, 1, -1]), 34),
}

# (U, W) pairs of one ambient space: W is a motion of U or another orbit;
# a name paired with itself stands for a motion of that input
ORBIT_PAIRS = [
    ("plane", "plane-moved"),
    ("planes-4", "rhp-4"),
    ("profile-4", "profile-4-moved"),
    ("profile-4", "profile-4-lower"),
    ("profile-4", "tcomplex-4"),
    ("rhp-4", "tcomplex-4"),
    ("graph-8", "graph-8"),
    ("graph-12", "graph-12"),
    ("graph-16", "graph-16"),
    ("near-pm1", "near-pm1-moved"),
    ("mixed-delta", "mixed-sign-8"),
    ("mixed-sign-8", "mixed-delta"),
]


def outcome(fn, *args):
    try:
        return fn(*args)
    except IsoclinicError as exc:
        return type(exc)


class TestOrbitDecision:
    """One gate per input gives the labels and decisions that chains give
    at two leading vectors; the forms refuse what the chains' drift test
    let through or refused at the +/-1 convention edge."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("name", sorted(ORBIT_INPUTS))
    def test_label_matches_chain_reference(self, name, seed):
        U = ORBIT_INPUTS[name]()
        got, ref = outcome(orbit_label, U), outcome(orbit_label_reference, U, seed)
        if name.startswith("near-pm1"):
            # the chains' side of the convention is decided by roundoff
            assert got is FalsificationError
        elif isinstance(ref, OrbitLabel):
            assert got.dim == ref.dim
            npt.assert_allclose(got.as_array(), ref.as_array(), rtol=0, atol=TOL)
        else:
            assert got is ref

    def test_expected_outcomes(self):
        assert outcome(orbit_label, mixed_delta_sum()) is FalsificationError
        assert outcome(orbit_label, ORBIT_INPUTS["mixed-sign-8"]()) is NotIsoclinicError
        with pytest.raises(FalsificationError, match=r"\|xi\| lies [0-9.e+-]+ from 1 - EPS_PM1, "
                           r"within its error bound [0-9.e+-]+"):
            orbit_label(near_pm1_profile())

    @pytest.mark.parametrize("u,w", ORBIT_PAIRS)
    def test_decision_and_deviation_equal(self, u, w):
        # the canonical matrices are closed forms of the labels' own
        # numbers, so the decision is all same_orbit returns
        U, W = ORBIT_INPUTS[u](), ORBIT_INPUTS[w]()
        if w == u:
            W = moved(W, 40)
        if u.startswith("near-pm1"):
            # either side of the convention gives one verdict for a motion
            assert same_orbit(U, W) is True
        else:
            assert outcome(same_orbit, U, W) is outcome(same_orbit_reference, U, W)

    def test_pairs_cover_both_decisions(self):
        decisions = {outcome(same_orbit_reference, ORBIT_INPUTS[u](),
                             moved(ORBIT_INPUTS[w](), 40) if u == w else ORBIT_INPUTS[w]())
                     for u, w in ORBIT_PAIRS}
        assert {True, False, FalsificationError, NotIsoclinicError} <= decisions

    def test_one_gate_per_input(self, monkeypatch):
        # same_orbit gates both inputs in one stacked call, one entry each
        U, W = moved(graph_sum(2), 1), moved(graph_sum(2), 2)
        gated = []
        real = analysis._gates

        def counting(forms, *args):
            gated.append([f.shape[-1] for f in forms])  # one list per call
            return real(forms, *args)

        monkeypatch.setattr(analysis, "_gates", counting)
        orbit_label(U)
        orbit_label(W)
        assert gated == [[U.dim], [W.dim]]
        gated.clear()
        assert same_orbit(U, W)
        assert gated == [[U.dim, W.dim]]
        gated.clear()
        full_profile(U)
        assert gated == [[U.dim]]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("u,w", ORBIT_PAIRS)
    def test_cli_compare_gates_each_input_once(self, monkeypatch, capsys, tmp_path,
                                               u, w, json_flag):
        U, W = ORBIT_INPUTS[u](), ORBIT_INPUTS[w]()
        if w == u:
            W = moved(W, 40)
        paths, loaded = [], []
        for name, V in (("a", U), ("b", W)):
            text = serialize_document(document_from_frame(V))
            (tmp_path / f"{name}.json").write_text(text)
            paths.append(str(tmp_path / f"{name}.json"))
            loaded.append(parse_document(text).to_frame())
        A, B = loaded
        # the output of labelling each input (on its measured side of the +/-1
        # convention, which is orbit_label off the convention's edge) and then
        # calling same_orbit
        try:
            label_a, label_b = (orbits._measured([V])[0].label() for V in (A, B))
            verdict = same_orbit(A, B)
        except IsoclinicError as exc:
            expected = (2, "", f"rejected: {exc}\n")
        else:
            if json_flag:
                out = json.dumps({"same_orbit": verdict,
                                  "label_a": list(label_a.as_array()),
                                  "label_b": list(label_b.as_array())}, indent=2) + "\n"
            else:
                out = "".join([
                    f"same orbit: {'yes' if verdict else 'no'}\n",
                    "label A: [" + ", ".join(cli._fmt(v) for v in label_a.as_array()) + "]\n",
                    "label B: [" + ", ".join(cli._fmt(v) for v in label_b.as_array()) + "]\n",
                ])
            expected = (0, out, "")
        gated = []
        real = analysis._gates

        def counting(forms, *args):
            gated.append([f.shape[-1] for f in forms])  # one list per call
            return real(forms, *args)

        monkeypatch.setattr(analysis, "_gates", counting)
        code = cli.main(["compare", *paths, *json_flag])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        # one stacked call with one entry per input, refused or not
        assert gated == [[U.dim, W.dim]]


def measured_or_refusal(frames):
    """orbits._measured(frames), or the (type, text) of what it raised."""
    try:
        return orbits._measured(frames)
    except IsoclinicError as exc:
        return type(exc), str(exc)


def assert_same_measure(got, want):
    """Two _Measured, equal bit for bit."""
    assert got.frame is want.frame
    assert got.angles == want.angles and got.profile == want.profile
    assert np.array_equal(got.forms, want.forms)
    assert got.near == want.near and got.bound == want.bound


def stacked_pairs():
    """(U, W) of every ORBIT_PAIRS pair, then a near-band input with an r.h.p. one."""
    for u, w in ORBIT_PAIRS:
        U, W = ORBIT_INPUTS[u](), ORBIT_INPUTS[w]()
        yield (U, moved(W, 40) if w == u else W)
    yield near_pm1_profile(), ORBIT_INPUTS["rhp-4"]()
    yield ORBIT_INPUTS["rhp-4"](), ORBIT_INPUTS["near-pm1-moved"]()


class TestStackedMeasure:
    """orbits._measured of a stack is _measured of each frame alone, one gate
    call for all, and the first frame's refusal wins whatever its kind."""

    @pytest.mark.parametrize("index", range(len(ORBIT_PAIRS) + 2))
    def test_stack_equals_each_frame_alone(self, index):
        U, W = list(stacked_pairs())[index]
        alone = [measured_or_refusal([V]) for V in (U, W)]
        stacked = measured_or_refusal([U, W])
        refusals = [a for a in alone if isinstance(a, tuple)]
        if refusals:
            # U's refusal wins over W's, whatever the kind of either
            assert stacked == refusals[0]
            with pytest.raises(refusals[0][0]) as info:
                same_orbit(U, W)
            assert str(info.value) == refusals[0][1]
        else:
            for got, (want,) in zip(stacked, alone):
                assert_same_measure(got, want)

    def test_pairs_refuse_by_each_kind(self):
        # the refusal order is exercised: a U failing its mandates before a W
        # failing its gate, and the reverse
        refusals = [measured_or_refusal([U, W]) for U, W in stacked_pairs()]
        assert {FalsificationError, NotIsoclinicError} <= {
            r[0] for r in refusals if isinstance(r, tuple)}
        mandates = measured_or_refusal([mixed_delta_sum(), ORBIT_INPUTS["mixed-sign-8"]()])
        assert mandates[0] is FalsificationError and "mixes both module types" in mandates[1]

    def test_dims_checked_before_measuring(self):
        # a non-isoclinic U against a W of another dim is a dimension refusal,
        # and so is one ambient against another, whatever either input is
        bad = ORBIT_INPUTS["mixed-sign-8"]()
        with pytest.raises(DimensionError, match=r"^same_orbit needs equal dims, got 8 != 4$"):
            same_orbit(bad, ORBIT_INPUTS["planes-4"]())
        with pytest.raises(DimensionError, match="^subspaces live in different ambient spaces$"):
            same_orbit(make_quaternionic_line(1), make_quaternionic_line(2))
        with pytest.raises(NotIsoclinicError):
            same_orbit(bad, moved(bad, 1))

    def test_near_relabels_in_one_profile_call(self, monkeypatch):
        # each input's +/-1 choices in one _profiles over every (input, choice) pair
        U, W = near_pm1_profile(), ORBIT_INPUTS["near-pm1-moved"]()
        calls = []
        real = analysis._profiles

        def counting(angles, forms, *rest):
            calls.append(len(forms))
            return real(angles, forms, *rest)

        # the measuring pass calls it in analysis, the relabels in orbits
        monkeypatch.setattr(analysis, "_profiles", counting)
        monkeypatch.setattr(orbits, "_profiles", counting)
        assert same_orbit(U, W) is True
        assert calls == [2, 4]  # the stacked measure, then the relabels

    CATALOG = bench_workloads()
    FAMILIES = [
        lambda rng, wl=CATALOG: wl.two_plane(rng),
        lambda rng, wl=CATALOG: wl.two_plane(rng, theta_i=np.pi / 2),
        lambda rng, wl=CATALOG: wl.two_plane(rng, n=1, unit=True),
        CATALOG.profile_4,
        CATALOG.graph,
        CATALOG.i_complex,
        lambda rng, wl=CATALOG: wl.totally_complex(),
        lambda rng, wl=CATALOG: wl.rhp(2, 2),
        lambda rng, wl=CATALOG: wl.rhp(4, 4),
        lambda rng, wl=CATALOG: wl.direct_sum(*wl.graph(rng), 2),
        lambda rng, wl=CATALOG: wl.mixed_sign(rng, 2),
        lambda rng, wl=CATALOG: wl.near_threshold_4(),
    ]

    @settings(max_examples=60, deadline=None)
    @given(family=st.integers(0, len(FAMILIES) - 1), seed=st.integers(0, 2**32 - 1),
           same=st.booleans())
    def test_same_orbit_is_symmetric(self, family, seed, same):
        rng = np.random.default_rng(seed)
        A, _ = self.FAMILIES[family](rng)
        B = A if same else self.FAMILIES[family](rng)[0]
        U, W = (self.CATALOG.moved(V, rng) for V in (A, B))
        forward, backward = outcome(same_orbit, U, W), outcome(same_orbit, W, U)
        # a verdict both ways, or a refusal both ways
        assert forward == backward if isinstance(forward, bool) else not isinstance(backward,
                                                                                     bool)


class TestProfilePass:
    """analysis._profile_pass of a stack gives each frame's full_profile row bit
    for bit, None where the gate fails, and profiles only the entries that pass."""

    STACK = ["profile-4", "not-isoclinic-4", "near-pm1-moved", "rhp-4", "planes-4"]

    def frames(self):
        inputs = {**ORBIT_INPUTS, "not-isoclinic-4": lambda: moved(mixed_sign_sum([1, -1]), 35)}
        return [inputs[name]() for name in self.STACK]

    def test_rows_equal_full_profile_per_frame(self, monkeypatch):
        frames = self.frames()
        profiled = []
        real = analysis._profiles

        def counting(angles, forms, *rest):
            profiled.append(len(forms))
            return real(angles, forms, *rest)

        monkeypatch.setattr(analysis, "_profiles", counting)
        gram, forms, gates, rows = analysis._profile_pass(
            _complex_rows([F.vectors for F in frames]), EPS_ISO)
        assert profiled == [len(frames) - 1]  # one call, the passing entries only
        for F, g, f, (angles, _), row in zip(frames, gram, forms, gates, rows):
            npt.assert_allclose(g, np.eye(F.dim), rtol=0, atol=1e-14)
            npt.assert_array_equal(f, _forms(F))
            try:
                want = full_profile(F)
            except NotIsoclinicError:
                assert row is None and angles is None
                continue
            assert analysis._as_profile(row, F.dim) == want
        assert [row is None for row in rows] == [name == "not-isoclinic-4" for name in self.STACK]

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, 4), min_size=1, max_size=6))
    def test_any_stack_reads_each_frame_alone(self, picks):
        # entries in any order and number, failing ones anywhere in the stack
        pool = self.frames()
        frames = [pool[i] for i in picks]
        _, _, _, rows = analysis._profile_pass(_complex_rows([F.vectors for F in frames]), EPS_ISO)
        for F, row in zip(frames, rows):
            alone = outcome(full_profile, F)
            assert (row is None) if alone is NotIsoclinicError else (
                analysis._as_profile(row, F.dim) == alone)

    @pytest.mark.parametrize("name", ["mixed-delta", "mixed-sign-8"])
    def test_eight_dim_addend_refuses_what_decompose_refuses(self, name):
        U = ORBIT_INPUTS[name]()
        refusals = []
        for call in (lambda: decompose(U), lambda: eight_dim_addend(U, U.vectors[0])):
            with pytest.raises(IsoclinicError) as info:
                call()
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1]


BATCH_INPUTS = {
    "mixed-6": lambda: moved(mixed_sign_sum([1, -1, 1]), 41),
    "mixed-8": lambda: moved(mixed_sign_sum([1, 1, -1, 1]), 42),
    "mixed-12": lambda: moved(mixed_sign_sum([1, -1, 1, 1, -1, 1]), 43),
    "mixed-16": lambda: moved(mixed_sign_sum([1, 1, 1, -1] * 2), 44),
    "graph-8": lambda: moved(graph_sum(2), 45),
    "graph-12": lambda: moved(graph_sum(3), 46),
    "graph-16": lambda: moved(graph_sum(4), 47),
    "planes-6": lambda: two_plane_sum(3, 48),
    "planes-10": lambda: two_plane_sum(5, 49),
}


class TestBatchedGate:
    @pytest.mark.parametrize("name", sorted(BATCH_INPUTS))
    def test_matches_per_structure_gate(self, name):
        angles, witness = assert_gate_matches_reference(BATCH_INPUTS[name]())
        assert (angles is None) == name.startswith("mixed")
        if angles is None:
            # the coordinate pairs pass: a mixed structure is the witness
            assert np.count_nonzero(witness[0]) > 1


def profile_sum(args, parts, seed):
    return moved(direct_sum([make_profile_4(*args)] * parts), seed)


# every stratum of decompose: 2-plane sums of each class (decomposable),
# generic graph and make_profile_4 sums, cos theta_p = 0 (i-complex and
# r.h.p.), a single invariant at +/-1, and certified perturbed sums
DECOMPOSE_INPUTS = {
    "planes-10": lambda: two_plane_sum(5, 51),
    "planes-12": lambda: two_plane_sum(6, 52),
    "planes-16": lambda: two_plane_sum(8, 53),
    "graph-12": lambda: moved(graph_sum(3), 54),
    "graph-16": lambda: moved(graph_sum(4), 55),
    "profile-16": lambda: profile_sum(PROFILE_4, 4, 56),
    "icomplex-8": lambda: moved(direct_sum([make_i_complex_4(2, np.pi / 2)] * 2), 57),
    "icomplex-12": lambda: moved(direct_sum([make_i_complex_4(2, 0.7)] * 3), 58),
    "single-pm1-8": lambda: profile_sum((1.3091, 1.1711, 1.2413, 1.0, -0.849, -0.849), 2, 59),
    # two generators over three blocks of one piece each (class 4)
    "single-pm1-12": lambda: profile_sum((1.2, 1.3, 1.4, 1.0, 0.2, 0.2), 3, 63),
    "rhp-6": lambda: moved(make_rhp(6, 6), 60),
    "rhp-12": lambda: moved(make_rhp(12, 12), 61),
    "perturbed-4": lambda: perturbed_graph_sum(1, 1),
    "perturbed-8": lambda: perturbed_graph_sum(1, 2),
    "tcomplex-8": lambda: moved(direct_sum([make_totally_complex_4(2)] * 2), 62),
}


class TestCanonicalMatrices:
    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_bitwise_equal_to_block_loop(self, name):
        # classes 2, 4 and 8; inputs with an invariant at +/-1 have -0.0 in their blocks
        U = DECOMPOSE_INPUTS[name]()
        profile = full_profile(U)
        for got, want in zip(canonical_matrices(U, profile), canonical_matrices_reference(profile)):
            assert got.tobytes() == want.tobytes()
            assert not np.signbit(got[got == 0.0]).any()


# how many of the three Kaehler forms survive orthonormalization on each
# stratum: none on r.h.p. sums; one (the algebra C) on 2-plane sums and
# totally complex sums, i-complex at theta = pi/2 included; two (H) with a
# single invariant at +/-1; three (Cl_{0,3}) on graph, profile, generic
# i-complex and perturbed sums
GENERATORS = {
    "rhp-6": 0, "rhp-12": 0,
    "planes-10": 1, "planes-12": 1, "planes-16": 1, "icomplex-8": 1, "tcomplex-8": 1,
    "single-pm1-8": 2, "single-pm1-12": 2,
    "graph-12": 3, "graph-16": 3, "profile-16": 3, "icomplex-12": 3,
    "perturbed-4": 3, "perturbed-8": 3,
}


def projector_distance(A, B):
    return float(np.max(np.abs(A.vectors.T @ A.vectors - B.vectors.T @ B.vectors)))


class TestDecomposeInCoordinates:
    """decompose builds its addends in U's coordinates; they span what the
    4n-dim chain route spans."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_addends_match_chain_route(self, name, seed):
        U = DECOMPOSE_INPUTS[name]()
        ref = decompose_reference(U, seed)
        try:
            got = decompose(U, seed=seed).addends
        except FalsificationError as exc:
            # basis-dependent re-certification at the edge of EPS_ISO
            assert name == "perturbed-8" and "re-certification" in str(exc)
            return
        assert [a.dim for a in got] == [a.dim for a in ref]
        assert max(projector_distance(a, b) for a, b in zip(got, ref)) <= 1e-12

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("name", ["graph-12", "graph-16", "planes-10", "rhp-12"])
    def test_forms_built_once(self, monkeypatch, name, seed):
        # the addends' forms are blocks of the input's, built in one stack of one entry
        U = DECOMPOSE_INPUTS[name]()
        built = []
        real = analysis._gram_forms

        def counting(C):
            built.append(C.shape)
            return real(C)

        monkeypatch.setattr(analysis, "_gram_forms", counting)
        dec = decompose(U, seed=seed)
        assert len(dec.addends) > 1 and built == [(1, U.dim, 2 * U.n)]

    @pytest.mark.parametrize("name", ["graph-12", "graph-16", "planes-10", "rhp-12"])
    def test_generators_built_once(self, monkeypatch, name):
        # the one-type check and the sweep read the same generators
        U = DECOMPOSE_INPUTS[name]()
        built = []
        real = analysis._generators

        def counting(forms):
            built.append(forms.shape[-1])
            return real(forms)

        monkeypatch.setattr(analysis, "_generators", counting)
        decompose(U)
        assert built == [U.dim]

    @pytest.mark.parametrize("name", sorted(n for n in DECOMPOSE_INPUTS
                                            if n.endswith(("-8", "-16"))))
    def test_eight_dim_addend_is_the_first_addend(self, name):
        # both are the first block of one sweep from the first frame vector
        U = DECOMPOSE_INPUTS[name]()
        try:
            first = decompose(U).addends[0]
        except FalsificationError as exc:
            assert name == "perturbed-8" and "re-certification" in str(exc)
            with pytest.raises(FalsificationError, match="re-certification"):
                eight_dim_addend(U, U.vectors[0])
            return
        assert projector_distance(eight_dim_addend(U, U.vectors[0]), first) <= 1e-12

    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_generators_per_stratum(self, name):
        E = analysis._generators(_forms(DECOMPOSE_INPUTS[name]()))
        assert len(E) == GENERATORS[name]
        k = E.shape[-1]
        npt.assert_allclose(np.einsum("pij,qij->pq", E, E) / k, np.eye(len(E)),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(DECOMPOSE_INPUTS))
    def test_addends_are_submodules(self, name, seed):
        # each addend's coordinate projector P is invariant under every form
        U = DECOMPOSE_INPUTS[name]()
        forms = _forms(U)
        for addend in decompose(U, seed=seed).addends:
            C = addend.vectors @ U.vectors.T
            P = C.T @ C
            leak = max(np.linalg.norm((np.eye(U.dim) - P) @ w @ P, 2) for w in forms)
            assert leak <= 1e-12

    @pytest.mark.parametrize("seed", [None, 1])
    @pytest.mark.parametrize("name", sorted(set(DECOMPOSE_INPUTS) - {"perturbed-8"}))
    def test_stacked_gate_and_profiles_are_each_addends(self, name, seed):
        # one stacked gate and one stacked profile over all addends give, bit
        # for bit, the single gate and profile of each addend's block forms
        # (perturbed-8 may fail re-certification, see above)
        U = DECOMPOSE_INPUTS[name]()
        dec = decompose(U, seed=seed)
        forms = _forms(U)
        assert len(dec.gated) == len(dec.addends) == len(dec.addend_profiles)
        for addend, (angles, block), profile in zip(dec.addends, dec.gated, dec.addend_profiles):
            C = addend.vectors @ U.vectors.T
            npt.assert_allclose(block, C @ forms @ C.T, rtol=0, atol=1e-12)
            assert _gate(block, EPS_ISO)[0] == angles
            assert profile == profile_of(angles, block)

    @settings(max_examples=30, deadline=None)
    @given(
        part=st.sampled_from(["graph", "profile", "planes", "icomplex", "rhp"]),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        lead=st.sampled_from([None, 0, 1, 2]),
    )
    def test_addends_are_hermitian_orthogonal_isoclinic_parts(self, part, count, seed, lead):
        base = {
            "graph": lambda: graph_subspace(np.random.default_rng(seed).standard_normal(4)),
            "profile": lambda: make_profile_4(*PROFILE_4),
            "planes": lambda: make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0),
            "icomplex": lambda: make_i_complex_4(2, 0.7),
            "rhp": lambda: make_rhp(2, 2),
        }[part]()
        U = moved(direct_sum([base] * count), seed)
        dec = decompose(U, seed=lead)
        V = np.vstack([a.vectors for a in dec.addends])
        npt.assert_allclose(V @ V.T, np.eye(U.dim), rtol=0, atol=1e-12)
        assert np.max(np.abs(U.vectors - (U.vectors @ V.T) @ V)) <= 1e-12
        parent = np.cos(certify_isoclinic(U))
        for i, a in enumerate(dec.addends):
            npt.assert_allclose(np.cos(isoclinic_profile_angles(a)), parent, rtol=0, atol=1e-12)
            for b in dec.addends[i + 1:]:
                for A in (I, J, K):
                    assert np.max(np.abs(a.vectors @ apply_structure(A, b.vectors).T)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        part=st.sampled_from(["rhp", "planes", "graph"]),
        count=st.integers(1, 8),
        motion=st.integers(0, 2**31 - 1),
        noise=st.integers(0, 2**31 - 1),
        seed=st.sampled_from([None, 0, 1, 2]),
    )
    # the leading vector x is default_rng(0)'s first draw, eight_dim_addend's
    # first Gaussian lead: it lies in x's span and is drawn again
    @example(part="rhp", count=4, motion=0, noise=0, seed=0)
    # a lead taken as the coordinate axis farthest from the rows built jumps here
    @example(part="graph", count=3, motion=0, noise=0, seed=None)
    def test_addends_continuous_in_the_frame(self, part, count, motion, noise, seed):
        # every lead is a fixed draw (or e_0) in U's coordinates, so turning the
        # frame's rows by an orthogonal O = Id + O(1e-7) moves each addend by
        # about as much (at most 9e-7 seen). A lead picked by a tie that the turn
        # breaks moves it by O(1): at 1e-7 the squares of the turn survive next
        # to 1, at 1e-9 (or 1e-15 noise) they round away and the tie holds
        base = {
            "rhp": lambda: make_rhp(2, 2),
            "planes": lambda: make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0),
            "graph": lambda: graph_subspace(np.array([0.3, 0.4, -0.2, 0.6])),
        }[part]()
        U = moved(direct_sum([base] * count), motion)
        N = np.random.default_rng(noise).standard_normal((U.dim, U.dim))
        Q, R = np.linalg.qr(np.eye(U.dim) + 1e-7 * (N - N.T))
        W = Frame((Q * np.sign(R.diagonal())).T @ U.vectors)
        got, turned = decompose(U, seed=seed).addends, decompose(W, seed=seed).addends
        assert len(got) == len(turned)
        assert max(projector_distance(a, b) for a, b in zip(got, turned)) <= 1e-5
        if U.dim >= 8:
            rng = np.random.default_rng(seed)
            c = np.eye(U.dim)[0] if seed is None else rng.standard_normal(U.dim)
            x, y = (c @ F.vectors / np.linalg.norm(c @ F.vectors) for F in (U, W))
            assert projector_distance(eight_dim_addend(U, x), eight_dim_addend(W, y)) <= 1e-5

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_addends_orthonormal_on_a_frame_with_a_defect(self, seed):
        # a frame whose Gram defect 2.2e-9 Frame and the gate accept: each addend
        # block is orthonormalised under the frame's Gram, so no addend inherits
        # the defect (orthonormal only in U's coordinates, seed 0's addend read
        # a Gram defect 1.095e-08 and raised FrameError)
        U = moved(graph_sum(4), 3)
        V = (np.eye(16) + 1.1e-9 * np.ones((16, 16))) @ U.vectors
        assert 2e-9 < np.max(np.abs(V @ V.T - np.eye(16))) < EPS_FRAME
        W = Frame(V)
        certify_isoclinic(W)
        addends = decompose(W, seed=seed).addends + (eight_dim_addend(W, W.vectors[0]),)
        for a in addends:
            npt.assert_allclose(a.vectors @ a.vectors.T, np.eye(a.dim), rtol=0, atol=1e-14)


TH_XI, TH_ETA = (1.3091, 1.1711, 1.2413), (1.2042, 1.3262, 1.1837)


def plane_sum(theta_i, xi, chi):
    return direct_sum([make_two_plane(2, theta_i, 1.1, 1.2, xi, chi)] * 2)


def chi_eta_pm1():
    """chi and eta within EPS_PM1 of 1 and xi 3.5e-8 from it, the most
    that two invariants at +/-1 leave the third: 2-planes decomposable."""
    xi, chi = 1 - 3.5e-8, 1 - 0.9e-8
    eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * (1 - 1e-9)
    return make_profile_4(1.2, 1.3, 1.4, xi, chi, eta)


# every chain convention and forced companion: generic (graph, profile,
# quaternionic line, i-complex at 0.7), exactly one invariant at +/-1 with
# either sign (eta = -1 requested 1e-13 inside, within EPS_PM1 of it; the
# exact -1 is test_generators' case), and two or three at +/-1
# (i-complex at pi/2, totally complex, r.h.p., 2-plane sums, cos theta_I = 0)
CHAIN_STRATA = {
    "graph-4": lambda: graph_sum(1),
    "profile-4": lambda: make_profile_4(*PROFILE_4),
    "xi+1": lambda: make_profile_4(*TH_XI, 1.0, -0.849, -0.849),
    "xi-1": lambda: make_profile_4(*TH_XI, -1.0, -0.849, 0.849),
    "chi+1": lambda: make_profile_4(*TH_ETA, 0.1697, 1.0, 0.1697),
    "chi-1": lambda: make_profile_4(*TH_ETA, 0.1697, -1.0, -0.1697),
    "chi-1,xi<0": lambda: make_profile_4(*TH_ETA, -0.1697, -1.0, 0.1697),
    "eta+1": lambda: make_profile_4(*TH_ETA, 0.1697, 0.1697, 1.0),
    "eta-1": lambda: make_profile_4(*TH_ETA, 0.1697, -0.1697, -1.0 + 1e-13),
    "chi,eta+1": chi_eta_pm1,
    "qline": lambda: make_quaternionic_line(2),
    "icomplex-0.7": lambda: make_i_complex_4(2, 0.7),
    "icomplex-pi/2": lambda: make_i_complex_4(2, np.pi / 2),
    "tcomplex": lambda: make_totally_complex_4(2),
    "rhp": lambda: make_rhp(4, 4),
    "planes+-": lambda: plane_sum(0.9, 1.0, -1.0),
    "planes--": lambda: plane_sum(0.9, -1.0, -1.0),
    "planes-cosI=0": lambda: direct_sum([make_two_plane(2, np.pi / 2, 0.9, 1.1)] * 2),
    "graph-8": lambda: graph_sum(2),
    "xi-1-8": lambda: direct_sum([make_profile_4(*TH_XI, -1.0, -0.849, 0.849)] * 2),
    "eta-1-8": lambda: direct_sum([make_profile_4(*TH_ETA, 0.1697, -0.1697, -1.0 + 1e-13)] * 2),
}

CHAIN_FIELDS = ("chain_x", "chain_y", "chain_xt", "chain_z", "chain_yt", "chain_zt")


class TestChainsAsPieces:
    """build_chains and companions, built as Clifford pieces of the
    normalised forms in U's coordinates, against the ambient chains."""

    @pytest.mark.parametrize("name", sorted(CHAIN_STRATA))
    @settings(max_examples=10, deadline=None)
    @given(motion=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
           lead=st.one_of(st.none(), st.integers(0, 2**31 - 1)))
    def test_equal_to_reference(self, name, motion, lead):
        U = CHAIN_STRATA[name]()
        if motion is not None:
            U = moved(U, motion)
        x = U.vectors[0] if lead is None else random_unit_in(U, np.random.default_rng(lead))
        ref = build_chains_reference(U, x)
        # roundoff picks the convention at the threshold itself
        assume(all(abs(abs(v) - (1 - EPS_PM1)) > 1e-12 for v in (ref.xi, ref.chi, ref.eta)))
        got = build_chains(U, x)
        for field in CHAIN_FIELDS:
            npt.assert_allclose(getattr(got, field), getattr(ref, field), rtol=0, atol=1e-12)
        npt.assert_allclose([got.xi, got.chi, got.eta], [ref.xi, ref.chi, ref.eta],
                            rtol=0, atol=1e-12)
        assert (got.convention, got.non_canonical, got.forced, sorted(got.residuals)) == (
            ref.convention, ref.non_canonical, ref.forced, sorted(ref.residuals))
        comp, comp_ref = companions(U, x), companions_reference(U, x, got.angles)
        npt.assert_allclose([comp.X2, comp.Y2, comp.Z2], [comp_ref.X2, comp_ref.Y2, comp_ref.Z2],
                            rtol=0, atol=1e-12)
        assert comp.forced == comp_ref.forced

    @pytest.mark.parametrize("gap", [-1e-10, -1e-9])
    def test_orthonormal_next_to_threshold(self, gap):
        # xi just off +/-1: the fourth elements divide by s_xi ~ 1.4e-4; the
        # ambient reference's rows miss orthonormality by about 1e-7 there
        for seed in range(3):
            U = moved(near_pm1_profile(gap), seed)
            ch = build_chains(U, U.vectors[0])
            assert ch.convention == "generic"
            for field in CHAIN_FIELDS:
                C = getattr(ch, field)
                npt.assert_allclose(C @ C.T, np.eye(4), rtol=0, atol=1e-10)
