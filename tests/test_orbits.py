import re
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from isoclinic import analysis, generators, orbits
from isoclinic.analysis import (
    _forms,
    _generators,
    build_chains,
    certify_isoclinic,
    cik_block_4,
    full_profile,
    isoclinic_pair,
    isoclinic_profile_angles,
    omega_pattern_4,
)
from isoclinic.errors import (DimensionError, FalsificationError, FrameError,
                              InfeasibleParametersError)
from isoclinic.generators import (
    _frame_from_omegas,
    direct_sum,
    embed,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_profile_4,
    make_quaternionic_line,
    make_rhp,
    make_two_plane,
    random_sp,
)
from isoclinic.orbits import (
    canonical_matrices,
    _require_one_type,
    decompose,
    eight_dim_addend,
    orbit_label,
    same_orbit,
)
from isoclinic.quaternions import I, J, K
from isoclinic.tolerances import EPS_ANGLE, EPS_ORBIT, EPS_PM1
from isoclinic.subspaces import Frame, gram, principal_angles, structure_image
from conftest import (bench_workloads, chain_profile, complement_in, perturbed_graph_sum,
                      random_unit_in, structure_matrix)

GENERIC_MU = np.array([0.3, 0.4, -0.2, 0.6])
DUAL_ARGS = (1.3993, 1.4034, 0.815, -0.3497, 0.5168, 0.0656)


def graph_sum(count, mu=GENERIC_MU):
    return direct_sum([graph_subspace(mu)] * count)


def profile_sum(args, delta_signs):
    """Hermitian-orthogonal sum of make_profile_4(*args) parts, one per sign;
    mixed signs give an isoclinic sum that direct_sum refuses."""
    parts = [make_profile_4(*args, delta_sign=sign) for sign in delta_signs]
    n = sum(p.n for p in parts)
    return Frame(np.vstack([embed(p, n, p.n * i).vectors for i, p in enumerate(parts)]))


def random_profile_sum(rng, delta_signs):
    """profile_sum at random generic invariants realizable with each sign."""
    while True:
        thetas = rng.uniform(0.7, 1.4, 3)
        xi, chi, gamma = rng.uniform(-0.8, 0.8, 3)
        eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
        try:
            return profile_sum((*thetas, xi, chi, eta), delta_signs)
        except InfeasibleParametersError:
            continue


def mixed_delta_sum():
    return profile_sum(DUAL_ARGS, (+1, -1))


def volume_element(U):
    """vol = E_1 E_2 E_3 of the Cl_{0,3}-module structure on U's coordinates:
    E = L^{-1} (omega_p / cos theta_p) with g = L L^T the Gram matrix of the
    three normalized forms."""
    forms = _forms(U)
    k = U.dim
    Js = forms / np.sqrt(np.einsum("pij,pij->p", forms, forms) / k)[:, None, None]
    g = np.einsum("pij,qij->pq", Js, Js) / k
    E = np.einsum("ap,pij->aij", np.linalg.inv(np.linalg.cholesky(g)), Js)
    return E[0] @ E[1] @ E[2]


def associated(U, x1):
    """The associated subspaces (U^IJ, U^IK, U^JK) through x1: the frames of
    the chains chain_x, chain_xt and chain_yt."""
    ch = build_chains(U, x1)
    return Frame(ch.chain_x), Frame(ch.chain_xt), Frame(ch.chain_yt)


def halves(addend, x1):
    """An 8-dim addend with Gamma^2 + Delta^2 = 1 cut into the omega^I chain
    through x1 and its complement, two 4-dim isoclinic halves."""
    half = Frame(build_chains(addend, x1).chain_x)
    return half, complement_in(addend, half.vectors)


class TestAssociatedSubspaces:
    def test_dim4_all_equal_parent(self):
        U = graph_subspace(GENERIC_MU)
        for t in associated(U, U.vectors[0]):
            s = np.linalg.svd(gram(t, U), compute_uv=False)
            npt.assert_allclose(s, np.ones(4), atol=1e-10)

    def test_kind_pairs_isoclinic_with_parent_angles(self):
        U = graph_sum(2)
        angles = certify_isoclinic(U)
        pairs = ((I, J), (I, K), (J, K))
        by_structure = dict(zip((I, J, K), angles))
        for t, pair in zip(associated(U, U.vectors[0]), pairs):
            for A in pair:
                th = isoclinic_pair(t, structure_image(A, t))
                assert th is not None
                assert abs(th - by_structure[A]) < 1e-8

    def test_matched_sum_associated_subspaces_coincide(self, rng):
        # full-profile-matched sums have Gamma^2 + Delta^2 = 1, so the two
        # associated subspaces agree at every leading vector
        U = graph_sum(2)
        x1 = rng.standard_normal(8) @ U.vectors
        x1 /= np.linalg.norm(x1)
        uij, uik, _ = associated(U, x1)
        stacked = np.vstack([uij.vectors, uik.vectors])
        assert np.linalg.matrix_rank(stacked, tol=1e-9) == 4

    def test_generic_intersection_is_standard_plane(self, rng):
        # a hand-built sum of parts sharing only (angles, xi, chi, eta) has
        # leading vectors where the associated pair meets in exactly L(X1,X2)
        U = mixed_delta_sum()
        x1 = rng.standard_normal(8) @ U.vectors
        x1 /= np.linalg.norm(x1)
        uij, uik, _ = associated(U, x1)
        stacked = np.vstack([uij.vectors, uik.vectors])
        assert np.linalg.matrix_rank(stacked, tol=1e-9) == 6

    def test_pm1_invariant_collapses_them(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        U = direct_sum([P, P, P])  # dim 6, xi,chi,eta at +/-1
        base, *rest = associated(U, U.vectors[0])
        for t in rest:
            s = np.linalg.svd(gram(base, t), compute_uv=False)
            npt.assert_allclose(s, np.ones(4), atol=1e-9)
        got = isoclinic_profile_angles(base)
        npt.assert_allclose(got, certify_isoclinic(U), atol=1e-9)


class TestEightDimAddend:
    def test_dim8_returns_whole_space(self):
        U = direct_sum([make_quaternionic_line(1), make_quaternionic_line(1)])
        addend = eight_dim_addend(U, U.vectors[0])
        s = np.linalg.svd(gram(addend, U), compute_uv=False)
        npt.assert_allclose(s, np.ones(8), atol=1e-9)
        npt.assert_allclose(addend.vectors[0], U.vectors[0], atol=1e-12)

    def test_dim16_random_leading_vectors(self, rng):
        # addend profile is independent of the leading vector
        U = graph_sum(4)
        parent = full_profile(U)
        for _ in range(32):
            x1 = rng.standard_normal(16) @ U.vectors
            x1 /= np.linalg.norm(x1)
            addend = eight_dim_addend(U, x1)
            assert addend.dim == 8
            prof = full_profile(addend)
            npt.assert_allclose(prof.cosines, parent.cosines, atol=1e-8)
            npt.assert_allclose(
                [prof.xi, prof.chi, prof.eta, prof.gamma, prof.delta],
                [parent.xi, parent.chi, parent.eta, parent.gamma, parent.delta],
                atol=1e-8,
            )

    def test_rhp_branch(self):
        U = make_rhp(8, 8)
        addend = eight_dim_addend(U, U.vectors[0])
        npt.assert_allclose(
            isoclinic_profile_angles(addend), [np.pi / 2] * 3, atol=1e-9
        )

    def test_small_dim_rejected(self):
        with pytest.raises(DimensionError):
            eight_dim_addend(graph_subspace(GENERIC_MU), np.zeros(8))

    def test_nan_leading_vector_is_a_frame_error(self):
        # refused by the membership check, not as a rank-0 sweep
        U = graph_sum(2)
        with pytest.raises(FrameError, match="must be a unit vector"):
            eight_dim_addend(U, np.full(U.ambient, np.nan))

    def test_nan_blocks_rejected(self):
        # a NaN reaches the pieces' Gram check, not a lead's redraw
        E = np.array([structure_matrix(I, 2)])
        E[0, 2, 5] = np.nan
        with pytest.raises(FalsificationError, match="defect nan"):
            analysis._adapted(E, None, 8, 8)


class TestDecompose:
    def test_single_two_plane(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        dec = decompose(P)
        assert dec.addend_dim == 2 and len(dec.addends) == 1

    def test_dim6_rhp_three_planes(self):
        U = make_rhp(6, 6)
        dec = decompose(U, seed=3)
        assert dec.addend_dim == 2 and len(dec.addends) == 3
        for addend in dec.addends:
            npt.assert_allclose(
                isoclinic_profile_angles(addend), [np.pi / 2] * 3, atol=1e-9
            )

    def test_dim12_rhp_three_4dim_addends(self):
        # dim 12 = 8k + 4 mandates 4-dim addends even though an r.h.p.
        # subspace also splits into 2-planes
        U = make_rhp(12, 12)
        dec = decompose(U, seed=3)
        assert dec.addend_dim == 4 and len(dec.addends) == 3
        for addend in dec.addends:
            npt.assert_allclose(
                isoclinic_profile_angles(addend), [np.pi / 2] * 3, atol=1e-9
            )

    def test_dim8_two_lines_single_addend_with_split(self):
        U = direct_sum([make_quaternionic_line(1), make_quaternionic_line(1)])
        dec = decompose(U, seed=1)
        assert dec.addend_dim == 8 and len(dec.addends) == 1
        for half in halves(dec.addends[0], dec.addends[0].vectors[0]):
            prof = full_profile(half)
            npt.assert_allclose(prof.cosines, [1, 1, 1], atol=1e-8)
            npt.assert_allclose(
                [prof.gamma, prof.delta], [0.0, -1.0], atol=1e-8
            )

    def test_dim12_graph_sum(self):
        dec = decompose(graph_sum(3), seed=0)
        assert dec.addend_dim == 4 and len(dec.addends) == 3
        parent = np.cos(
            [dec.profile.theta_i, dec.profile.theta_j, dec.profile.theta_k]
        )
        for addend in dec.addends:
            got = isoclinic_profile_angles(addend)
            npt.assert_allclose(np.cos(got), parent, atol=1e-8)

    def test_dim16_graph_sum(self):
        dec = decompose(graph_sum(4), seed=0)
        assert dec.addend_dim == 8 and len(dec.addends) == 2
        g = gram(dec.addends[0], dec.addends[1])
        npt.assert_allclose(g, np.zeros((8, 8)), atol=1e-8)

    @pytest.mark.parametrize("parts,gates", [(4, [16, 8, 8]), (3, [12, 4, 4, 4])])
    def test_each_addend_gated_once(self, monkeypatch, parts, gates):
        # the input's gate, then one stacked gate over all addends
        U = graph_sum(parts)
        gated, stacks = [], []
        real = analysis._gates

        def counting(forms, *args):
            gated.extend([forms.shape[-1]] * len(forms))  # one per stack entry
            stacks.append(len(forms))
            return real(forms, *args)

        monkeypatch.setattr(analysis, "_gates", counting)
        decompose(U, seed=0)
        assert gated == gates
        assert stacks == [1, len(gates) - 1]

    @pytest.mark.parametrize("count,want_dim", [(5, 2), (7, 2), (6, 4), (8, 8)])
    def test_two_plane_sums_all_dimension_classes(self, count, want_dim):
        # dims 10, 14, 12, 16 built from one standard 2-plane: the 4- and
        # 8-dim peels must route through the decomposable chain convention
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        S = direct_sum([P] * count)
        dec = decompose(S, seed=count)
        assert dec.addend_dim == want_dim
        assert len(dec.addends) * want_dim == S.dim
        angles = certify_isoclinic(S)
        for addend in dec.addends:
            got = isoclinic_profile_angles(addend)
            assert got is not None
            npt.assert_allclose(np.cos(got), np.cos(angles), atol=1e-8)

    def test_mixed_delta_sum_refused(self, rng):
        # a sum of opposite-Delta parts is isoclinic, but it mixes both
        # Cl_{0,3}-module types: tr(J_I J_J J_K) cancels between the parts,
        # so the profile reads Delta = 0 and Sigma^2 = 1 - Gamma^2 > 0
        U = mixed_delta_sum()
        assert isoclinic_profile_angles(U) is not None
        prof = full_profile(U)
        assert prof.delta == pytest.approx(0.0, abs=1e-12)
        for seed in (None, 0, 1, 2, 3):
            with pytest.raises(FalsificationError, match=r"dim 8 .*Sigma\^2 = [0-9.e+-]+") as info:
                decompose(U, seed=seed)
        # eight_dim_addend measures U as decompose does, whatever the leading vector
        with pytest.raises(FalsificationError) as addend:
            eight_dim_addend(U, random_unit_in(U, rng))
        assert str(addend.value) == str(info.value)
        with pytest.raises(FalsificationError, match=r"Sigma\^2"):
            canonical_matrices(U, prof)

    @pytest.mark.parametrize("gap", [1e-7, 1e-9])
    def test_mixed_sum_with_gamma_near_one_refused(self, gap):
        # Sigma^2 = 1 - Gamma^2 ~ 2 gap passes the Sigma mandate, though the
        # parts' Delta differ by ~2 sqrt(2 gap): the volume element refuses
        xi, chi = DUAL_ARGS[3:5]
        eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * (1 - gap)
        U = profile_sum((*DUAL_ARGS[:3], xi, chi, eta), (+1, -1))
        for call in (orbit_label, lambda V: same_orbit(V, V), decompose):
            with pytest.raises(FalsificationError, match=r"max\|s vol - Id\| = 1\.000e\+00"):
                call(U)

    @pytest.mark.parametrize("seed,parts", [(None, 1), (1, 1), (2, 1), (None, 2)])
    def test_certified_perturbed_sum_decomposes(self, seed, parts):
        # certified with sup defect 7.45e-9 (parts = 1), yet the chain span
        # it peels misses orthonormality by 1.4e-8 to 2.1e-8: more than a
        # Frame accepts, well inside what an addend may absorb
        U = perturbed_graph_sum(1, parts)
        dec = decompose(U, seed=seed)
        assert dec.addend_dim == 4 * parts and len(dec.addends) == 1

    @pytest.mark.parametrize("seed,parts", [(None, 1), (0, 2), (1, 3)])
    def test_recertification_independent_of_the_basis(self, seed, parts):
        # certified inputs whose addends pass re-certification only in an
        # orthonormalized basis (the gate's sup norm depends on the basis),
        # which every stack within EPS_UNION is given
        dec = decompose(perturbed_graph_sum(5, parts), seed=seed)
        assert sum(a.dim for a in dec.addends) == 4 * parts

    def test_uncertifiable_addend_still_refused(self):
        # certified, yet its first 4-dim addend fails the gate at EPS_ISO
        with pytest.raises(FalsificationError, match="addend 0 failed re-certification"):
            decompose(perturbed_graph_sum(9, 3), seed=0)

    def test_refusal_is_named_by_the_caller(self):
        # a class-8 input (dim 16): decompose names the addend by its index,
        # eight_dim_addend as the one it constructs, whatever the cut
        U = perturbed_graph_sum(0, 2)
        with pytest.raises(FalsificationError, match="^addend 0 failed re-certification"):
            decompose(U)
        with pytest.raises(FalsificationError,
                           match="^constructed 8-dim addend failed re-certification"):
            eight_dim_addend(U, U.vectors[0])

    @pytest.mark.parametrize("parts,what", [(3, "addend 1"), (4, "addend 1")])
    def test_first_failing_addend_in_order_is_named(self, monkeypatch, parts, what):
        # the stacked addend gate fails every addend after the first: the
        # second is named, with the text of a single addend's failure
        real = analysis._gates

        def failing(forms, *args):
            gates = real(forms, *args)
            return gates[:1] + [(None, w) for _, w in gates[1:]]

        monkeypatch.setattr(analysis, "_gates", failing)
        with pytest.raises(FalsificationError, match=f"^{what} failed re-certification against "
                                                     r"the parent angles \(got None, parent \("):
            decompose(graph_sum(parts), seed=0)


class TestCanonicalMatrices:
    def test_blocks_orthogonal(self, rng):
        # C_IK is orthogonal exactly on Sigma = 0, the only admissible case
        for _ in range(10):
            chi, gamma = rng.uniform(-1, 1, 2)
            for sign in (+1, -1):
                delta = sign * np.sqrt(1 - gamma**2)
                bik = cik_block_4(chi, gamma, delta)
                npt.assert_allclose(bik @ bik.T, np.eye(4), atol=1e-12)

    def test_profile_of_another_dim_refused(self):
        # a 2-plane's profile would tile 2 x 2 blocks for a dim-4 graph
        U = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
        plane = full_profile(make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0))
        with pytest.raises(DimensionError, match="^a dim-2 profile given for a dim-4 subspace$"):
            canonical_matrices(U, plane)

    def test_two_lines_reduce_to_i_complex_style_blocks(self):
        U = direct_sum([make_quaternionic_line(1), make_quaternionic_line(1)])
        _, cik = canonical_matrices(U)
        block = np.array(
            [[1, 0, 0, 0], [0, 0, 0, -1], [0, 1, 0, 0], [0, 0, -1, 0]], dtype=float
        )
        npt.assert_allclose(cik[:4, :4], block, atol=1e-8)
        npt.assert_allclose(cik[4:, 4:], block, atol=1e-8)
        npt.assert_allclose(cik[:4, 4:], np.zeros((4, 4)), atol=1e-8)

    def test_i_orthogonal_gives_identity_cij(self):
        # theta_I = pi/2 forces xi = 1, hence C_IJ = Id
        P = make_two_plane(2, np.pi / 2, 0.9, 1.1, 1.0, 1.0)
        U = direct_sum([P, P])
        cij, _ = canonical_matrices(U)
        npt.assert_allclose(cij, np.eye(4), atol=1e-9)

    def test_triple_orthogonality_gives_identities(self):
        U = make_rhp(4, 4)
        cij, cik = canonical_matrices(U)
        npt.assert_allclose(cij, np.eye(4), atol=1e-12)
        npt.assert_allclose(cik, np.eye(4), atol=1e-12)

    def test_two_plane_blocks(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, -1.0, 1.0)
        cij, cik = canonical_matrices(P)
        npt.assert_allclose(cij, [[1, 0], [0, -1]], atol=1e-12)
        npt.assert_allclose(cik, [[1, 0], [0, 1]], atol=1e-12)

    def test_matches_measured_grams_on_dim4(self):
        # assembled blocks agree with Gram matrices of actual chains
        U = graph_subspace(GENERIC_MU)
        ch = build_chains(U, U.vectors[0])
        cij, cik = canonical_matrices(U)
        npt.assert_allclose(cij, ch.chain_x @ ch.chain_y.T, atol=1e-9)
        npt.assert_allclose(cik, ch.chain_x @ ch.chain_z.T, atol=1e-9)

    def test_measured_grams_on_dim8_sum(self):
        # union of the chains of the two 4-dim halves realizes the 8x8 blocks
        U = graph_sum(2)
        dec = decompose(U, seed=5)
        rows_x, rows_y, rows_z = [], [], []
        for half in halves(dec.addends[0], dec.addends[0].vectors[0]):
            ch = build_chains(half, half.vectors[0])
            rows_x.append(ch.chain_x)
            rows_y.append(ch.chain_y)
            rows_z.append(ch.chain_z)
        bx = np.vstack(rows_x)
        by = np.vstack(rows_y)
        bz = np.vstack(rows_z)
        cij, cik = canonical_matrices(U)
        npt.assert_allclose(bx @ by.T, cij, atol=1e-8)
        npt.assert_allclose(bx @ bz.T, cik, atol=1e-8)

    def test_independent_decompositions_agree(self):
        # chain profiles at two random leading vectors give one set of blocks
        U = graph_sum(4)
        leads = (random_unit_in(U, np.random.default_rng(s)) for s in (11, 23))
        c1, c2 = (canonical_matrices(U, chain_profile(U, x)) for x in leads)
        assert np.max(np.abs(c1[0] - c2[0])) < 1e-8
        assert np.max(np.abs(c1[1] - c2[1])) < 1e-8


def assert_labels_agree(a, b):
    assert a.dim == b.dim
    npt.assert_allclose(a.as_array(), b.as_array(), rtol=0, atol=EPS_ORBIT)


class TestOrbitLabel:
    def test_rhp_labels_equal_per_dim(self):
        assert_labels_agree(orbit_label(make_rhp(6, 4)), orbit_label(make_rhp(5, 4)))

    def test_quaternionic_subspaces_single_orbit(self):
        assert_labels_agree(orbit_label(make_quaternionic_line(2, 0)),
                            orbit_label(make_quaternionic_line(3, 2)))

    def test_labels_of_other_dims_disagree(self):
        # r.h.p. subspaces of dims 4 and 2 have equal label arrays
        a, b = orbit_label(make_rhp(4, 4)), orbit_label(make_rhp(4, 2))
        npt.assert_array_equal(a.as_array(), b.as_array())
        assert a.dim != b.dim

    def test_i_complex_angle_separates(self):
        a = orbit_label(make_i_complex_4(2, 0.6))
        b = orbit_label(make_i_complex_4(2, 0.9))
        assert np.max(np.abs(a.as_array() - b.as_array())) > EPS_ORBIT

    def test_two_six_branch_normalizes(self):
        P = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        label = orbit_label(direct_sum([P, P, P]))
        assert label.xi == 1.0 and label.chi == -1.0
        assert label.eta == label.xi * label.chi
        assert label.delta == 0.0

    def test_single_pm1_label_keeps_generic_components(self):
        # xi at +1 with chi, eta generic: only xi is snapped
        U = make_profile_4(1.3091, 1.1711, 1.2413, 1.0, -0.849, -0.849)
        label = orbit_label(U)
        assert label.xi == 1.0
        assert abs(label.chi + 0.849) < 1e-8
        assert abs(label.eta + 0.849) < 1e-8
        assert label.delta == 0.0
        g = random_sp(U.n, seed=8)
        assert_labels_agree(label, orbit_label(g.apply_frame(U)))

    def test_mixed_delta_sum_has_no_label(self):
        with pytest.raises(FalsificationError):
            orbit_label(mixed_delta_sum())


class TestSameOrbit:
    def test_group_motion(self, rng):
        U = graph_sum(2)
        g = random_sp(U.n, seed=int(rng.integers(0, 1000)))
        assert same_orbit(U, g.apply_frame(U))

    def test_self(self):
        U = graph_subspace(GENERIC_MU)
        assert same_orbit(U, U)

    def test_imaginary_measure_i_vs_j(self):
        from isoclinic.quaternions import apply_structure
        from conftest import unit

        x = unit(2, 0)
        Pi = Frame(np.vstack([x, -apply_structure(I, x)]))
        Pj = Frame(np.vstack([x, -apply_structure(J, x)]))
        assert not same_orbit(Pi, Pj)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            same_orbit(make_rhp(4, 4), make_rhp(4, 2))

    def test_delta_sign_separates(self):
        up = make_profile_4(*DUAL_ARGS, delta_sign=+1)
        um = make_profile_4(*DUAL_ARGS, delta_sign=-1)
        assert not same_orbit(up, um)


CENSUS_THETAS = (1.2, 1.3, 1.4)


def census_frame(cosines=np.cos(CENSUS_THETAS), xi=0.3, chi=0.2, eta=0.1, delta_sign=-1):
    """The dim-4 frame in H^4 that _frame_from_omegas realises from the omega_pattern_4
    forms of cosines (c_I, c_J, c_K) and (xi, chi, eta), as make_profile_4 builds them,
    but with the cosines given directly, so that one can sit at EPS_ANGLE."""
    cI, cJ, cK = cosines
    s_xi, s_chi = np.sqrt(1 - xi**2), np.sqrt(1 - chi**2)
    gamma = (eta - xi * chi) / (s_xi * s_chi)
    delta = delta_sign * np.sqrt(1 - gamma**2)
    return _frame_from_omegas((omega_pattern_4(cI, 0.0, 0.0),
                               omega_pattern_4(xi * cJ, 0.0, s_xi * cJ),
                               omega_pattern_4(chi * cK, -delta * s_chi * cK,
                                               gamma * s_chi * cK)), 4)


def census_cosines(near, c):
    """The census cosines with those of `near` (indices into I, J, K) set to c."""
    cosines = np.cos(CENSUS_THETAS)
    cosines[list(near)] = c
    return cosines


class TestTraceInvariantDecision:
    """same_orbit decides on (G, T): the threshold census, where labels once
    took either side of the +/-1 convention, and pairs of different orbits."""

    @pytest.mark.parametrize("near", [(0,), (1,), (2,), (0, 1)], ids=["cI", "cJ", "cK", "cIJ"])
    @pytest.mark.parametrize("d", [-1e-9, 0.0, 1e-9])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_census_motions_read_same(self, near, d, seed):
        # cos theta_p = EPS_ANGLE (1 + d): a motion's labels may count c_p as 0
        # (c_p <= EPS_ANGLE) or not; (G, T) and the angles keep no such edge
        U = census_frame(census_cosines(near, EPS_ANGLE * (1 + d)))
        assert same_orbit(U, random_sp(U.n, seed=seed).apply_frame(U)) is True

    @pytest.mark.parametrize("a, b", [
        (partial(census_frame, delta_sign=-1), partial(census_frame, delta_sign=1)),
        (partial(census_frame, xi=0.3), partial(census_frame, xi=0.3001)),
        (census_frame, partial(census_frame, np.cos((1.2, 1.3, 1.40001)))),
        (partial(census_frame, xi=0.3, eta=0.1), partial(census_frame, xi=-0.3, eta=-0.1)),
        # xi 0.2 apart at c_I = 1e-7: G_IJ = c_I c_J xi differs by 5e-9, far
        # below an unscaled tol, far above tol c_I c_J
        (partial(census_frame, census_cosines([0], 1e-7), xi=0.3),
         partial(census_frame, census_cosines([0], 1e-7), xi=0.5)),
        # theta_J = theta_K 1e-3 against 1.2e-3: G_JJ and G_KK differ by 4.4e-7,
        # below tol c_J^2, but the angles by 2e-4
        (partial(make_i_complex_4, 2, 1e-3), partial(make_i_complex_4, 2, 1.2e-3)),
    ], ids=["delta-sign", "xi", "theta-k", "xi-eta-sign", "xi-at-small-c", "small-theta"])
    def test_different_orbits_read_different(self, a, b):
        U, W = a(), b()
        assert same_orbit(U, random_sp(W.n, seed=1).apply_frame(W)) is False
        assert same_orbit(W, U) is False

    @pytest.mark.parametrize("theta", [0.0, 1e-8, 1e-3])
    def test_small_angle_motions_read_same(self, theta):
        # near theta = 0 the measured angle moves by up to sqrt(roundoff) ~ 1e-8
        U = make_i_complex_4(2, theta)
        assert all(same_orbit(U, random_sp(2, seed=seed).apply_frame(U)) for seed in range(10))


class TestChainsLeaveMainPaths:
    def test_no_chain_is_built(self, monkeypatch):
        # the profile, label, decision, decomposition, oracle and generators
        # read the forms; the chains stay the paper's construction only
        def forbidden(*args, **kwargs):
            raise AssertionError("a main path built a chain")

        plane = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        inputs = plane, direct_sum([plane] * 3), random_sp(4, seed=1).apply_frame(graph_sum(2))
        for module in (analysis, orbits, generators):
            for name in ("build_chains", "gamma_delta", "companions"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        for U in inputs:
            full_profile(U)
            orbit_label(U)
            assert same_orbit(U, U)
            decompose(U, seed=1)
            invariance_oracle(U, 2, seed=1)
        direct_sum([make_profile_4(*DUAL_ARGS)] * 2)


class TestCertifiedNearPm1:
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_perturbed_sums_are_measured(self, parts):
        # certified with 3e-9 noise, xi = -0.9945 and chi = -0.9972: the chain
        # cross-checks divided that defect by s_xi s_chi ~ 0.008 and refused
        U = perturbed_graph_sum(7, parts)
        prof = full_profile(U)
        assert (prof.gamma, prof.delta) == pytest.approx((0.639964, -0.7684049), abs=1e-6)
        assert abs(1.0 - prof.gamma**2 - prof.delta**2) < 1e-12
        dec = decompose(U)
        assert sum(a.dim for a in dec.addends) == U.dim

    def test_labels_agree_across_part_counts(self):
        labels = [orbit_label(perturbed_graph_sum(7, parts)).as_array() for parts in (1, 2, 3)]
        for a in labels:
            for b in labels:
                assert np.max(np.abs(a - b)) < EPS_ORBIT


class TestNearThreshold:
    """make_profile_4(1.2, 1.3, 1.4, xi, 0.2, eta) with Gamma = 0.5 and xi
    around the +/-1 threshold 1 - EPS_PM1, under Sp(n) motions."""

    label_from_invariants = staticmethod(bench_workloads().label_from_invariants)

    @staticmethod
    def profile(xi, chi=0.2, gamma=0.5):
        eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
        return make_profile_4(1.2, 1.3, 1.4, xi, chi, eta)

    def test_verdicts_at_the_convention_edge_decided(self):
        # xi at 1 - EPS_PM1, whose label takes neither side, against xi = 1 - 1.02e-8
        # and 1 - 1.05e-8: T = c_I c_J c_K s_xi s_chi Delta differs by 1.19 and 2.96
        # times its allowance (G_JK, through eta, by 0.69 and 1.71), so both read no,
        # and Sp(n) motions of it read yes
        at = self.profile(1 - EPS_PM1)
        assert same_orbit(at, self.profile(1 - 1.02e-8)) is False
        assert same_orbit(at, self.profile(1 - 1.05e-8)) is False
        for seed in range(3):
            assert same_orbit(at, random_sp(at.n, seed=seed).apply_frame(at)) is True

    @pytest.mark.parametrize("sign, e", [(s, e) for s in (-1, 1) for e in range(9, 16)] + [(0, 0)])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 2))
    def test_never_a_wrong_label(self, sign, e, seed):
        xi, chi, gamma = 1.0 - EPS_PM1 + sign * 10.0**-e, 0.2, 0.5
        eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
        U = make_profile_4(1.2, 1.3, 1.4, xi, chi, eta)
        want = self.label_from_invariants([1.2, 1.3, 1.4], xi, chi, eta, -np.sqrt(1 - gamma**2))
        A, B = (random_sp(U.n, seed=s).apply_frame(U) for s in (seed, seed + 1))
        try:
            got = orbit_label(A)
        except FalsificationError as exc:
            # refused only where the side is within reach of roundoff
            assert sign == 0 or e > 12
            assert re.search(r"\|xi\| lies \d\.\d{3}e[+-]\d+ from 1 - EPS_PM1, within "
                             r"its error bound \d\.\d{3}e-\d+", str(exc))
        else:
            assert np.max(np.abs(got.as_array() - want)) < EPS_ORBIT
        assert same_orbit(A, B) is True


class TestSigmaLaw:
    SIGNS = [(1, 1), (-1, -1), (1, -1), (1, 1, 1, 1), (-1, -1, -1, -1),
             (1, -1, 1, 1), (1, -1, -1, 1)]

    @settings(max_examples=40, deadline=None)
    @given(signs=st.sampled_from(SIGNS), seed=st.integers(0, 2**32 - 1))
    def test_sigma_squared_at_random_leading_vectors(self, signs, seed):
        # Sigma^2 = (1 - Gamma^2)(1 - <x, vol x>^2): zero on sums of one
        # module type (vol = +/-Id), leading-vector dependent on mixed sums
        rng = np.random.default_rng(seed)
        base = random_profile_sum(rng, signs)
        U = random_sp(base.n, seed=seed).apply_frame(base)
        vol = volume_element(U)
        for _ in range(4):
            x = random_unit_in(U, rng)
            prof = chain_profile(U, x)
            sigma2 = 1.0 - prof.gamma**2 - prof.delta**2
            if len(set(signs)) == 1:
                assert abs(sigma2) < 1e-12
            else:
                c = U.vectors @ x
                want = (1.0 - prof.gamma**2) * (1.0 - (c @ vol @ c) ** 2)
                assert sigma2 == pytest.approx(want, rel=0, abs=1e-12)
        # decompose's deterministic test: vol = +/-Id exactly on one type
        if len(set(signs)) == 1:
            _require_one_type(_generators(_forms(U)))
        else:
            with pytest.raises(FalsificationError, match="mixes both module types"):
                _require_one_type(_generators(_forms(U)))


class TestStructuralProps:
    def test_uij_uik_principal_cosines(self, rng):
        # pairs of associated subspaces meet at cosines (1, 1, g, g)
        U = graph_sum(2)
        prof = full_profile(U)
        g = np.sqrt(prof.gamma**2 + prof.delta**2)
        for _ in range(4):
            x1 = rng.standard_normal(8) @ U.vectors
            x1 /= np.linalg.norm(x1)
            uij, uik, _ = associated(U, x1)
            cos = principal_angles(uij, uik).cosines
            npt.assert_allclose(sorted(cos, reverse=True), [1, 1, g, g], atol=1e-8)

    def test_complement_of_uij_is_type_uij(self):
        U = graph_sum(3)
        angles = certify_isoclinic(U)
        uij, _, _ = associated(U, U.vectors[0])
        W = complement_in(U, uij.vectors)
        assert W.dim == 8
        for A, th in zip((I, J), angles[:2]):
            got = isoclinic_pair(W, structure_image(A, W))
            assert got is not None and abs(got - th) < 1e-8