"""Package-level acceptance checks, each at a fixed tolerance.

Every test prints one `ACCEPT <n> pass|FAIL` line so a plain pytest -s run
doubles as the acceptance report. Scales are desk-size (n <= 8, dims <= 16)
and everything is seeded.
"""

import numpy as np

from isoclinic.analysis import (
    build_chains,
    certify_isoclinic,
    full_profile,
    gamma_delta,
    isoclinic_pair,
    isoclinic_profile_angles,
    omega_K_on_UIJ,
    omega_matrix,
    theta_of_A,
)
from isoclinic.errors import FalsificationError, InfeasibleParametersError
from isoclinic.generators import (
    direct_sum,
    graph_subspace,
    make_i_complex_4,
    make_profile_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
    random_sp,
)
from isoclinic.orbits import canonical_matrices, decompose, orbit_label, same_orbit
from isoclinic.quaternions import CompatibleStructure, K
from isoclinic.subspaces import (
    Frame,
    complement,
    principal_angles,
    random_frame,
    structure_image,
)
from conftest import chain_profile

EPS_PM1 = 1e-8


def report(number: int, ok: bool, detail: str = "") -> None:
    status = "pass" if ok else "FAIL"
    print(f"ACCEPT {number} {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} failed: {detail}"


def random_structure(rng) -> CompatibleStructure:
    v = rng.standard_normal(3)
    return CompatibleStructure(*(v / np.linalg.norm(v)))


def random_two_plane(rng) -> Frame:
    while True:
        thetas = rng.uniform(0.0, np.pi / 2, 3)
        if np.sum(np.cos(thetas) ** 2) <= 0.98:
            break
    xi, chi = rng.choice([-1.0, 1.0], 2)
    return make_two_plane(2, *thetas, xi, chi)


SINGLE_PM1_PROFILES = [
    (1.3091, 1.1711, 1.2413, 1.0, -0.849, -0.849),
    (1.3828, 1.3694, 1.3513, -0.2094, -1.0, 0.2094),
    (1.2042, 1.3262, 1.1837, 0.1697, 0.1697, 1.0),
]


def random_family_member(rng) -> Frame:
    kind = rng.integers(0, 6)
    if kind == 0:
        return random_two_plane(rng)
    if kind == 1:
        return graph_subspace(rng.standard_normal(4))
    if kind == 2:
        return direct_sum([graph_subspace(rng.standard_normal(4))] * 2)  # dim 8
    if kind == 3:
        return direct_sum([graph_subspace(rng.standard_normal(4))] * int(rng.integers(3, 5)))
    if kind == 4:
        args = SINGLE_PM1_PROFILES[int(rng.integers(0, len(SINGLE_PM1_PROFILES)))]
        return make_profile_4(*args)
    plane = random_two_plane(rng)
    return direct_sum([plane] * int(rng.integers(2, 4)))  # dims 4..6


def label_vector(label) -> np.ndarray:
    return label.as_array()


# the seed of the fixed samples whose p99 is printed beside a max of
# roundoff-level deviations, which any change of summation order moves
SAMPLE_SEED = 20070505


def group_deviations(rng, runs: int) -> list[float]:
    """Label deviation between a family member and its random Sp(n) motion, per run."""
    deviations = []
    for _ in range(runs):
        U = random_family_member(rng)
        g = random_sp(U.n, seed=int(rng.integers(0, 2**62)))
        lu = label_vector(orbit_label(U))
        lg = label_vector(orbit_label(g.apply_frame(U)))
        deviations.append(float(np.max(np.abs(lu - lg))))
    return deviations


def formula_deviations(rng, runs: int) -> tuple[list[float], list[float]]:
    """|cos^2 theta_A from the invariants - measured| for 8 random structures per
    input, and on dim-4 inputs the trace identity's deviation."""
    pairs, traces = [], []
    for run in range(runs):
        pick = run % 3
        if pick == 0:
            U = graph_subspace(rng.standard_normal(4))
        elif pick == 1:
            U = random_two_plane(rng)
        else:
            U = direct_sum([graph_subspace(rng.standard_normal(4))] * 2)
        prof = full_profile(U)
        for _ in range(8):
            A = random_structure(rng)
            measured = isoclinic_pair(U, structure_image(A, U))
            assert measured is not None
            pairs.append(float(abs(np.cos(theta_of_A(prof, A)) ** 2 - np.cos(measured) ** 2)))
            if U.dim == 4:
                w = omega_matrix(U, A)
                traces.append(float(abs(np.cos(theta_of_A(prof, A)) ** 2 + np.trace(w @ w) / 4.0)))
    return pairs, traces


class TestAcceptance:
    def test_01_group_invariance(self, rng):
        worst = max(group_deviations(rng, 200))
        p99 = np.quantile(group_deviations(np.random.default_rng(SAMPLE_SEED), 1000), 0.99)
        report(1, worst < 1e-6, f"max label deviation over 200 runs: {worst:.3e}"
                                f" (p99 over 1000 seeded runs: {p99:.3e})")

    def test_02_example_catalog(self):
        ok = True
        detail = []

        prof = full_profile(make_quaternionic_line(2))
        got = np.array([*prof.cosines, prof.xi, prof.chi, prof.eta,
                        prof.gamma, prof.delta])
        want = np.array([1, 1, 1, 0, 0, 0, 0, -1])
        dev_q = float(np.max(np.abs(got - want)))
        ok &= dev_q < 1e-9
        detail.append(f"quaternionic {dev_q:.1e}")

        for theta in (0.35, 0.8, 1.2):
            prof = full_profile(make_i_complex_4(2, theta))
            got = np.array([*prof.cosines, prof.xi, prof.chi, prof.eta,
                            prof.gamma, prof.delta])
            want = np.array([1, np.cos(theta), np.cos(theta), 0, 0, 0, 0, -1])
            dev_i = float(np.max(np.abs(got - want)))
            ok &= dev_i < 1e-9

        U = make_totally_complex_4(2)
        cij, cik = canonical_matrices(U)
        dev_t = max(
            float(np.max(np.abs(cij - np.eye(4)))),
            float(np.max(np.abs(cik - np.eye(4)))),
        )
        ok &= dev_t < 1e-9
        detail.append(f"totally-complex {dev_t:.1e}")

        for dim in (2, 4, 6):
            labels = [
                label_vector(orbit_label(make_rhp(6, dim))),
                label_vector(orbit_label(make_rhp(dim, dim))),
            ]
            dev_r = float(np.max(np.abs(labels[0] - labels[1])))
            ok &= dev_r < 1e-9
        detail.append(f"rhp {dev_r:.1e}")
        report(2, ok, "; ".join(detail))

    def test_03_formula_coherence(self, rng):
        pairs, traces = formula_deviations(rng, 100)
        worst_pair, worst_trace = max(pairs), max(traces, default=0.0)
        p99 = np.quantile(formula_deviations(np.random.default_rng(SAMPLE_SEED), 125)[0], 0.99)
        ok = worst_pair < 1e-8 and worst_trace < 1e-10
        report(3, ok, f"pair dev {worst_pair:.3e} (p99 over {125 * 8} seeded pairs: {p99:.3e});"
                      f" dim-4 trace dev {worst_trace:.3e}")

    def test_04_gamma_relation(self, rng):
        # measured on the chains: the library's profile takes Gamma from this
        # relation, which would make the check a tautology
        worst_rel = 0.0
        worst_pm1 = 0.0
        outputs = [graph_subspace(rng.standard_normal(4)) for _ in range(12)]
        outputs += [direct_sum([graph_subspace(rng.standard_normal(4))] * 2)
                    for _ in range(4)]
        outputs += [make_i_complex_4(2, t) for t in (0.3, 0.7, 1.1)]
        # +/-1 families
        pm1_outputs = [make_rhp(4, 4), make_totally_complex_4(2)]
        plane = random_two_plane(rng)
        pm1_outputs.append(direct_sum([plane, plane]))
        pm1_outputs.append(
            direct_sum([make_two_plane(2, np.pi / 2, 0.9, 1.1)] * 2)
        )
        pm1_outputs.append(
            make_profile_4(1.3091, 1.1711, 1.2413, 1.0, -0.849, -0.849)
        )
        pm1_outputs.append(
            make_profile_4(1.2042, 1.3262, 1.1837, 0.1697, 0.1697, 1.0)
        )
        for U in outputs:
            p = chain_profile(U, U.vectors[0])
            if any(abs(v) > 1 - EPS_PM1 for v in (p.xi, p.chi, p.eta)):
                continue
            rel = abs(
                p.eta - p.xi * p.chi
                - np.sqrt((1 - p.xi**2) * (1 - p.chi**2)) * p.gamma
            )
            worst_rel = max(worst_rel, float(rel))
        for U in pm1_outputs:
            p = chain_profile(U, U.vectors[0])
            assert any(abs(v) > 1 - EPS_PM1 for v in (p.xi, p.chi, p.eta))
            worst_pm1 = max(
                worst_pm1, abs(p.gamma - 1.0), abs(p.delta)
            )
        ok = worst_rel < 1e-9 and worst_pm1 < 1e-12
        report(4, ok, f"relation dev {worst_rel:.3e}; pm1 (Gamma,Delta) dev {worst_pm1:.3e}")

    def test_05_chain_well_definedness(self, rng):
        worst_res = 0.0
        for _ in range(100):
            if rng.integers(0, 2):
                U = graph_subspace(rng.standard_normal(4))
            else:
                U = direct_sum([graph_subspace(rng.standard_normal(4))] * 2)
            x1 = rng.standard_normal(U.dim) @ U.vectors
            x1 /= np.linalg.norm(x1)
            ch = build_chains(U, x1)
            if ch.residuals:
                worst_res = max(worst_res, max(ch.residuals.values()))
        worst_spread = 0.0
        for _ in range(3):
            U = direct_sum([graph_subspace(rng.standard_normal(4))] * 2)
            vals = []
            for _ in range(16):
                x1 = rng.standard_normal(U.dim) @ U.vectors
                x1 /= np.linalg.norm(x1)
                ch = build_chains(U, x1)
                vals.append([ch.xi, ch.chi, ch.eta, *gamma_delta(ch)])
            worst_spread = max(worst_spread, float(np.max(np.ptp(vals, axis=0))))
        ok = worst_res < 1e-9 and worst_spread < 1e-8
        report(5, ok, f"identity residual {worst_res:.3e}; invariant spread {worst_spread:.3e}")

    def test_06_decomposition(self, rng):
        ok = True
        details = []
        cases = [
            (direct_sum([random_two_plane(rng)] * 3), 2),       # dim 6
            (direct_sum([graph_subspace(rng.standard_normal(4))] * 3), 4),  # dim 12
            (direct_sum([graph_subspace(rng.standard_normal(4))] * 4), 8),  # dim 16
            (direct_sum([make_quaternionic_line(1)] * 2), 8),   # dim 8
        ]
        for U, want_dim in cases:
            angles = certify_isoclinic(U)
            decs = [decompose(U, seed=s) for s in (11, 23)]
            for dec in decs:
                ok &= dec.addend_dim == want_dim
                ok &= len(dec.addends) == U.dim // want_dim
                for addend in dec.addends:
                    got = isoclinic_profile_angles(addend)
                    ok &= got is not None and bool(
                        np.max(np.abs(np.cos(got) - np.cos(angles))) < 1e-8
                    )
            mats = [canonical_matrices(U, dec.profile) for dec in decs]
            dev = max(
                float(np.max(np.abs(mats[0][0] - mats[1][0]))),
                float(np.max(np.abs(mats[0][1] - mats[1][1]))),
            )
            ok &= dev < 1e-8
            details.append(f"dim{U.dim}:{dev:.1e}")
        report(6, ok, "canonical-matrix seed deviation " + " ".join(details))

    def _delta_pair(self, rng):
        while True:
            thetas = rng.uniform(0.7, np.pi / 2, 3)
            xi, chi = rng.uniform(-0.8, 0.8, 2)
            gamma = rng.uniform(-0.8, 0.8)
            eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
            try:
                up = make_profile_4(*thetas, xi, chi, eta, delta_sign=+1)
                um = make_profile_4(*thetas, xi, chi, eta, delta_sign=-1)
                return up, um
            except (InfeasibleParametersError, FalsificationError):
                continue

    def test_07_orbit_decision_soundness(self, rng):
        ok = True
        for _ in range(100):
            U = random_family_member(rng)
            g = random_sp(U.n, seed=int(rng.integers(0, 2**62)))
            ok &= same_orbit(U, g.apply_frame(U))
        for case in range(100):
            which = case % 3
            if which == 0:  # theta_I differs
                a = make_two_plane(2, 0.8, 1.1, 1.3, 1.0, -1.0)
                b = make_two_plane(2, 0.8 + 0.1 + 0.3 * rng.random(), 1.1, 1.3, 1.0, -1.0)
            elif which == 1:  # xi sign differs
                a = make_two_plane(2, 0.8, 1.1, 1.3, 1.0, 1.0)
                b = make_two_plane(2, 0.8, 1.1, 1.3, -1.0, 1.0)
            else:  # Delta sign differs (dim 4)
                a, b = self._delta_pair(rng)
            ok &= not same_orbit(a, b)
        report(7, ok)

    def test_08_omega_k_law(self, rng):
        worst_entry = 0.0
        worst_gamma = 0.0
        equivalence_ok = True
        seen_nonunit = False

        def one_case(U, angles, x1):
            nonlocal worst_entry, worst_gamma, equivalence_ok, seen_nonunit
            ch = build_chains(U, x1)
            g, d = gamma_delta(ch)
            predicted, gamma_angle = omega_K_on_UIJ(ch)
            measured = omega_matrix(Frame(ch.chain_x), K)
            worst_entry = max(worst_entry, float(np.max(np.abs(predicted - measured))))
            cK = np.cos(angles[2])
            c2 = cK**2 * (g**2 + d**2 + ch.chi**2 * (1 - g**2 - d**2))
            worst_gamma = max(
                worst_gamma, abs(np.cos(gamma_angle) ** 2 - c2)
            )
            unit = abs(g**2 + d**2 - 1.0) < 1e-8 or abs(abs(ch.chi) - 1.0) < 1e-8
            equal = abs(np.cos(gamma_angle) ** 2 - cK**2) < 1e-9
            equivalence_ok &= unit == equal
            if not unit:
                seen_nonunit = True

        # 40 well-posed chains
        for _ in range(40):
            if rng.integers(0, 2):
                U = graph_subspace(rng.standard_normal(4))
            else:
                U = direct_sum([graph_subspace(rng.standard_normal(4))] * 2)
            angles = certify_isoclinic(U)
            x1 = rng.standard_normal(U.dim) @ U.vectors
            x1 /= np.linalg.norm(x1)
            one_case(U, angles, x1)
        # 10 chains on a hand-built mixed sum: exercises gamma != theta_K
        up, um = self._delta_pair(rng)
        vectors = np.zeros((8, 32))
        vectors[:4, :16] = up.vectors
        vectors[4:, 16:] = um.vectors
        mixed = Frame(vectors)
        angles = certify_isoclinic(mixed)
        for _ in range(10):
            x1 = rng.standard_normal(8) @ mixed.vectors
            x1 /= np.linalg.norm(x1)
            one_case(mixed, angles, x1)

        ok = worst_entry < 1e-9 and worst_gamma < 1e-9 and equivalence_ok and seen_nonunit
        report(8, ok, f"entry dev {worst_entry:.3e}; cos^2 dev {worst_gamma:.3e}")

    @staticmethod
    def _nonzero_sorted(angles: np.ndarray) -> np.ndarray:
        # the statements are about the angle multisets after deleting zero
        # angles; a true zero measures as arccos(1 - eps) ~ 4e-8, so the
        # deletion threshold sits far above noise and far below genuine
        # angles of random frames
        a = np.asarray(angles)
        return np.sort(a[a > 1e-5])[::-1]

    def test_09_cs_complement_properties(self, rng):
        worst1 = 0.0
        worst3 = 0.0
        for _ in range(50):
            p = int(rng.integers(1, 9))
            q = int(rng.integers(1, p + 1))
            U = random_frame(4, p, rng)
            W = random_frame(4, q, rng)

            a = self._nonzero_sorted(principal_angles(U, W).angles)
            b = self._nonzero_sorted(
                principal_angles(complement(U), complement(W)).angles
            )
            assert len(a) == len(b)
            if len(a):
                worst1 = max(worst1, float(np.max(np.abs(a - b))))

            comp = principal_angles(U, complement(W)).angles
            ell = max(p - q, 0)
            lhs = np.concatenate([np.full(ell, np.pi / 2),
                                  principal_angles(U, W).angles])
            rhs = np.pi / 2 - comp
            # both endpoint classes (0 and pi/2) are certified by the
            # deletion counts; the interior compares in the angle metric
            lo_l, hi_l, mid_l = self._split_ends(lhs)
            lo_r, hi_r, mid_r = self._split_ends(rhs)
            assert hi_l == hi_r and len(mid_l) == len(mid_r)
            if len(mid_l):
                worst3 = max(worst3, float(np.max(np.abs(mid_l - mid_r))))
        ok = worst1 < 1e-9 and worst3 < 1e-9
        report(9, ok, f"item-1 dev {worst1:.3e}; item-3 dev {worst3:.3e}")

    @staticmethod
    def _split_ends(angles: np.ndarray) -> tuple[int, int, np.ndarray]:
        a = np.asarray(angles)
        low = int(np.sum(a <= 1e-5))
        high = int(np.sum(a >= np.pi / 2 - 1e-5))
        mid = np.sort(a[(a > 1e-5) & (a < np.pi / 2 - 1e-5)])[::-1]
        return low, high, mid
