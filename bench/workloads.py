"""Inputs, operations and ground truth of the four benchmark workloads.

Every input is built from the workload seed by a generator family whose
parameters fix the expected answer: the isoclinicity verdict, the orbit
label (theta_I, theta_J, theta_K, xi, chi, eta, Delta) and, for direct
sums, the addend dimension. Each operation carries a check that judges
its output against that ground truth with code independent of the
library (the structure action and the pair test are re-implemented
here in a few lines of numpy).

The library is reached through its module objects at call time
(`orbits.same_orbit`, not a copied name), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from io import StringIO
from typing import Callable

import numpy as np

from isoclinic import analysis, cli, errors, generators, io, orbits, subspaces

# tolerances of the checks: the library's own gate and label tolerances
ISO_TOL = 1e-8
LABEL_TOL = 1e-6
EPS_PM1 = 1e-8

ORACLE_TRIALS = 3
CLI_VERIFY_TRIALS = 20

# near-threshold band of the orbit decision: xi one EPS_PM1 below +1
NEAR_XI = 1.0 - 1e-8
NEAR_COPIES = 4

CORRECT, WRONG, REFUSED, CRASHED = "correct", "wrong", "refused", "crashed"


# ---------------------------------------------------------------------------
# independent checks


def _structure(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """(aI + bJ + cK) x with I, J, K right multiplication by -i, -j, -k."""
    q = x.reshape(x.shape[:-1] + (-1, 4))
    x0, x1, x2, x3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = (
        a * np.stack([x1, -x0, -x3, x2], axis=-1)
        + b * np.stack([x2, x3, -x0, -x1], axis=-1)
        + c * np.stack([x3, -x2, x1, -x0], axis=-1)
    )
    return out.reshape(x.shape)


def pair_cos2(V: np.ndarray, coeffs) -> tuple[float, float]:
    """(cos^2 theta, defect) of the pair (span V, A span V), V orthonormal rows."""
    G = V @ _structure(V, *coeffs).T
    M = G @ G.T
    c2 = float(np.trace(M)) / V.shape[0]
    return c2, float(np.max(np.abs(M - c2 * np.eye(V.shape[0]))))


def _orthonormal(V: np.ndarray, tol: float = 1e-8) -> bool:
    return float(np.max(np.abs(V @ V.T - np.eye(V.shape[0])))) < tol


def _label_ok(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.max(np.abs(np.asarray(got, dtype=float) - want)) < LABEL_TOL)


def label_from_invariants(thetas, xi, chi, eta, delta) -> np.ndarray:
    """Orbit label the classification assigns to a 4-dim or 8-dim class:
    components within EPS_PM1 of +/-1 snap to their sign and drop Delta."""
    inv = [xi, chi, eta]
    if any(abs(v) > 1.0 - EPS_PM1 for v in inv):
        inv = [float(np.sign(v)) if abs(v) > 1.0 - EPS_PM1 else v for v in inv]
        delta = 0.0
    return np.array([*thetas, *inv, delta], dtype=float)


@dataclass(frozen=True)
class Truth:
    """Ground truth of one input, fixed by its generator's parameters."""

    dim: int
    isoclinic: bool
    label: np.ndarray | None = None
    cos2: tuple[float, float, float] | None = None
    near: bool = False

    @property
    def addend_dim(self) -> int:
        if self.dim % 4 == 2:
            return 2
        return 4 if self.dim % 8 == 4 else 8


def _witness_fails(U: subspaces.Frame, witness) -> bool:
    w = np.asarray(witness, dtype=float)
    return pair_cos2(U.vectors, w / np.linalg.norm(w))[1] >= ISO_TOL


# ---------------------------------------------------------------------------
# generator families with their ground truth


def two_plane(rng, n: int = 2, theta_i: float | None = None, unit: bool = False):
    """Standard 2-plane; xi, chi = +/-1 and eta = xi chi exactly.

    With cos theta_I = 0 the sign of the I-component is free, so the
    label takes xi = +1 and carries the J-K sign relation in chi.
    """
    if unit:
        c = np.abs(rng.standard_normal(3)) + 0.2
        c /= np.linalg.norm(c)
        thetas = np.arccos(c)
    else:
        thetas = rng.uniform(1.0, 1.45, 3)  # cos^2 sum below 1: n = 2 suffices
    if theta_i is not None:
        thetas[0] = theta_i
    xi, chi = (float(s) for s in rng.choice([-1.0, 1.0], 2))
    U = generators.make_two_plane(n, *thetas, xi, chi)
    eta = xi * chi
    if np.cos(thetas[0]) < 1e-12:
        xi, chi = 1.0, eta
    truth = Truth(2, True, np.array([*thetas, xi, chi, eta, 0.0]), tuple(np.cos(thetas) ** 2))
    return U, truth


def _profile_params(rng):
    thetas = rng.uniform(0.3, 1.4, 3)
    xi, chi = rng.uniform(-0.8, 0.8, 2)
    gamma = rng.uniform(-0.9, 0.9)
    eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
    return thetas, xi, chi, eta, gamma


def profile_4(rng):
    """make_profile_4 (n = 4) with feasible random invariants, rejection sampled."""
    for _ in range(1000):
        thetas, xi, chi, eta, gamma = _profile_params(rng)
        sign = int(rng.choice([-1, 1]))
        try:
            U = generators.make_profile_4(*thetas, xi, chi, eta, delta_sign=sign)
        except errors.InfeasibleParametersError:
            continue
        delta = sign * np.sqrt(1.0 - gamma**2)
        label = label_from_invariants(thetas, xi, chi, eta, delta)
        return U, Truth(4, True, label, tuple(np.cos(thetas) ** 2))
    raise RuntimeError("no feasible make_profile_4 parameters in 1000 draws")


def near_threshold_4():
    """make_profile_4(1.2, 1.3, 1.4, 1 - 1e-8, 0.2, eta) with Gamma = 0.5."""
    thetas, xi, chi, gamma = np.array([1.2, 1.3, 1.4]), NEAR_XI, 0.2, 0.5
    eta = xi * chi + np.sqrt((1 - xi**2) * (1 - chi**2)) * gamma
    U = generators.make_profile_4(*thetas, xi, chi, eta)
    label = label_from_invariants(thetas, xi, chi, eta, -np.sqrt(1 - gamma**2))
    return U, Truth(4, True, label, tuple(np.cos(thetas) ** 2), near=True)


def _quaternion_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return np.array([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ])


def graph_truth(mu: np.ndarray) -> Truth:
    """Invariants of the graph {(q, q mu)} in closed form.

    Identifying U with H through q -> (q, q mu), the A-Kaehler form is
    right multiplication by w_A = -(e_A + |mu|^2 mu e_A mu^-1) / (1 + |mu|^2).
    Then cos theta_A = |w_A|, the cross terms of cos^2 theta_A give
    xi, chi, eta, and the forms share the upper sign pattern, so
    Delta = -sqrt(1 - Gamma^2).
    """
    m = float(mu @ mu)
    conj = mu * np.array([1.0, -1.0, -1.0, -1.0])
    ws = []
    for e in np.eye(4)[1:]:
        turned = _quaternion_mul(_quaternion_mul(mu, e), conj) / m if m else e
        ws.append(-(e + m * turned)[1:] / (1.0 + m))
    cs = [float(np.linalg.norm(w)) for w in ws]
    xi = float(ws[0] @ ws[1]) / (cs[0] * cs[1])
    chi = float(ws[0] @ ws[2]) / (cs[0] * cs[2])
    eta = float(ws[1] @ ws[2]) / (cs[1] * cs[2])
    gamma = (eta - xi * chi) / np.sqrt((1 - xi**2) * (1 - chi**2))
    label = label_from_invariants(np.arccos(np.clip(cs, -1, 1)), xi, chi, eta,
                                  -np.sqrt(max(0.0, 1 - gamma**2)))
    return Truth(4, True, label, tuple(c**2 for c in cs))


def graph(rng):
    mu = rng.standard_normal(4)
    return generators.graph_subspace(mu, 2), graph_truth(mu)


def quaternionic_line():
    """H e_0 in H^2, the graph of mu = 0: all angles 0, Delta = -1."""
    return generators.make_quaternionic_line(2), graph_truth(np.zeros(4))


def i_complex(rng):
    theta = float(rng.uniform(0.3, 1.3))
    truth = Truth(4, True, np.array([0.0, theta, theta, 0.0, 0.0, 0.0, -1.0]),
                  (1.0, np.cos(theta) ** 2, np.cos(theta) ** 2))
    return generators.make_i_complex_4(2, theta), truth


# at cos theta_J = cos theta_K = 0 the chain conventions set xi = chi =
# eta = 1 and Delta = 0; these two labels are those conventions
def totally_complex():
    label = np.array([0.0, np.pi / 2, np.pi / 2, 1.0, 1.0, 1.0, 0.0])
    return generators.make_totally_complex_4(2), Truth(4, True, label, (1.0, 0.0, 0.0))


def rhp(n: int, k: int):
    label = np.array([np.pi / 2] * 3 + [1.0, 1.0, 1.0, 0.0])
    return generators.make_rhp(n, k), Truth(k, True, label, (0.0, 0.0, 0.0))


def direct_sum(part, truth: Truth, count: int):
    """Sum of `count` copies of one part; its label is the part's."""
    U = generators.direct_sum([part] * count)
    return U, Truth(truth.dim * count, True, truth.label, truth.cos2)


def mixed_sign(rng, planes: int):
    """Sum of same-angle 2-planes of H^1 with alternating xi: the I, J, K
    pairs pass, mixed structures fail (test_analysis' counterexample)."""
    c = np.abs(rng.standard_normal(3)) + 0.2
    c /= np.linalg.norm(c)
    thetas = np.arccos(c)
    V = np.zeros((2 * planes, 4 * planes))
    for p in range(planes):
        V[2 * p : 2 * p + 2, 4 * p : 4 * p + 4] = generators.make_two_plane(
            1, *thetas, (-1.0) ** p, 1.0).vectors
    return subspaces.Frame(V), Truth(2 * planes, False)


def moved(U: subspaces.Frame, rng) -> subspaces.Frame:
    g = generators.random_sp(U.n, seed=int(rng.integers(2**62)))
    return g.apply_frame(U)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One operation of a workload: `call` runs it, `judge` sorts its outcome."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool] | None = None
    expect_reject: subspaces.Frame | None = None
    near: bool = False

    def judge(self, result, exc: BaseException | None) -> str:
        if exc is None:
            if self.expect_reject is not None:
                return WRONG
            return CORRECT if self.check(result) else WRONG
        if self.expect_reject is not None and isinstance(exc, errors.NotIsoclinicError):
            ok = exc.witness is not None and _witness_fails(self.expect_reject, exc.witness)
            return CORRECT if ok else WRONG
        if isinstance(exc, errors.IsoclinicError):
            return REFUSED
        return CRASHED


def analyze(U: subspaces.Frame):
    """The CLI's analyze path: profile, canonical matrices, orbit label."""
    prof = analysis.full_profile(U)
    c_ij, c_ik = orbits.canonical_matrices(U, prof)
    return prof, c_ij, c_ik, orbits.orbit_label(U)


def _check_analyze(truth: Truth):
    def check(result) -> bool:
        prof, c_ij, c_ik, label = result
        cos2 = np.array(prof.cosines) ** 2
        return (
            prof.dim == truth.dim
            and label.dim == truth.dim
            and bool(np.max(np.abs(cos2 - np.array(truth.cos2))) < LABEL_TOL)
            and _label_ok(label.as_array(), truth.label)
            and c_ij.shape == (truth.dim, truth.dim)
            and _orthonormal(c_ij) and _orthonormal(c_ik)
        )
    return check


def analyze_op(U: subspaces.Frame, truth: Truth) -> Op:
    if not truth.isoclinic:
        return Op("reject", lambda: analyze(U), expect_reject=U)
    return Op("analyze", lambda: analyze(U), _check_analyze(truth), near=truth.near)


def compare_op(U, W, same: bool, near: bool = False) -> Op:
    return Op("compare", lambda: orbits.same_orbit(U, W), lambda got: got is same, near=near)


def _check_decomposition(U: subspaces.Frame, truth: Truth):
    def check(dec) -> bool:
        if dec.addend_dim != truth.addend_dim:
            return False
        if any(a.dim != truth.addend_dim for a in dec.addends):
            return False
        V = np.vstack([a.vectors for a in dec.addends])
        if V.shape[0] != U.dim or not _orthonormal(V):
            return False
        # the addends span U
        if float(np.max(np.abs(U.vectors - (U.vectors @ V.T) @ V))) > 1e-8:
            return False
        for a in dec.addends:
            for coeffs, want in zip(np.eye(3), truth.cos2):
                c2, defect = pair_cos2(a.vectors, coeffs)
                if defect >= ISO_TOL or abs(c2 - want) > LABEL_TOL:
                    return False
        return True
    return check


def decompose_op(U, truth: Truth, seed: int) -> Op:
    return Op("decompose", lambda: orbits.decompose(U, seed=seed), _check_decomposition(U, truth))


def oracle_op(U, seed: int) -> Op:
    def check(report) -> bool:
        return report.passed and report.trials == ORACLE_TRIALS
    return Op("oracle", lambda: generators.invariance_oracle(U, ORACLE_TRIALS, seed), check)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    ops: list[Op]
    documents: dict[str, str] = field(default_factory=dict)
    commands: list["Command"] = field(default_factory=list)


def build_catalog(seed: int) -> Workload:
    """Small inputs (dim 2-8, n 1-4) of every family, each moved by Sp(n).

    Strata: generic interior, exact +/-1 (2-plane sums, snapped conventions
    of totally complex and r.h.p. inputs), pi/2 (r.h.p., totally complex,
    a 2-plane with theta_I = pi/2), the near-threshold band (NEAR_COPIES
    motions of one input), and two non-isoclinic mixed-sign sums (dims 4
    and 8): 2 of the 17 inputs, 2 of the 37 operations of a cycle.
    """
    rng = np.random.default_rng([seed, 1])
    unit_plane, unit_truth = two_plane(rng, n=1, unit=True)
    families = [
        two_plane(rng),
        two_plane(rng, theta_i=np.pi / 2),
        profile_4(rng),
        graph(rng),
        quaternionic_line(),
        i_complex(rng),
        totally_complex(),
        rhp(2, 2),
        rhp(4, 4),
        direct_sum(*graph(rng), 2),
        direct_sum(unit_plane, unit_truth, 3),
        mixed_sign(rng, 2),
        mixed_sign(rng, 4),
    ] + [near_threshold_4()] * NEAR_COPIES
    # same family, other parameters: labels differ, same dim and ambient
    others = [
        (0, two_plane(rng)),
        (2, profile_4(rng)),
        (3, graph(rng)),
        (5, i_complex(rng)),
        (9, direct_sum(*graph(rng), 2)),
    ]
    ops: list[Op] = []
    moved_inputs = []
    for U, truth in families:
        gU = moved(U, rng)
        moved_inputs.append(gU)
        ops.append(analyze_op(gU, truth))
        if truth.isoclinic:
            ops.append(compare_op(gU, moved(U, rng), True, near=truth.near))
    for index, (W, _) in others:
        ops.append(compare_op(moved_inputs[index], moved(W, rng), False))
    return Workload("catalog", ops)


def build_wide(seed: int) -> Workload:
    """Sp(n)-moved sums of matched parts, dim 16-64 (n up to 64), covering
    the classes 2 mod 4, 4 mod 8 and 0 mod 8, the latter also through the
    decomposable 2-plane branch of eight_dim_addend."""
    rng = np.random.default_rng([seed, 2])
    inputs = [
        direct_sum(*two_plane(rng), 8),    # dim 16, n 16: 2-plane 8-dim addends
        direct_sum(*two_plane(rng), 9),    # dim 18, n 18: class 2
        direct_sum(*graph(rng), 5),        # dim 20, n 10: class 4
        direct_sum(*two_plane(rng), 15),   # dim 30, n 30: class 2
        direct_sum(*profile_4(rng), 8),    # dim 32, n 32: class 8
        direct_sum(*graph(rng), 9),        # dim 36, n 18: class 4
        direct_sum(*graph(rng), 12),       # dim 48, n 24: class 8
        direct_sum(*profile_4(rng), 16),   # dim 64, n 64: class 8
    ]
    ops = []
    for U, truth in inputs:
        gU = moved(U, rng)
        ops.append(decompose_op(gU, truth, int(rng.integers(2**31))))
        ops.append(analyze_op(gU, truth))
    return Workload("wide", ops)


def build_oracle(seed: int) -> Workload:
    """invariance_oracle with ORACLE_TRIALS trials on dim 4-16 (n 2-16)."""
    rng = np.random.default_rng([seed, 3])
    inputs = [
        profile_4(rng),                    # dim 4, n 4
        graph(rng),                        # dim 4, n 2
        direct_sum(*graph(rng), 2),        # dim 8, n 4
        direct_sum(*two_plane(rng), 4),    # dim 8, n 8
        direct_sum(*graph(rng), 3),        # dim 12, n 6
        direct_sum(*profile_4(rng), 4),    # dim 16, n 16
    ]
    return Workload("oracle", [oracle_op(moved(U, rng), int(rng.integers(2**31)))
                               for U, _ in inputs])


def _doc(U: subspaces.Frame, label: str) -> str:
    return io.serialize_document(io.document_from_frame(U, label=label))


@dataclass
class Command:
    """One CLI invocation with its expected exit code and output check."""

    kind: str
    args: list[str]
    exit_code: int
    check: Callable[[str], bool]


def _text_label(stdout: str) -> np.ndarray:
    line = next(ln for ln in stdout.splitlines() if ln.startswith("orbit label: "))
    return np.array(json.loads(line[len("orbit label: "):]))


def _text_witness(stdout: str) -> list[float]:
    prefix = "witness structure coefficients: "
    line = next(ln for ln in stdout.splitlines() if ln.startswith(prefix))
    return json.loads(line[len(prefix):])


def build_cli(seed: int) -> Workload:
    """Documents for the five CLI commands, and per command its expected
    exit code and a check of its output against the documents' truth."""
    rng = np.random.default_rng([seed, 4])
    U, truth = profile_4(rng)
    W, _ = profile_4(rng)
    M, _ = mixed_sign(rng, 2)
    S, sum_truth = direct_sum(*graph(rng), 2)
    gM, gS = moved(M, rng), moved(S, rng)
    documents = {
        "generic.json": _doc(moved(U, rng), "generic"),
        "generic_moved.json": _doc(moved(U, rng), "generic moved"),
        "other.json": _doc(moved(W, rng), "other"),
        "mixed.json": _doc(gM, "mixed sign"),
        "sum.json": _doc(gS, "graph sum"),
    }
    s = str(int(rng.integers(2**31)))

    def decomposed(out: str) -> bool:
        obj = json.loads(out)
        V = np.vstack([np.array(a["vectors"]) for a in obj["addends"]])
        return (obj["addend_dim"] == sum_truth.addend_dim
                and V.shape[0] == sum_truth.dim and _orthonormal(V)
                and float(np.max(np.abs(gS.vectors - (gS.vectors @ V.T) @ V))) < 1e-8)

    def verified(out: str) -> bool:
        obj = json.loads(out)
        return obj["passed"] is True and obj["trials"] == CLI_VERIFY_TRIALS

    commands = [
        Command("cli_analyze", ["analyze", "generic.json"], 0,
                lambda out: "isoclinic: yes" in out and _label_ok(_text_label(out), truth.label)),
        Command("cli_analyze", ["analyze", "generic.json", "--json"], 0,
                lambda out: json.loads(out)["isoclinic"] is True
                and _label_ok(json.loads(out)["orbit_label"], truth.label)),
        Command("cli_analyze", ["analyze", "mixed.json"], 2,
                lambda out: out.startswith("not isoclinic")
                and _witness_fails(gM, _text_witness(out))),
        Command("cli_compare", ["compare", "generic.json", "generic_moved.json"], 0,
                lambda out: out.startswith("same orbit: yes")),
        Command("cli_compare", ["compare", "generic.json", "other.json"], 0,
                lambda out: out.startswith("same orbit: no")),
        Command("cli_decompose", ["decompose", "sum.json", "--seed", s], 0, decomposed),
        Command("cli_verify", ["verify", "sum.json", "--trials", str(CLI_VERIFY_TRIALS),
                               "--seed", s], 0, verified),
    ]
    return Workload("cli", [], documents, commands)


BUILDERS = {"catalog": build_catalog, "wide": build_wide, "oracle": build_oracle, "cli": build_cli}


def build(name: str, seed: int) -> Workload:
    """Generate a workload's inputs from its seed (the work setup_s times)."""
    return BUILDERS[name](seed)


# ---------------------------------------------------------------------------
# CLI commands as processes


def cli_env(src: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ISOCLINIC_SEED"}
    env["PYTHONPATH"] = src
    return env


def _in_process(argv: list[str]) -> tuple[int, str]:
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# peak resident memory of any CLI process run so far, in KiB
cli_peak_rss_kb = 0


def _command(argv: list[str], env: dict[str, str]) -> tuple[int, bytes]:
    """Run one CLI command as a process; return (exit code, stdout) and
    keep its peak resident memory in cli_peak_rss_kb."""
    global cli_peak_rss_kb
    proc = subprocess.Popen([sys.executable, "-m", "isoclinic.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: tell Popen
    cli_peak_rss_kb = max(cli_peak_rss_kb, usage.ru_maxrss)
    return proc.returncode, out


def cli_ops(workload: Workload, workdir: str, src: str) -> tuple[list[Op], list[Callable]]:
    """Write the documents, run every command once in process as the
    reference, and return (process ops, in-process calls).

    A process op is correct when its exit code is the expected one and its
    stdout is byte-identical to the in-process output, which is itself
    checked against ground truth here.
    """
    for name, text in workload.documents.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = cli_env(src)
    ops, calls = [], []
    for cmd in workload.commands:
        argv = [os.path.join(workdir, a) if a in workload.documents else a for a in cmd.args]
        code, reference = _in_process(argv)
        reference_ok = code == cmd.exit_code and cmd.check(reference)
        expected = (cmd.exit_code, reference.encode("utf-8"))

        def run(argv=argv):
            return _command(argv, env)

        ops.append(Op(cmd.kind, run,
                      lambda got, expected=expected, ok=reference_ok: ok and got == expected))
        calls.append(lambda argv=argv: _in_process(argv))
    return ops, calls
