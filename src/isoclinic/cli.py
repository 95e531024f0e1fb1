"""Command line interface.

Commands: analyze, compare, decompose, generate, verify. Exit codes:
0 on success, 2 when the analysis rejects the input (not isoclinic,
infeasible parameters, falsified mandate), 1 on I/O or document errors.
'-' reads the document from standard input. Identical invocations with
identical seeds produce byte-identical output. The only environment
variable consulted is ISOCLINIC_SEED, a fallback for omitted --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import IsoclinicProfile
from .errors import (
    DimensionError,
    DocumentError,
    FalsificationError,
    InfeasibleParametersError,
    IsoclinicError,
    NotIsoclinicError,
    RankDeficiencyError,
)
from .generators import (
    direct_sum,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
)
from .io import document_from_frame, parse_document, serialize_document
from .orbits import _measured, _same_orbit, canonical_matrices, decompose
from .quaternions import AdmissibleBasis, basis_change_homothety, right_multiply
from .subspaces import Frame

DEFAULT_TOL = 1e-8


def _resolve_seed(given: int | None) -> int | None:
    if given is not None:
        return given
    raw = os.environ.get("ISOCLINIC_SEED")
    return int(raw) if raw else None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_frame(path: str, basis_path: str | None = None) -> Frame:
    doc = parse_document(_read_text(path))
    frame = doc.to_frame()
    basis = doc.admissible_basis
    if basis_path is not None:
        text = _read_text(basis_path)
        try:
            raw = json.loads(text)
            if isinstance(raw, dict):
                raw = raw.get("admissible_basis")
            basis = AdmissibleBasis(np.asarray(raw, dtype=float))
        except (ValueError, TypeError) as exc:  # bad JSON, entries or rotation
            raise DocumentError(f"{basis_path}: admissible basis: {exc}") from exc
    if basis is not None:
        # measuring w.r.t. the rotated admissible triple equals measuring the
        # homothety image w.r.t. the coordinate triple
        v = basis_change_homothety(basis)
        frame = Frame(right_multiply(frame.vectors, v))
    return frame


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _matrix_lines(M: np.ndarray) -> list[str]:
    return ["  [" + ", ".join(_fmt(v) for v in row) + "]" for row in M]


def _profile_obj(profile: IsoclinicProfile) -> dict:
    return {
        "dim": profile.dim,
        "angles": [profile.theta_i, profile.theta_j, profile.theta_k],
        "cosines": [float(c) for c in profile.cosines],
        "xi": profile.xi,
        "chi": profile.chi,
        "eta": profile.eta,
        "gamma": profile.gamma,
        "delta": profile.delta,
        "addend_dim": profile.dim_class,
    }


def _cmd_analyze(args) -> int:
    frame = _load_frame(args.file, args.basis)
    try:
        measured = _measured(frame, args.tol)
    except NotIsoclinicError as exc:
        if args.json:
            print(json.dumps({
                "isoclinic": False,
                "witness": list(exc.witness) if exc.witness is not None else None,
                "deviation": exc.deviation,
            }, indent=2))
        else:
            print("not isoclinic")
            if exc.witness is not None:
                print(f"witness structure coefficients: {list(exc.witness)}")
                print(f"defect: {_fmt(exc.deviation)}")
        return 2
    label, profile = measured.decided(), measured.profile
    c_ij, c_ik = canonical_matrices(frame, profile)
    if args.json:
        print(json.dumps({
            "isoclinic": True,
            "profile": _profile_obj(profile),
            "orbit_label": list(label.as_array()),
            "canonical_c_ij": c_ij.tolist(),
            "canonical_c_ik": c_ik.tolist(),
        }, indent=2))
        return 0
    print(f"dimension: {profile.dim} (ambient H^{frame.n})")
    print("isoclinic: yes")
    print(
        "angles (radians): theta_I=%s theta_J=%s theta_K=%s"
        % tuple(_fmt(t) for t in (profile.theta_i, profile.theta_j, profile.theta_k))
    )
    print("cosines: %s %s %s" % tuple(_fmt(c) for c in profile.cosines))
    print(
        "invariants: xi=%s chi=%s eta=%s gamma=%s delta=%s"
        % tuple(_fmt(v) for v in (profile.xi, profile.chi, profile.eta,
                                  profile.gamma, profile.delta))
    )
    print(f"addend dimension (class): {profile.dim_class}")
    print("orbit label: [" + ", ".join(_fmt(v) for v in label.as_array()) + "]")
    print("C_IJ:")
    print("\n".join(_matrix_lines(c_ij)))
    print("C_IK:")
    print("\n".join(_matrix_lines(c_ik)))
    return 0


def _pad_to_common_ambient(U: Frame, W: Frame) -> tuple[Frame, Frame]:
    width = max(U.ambient, W.ambient)

    def pad(F: Frame) -> Frame:
        if F.ambient == width:
            return F
        V = np.zeros((F.dim, width))
        V[:, : F.ambient] = F.vectors
        return Frame(V)

    return pad(U), pad(W)


def _cmd_compare(args) -> int:
    # documents of different quaternionic dimension embed into the larger
    # common ambient space before comparison
    U, W = _pad_to_common_ambient(_load_frame(args.file_a), _load_frame(args.file_b))
    measured = _measured(U), _measured(W)
    verdict = _same_orbit(*measured, args.tol)
    label_u, label_w = (m.label() for m in measured)
    if args.json:
        print(json.dumps({
            "same_orbit": verdict,
            "label_a": list(label_u.as_array()),
            "label_b": list(label_w.as_array()),
        }, indent=2))
    else:
        print(f"same orbit: {'yes' if verdict else 'no'}")
        print("label A: [" + ", ".join(_fmt(v) for v in label_u.as_array()) + "]")
        print("label B: [" + ", ".join(_fmt(v) for v in label_w.as_array()) + "]")
    return 0


def _cmd_decompose(args) -> int:
    frame = _load_frame(args.file)
    dec = decompose(frame, seed=_resolve_seed(args.seed))
    out = {
        "addend_dim": dec.addend_dim,
        "profile": _profile_obj(dec.profile),
        "addends": [],
        "addend_profiles": [],
    }
    for i, (addend, profile) in enumerate(zip(dec.addends, dec.addend_profiles)):
        doc = document_from_frame(addend, label=f"addend {i}")
        out["addends"].append(json.loads(serialize_document(doc)))
        out["addend_profiles"].append(_profile_obj(profile))
    print(json.dumps(out, indent=2))
    return 0


def _parse_part(text: str):
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"--part: not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "family" not in spec:
        raise DocumentError("--part: expected an object with a 'family' key")
    return spec


def _generate(spec: dict, seed: int | None) -> Frame:
    family = spec.get("family")
    n = spec.get("n")
    if any(isinstance(v, float) and not np.isfinite(v) for v in spec.values()):
        raise InfeasibleParametersError(f"{family}: parameters must be finite")
    if family == "rhp":
        return make_rhp(n or 4, spec.get("k", 4))
    if family == "qline":
        return make_quaternionic_line(n or 1, spec.get("index", 0))
    if family == "tcomplex4":
        return make_totally_complex_4(n or 2)
    if family == "icomplex4":
        return make_i_complex_4(n or 2, spec["theta"])
    if family == "twoplane":
        return make_two_plane(
            n or 2,
            spec["theta_i"],
            spec["theta_j"],
            spec["theta_k"],
            spec.get("xi", 1.0),
            spec.get("chi", 1.0),
        )
    if family == "graph":
        mu = spec.get("mu")
        if mu is None:
            if seed is None:
                raise InfeasibleParametersError("graph family needs mu or a seed")
            mu = np.random.default_rng(seed).standard_normal(4)
        return graph_subspace(np.asarray(mu, dtype=float), n or 2)
    if family == "sum":
        parts = [_generate(p, seed) for p in spec["parts"]]
        return direct_sum(parts)
    raise DocumentError(f"unknown family {family!r}")


def _cmd_generate(args) -> int:
    spec: dict = {"family": args.family}
    for key, value in (
        ("n", args.n), ("k", args.k), ("index", args.index), ("theta", args.theta),
        ("theta_i", args.theta_i), ("theta_j", args.theta_j), ("theta_k", args.theta_k),
        ("xi", args.xi), ("chi", args.chi),
    ):
        if value is not None:
            spec[key] = value
    if args.mu is not None:
        spec["mu"] = args.mu
    if args.family == "sum":
        if not args.part:
            raise DocumentError("family 'sum' needs at least one --part")
        spec["parts"] = [_parse_part(p) for p in args.part]
    seed = _resolve_seed(args.seed)
    frame = _generate(spec, seed)
    label = args.family if seed is None else f"{args.family} seed={seed}"
    print(serialize_document(document_from_frame(frame, label=label)))
    return 0


def _cmd_verify(args) -> int:
    frame = _load_frame(args.file)
    seed = _resolve_seed(args.seed)
    if seed is None:
        raise DocumentError("verify needs --seed or ISOCLINIC_SEED")
    report = invariance_oracle(frame, trials=args.trials, seed=seed)
    obj = {
        "trials": report.trials,
        "max_profile_deviation": report.max_profile_deviation,
        "max_theta_formula_error": report.max_theta_formula_error,
        "max_eta_relation_error": report.max_eta_relation_error,
        "failures": list(report.failures),
        "passed": report.passed,
    }
    print(json.dumps(obj, indent=2))
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclinic",
        description="Invariants, canonical matrices, decomposition and "
        "Sp(n)-orbit decision for isoclinic subspaces of H^n.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant set and canonical matrices")
    p.add_argument("file", help="subspace document (JSON), '-' for stdin")
    p.add_argument("--basis", help="file with a 3x3 admissible-basis rotation")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="decide Sp(n)-orbit equivalence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("decompose", help="orthogonal decomposition into isoclinic addends")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("generate", help="emit an example-family subspace document")
    p.add_argument(
        "family",
        choices=["rhp", "qline", "tcomplex4", "icomplex4", "twoplane", "graph", "sum"],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-i", dest="theta_i", type=float)
    p.add_argument("--theta-j", dest="theta_j", type=float)
    p.add_argument("--theta-k", dest="theta_k", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--mu", type=float, nargs=4, metavar=("RE", "I", "J", "K"))
    p.add_argument("--part", action="append", help="JSON spec of a summand (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="randomized invariance oracle report")
    p.add_argument("file")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        NotIsoclinicError,
        FalsificationError,
        InfeasibleParametersError,
        RankDeficiencyError,
        DimensionError,
        IsoclinicError,
    ) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
