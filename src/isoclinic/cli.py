"""Command line interface.

Commands: analyze, compare, decompose, generate, verify. Exit codes:
0 on success, 2 when the analysis rejects the input (not isoclinic,
infeasible parameters, falsified mandate), 1 on I/O or document errors.
'-' reads the document from standard input. Identical invocations with
identical seeds produce byte-identical output. The only environment
variable consulted is ISOCLINIC_SEED, a fallback for omitted --seed.
A --seed below 0, --trials below 1 or a --tol that is not finite and
positive is a usage error (exit 2), a bad ISOCLINIC_SEED a document error
(exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, subspaces
from .analysis import IsoclinicProfile
from .errors import DocumentError, InfeasibleParametersError, IsoclinicError, NotIsoclinicError
from .generators import (
    direct_sum,
    embed,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
)
from .io import _admissible_basis, document_from_frame, parse_document, serialize_document
from .orbits import _measured, _same_orbit, canonical_matrices, decompose
from .quaternions import quaternion_from_rotation, right_multiply
from .subspaces import Frame
from .tolerances import EPS_ISO, EPS_ORBIT


def _at_least(minimum: int):
    """argparse type of an integer >= minimum; anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return parse


def _tolerance(text: str) -> float:
    """argparse type of a finite tolerance > 0; anything else is a usage error."""
    try:
        return subspaces._tolerance(text)
    except InfeasibleParametersError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_seed(given: int | None) -> int | None:
    raw = os.environ.get("ISOCLINIC_SEED")
    if given is not None or not raw:
        return given
    try:
        return _at_least(0)(raw)
    except argparse.ArgumentTypeError as exc:
        raise DocumentError(f"ISOCLINIC_SEED: {exc}") from None


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
        try:
            raw = json.loads(_read_text(basis_path))
            if isinstance(raw, dict):
                raw = raw.get("admissible_basis")
            basis = _admissible_basis(raw)
        except (ValueError, DocumentError) as exc:  # not UTF-8, bad JSON, entries or rotation
            raise DocumentError(f"{basis_path}: admissible basis: {exc}") from exc
    if basis is not None:
        # measuring w.r.t. the rotated admissible triple equals measuring the
        # homothety image U v w.r.t. the coordinate triple
        frame = Frame(right_multiply(frame.vectors, quaternion_from_rotation(basis)))
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
        (measured,) = _measured([frame], args.tol)
    except NotIsoclinicError as exc:
        if args.json:
            print(json.dumps({
                "isoclinic": False,
                "witness": list(exc.witness),
                "deviation": exc.deviation,
            }, indent=2))
        else:
            print("not isoclinic")
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


def _cmd_compare(args) -> int:
    # documents of different quaternionic dimension embed into the larger
    # common ambient space before comparison
    U, W = _load_frame(args.file_a), _load_frame(args.file_b)
    n = max(U.n, W.n)
    measured = _measured([embed(U, n, 0), embed(W, n, 0)])
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


_INTEGER = ("an integer", lambda v: type(v) is int, {"type": int})
_NUMBER = ("a number", lambda v: type(v) in (int, float), {"type": float})
# what each key of a generate spec must be, and its option (None: a sum's
# parts, given as --part)
_FIELDS = {
    "n": _INTEGER, "k": _INTEGER, "index": _INTEGER, "theta": _NUMBER, "theta_i": _NUMBER,
    "theta_j": _NUMBER, "theta_k": _NUMBER, "xi": _NUMBER, "chi": _NUMBER,
    "mu": ("a list of 4 numbers",
           lambda v: type(v) is list and len(v) == 4 and all(_NUMBER[1](x) for x in v),
           {"type": float, "nargs": 4, "metavar": ("RE", "I", "J", "K")}),
    "parts": ("a list of objects", lambda v: type(v) is list and all(type(p) is dict for p in v),
              None),
}
_REQUIRED = object()  # the default of a key that has none
# each family's constructor and its keys in argument order, with defaults
_FAMILIES = {
    "rhp": (make_rhp, {"n": 4, "k": 4}),
    "qline": (make_quaternionic_line, {"n": 1, "index": 0}),
    "tcomplex4": (make_totally_complex_4, {"n": 2}),
    "icomplex4": (make_i_complex_4, {"n": 2, "theta": _REQUIRED}),
    "twoplane": (make_two_plane, {"n": 2, "theta_i": _REQUIRED, "theta_j": _REQUIRED,
                                  "theta_k": _REQUIRED, "xi": 1.0, "chi": 1.0}),
    "graph": (graph_subspace, {"mu": None, "n": 2}),  # mu None: drawn from the seed
    "sum": (direct_sum, {"parts": _REQUIRED}),
}


def _generate(spec: dict, seed: int | None) -> Frame:
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise DocumentError(f"unknown family {family!r}")
    make, keys = _FAMILIES[family]
    spec = {key: value for key, value in spec.items() if value is not None}
    for key, (kind, valid, _) in _FIELDS.items():
        if (key in spec or keys.get(key) is _REQUIRED) and not valid(spec.get(key)):
            raise DocumentError(f"{family}: {key!r} must be {kind}, got {spec.get(key)!r}")
    if any(isinstance(v, float) and not np.isfinite(v) for v in spec.values()):
        raise InfeasibleParametersError(f"{family}: parameters must be finite")
    args = {key: spec.get(key, default) for key, default in keys.items()}
    if family == "graph" and args["mu"] is None:
        if seed is None:
            raise InfeasibleParametersError("graph family needs mu or a seed")
        args["mu"] = np.random.default_rng(seed).standard_normal(4)
    if family == "sum":
        args["parts"] = [_generate(p, seed) for p in args["parts"]]
    return make(*args.values())


def _cmd_generate(args) -> int:
    spec = {key: getattr(args, key) for key, (_, _, option) in _FIELDS.items()
            if option is not None}
    spec["family"] = args.family
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
    p.add_argument("--tol", type=_tolerance, default=EPS_ISO)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="decide Sp(n)-orbit equivalence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=_tolerance, default=EPS_ORBIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("decompose", help="orthogonal decomposition into isoclinic addends")
    p.add_argument("file")
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("generate", help="emit an example-family subspace document")
    p.add_argument(
        "family",
        choices=_FAMILIES,
    )
    for key, (_, _, option) in _FIELDS.items():
        if option is not None:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **option)
    p.add_argument("--part", action="append", help="JSON spec of a summand (repeatable)")
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="randomized invariance oracle report")
    p.add_argument("file")
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IsoclinicError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
