import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import isoclinic
from isoclinic import analysis
from isoclinic.cli import main
from isoclinic.errors import DocumentError
from isoclinic.generators import (direct_sum, graph_subspace, make_i_complex_4,
                                  make_profile_4, make_quaternionic_line, make_rhp,
                                  make_totally_complex_4, make_two_plane, random_sp)
from isoclinic.io import document_from_frame, parse_document, serialize_document
from isoclinic.quaternions import CompatibleStructure, apply_structure
from isoclinic.subspaces import orthonormalize
from isoclinic.tolerances import EPS_ISO, EPS_PM1


class TestDocuments:
    def test_minimal_two_plane(self):
        doc = parse_document('{"quaternionic_dim":1,"vectors":[[1,0,0,0],[0,1,0,0]]}')
        frame = doc.to_frame()
        assert frame.dim == 2 and frame.n == 1

    def test_round_trip_corpus(self, rng):
        docs = []
        for k in range(1, 6):
            rows = rng.standard_normal((k, 8)).tolist()
            docs.append({"quaternionic_dim": 2, "vectors": rows})
        docs.append({"quaternionic_dim": 1, "vectors": [[1, 0, 0, 0]],
                     "label": "line"})
        docs.append({"quaternionic_dim": 1, "vectors": [[0.5, 0.25, 0, 0]],
                     "admissible_basis": np.eye(3).tolist()})
        for k in range(3):
            rows = (rng.standard_normal((2, 4)) * 10.0**k).tolist()
            docs.append({"quaternionic_dim": 1, "vectors": rows, "label": f"c{k}"})
        assert len(docs) == 10
        for obj in docs:
            text = serialize_document(parse_document(json.dumps(obj)))
            again = serialize_document(parse_document(text))
            assert text == again
            parsed = parse_document(text)
            npt.assert_array_equal(parsed.vectors, np.array(obj["vectors"]))

    def test_wrong_row_length_names_index(self):
        with pytest.raises(DocumentError, match=r"vectors\[1\]"):
            parse_document('{"quaternionic_dim":1,"vectors":[[1,0,0,0],[1,0,0]]}')

    def test_non_number_entry_names_path(self):
        with pytest.raises(DocumentError, match=r"vectors\[0\]\[2\]"):
            parse_document('{"quaternionic_dim":1,"vectors":[[1,0,"x",0]]}')

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_entry_names_path(self, text):
        with pytest.raises(DocumentError, match=r"vectors\[1\]\[2\]: expected a finite number"):
            parse_document('{"quaternionic_dim":1,"vectors":[[1,0,0,0],[0,1,%s,0]]}' % text)

    def test_deep_nesting_refused(self):
        with pytest.raises(DocumentError,
                           match="^document: not valid JSON: maximum recursion depth exceeded"):
            parse_document("[" * 100000 + "]" * 100000)

    def test_integer_too_long_to_convert(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            parse_document('{"quaternionic_dim":1,"vectors":[[1,0,0,%s]]}' % ("1" * 5000))

    def test_non_finite_basis_entry_names_path(self):
        with pytest.raises(DocumentError, match=r"admissible_basis\[2\]\[2\]"):
            parse_document('{"quaternionic_dim":1,"vectors":[[1,0,0,0]],'
                           '"admissible_basis":[[1,0,0],[0,1,0],[0,0,NaN]]}')

    def test_unknown_key_rejected(self):
        with pytest.raises(DocumentError, match="unknown keys"):
            parse_document('{"quaternionic_dim":1,"vectors":[[1,0,0,0]],"extra":1}')

    def test_missing_dim_rejected(self):
        with pytest.raises(DocumentError, match="quaternionic_dim"):
            parse_document('{"vectors":[[1,0,0,0]]}')

    def test_bad_basis_rejected(self):
        bad = {
            "quaternionic_dim": 1,
            "vectors": [[1, 0, 0, 0]],
            "admissible_basis": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        }
        with pytest.raises(DocumentError, match="admissible_basis"):
            parse_document(json.dumps(bad))

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "document root: expected an object, got list"),
        ('{"quaternionic_dim": true, "vectors": [[1,0,0,0]]}',
         "quaternionic_dim: expected a positive integer, got True"),
        ('{"quaternionic_dim": 1, "vectors": []}', "vectors: expected a non-empty list of rows"),
        ('{"quaternionic_dim": 1, "vectors": [1]}', "vectors[0]: expected a list of numbers"),
        ('{"quaternionic_dim": 1, "vectors": [[1,0,0,0]], "label": 5}',
         "label: expected a string, got int"),
    ], ids=["root-list", "dim-bool", "no-rows", "row-number", "label-int"])
    def test_malformed_document_refused_by_name(self, text, message):
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            parse_document(text)

    def test_frame_document_round_trip(self):
        U = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        doc = parse_document(serialize_document(document_from_frame(U, "p")))
        npt.assert_allclose(doc.to_frame().vectors, U.vectors, atol=1e-15)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_document(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(serialize_document(document_from_frame(graph_subspace(0.5))))
    return path


def perturbed_graph_document(tmp_path):
    """A graph subspace moved off isoclinicity: sup pair defect about 1.55e-8."""
    base = graph_subspace(np.array([0.3, 0.4, -0.2, 0.6]))
    rng = np.random.default_rng(1)
    U = orthonormalize(base.vectors + 1e-8 * rng.standard_normal(base.vectors.shape))
    path = tmp_path / "perturbed.json"
    path.write_text(serialize_document(document_from_frame(U)))
    return path


class TestCli:
    def test_generate_then_analyze(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "qline", "--n", "2")
        assert code == 0
        path = tmp_path / "line.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 0
        result = json.loads(out)
        assert result["isoclinic"] is True
        npt.assert_allclose(result["profile"]["cosines"], [1, 1, 1], atol=1e-12)

    def test_compare_rhp_documents(self, capsys, tmp_path):
        # different quaternionic dims: compare embeds into the common space
        for name, n in (("a", 4), ("b", 6)):
            doc = document_from_frame(make_rhp(n, 4))
            (tmp_path / f"{name}.json").write_text(serialize_document(doc))
        code, out, _ = run_cli(
            capsys, "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
            "--json",
        )
        assert code == 0
        assert json.loads(out)["same_orbit"] is True

    def test_compare_refuses_another_dim_before_measuring(self, capsys, tmp_path):
        # a non-isoclinic dim-4 document against a dim-2 one: dims are checked
        # first, so the refusal names them, not the first input's gate
        mixed = tmp_path / "mixed.json"
        rows = np.eye(8)[[0, 2, 4, 5]].tolist()
        mixed.write_text(json.dumps({"quaternionic_dim": 2, "vectors": rows}))
        plane = tmp_path / "plane.json"
        plane.write_text(serialize_document(document_from_frame(
            make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0))))
        for a, b, dims in ((mixed, plane, "4 != 2"), (plane, mixed, "2 != 4")):
            code, out, err = run_cli(capsys, "compare", str(a), str(b))
            assert (code, out) == (2, "")
            assert err == f"rejected: same_orbit needs equal dims, got {dims}\n"

    def test_compare_same_ambient(self, capsys, tmp_path):
        for name in ("a", "b"):
            doc = document_from_frame(make_rhp(4, 4))
            (tmp_path / f"{name}.json").write_text(serialize_document(doc))
        code, out, _ = run_cli(
            capsys, "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
            "--json",
        )
        assert code == 0
        assert json.loads(out)["same_orbit"] is True

    def test_analyze_rejects_non_isoclinic(self, capsys, tmp_path):
        rows = np.eye(8)[[0, 2, 4, 5]].tolist()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"quaternionic_dim": 2, "vectors": rows}))
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "not isoclinic" in out
        assert "witness" in out

    def test_analyze_json_rejects_non_isoclinic(self, capsys, tmp_path):
        # the document of the CI step: e0, e2 and the I-complex line span(e4, e5)
        rows = np.eye(8)[[0, 2, 4, 5]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"quaternionic_dim": 2, "vectors": rows.tolist()}))
        code, out, err = run_cli(capsys, "analyze", str(path), "--json")
        assert (code, err) == (2, "")
        assert json.loads(out) == {"isoclinic": False, "witness": [1.0, 0.0, 0.0],
                                   "deviation": 0.5}
        # the witness fails the pair test: G G^T of G = <U, AU> is no multiple of Id
        witness = CompatibleStructure(*json.loads(out)["witness"])
        G = rows @ apply_structure(witness, rows).T
        M = G @ G.T
        defect = np.max(np.abs(M - np.trace(M) / 4 * np.eye(4)))
        assert defect == 0.5 and defect >= EPS_ISO

    def test_compare_decides_across_the_pm1_convention(self, capsys, tmp_path):
        # xi at 1 - EPS_PM1, where the label takes neither side, against xi 1.02e-8
        # below 1: the trace invariants decide, and T tells them apart; the
        # undecided label prints its margin
        paths = []
        for xi in (1 - EPS_PM1, 1 - 1.02e-8):
            eta = xi * 0.2 + np.sqrt((1 - xi**2) * (1 - 0.2**2)) * 0.5
            paths.append(tmp_path / f"xi-{len(paths)}.json")
            paths[-1].write_text(serialize_document(document_from_frame(
                make_profile_4(1.2, 1.3, 1.4, xi, 0.2, eta))))
        code, out, err = run_cli(capsys, "compare", *map(str, paths))
        assert (code, err) == (0, "")
        assert re.fullmatch(r"same orbit: no\nlabel A: undecided \(\|xi\| lies \S+ from "
                            r"1 - EPS_PM1, within its error bound \S+\)\nlabel B: \[.*\]\n", out)

    def test_analyze_tol_applies_to_its_one_gate(self, capsys, tmp_path, monkeypatch):
        path = perturbed_graph_document(tmp_path)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, err) == (2, "")
        assert out.startswith("not isoclinic\n")
        gated = []
        real = analysis._gates

        def counting(forms, tol, *rest):
            gated.append((len(forms), tol))  # one call, with its number of entries
            return real(forms, tol, *rest)

        monkeypatch.setattr(analysis, "_gates", counting)
        code, out, err = run_cli(capsys, "analyze", str(path), "--tol", "1e-6")
        assert (code, err) == (0, "")
        assert "isoclinic: yes" in out and "orbit label: [" in out
        assert gated == [(1, 1e-6)]

    def test_bad_basis_file_is_document_error(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "icomplex4", "--theta", "0.8")
        path = tmp_path / "ic.json"
        path.write_text(out)
        basis_path = tmp_path / "basis.json"
        # entries are checked as a document's admissible_basis: NaN, Infinity,
        # booleans and an integer beyond the float range are refused
        for text in ("[[1, 0, 0], [0, 1, 0], [0, 0, -1]]", "[[1, 0], [0, 1]]",
                     '[[1, "a", 0], [0, 1, 0], [0, 0, 1]]', "not json",
                     "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]",
                     "[[1, 0, 0], [0, Infinity, 0], [0, 0, 1]]",
                     "[[true, false, false], [false, true, false], [false, false, true]]",
                     '{"admissible_basis": [[1, 0, 0], [0, 1, 0], [0, 0, NaN]]}',
                     "[[1" + "0" * 400 + ", 0, 0], [0, 1, 0], [0, 0, 1]]"):
            basis_path.write_text(text)
            code, out, err = run_cli(capsys, "analyze", str(path), "--basis", str(basis_path))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {basis_path}: admissible basis: ")
        basis_path.write_bytes(b"\xff[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")  # not UTF-8
        code, out, err = run_cli(capsys, "analyze", str(path), "--basis", str(basis_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {basis_path}: admissible basis: not valid JSON: "
                              "'utf-8' codec")

    def test_entries_near_the_float_limit_are_analyzed(self, capsys, tmp_path):
        # the rows are rescaled before their norms overflow: no warning, and
        # the frame of the unit document
        outs = []
        for entry in ("1e308", "1"):
            path = tmp_path / f"doc{entry}.json"
            path.write_text('{"quaternionic_dim": 1, "vectors": [[%s, 0, 0, 0], [0, %s, 0, 0]]}'
                            % (entry, entry))
            code, out, err = run_cli(capsys, "analyze", str(path))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        path.write_text('{"quaternionic_dim": 1, "vectors": [[1e308, 1e308, 0, 0]]}')
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("rejected: odd-dimensional isoclinic subspaces")

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/file.json")
        assert code == 1

    def test_malformed_document_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"quaternionic_dim":1,"vectors":[[1,0,0]]}')
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "vectors[0]" in err

    # JSON nested deeper than the decoder's recursion limit
    DEEP = "[" * 100000 + "]" * 100000

    def test_deeply_nested_document_is_document_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: document: not valid JSON: maximum recursion depth exceeded")

    def test_deeply_nested_basis_is_document_error(self, capsys, tmp_path):
        path, basis = graph_document(tmp_path), tmp_path / "deep-basis.json"
        basis.write_text(self.DEEP)
        code, out, err = run_cli(capsys, "analyze", str(path), "--basis", str(basis))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {basis}: admissible basis: not valid JSON: "
                              "maximum recursion depth exceeded")

    def test_deeply_nested_part_is_document_error(self, capsys):
        part = "[" * 5000 + "]" * 5000
        code, out, err = run_cli(capsys, "generate", "sum", "--part", part)
        assert (code, out) == (1, "")
        assert err.startswith("error: --part: not valid JSON: maximum recursion depth exceeded")

    def test_document_not_utf8_is_document_error(self, capsys, tmp_path):
        path = tmp_path / "not-utf8.json"
        path.write_bytes(b"\xff" + graph_document(tmp_path).read_bytes())
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: document: not valid JSON: 'utf-8' codec can't decode "
                              "byte 0xff in position 0")

    def test_oversized_dimension_is_document_error(self, capsys, tmp_path):
        # the rows are checked before the array is sized; numpy refuses a
        # 4e18-wide array without allocating, so this test allocates nothing
        path = tmp_path / "big.json"
        path.write_text('{"quaternionic_dim": 1000000000000000000, "vectors": [[1,0,0,0]]}')
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: vectors[0]: expected 4000000000000000000 numbers "
                       "(4 * quaternionic_dim), got 4\n")

    def test_nan_document_is_document_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"quaternionic_dim": 1, "vectors": [[NaN,0,0,0],[0,1,0,0]]}')
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert "vectors[0][0]: expected a finite number" in err

    @pytest.mark.parametrize("argv", [
        ["twoplane", "--theta-i", "nan", "--theta-j", "1", "--theta-k", "1"],
        ["icomplex4", "--theta", "inf"],
        ["sum", "--part", '{"family": "icomplex4", "theta": NaN}'],
    ])
    def test_non_finite_generate_parameter_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 2
        assert out == ""
        assert "parameters must be finite" in err

    def test_generate_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "generate", "graph", "--seed", "7")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv,digest", [
        (["rhp"], "c2ddac15efef45c873bbb0ae20482e09b4570d94fb7a8cfb7880caf79e213252"),
        (["qline"], "4d499a01d5dd85c135846f846aa2af9333e8e6deed6a1bcf95927fa9e0a7dcf2"),
        (["tcomplex4"], "346b3a7a5ae78d50fe90cbf7d08d1983cb56fa2f04d7a09f8739c813062db501"),
        (["icomplex4", "--theta", "0"],
         "06ba43b3f2810d4557e5c89c85c6836bfd2eb7206137216e75146a0ae3e2a275"),
        (["icomplex4", "--theta", "0.8"],
         "6cae7f27419d8ab2828224b3717e7d8d090b853c5b2e345a3012a572c97322ab"),
        (["twoplane", "--n", "1", "--theta-i", "0", "--theta-j", "1.5707963267948966",
          "--theta-k", "1.5707963267948966"],
         "0c0a192ceab40c7197c6f1fa99eb8d0134cd6ddcc7bd6ac09871ffcd3f5b937b"),
        (["twoplane", "--theta-i", "0.9", "--theta-j", "1.1", "--theta-k", "1.5707963267948966"],
         "aa5abdc50fcf4fca9c23a20ee3d5dacabe5b3a42dd220fe4df4bdadabb8f3919"),
        (["graph", "--seed", "1"],
         "74c09179cbc13c62cd8e5ea3135c52cd35734f1ed16910c8f67b8c4e3c0b0cab"),
        (["sum", "--part", '{"family": "tcomplex4"}',
          "--part", '{"family": "icomplex4", "theta": 1.5707963267948966}'],
         "38ba4644675f5c35cbdfe2caa65a83a00877a36e5e55399cc555d7400d99cb15"),
    ], ids=["rhp", "qline", "tcomplex4", "icomplex4-0", "icomplex4-0.8", "twoplane-n1",
            "twoplane-K-pi/2", "graph", "sum"])
    def test_generate_bytes_pinned(self, capsys, monkeypatch, argv, digest):
        # every byte of the document, the signs of its zeros (-0.0 from the
        # structure action and its negations) included
        monkeypatch.delenv("ISOCLINIC_SEED", raising=False)
        code, out, err = run_cli(capsys, "generate", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_generate_sum_with_parts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "generate", "sum",
            "--part", '{"family":"qline","n":1}',
            "--part", '{"family":"qline","n":1}',
        )
        assert code == 0
        doc = parse_document(out)
        assert doc.to_frame().dim == 8 and doc.quaternionic_dim == 2

    def test_decompose_command(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "generate", "sum",
            "--part", '{"family":"qline","n":1}',
            "--part", '{"family":"qline","n":1}',
        )
        path = tmp_path / "sum.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--seed", "3")
        assert code == 0
        result = json.loads(out)
        assert result["addend_dim"] == 8
        assert len(result["addends"]) == 1
        assert len(result["addend_profiles"]) == 1

    def test_decompose_gates_each_frame_once(self, capsys, tmp_path, monkeypatch):
        # one gate for the input and one for its 8-dim addend, whose profile
        # is read off that re-certification's forms
        code, out, _ = run_cli(capsys, "generate", "sum", "--part", '{"family":"graph","n":2}',
                               "--part", '{"family":"graph","n":2}', "--seed", "1")
        path = tmp_path / "sum.json"
        path.write_text(out)
        gated = []
        real = analysis._gates

        def counting(forms, *args):
            gated.extend([forms.shape[-1]] * len(forms))  # one per stack entry
            return real(forms, *args)

        monkeypatch.setattr(analysis, "_gates", counting)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--seed", "1")
        assert code == 0 and gated == [8, 8]
        result = json.loads(out)
        addend = parse_document(json.dumps(result["addends"][0])).to_frame()
        want = analysis.full_profile(addend)
        got = result["addend_profiles"][0]
        npt.assert_allclose([*got["angles"], got["xi"], got["chi"], got["eta"], got["gamma"],
                             got["delta"]],
                            [want.theta_i, want.theta_j, want.theta_k, want.xi, want.chi,
                             want.eta, want.gamma, want.delta], rtol=0, atol=1e-12)

    def test_verify_command(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "icomplex4", "--theta", "0.8")
        path = tmp_path / "ic.json"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", str(path), "--trials", "5", "--seed", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["trials"] == 5

    def test_verify_refuses_non_isoclinic(self, capsys, tmp_path):
        rows = np.eye(8)[[0, 2, 4, 5]].tolist()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"quaternionic_dim": 2, "vectors": rows}))
        code, _, err = run_cli(
            capsys, "verify", str(path), "--trials", "3", "--seed", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "DOC", "--trials", "2", "--seed=-1"),
        ("decompose", "DOC", "--seed=-3"),
        ("generate", "graph", "--seed=-1"),
        ("verify", "DOC", "--trials", "-1", "--seed", "1"),
        ("verify", "DOC", "--trials", "0", "--seed", "1"),
        ("verify", "DOC", "--trials", "2", "--seed", "1.5"),
        ("verify", "DOC", "--trials", "two", "--seed", "1"),
    ])
    def test_bad_seed_or_trials_is_usage_error(self, capsys, tmp_path, argv):
        path = graph_document(tmp_path)
        code, out, err = run_cli(capsys, *(str(path) if a == "DOC" else a for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("usage: isoclinic") and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_bad_tol_is_usage_error(self, capsys, tmp_path, command, tol):
        # nan crashed the gate, inf passed a non-isoclinic input and -1 refused every one
        rows = np.eye(8)[[0, 2, 4, 5]].tolist()
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"quaternionic_dim": 2, "vectors": rows}))
        docs = [str(path)] * (2 if command == "compare" else 1)
        code, out, err = run_cli(capsys, command, *docs, f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("usage: isoclinic") and f"got '{tol}'" in err

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_seed_variable_is_document_error(self, capsys, tmp_path, monkeypatch, value):
        path = graph_document(tmp_path)
        monkeypatch.setenv("ISOCLINIC_SEED", value)
        for argv in (("verify", str(path), "--trials", "2"), ("decompose", str(path))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err == f"error: ISOCLINIC_SEED: expected an integer >= 0, got {value!r}\n"

    def test_bad_seed_variable_reaches_the_shell_without_traceback(self, tmp_path):
        path = graph_document(tmp_path)
        env = {**os.environ, "ISOCLINIC_SEED": "abc",
               "PYTHONPATH": str(Path(isoclinic.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "isoclinic.cli", "verify", str(path),
                               "--trials", "2"], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 1 and done.stdout == ""
        assert "ISOCLINIC_SEED" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv,code,err", [
        (["generate", "sum", "--part", '{"family":"nope"}'], 1, "error: unknown family 'nope'"),
        (["generate", "graph"], 2, "rejected: graph family needs mu or a seed"),
        (["generate", "sum"], 1, "error: family 'sum' needs at least one --part"),
        (["verify", "DOC", "--trials", "2"], 1, "error: verify needs --seed or ISOCLINIC_SEED"),
    ], ids=["unknown-family", "graph-seed", "sum-parts", "verify-seed"])
    def test_refusals_without_a_seed(self, capsys, tmp_path, monkeypatch, argv, code, err):
        monkeypatch.delenv("ISOCLINIC_SEED", raising=False)
        path = graph_document(tmp_path)
        argv = [str(path) if a == "DOC" else a for a in argv]
        assert run_cli(capsys, *argv) == (code, "", err + "\n")

    def test_seed_variable_stands_in_for_seed(self, capsys, tmp_path, monkeypatch):
        path = graph_document(tmp_path)
        code, want, _ = run_cli(capsys, "verify", str(path), "--trials", "2", "--seed", "4")
        monkeypatch.setenv("ISOCLINIC_SEED", "4")
        assert run_cli(capsys, "verify", str(path), "--trials", "2") == (code, want, "")

    @pytest.mark.parametrize("argv,family,key", [
        (["twoplane"], "twoplane", "theta_i"),
        (["twoplane", "--theta-i", "1", "--theta-j", "1"], "twoplane", "theta_k"),
        (["icomplex4"], "icomplex4", "theta"),
        (["sum", "--part", '{"family":"rhp","k":"4"}'], "rhp", "k"),
        (["sum", "--part", '{"family":"rhp","k":2.5}'], "rhp", "k"),
        (["sum", "--part", '{"family":"graph","mu":[1,2]}'], "graph", "mu"),
        (["sum", "--part", '{"family":"icomplex4","theta":"x"}'], "icomplex4", "theta"),
        (["sum", "--part", '{"family":"sum","parts":"x"}'], "sum", "parts"),
        (["sum", "--part", '{"family":"sum","parts":["x"]}'], "sum", "parts"),
        (["sum", "--part", '{"family":"sum"}'], "sum", "parts"),
    ])
    def test_bad_generate_parameter_is_document_error(self, capsys, argv, family, key):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {family}: {key!r} must be ") and "Traceback" not in err

    @pytest.mark.parametrize("argv,make,args", [
        (["rhp"], make_rhp, (4, 4)),
        (["qline"], make_quaternionic_line, (1, 0)),
        (["tcomplex4"], make_totally_complex_4, (2,)),
        (["icomplex4", "--theta", "0.8"], make_i_complex_4, (2, 0.8)),
        (["twoplane", "--theta-i", "0.9", "--theta-j", "1.1", "--theta-k", "1.2"],
         make_two_plane, (2, 0.9, 1.1, 1.2, 1.0, 1.0)),
        (["graph", "--seed", "3"], graph_subspace,
         (np.random.default_rng(3).standard_normal(4), 2)),
        (["sum", "--part", '{"family": "qline"}'], direct_sum, ([make_quaternionic_line(1, 0)],)),
    ], ids=["rhp", "qline", "tcomplex4", "icomplex4", "twoplane", "graph", "sum"])
    def test_generate_defaults(self, capsys, monkeypatch, argv, make, args):
        # only the required keys given: the constructor at the documented defaults
        monkeypatch.delenv("ISOCLINIC_SEED", raising=False)
        code, out, err = run_cli(capsys, "generate", *argv)
        assert (code, err) == (0, "")
        label = f"{argv[0]} seed=3" if "--seed" in argv else argv[0]
        assert out == serialize_document(document_from_frame(make(*args), label=label)) + "\n"

    @pytest.mark.parametrize("family", ["rhp", "qline", "tcomplex4", "graph"])
    def test_zero_n_is_refused(self, capsys, family):
        # n = 0 is passed on, not replaced by the family's default
        code, out, err = run_cli(capsys, "generate", family, "--n", "0", "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("rejected: expected an integer n >= ")

    @pytest.mark.parametrize("argv", [
        ["qline"], ["rhp"], ["tcomplex4"], ["graph", "--seed", "1"],
        ["icomplex4", "--theta", "0.8"],
        ["twoplane", "--theta-i", "0.9", "--theta-j", "1.1", "--theta-k", "1.2"],
    ])
    def test_n_beyond_any_array_is_refused(self, capsys, argv):
        # only n = 10^18, whose rows numpy refuses to size: a smaller huge n
        # would try to allocate them
        code, out, err = run_cli(capsys, "generate", *argv, "--n", str(10**18))
        assert (code, out) == (2, "")
        assert err.startswith(f"rejected: n = {10**18} is too large: a (")

    def test_infeasible_generate_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "twoplane",
            "--theta-i", "0.1", "--theta-j", "0.2", "--theta-k", "0.3",
        )
        assert code == 2

    @pytest.mark.parametrize("thetas,sign", [(("2.0", "1.2"), ("--xi", "0.5", "xi")),
                                             (("1.1", "2.2"), ("--chi", "0.3", "chi"))],
                             ids=["xi", "chi"])
    def test_two_plane_sign_on_a_negative_cosine_rejected(self, capsys, thetas, sign):
        code, out, err = run_cli(capsys, "generate", "twoplane", "--theta-i", "0.9",
                                 "--theta-j", thetas[0], "--theta-k", thetas[1], *sign[:2])
        assert (code, out) == (2, "")
        assert err == f"rejected: {sign[2]} must be +/-1 when its cosine is nonzero\n"

    def test_analyze_with_basis_rotation(self, capsys, tmp_path):
        # rotating the admissible basis changes (xi, chi, eta) but not S
        code, out, _ = run_cli(capsys, "generate", "icomplex4", "--theta", "0.8")
        path = tmp_path / "ic.json"
        path.write_text(out)
        code, base_out, _ = run_cli(capsys, "analyze", str(path), "--json")
        base = json.loads(base_out)

        c, s = np.cos(0.4), np.sin(0.4)
        rot = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(rot))
        code, rot_out, _ = run_cli(
            capsys, "analyze", str(path), "--basis", str(basis_path), "--json"
        )
        assert code == 0
        rotated = json.loads(rot_out)
        s_base = sum(v**2 for v in base["profile"]["cosines"])
        s_rot = sum(v**2 for v in rotated["profile"]["cosines"])
        assert abs(s_base - s_rot) < 1e-9
        assert abs(rotated["profile"]["xi"] - base["profile"]["xi"]) > 1e-3

    def test_canonical_matrices_print_no_negative_zero(self, capsys, tmp_path):
        # the forced invariants at 1 of a moved totally complex frame put -0.0 in
        # the closed-form blocks; analyze prints it as 0
        U = random_sp(2, 3).apply_frame(make_totally_complex_4(2))
        path = tmp_path / "tcomplex.json"
        path.write_text(serialize_document(document_from_frame(U)))
        code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 0
        result = json.loads(out)
        entries = [x for m in ("canonical_c_ij", "canonical_c_ik") for r in result[m] for x in r]
        assert [x for x in entries if x == 0.0 and math.copysign(1.0, x) < 0] == []
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and "C_IK:" in out
        assert not re.search(r"-0(?![.\d])", out)

    def test_analyze_two_plane_document(self, capsys, monkeypatch):
        import io

        doc = '{"quaternionic_dim":1,"vectors":[[1,0,0,0],[0,1,0,0]]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run_cli(capsys, "analyze", "-", "--json")
        assert code == 0
        result = json.loads(out)
        assert result["profile"]["dim"] == 2
        npt.assert_allclose(result["profile"]["cosines"], [1, 0, 0], atol=1e-12)
        assert result["canonical_c_ij"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_stdin_dash(self, capsys, tmp_path, monkeypatch):
        import io

        doc = serialize_document(document_from_frame(make_quaternionic_line(1)))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run_cli(capsys, "analyze", "-", "--json")
        assert code == 0
        assert json.loads(out)["isoclinic"] is True
