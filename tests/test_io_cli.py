import json

import numpy as np
import numpy.testing as npt
import pytest

from isoclinic import analysis
from isoclinic.cli import main
from isoclinic.errors import DocumentError
from isoclinic.generators import graph_subspace, make_quaternionic_line, make_rhp, make_two_plane
from isoclinic.io import document_from_frame, parse_document, serialize_document
from isoclinic.subspaces import orthonormalize


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

    def test_frame_document_round_trip(self):
        U = make_two_plane(2, 0.9, 1.1, 1.2, 1.0, -1.0)
        doc = parse_document(serialize_document(document_from_frame(U, "p")))
        npt.assert_allclose(doc.to_frame().vectors, U.vectors, atol=1e-15)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_analyze_tol_applies_to_its_one_gate(self, capsys, tmp_path, monkeypatch):
        path = perturbed_graph_document(tmp_path)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, err) == (2, "")
        assert out.startswith("not isoclinic\n")
        gated = []
        real = analysis._gate

        def counting(U, tol, *rest):
            gated.append(tol)
            return real(U, tol, *rest)

        monkeypatch.setattr(analysis, "_gate", counting)
        code, out, err = run_cli(capsys, "analyze", str(path), "--tol", "1e-6")
        assert (code, err) == (0, "")
        assert "isoclinic: yes" in out and "orbit label: [" in out
        assert gated == [1e-6]

    def test_bad_basis_file_is_document_error(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "generate", "icomplex4", "--theta", "0.8")
        path = tmp_path / "ic.json"
        path.write_text(out)
        basis_path = tmp_path / "basis.json"
        for text in ("[[1, 0, 0], [0, 1, 0], [0, 0, -1]]", "[[1, 0], [0, 1]]",
                     '[[1, "a", 0], [0, 1, 0], [0, 0, 1]]', "not json"):
            basis_path.write_text(text)
            code, out, err = run_cli(capsys, "analyze", str(path), "--basis", str(basis_path))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {basis_path}: admissible basis: ")

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/file.json")
        assert code == 1

    def test_malformed_document_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"quaternionic_dim":1,"vectors":[[1,0,0]]}')
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "vectors[0]" in err

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
        real = analysis._gate

        def counting(U, *args):
            gated.append(U.dim)
            return real(U, *args)

        monkeypatch.setattr(analysis, "_gate", counting)
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

    def test_infeasible_generate_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "twoplane",
            "--theta-i", "0.1", "--theta-j", "0.2", "--theta-k", "0.3",
        )
        assert code == 2

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
