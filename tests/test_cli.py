import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorsheaf import cli, spinor
from spinorsheaf.cli import main, paper_example_matrices, paper_example_result
from spinorsheaf.errors import SchemaError
from spinorsheaf.fixtures import (
    FIXTURE_LABELS,
    MAX_DIMENSION,
    fixture_from_dict,
    fixture_to_dict,
    get_fixture,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "spinorsheaf", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        **kw,
    )


class TestBuild:
    def test_fh2(self):
        r = run_cli(["build", "--fixture", "F-H2"])
        assert r.returncode == 0
        assert "N: 1" in r.stdout
        assert "[x1]" in r.stdout
        assert "[x0]" in r.stdout

    def test_fh6_size(self):
        r = run_cli(["build", "--fixture", "F-H6"])
        assert r.returncode == 0
        assert "N: 4" in r.stdout

    def test_malformed_gram_exit_2(self, tmp_path):
        bad = {
            "label": "bad",
            "dimension": 2,
            "gram": [[0, 1], [0, 0]],  # not symmetric
            "isotropic": [[0, 1]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        r = run_cli(["build", "-i", str(path)])
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_non_isotropic_exit_2(self, tmp_path):
        bad = {
            "label": "bad",
            "dimension": 2,
            "gram": [[0, "1/2"], ["1/2", 0]],
            "isotropic": [[1, 1]],  # q = 1
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        r = run_cli(["build", "-i", str(path)])
        assert r.returncode == 2

    def test_fixture_file_roundtrip(self, tmp_path):
        from spinorsheaf.fixtures import fixture_to_dict, get_fixture

        data = fixture_to_dict(get_fixture("F-QS"))
        path = tmp_path / "fqs.json"
        path.write_text(json.dumps(data))
        r = run_cli(["build", "-i", str(path)])
        assert r.returncode == 0
        assert "N: 2" in r.stdout

    def test_verify_from_file_runs_flag_request(self, tmp_path):
        from spinorsheaf.fixtures import fixture_to_dict, get_fixture

        data = fixture_to_dict(get_fixture("F-QS"))
        path = tmp_path / "fqs.json"
        path.write_text(json.dumps(data))
        r = run_cli(["verify", "-i", str(path), "--suite", "dependence"])
        assert r.returncode == 0
        assert "flag_split_agreement" in r.stdout


class TestVerify:
    def test_fqs_all_passes(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli(["verify", "--fixture", "F-QS", "--suite", "all",
                     "--out", str(out)])
        assert r.returncode == 0
        assert "OVERALL: pass" in r.stdout
        payload = json.loads(out.read_text())
        assert payload["overall"] == "pass"
        assert payload["counts"]["fail"] == 0
        ops = [rec["op"] for rec in payload["records"]]
        assert "factorization_identity" in ops
        assert "flag_split_agreement" in ops

    def test_dual_suite(self):
        r = run_cli(["verify", "--fixture", "F-H6", "--suite", "dual"])
        assert r.returncode == 0
        assert "dual_parity_equivalence" in r.stdout

    def test_stability_suite(self):
        r = run_cli(["verify", "--fixture", "F-H6", "--suite", "stability-numerics"])
        assert r.returncode == 0
        assert "sheaf_numerics" in r.stdout
        assert "euler_consistency" in r.stdout

    def test_reports_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            r = run_cli(["verify", "--fixture", "F-C5", "--suite", "all",
                         "--out", str(out)])
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_fixture_exit_2(self):
        r = run_cli(["verify", "--fixture", "F-H6", "--suite", "nope"])
        assert r.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--fixture", "F-H6", "--window", "6"],
        ["query", "cohomology", "F-H6", "--window", "6"],
    ])
    def test_window_option_is_gone(self, argv):
        # the suites check the twists -6..6 and a query takes any twist
        r = run_cli(argv)
        assert r.returncode == 2
        assert "unrecognized arguments: --window" in r.stderr
        assert "Traceback" not in r.stderr


class TestQuery:
    def test_hom(self):
        r = run_cli(["query", "hom", "F-H6", "F-H6"])
        assert r.returncode == 0
        assert json.loads(r.stdout)["dim"] == 1

    def test_iso_shift(self):
        r = run_cli(["query", "iso", "F-H6a", "F-H6a-shift"])
        assert json.loads(r.stdout)["verdict"] == "ISO"

    def test_iso_not(self):
        r = run_cli(["query", "iso", "F-QS", "F-QSb"])
        assert json.loads(r.stdout)["verdict"] == "NOT_ISO"

    def test_cohomology(self):
        r = run_cli(["query", "cohomology", "F-H6", "--index", "1", "--twist", "0"])
        assert json.loads(r.stdout)["dim"] == 0

    def test_restrict_default(self):
        r = run_cli(["query", "restrict", "F-H6"])
        payload = json.loads(r.stdout)
        assert payload["kind"] == "ISOMORPHIC"
        assert payload["matches"] == "T"

    def test_cone_default(self):
        r = run_cli(["query", "cone", "F-C5"])
        payload = json.loads(r.stdout)
        assert payload["parity"] == 1
        assert payload["bijective"] and payload["linear"]

    @pytest.mark.parametrize("argv, message", [
        (["restrict", "F-H6", "--data", "[1]"], "--data must be a JSON object"),
        (["restrict", "F-H6", "--data", '{"section_subspace": [[1.5, 0, 0, 0, 0, 0]]}'],
         "bad rational in section_subspace"),
        (["cone", "F-QS", "--data", '{"cone_mod": "x"}'],
         "cone_mod must be a non-empty list of rows"),
    ])
    def test_malformed_data_exit_2(self, argv, message):
        r = run_cli(["query", *argv])
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == ""

    def test_cone_vertex_outside_w_exit_2(self, capsys):
        # e3 lies in F-QS's radical but not in its W; the comparison must
        # not fall back to the module of W + <e3>
        argv = ["query", "cone", "F-QS", "--data", '{"cone_mod": [[0, 0, 0, 1]]}']
        assert main(argv) == 2
        assert "cone vertex must lie inside w" in capsys.readouterr().err

    def test_cone_vertex_all_of_w_exit_2(self, tmp_path, capsys):
        # q = x0 x1 on V = Q^4 with W = U = <e2>: W/U = 0 has no module
        data = {"label": "cone-all-of-w", "dimension": 4,
                "gram": [[0, "1/2", 0, 0], ["1/2", 0, 0, 0], [0] * 4, [0] * 4],
                "isotropic": [[0, 0, 1, 0]], "cone_mod": [[0, 0, 1, 0]]}
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "-i", str(path)]) == 2
        assert "the cone vertex U must be a proper subspace of w" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, label", [("cone", "F-C5-shift"),
                                             ("restrict", "F-H6-shift")])
    def test_shifted_label_exit_2(self, kind, label, capsys):
        assert main(["query", kind, label]) == 2
        assert "expects an unshifted module" in capsys.readouterr().err

    def test_missing_args_exit_2(self):
        r = run_cli(["query", "hom", "F-H6"])
        assert r.returncode == 2

    @pytest.mark.parametrize("argv", [["hom", "F-H2"], ["hom", "F-H2", "F-H2", "F-H2"],
                                      ["iso", "F-H2"], ["restrict", "F-H6", "F-H6"],
                                      ["cohomology"]])
    def test_wrong_label_count_exit_2(self, argv, capsys):
        assert main(["query", *argv]) == 2
        want = 2 if argv[0] in ("hom", "iso") else 1
        assert f"takes {want} fixture label" in capsys.readouterr().err

    def test_library_index_error_is_not_an_input_error(self, monkeypatch, capsys):
        def broken(a, b):
            raise IndexError("list index out of range")

        monkeypatch.setattr(cli, "hom_space", broken)
        with pytest.raises(IndexError):
            main(["query", "hom", "F-H2", "F-H2"])
        assert "missing query arguments" not in capsys.readouterr().err

    def test_hom_route_disagreement_exit_1(self, corrupted_image, capsys):
        # the image of g off the annihilator kernel: it fails w.x = 0 on
        # the target's action, so the dimension is not confirmed
        assert main(["query", "hom", "F-H6", "F-H6"]) == 1
        assert "Hom kernel of dimension 1 fails its certificate" in capsys.readouterr().err


class TestInvariantExit:
    def test_failing_identity_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(spinor.FactorizationPair, "check_identity",
                            lambda self: False)
        assert main(["verify", "--fixture", "F-QS"]) == 1
        assert "factorization identity failed" in capsys.readouterr().err

    def test_suite_invariant_error_is_a_fail_record(self, corrupted_image, tmp_path):
        out = tmp_path / "F.json"
        assert main(["verify", "--fixture", "F-H6", "--out", str(out)]) == 1
        records = json.loads(out.read_text())["records"]
        # End(I)'s kernel certificate fails on the corrupted image; the dual
        # search finds it invertible, checks it and raises
        assert [r["op"] for r in records if r["verdict"] != "pass"] == [
            "hom_route_crosscheck", "invariant_error"]
        errors = [r for r in records if r["op"] == "invariant_error"]
        assert [r["details"]["suite"] for r in errors] == ["dual"]
        assert "does not intertwine" in errors[0]["details"]["message"]
        # the suites after a failed one still ran
        ops = [r["op"] for r in records]
        assert {"trace_pairing_nondegenerate", "restriction", "sheaf_numerics"} <= set(ops)


    def test_map_leaving_its_target_exit_1(self, wrong_group_inverse, capsys):
        # SpanError is an internal invariant: a fail record and exit 1, not
        # the input-error exit 2
        assert main(["verify", "--fixture", "F-H6a"]) == 1
        out = capsys.readouterr()
        assert "[FAIL     ] invariant_error" in out.out and "input error" not in out.err


class TestPaperExample:
    def test_pass(self):
        r = run_cli(["paper-example"])
        assert r.returncode == 0
        assert "EQUIVALENT" in r.stdout

    def test_deterministic(self):
        r1 = run_cli(["paper-example"])
        r2 = run_cli(["paper-example"])
        assert r1.stdout == r2.stdout

    def test_certificate_pinned(self, capsys):
        # a change in the order of the certificate search shows here
        assert main(["paper-example"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == "8331d2436076171e68b1dfc1d16a4705e468b87dfcb2f261ff20937c5a4595b0"

    @pytest.mark.parametrize("argv", [["query", "iso", "F-H6a", "F-H6a-shift"],
                                      ["paper-example"],
                                      ["verify", "--fixture", "F-QS"]])
    def test_no_command_takes_seed(self, argv):
        # the searches and the quadric points are deterministic
        r = run_cli([*argv, "--seed", "1"])
        assert r.returncode == 2
        assert "unrecognized arguments: --seed 1" in r.stderr

    def test_mutated_matrix_detected(self):
        phi, psi = paper_example_matrices()
        phi = [row[:] for row in phi]
        phi[0][0] = "-x3"  # flip one sign
        result = paper_example_result(phi_rows=phi)
        assert result["verdict"] in ("NOT_A_FACTORIZATION", "NOT_EQUIVALENT")

    def test_inprocess_main(self, capsys):
        assert main(["paper-example"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out


# sha256 of the concatenated stdout, of the concatenated stderr and of the
# JSON list of exit codes of the calls that ``_pinned_cli_calls`` lists
CLI_SHA256 = {
    "stdout": "a3278cef53be166f24a731dad22e997338db621ec17c9f421ca325e4a95b143a",
    "stderr": "a3eb7170e2ffa87e8604d69c8246ef1dfe31e71286ea1c4ebb77bd9eef490757",
    "exit_codes": "dd7f77deb1f0dd3c066ae6447e78d8fc2d30665dd2ef32ab11a0db86a54c1c1d",
}


def _pinned_cli_calls():
    """query hom and iso on every pair of labels, shifted ones included;
    query restrict, cone and cohomology (index 0..4, twist -2, 0, 3) on
    every label; build on each fixture; paper-example."""
    labels = [x for label in FIXTURE_LABELS for x in (label, label + "-shift")]
    calls = [["query", kind, a, b] for kind in ("hom", "iso") for a in labels for b in labels]
    calls += [["query", kind, a] for kind in ("restrict", "cone") for a in labels]
    calls += [["query", "cohomology", a, "--index", str(k), "--twist", str(t)]
              for a in labels for k in range(5) for t in (-2, 0, 3)]
    calls += [["build", "--fixture", label] for label in FIXTURE_LABELS]
    return calls + [["paper-example"]]


def test_cli_output_pinned():
    calls = _pinned_cli_calls()
    assert len(calls) == 499
    out, err, codes = io.StringIO(), io.StringIO(), []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in calls:
            codes.append(main(argv))
    assert {"stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
            "exit_codes": hashlib.sha256(json.dumps(codes).encode("utf-8")).hexdigest(),
            } == CLI_SHA256


def test_readme_fixture_example_verifies(tmp_path, capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```json\n") + len("```json\n")
    path = tmp_path / "example.json"
    path.write_text(text[start:text.index("```", start)])
    assert main(["verify", "-i", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS     ] restriction" in out and "[PASS     ] cone" in out


BAD_SCALARS = st.sampled_from([1.5, 0.0, True, False, None, [1], {"a": 1}, "1/0", "x",
                               "0.5", "1e3", " 1", "1e5000", "1e-5000"])


@st.composite
def broken_fixtures(draw):
    """A built-in fixture's JSON with one defect: a bad scalar, a short
    (ragged) row, rows one entry too long, a bad or oversize dimension,
    or a missing required key."""
    data = fixture_to_dict(get_fixture(draw(st.sampled_from(["F-H6", "F-C5", "F-QS"]))))
    kind = draw(st.sampled_from(["scalar", "ragged", "long", "dimension", "missing"]))
    if kind == "dimension":
        data["dimension"] = draw(st.one_of(
            st.integers(MAX_DIMENSION + 1, 10 ** 9),
            st.sampled_from([0, -3, 2.0, True, None, "4", [4]])))
        return data
    if kind == "missing":
        del data[draw(st.sampled_from(["label", "dimension", "gram", "isotropic"]))]
        return data
    key = draw(st.sampled_from(
        [k for k in ("gram", "isotropic", "flag_drop", "section_subspace", "cone_mod")
         if k in data]))
    rows = [data[key]] if key == "flag_drop" else data[key]
    row = draw(st.sampled_from(rows))
    if kind == "scalar":
        row[draw(st.integers(0, len(row) - 1))] = draw(BAD_SCALARS)
    elif kind == "ragged":
        del row[draw(st.integers(0, len(row) - 1))]
    else:
        for r in rows:
            r.append(0)
    return data


class TestFixtureSchema:
    @settings(max_examples=120, deadline=None)
    @given(broken_fixtures())
    def test_broken_fixture_is_an_input_error(self, data):
        with pytest.raises(SchemaError):
            fixture_from_dict(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["verify", "-i", path]) == 2
        assert err.getvalue().startswith("input error:")

    def test_bad_flag_drop_exit_2_without_traceback(self, tmp_path):
        data = fixture_to_dict(get_fixture("F-QS"))
        data["flag_drop"] = [0, 1.5, 0, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        r = run_cli(["verify", "-i", str(path)])
        assert r.returncode == 2
        assert "bad rational in flag_drop" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("scalar", ["1e5000", "1e-5000"])
    def test_exponent_string_exit_2(self, tmp_path, scalar):
        # Fraction reads an exponent string as a 5,000-digit number, past the
        # 4,300-digit limit on integer strings that the report's writer keeps;
        # the schema refuses it before any report is written
        data = {"label": "exponent", "dimension": 3,
                "gram": [[0, "1/2", 0], ["1/2", 0, 0], [0, 0, scalar]],
                "isotropic": [[1, 0, 0]]}
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(data))
        r = run_cli(["verify", "-i", str(path), "--out", str(tmp_path / "report.json")])
        assert r.returncode == 2
        assert "bad rational in gram" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "report.json").exists()

    def test_long_bad_rational_is_echoed_cut_short(self, tmp_path):
        # a 200,000-character string in the Gram is refused in one short
        # line, not echoed whole
        data = fixture_to_dict(get_fixture("F-QS"))
        data["gram"][0][0] = "x" * 200000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        r = run_cli(["verify", "-i", str(path)])
        assert r.returncode == 2
        assert r.stderr.startswith("input error: bad rational in gram")
        assert r.stderr.count("\n") == 1 and len(r.stderr.encode("utf-8")) < 200

    def test_dimension_above_the_bound_exit_2(self, tmp_path):
        # a well-formed 20-dimensional fixture is refused before any
        # Clifford algebra of 2^20 monomials is set up
        n = 20
        gram = [["1/2" if abs(i - j) == n // 2 else 0 for j in range(n)] for i in range(n)]
        data = {"label": "big", "dimension": n, "gram": gram,
                "isotropic": [[1 if j == 0 else 0 for j in range(n)]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        r = run_cli(["verify", "-i", str(path)])
        assert r.returncode == 2
        assert f"above the supported maximum {MAX_DIMENSION}" in r.stderr

    def test_largest_dimension_accepted(self):
        n = MAX_DIMENSION
        gram = [["1/2" if abs(i - j) == n // 2 else 0 for j in range(n)] for i in range(n)]
        fx = fixture_from_dict({"label": "top", "dimension": n, "gram": gram,
                                "isotropic": [[1 if j == 0 else 0 for j in range(n)]]})
        assert fx.space.n == n and fx.w.dim == 1
