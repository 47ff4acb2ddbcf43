import json
import os
import subprocess
import sys

from spinorsheaf import homalg, spinor
from spinorsheaf.cli import main, paper_example_matrices, paper_example_result

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
                         "--seed", "7", "--out", str(out)])
            assert r.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_fixture_exit_2(self):
        r = run_cli(["verify", "--fixture", "F-H6", "--suite", "nope"])
        assert r.returncode == 2


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

    def test_missing_args_exit_2(self):
        r = run_cli(["query", "hom", "F-H6"])
        assert r.returncode == 2

    def test_hom_route_disagreement_exit_1(self, monkeypatch, capsys):
        hom_system = homalg._hom_system

        def one_more_psi_equation(a, b):
            phi_rows, psi_rows, nvars = hom_system(a, b)
            return phi_rows, psi_rows + [{0: 1}], nvars

        monkeypatch.setattr(homalg, "_hom_system", one_more_psi_equation)
        assert main(["query", "hom", "F-H6", "F-H6"]) == 1
        assert "hom-space routes disagree" in capsys.readouterr().err


class TestInvariantExit:
    def test_failing_identity_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(spinor.MatrixFactorization, "check_identity",
                            lambda self: False)
        assert main(["verify", "--fixture", "F-QS"]) == 1
        assert "factorization identity failed" in capsys.readouterr().err


class TestPaperExample:
    def test_pass(self):
        r = run_cli(["paper-example"])
        assert r.returncode == 0
        assert "EQUIVALENT" in r.stdout

    def test_deterministic(self):
        r1 = run_cli(["paper-example"])
        r2 = run_cli(["paper-example"])
        assert r1.stdout == r2.stdout

    def test_mutated_matrix_detected(self):
        phi, psi = paper_example_matrices()
        phi = [row[:] for row in phi]
        phi[0][0] = "-x3"  # flip one sign
        result = paper_example_result(phi_rows=phi)
        assert result["verdict"] in ("NOT_A_FACTORIZATION", "NOT_EQUIVALENT")

    def test_inprocess_main(self, capsys):
        assert main(["paper-example"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out
