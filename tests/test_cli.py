"""Command-line interface: outputs, determinism, and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from dualmds import (
    PointConfiguration,
    constraint_matrix,
    read_matrix_csv,
    squared_distances,
    write_matrix_csv,
)
from dualmds.cli import main
from dualmds.report import CheckResult

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
IMPOSSIBLE_D2 = [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]


def square_distances_csv(tmp_path, name="dist.csv"):
    path = tmp_path / name
    D = squared_distances(PointConfiguration(UNIT_SQUARE))
    write_matrix_csv(path, D.entries)
    return path


class TestGen:
    def test_writes_both_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert main(["gen", "--n", "6", "--r", "2", "--seed", "3",
                     "--out", prefix]) == 0
        points = read_matrix_csv(prefix + "_points.csv")
        dist = read_matrix_csv(prefix + "_dist.csv")
        assert points.shape == (6, 2)
        assert dist.shape == (6, 6)
        np.testing.assert_array_equal(dist, dist.T)
        np.testing.assert_array_equal(np.diag(dist), 0.0)
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for prefix in (a, b):
            main(["gen", "--n", "5", "--r", "3", "--seed", "11",
                  "--out", prefix])
        assert (tmp_path / "a_points.csv").read_bytes() == \
            (tmp_path / "b_points.csv").read_bytes()
        assert (tmp_path / "a_dist.csv").read_bytes() == \
            (tmp_path / "b_dist.csv").read_bytes()

    def test_bad_dimensions_exit_2(self, tmp_path, capsys):
        code = main(["gen", "--n", "2", "--r", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEmbed:
    def test_recovers_configuration(self, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        out = tmp_path / "points.csv"
        code = main(["embed", str(dist), "--r", "2", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "[PASS] euclidean" in text
        assert "detected_rank=2" in text
        assert read_matrix_csv(out).shape == (4, 2)

    def test_json_report(self, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        assert main(["embed", str(dist), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "embed"
        assert doc["pass"] is True
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["euclidean"]["pass"] is True
        assert by_name["embedding"]["payload"]["detected_rank"] == 2

    def test_json_byte_identical_across_reruns(self, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        outputs = []
        for _ in range(2):
            main(["embed", str(dist), "--format", "json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_non_euclidean_exit_2_with_certificate(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_matrix_csv(path, np.array(IMPOSSIBLE_D2))
        code = main(["embed", str(path), "--format", "json"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        euclidean = doc["checks"][0]
        assert euclidean["name"] == "euclidean"
        assert euclidean["payload"]["lambda_min"] < -0.1

    def test_padding_request_warns_but_succeeds(self, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        out = tmp_path / "padded.csv"
        with pytest.warns(UserWarning, match="detected rank"):
            code = main(["embed", str(dist), "--r", "3", "--out", str(out)])
        assert code == 0
        assert read_matrix_csv(out).shape == (4, 3)

    def test_dimension_out_of_range_exit_2(self, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        assert main(["embed", str(dist), "--r", "10"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("euclidean,r,code", [
        (True, "2", 0),
        (True, "10", 2),
        (False, "2", 2),
        (False, "10", 2),
    ])
    def test_report_order_and_exit_codes(self, tmp_path, capsys,
                                         euclidean, r, code):
        # The input is judged before --r: a non-Euclidean input reports
        # its failed check whatever --r is; a bad --r on a Euclidean
        # input is a domain error with no report.
        if euclidean:
            path = square_distances_csv(tmp_path)
        else:
            path = tmp_path / "bad.csv"
            write_matrix_csv(path, np.array(IMPOSSIBLE_D2))
        assert main(["embed", str(path), "--r", r]) == code
        captured = capsys.readouterr()
        if euclidean and code == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: target dimension r=10")
        else:
            assert captured.err == ""
            assert captured.out.startswith("dualmds embed\n")
            assert ("[PASS] euclidean" if euclidean else "[FAIL] euclidean: "
                    "lambda_min=-0.8333333333333335") in captured.out
            assert ("detected_rank=2" in captured.out) == euclidean
            checks = [line for line in captured.out.splitlines()
                      if line.startswith("  [")]
            assert len(checks) == (2 if euclidean else 1)

    def test_padding_warning_keeps_the_report(self, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        with pytest.warns(UserWarning, match="requested dimension 3 exceeds "
                                             "detected rank 2"):
            code = main(["embed", str(dist), "--r", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == ["euclidean", "embedding"]
        assert doc["checks"][1]["payload"]["detected_rank"] == 2
        assert doc["parameters"]["r"] == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exit_2(self, tol, tmp_path, capsys):
        dist = square_distances_csv(tmp_path)
        assert main(["embed", str(dist), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tolerance must be finite and nonnegative, "
                                f"got {float(tol)}\n")

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["embed", str(tmp_path / "absent.csv")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exit_3(self, tmp_path, capsys):
        path = tmp_path / "text.csv"
        path.write_text("not,numbers\n")
        assert main(["embed", str(path)]) == 3
        capsys.readouterr()

    def test_undecodable_csv_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"0,1\n1,\xe90\n")
        assert main(["embed", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: non-ASCII byte 0xe9\n"

    def test_asymmetric_matrix_exit_3(self, tmp_path, capsys):
        path = tmp_path / "asym.csv"
        write_matrix_csv(path, np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert main(["embed", str(path)]) == 3
        assert "not a valid squared-distance matrix" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_all_checks_pass(self, n, capsys):
        assert main(["verify", "--n", str(n)]) == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text
        assert "[FAIL]" not in text

    def test_json_structure(self, capsys):
        assert main(["verify", "--n", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "verify"
        assert doc["pass"] is True
        assert len(doc["checks"]) >= 8
        assert all(c["pass"] for c in doc["checks"])

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["verify", "--n", "4", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_failing_check_exit_1(self, monkeypatch, capsys):
        from dualmds import cli as cli_module

        monkeypatch.setattr(
            cli_module, "run_verification",
            lambda n, seed=0: [CheckResult("forced", False, {})],
        )
        assert main(["verify", "--n", "4"]) == 1
        assert "[FAIL] forced" in capsys.readouterr().out

    def test_too_small_n_exit_2(self, capsys):
        assert main(["verify", "--n", "2"]) == 2
        capsys.readouterr()

    def test_json_at_n20_parses_and_repeats(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["verify", "--n", "20", "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        doc = json.loads(outputs[0])
        assert doc["pass"] is True
        assert all(c["pass"] is True for c in doc["checks"])
        assert outputs[0] == outputs[1]

    def test_numpy_bool_pass_serializes(self, monkeypatch, capsys):
        from dualmds import cli as cli_module

        monkeypatch.setattr(
            cli_module, "run_verification",
            lambda n, seed=0: [
                CheckResult("numpy_flag", np.bool_(True), {"ok": np.bool_(True)})
            ],
        )
        assert main(["verify", "--n", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["checks"][0]["pass"] is True

    def test_internal_error_exit_4(self, monkeypatch, capsys):
        from dualmds import cli as cli_module

        def broken(n, seed=0):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "run_verification", broken)
        assert main(["verify", "--n", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: boom\n"


    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 74.5 GiB"),
         "error: out of memory: Unable to allocate 74.5 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_memory_error_exit_2(self, exc, line, monkeypatch, capsys):
        from dualmds import cli as cli_module

        def exhausted(n, seed=0):
            raise exc

        monkeypatch.setattr(cli_module, "run_verification", exhausted)
        assert main(["verify", "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line


class TestNoise:
    def test_report_and_exit_code(self, capsys):
        code = main(["noise", "--n", "5", "--trials", "10", "--seed", "4",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        payload = doc["checks"][0]["payload"]
        assert payload["max_observed_ratio"] <= payload["amplification_factor"]
        assert payload["bound"] == 4.0

    def test_json_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            main(["noise", "--n", "4", "--trials", "5", "--seed", "9",
                  "--format", "json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_invalid_trials_exit_2(self, capsys):
        assert main(["noise", "--n", "4", "--trials", "0"]) == 2
        capsys.readouterr()

    def test_payload_keys(self, capsys):
        assert main(["noise", "--n", "7", "--trials", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["checks"][0]["payload"]
        assert list(payload) == ["max_observed_ratio", "amplification_factor",
                                 "bound", "attained_factor", "adversarial_ratio"]
        assert payload["max_observed_ratio"] <= payload["attained_factor"] \
            <= payload["amplification_factor"] < payload["bound"]

    def test_two_points_pass_exactly(self, capsys):
        # every trial attains the worst case 1/4 at n=2; roundoff in the
        # old difference of two atom sums pushed it over and failed
        assert main(["noise", "--n", "2", "--r", "1", "--trials", "1000",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)["checks"][0]["payload"]
        assert payload["max_observed_ratio"] == 0.25
        assert payload["attained_factor"] == payload["adversarial_ratio"] == 0.25

    @pytest.mark.parametrize("epsilon", ["inf", "1e308"])
    def test_overflowing_epsilon_exit_2(self, epsilon, capsys):
        assert main(["noise", "--n", "4", "--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: noise level ")
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("epsilon", ["5e-324", "1e-315"])
    def test_subnormal_epsilon_exit_2(self, epsilon, capsys):
        # 5e-324 used to print a false [FAIL] with max_observed_ratio=1.0
        assert main(["noise", "--n", "3", "--r", "1", "--trials", "2",
                     "--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: noise level {float(epsilon)} is subnormal")
        assert captured.err.count("\n") == 1


class TestNearness:
    def test_dense_export(self, tmp_path, capsys):
        out = tmp_path / "A.csv"
        assert main(["nearness", "--n", "4", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rows=12" in text
        assert "nonzeros=36" in text
        np.testing.assert_array_equal(
            read_matrix_csv(out), constraint_matrix(4).to_dense()
        )

    def test_triplet_export(self, tmp_path, capsys):
        out = tmp_path / "A.txt"
        assert main(["nearness", "--n", "5", "--out", str(out),
                     "--format", "triplets"]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        expected = [f"{r} {c} {s}" for r, c, s in constraint_matrix(5).triplets()]
        assert lines == expected

    def test_checks_reported(self, capsys):
        assert main(["nearness", "--n", "6"]) == 0
        text = capsys.readouterr().out
        assert "[PASS] gram_identity" in text
        assert "[PASS] singular_values" in text

    def test_too_small_n_exit_2(self, capsys):
        assert main(["nearness", "--n", "2"]) == 2
        capsys.readouterr()


class TestBasis:
    def test_text_output(self, capsys):
        assert main(["basis"]) == 0
        text = capsys.readouterr().out
        assert "n=4" in text
        assert "atom w(1,2):" in text
        assert "dual atom v(1,2):" in text
        assert "inverse" in text

    def test_json_shapes(self, capsys):
        assert main(["basis", "--n", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        objects = doc["checks"][0]["payload"]
        assert np.array(objects["atom"]).shape == (5, 5)
        assert np.array(objects["dual_atom"]).shape == (5, 5)
        assert np.array(objects["atom_gram"]).shape == (10, 10)
        assert np.array(objects["dual_gram"]).shape == (10, 10)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "basis.txt"
        assert main(["basis", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dualmds", "verify", "--n", "4",
             "--format", "json"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_unknown_command_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dualmds", "frobnicate"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
