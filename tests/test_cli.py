"""Command-line interface: outputs, determinism, and exit codes."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dualmds import (
    PointConfiguration,
    SquaredDistanceMatrix,
    constraint_matrix,
    is_euclidean,
    num_pairs,
    procrustes_residual,
    read_matrix_csv,
    squared_distances,
    write_matrix_csv,
)
from dualmds import basis, cli, fileio
from dualmds.mds import CERTIFIED_MIN_N
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

    def test_large_coordinates_embed(self, tmp_path, capsys):
        # J D J of a valid D at this scale is asymmetric by ~6e-5 in roundoff,
        # which an absolute 1e-9 re-validation used to reject with exit 2
        P = PointConfiguration(1e5 * np.random.default_rng(50).standard_normal((50, 2)))
        dist = tmp_path / "far.csv"
        out = tmp_path / "points.csv"
        write_matrix_csv(dist, squared_distances(P).entries)
        assert main(["embed", str(dist), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][1]["payload"]["detected_rank"] == 2
        recovered = PointConfiguration(read_matrix_csv(out))
        scale = np.linalg.norm(P.points - P.points.mean(axis=0))
        assert procrustes_residual(recovered, P) <= 1e-9 * scale


def low_rank_csv(tmp_path, n, r, seed):
    P = PointConfiguration(np.random.default_rng(seed).standard_normal((n, r)))
    path = tmp_path / "dist.csv"
    write_matrix_csv(path, squared_distances(P).entries)
    return path


class TestEmbedRoutes:
    def test_certified_route_reports_bounds(self, tmp_path, capsys):
        path = low_rank_csv(tmp_path, CERTIFIED_MIN_N, 3, seed=51)
        assert main(["embed", str(path), "--r", "3", "--format", "json"]) == 0
        euclidean, embedding = json.loads(capsys.readouterr().out)["checks"]
        assert list(euclidean["payload"]) == ["route", "lambda_min_lower_bound",
                                              "residual_norm"]
        assert euclidean["payload"]["route"] == "certified"
        s = euclidean["payload"]["residual_norm"]
        assert 0 < s == -euclidean["payload"]["lambda_min_lower_bound"]
        assert list(embedding["payload"]) == ["detected_rank", "retained_eigenvalues",
                                              "discarded_mass_upper_bound"]
        assert embedding["payload"]["detected_rank"] == 3

    def test_certified_route_in_text(self, tmp_path, capsys):
        path = low_rank_csv(tmp_path, CERTIFIED_MIN_N, 2, seed=52)
        assert main(["embed", str(path)]) == 0
        text = capsys.readouterr().out
        assert "[PASS] euclidean: route=certified; lambda_min_lower_bound=" in text
        assert "discarded_mass_upper_bound=" in text

    def test_dense_route_is_named_from_the_threshold(self, tmp_path, capsys):
        path = low_rank_csv(tmp_path, CERTIFIED_MIN_N, 100, seed=53)
        assert main(["embed", str(path), "--format", "json"]) == 0
        euclidean, embedding = json.loads(capsys.readouterr().out)["checks"]
        assert list(euclidean["payload"]) == ["route", "lambda_min"]
        assert euclidean["payload"]["route"] == "dense"
        assert embedding["payload"]["detected_rank"] == 100
        assert "discarded_mass" in embedding["payload"]

    def test_below_threshold_names_no_route(self, tmp_path, capsys):
        path = low_rank_csv(tmp_path, CERTIFIED_MIN_N - 1, 3, seed=54)
        assert main(["embed", str(path), "--format", "json"]) == 0
        euclidean, embedding = json.loads(capsys.readouterr().out)["checks"]
        assert list(euclidean["payload"]) == ["lambda_min"]
        assert "discarded_mass" in embedding["payload"]

    def test_non_euclidean_exit_2_from_the_dense_route(self, tmp_path, capsys):
        path = low_rank_csv(tmp_path, CERTIFIED_MIN_N, 3, seed=55)
        E = read_matrix_csv(path)
        E[0, 1] = E[1, 0] = 100.0 * E.max()
        write_matrix_csv(path, E)
        assert main(["embed", str(path), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)["checks"][0]["payload"]
        assert payload == {"route": "dense",
                           "lambda_min": is_euclidean(SquaredDistanceMatrix(E))[1]}


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

    def test_dense_export_refused_before_any_file(self, tmp_path, monkeypatch,
                                                   capsys):
        # the dense export has no size rule of its own: the memory estimate
        # refuses it up front, so no file is opened
        monkeypatch.setattr(basis, "available_memory", lambda: 1 << 16)
        out = tmp_path / "A.csv"
        assert main(["nearness", "--n", "30", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nearness at n=30 needs" in captured.err
        assert not out.exists()

    def test_dense_export_memory_bounded_by_blocks(self, tmp_path, monkeypatch, capsys):
        # The formatter holds about 65 bytes per entry of a block: the block
        # and |x| (8 each), five byte planes, their transpose and its mask,
        # and the indices of the kept bytes.  The whole matrix, 12180 x 435,
        # is never held.
        peaks = []
        write = cli.write_integer_csv

        def measured(path, blocks):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            write(path, blocks)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)

        monkeypatch.setattr(cli, "write_integer_csv", measured)
        out = tmp_path / "A.csv"
        tracemalloc.start()
        try:
            assert main(["nearness", "--n", "30", "--out", str(out)]) == 0
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        A = constraint_matrix(30)
        bound = 100 * fileio.CSV_BLOCK_ENTRIES
        assert peaks[0] < bound < 8 * A.num_rows * A.num_cols / 6
        # every entry is "0.0," or "1.0," but the two "-1.0," of each row
        assert out.stat().st_size == 4 * A.num_rows * A.num_cols + 2 * A.num_rows


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_estimate_at_the_boundary(self, fmt, tmp_path, monkeypatch, capsys):
        # refused up front, before basis_gram, one byte below the estimate
        n = 5
        need = cli.BASIS_PEAK_ARRAYS[fmt] * num_pairs(n) ** 2 * 8
        argv = ["basis", "--n", str(n), "--format", fmt, "--out", str(tmp_path / "b")]
        monkeypatch.setattr(basis, "available_memory", lambda: need)
        assert main(argv) == 0
        capsys.readouterr()

        def forbidden(*args):
            raise AssertionError("allocated before the memory estimate")
        monkeypatch.setattr(basis, "available_memory", lambda: need - 1)
        monkeypatch.setattr(cli, "basis_gram", forbidden)
        (tmp_path / "b").unlink()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "basis at n=5 needs" in captured.err
        assert not (tmp_path / "b").exists()


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
