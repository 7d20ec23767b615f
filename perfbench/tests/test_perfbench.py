"""Tests of the benchmark itself: its contract, tracer and output checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
The traced runs are short (two seconds each) but real: they start
``perfbench/run.py`` in a subprocess, exactly as a benchmark run does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Embed, NearnessExport, Noise, Verify  # noqa: E402

SEED = 3
COUNT_SUFFIXES = (".calls", ".bytes", ".dim3_sum", ".atoms", ".redundant_frac")


def _traced(workload: str) -> tuple[dict, dict]:
    """One short traced run: (final JSON line, the record written to .perfbench)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench"
                         / f"{workload}-seed{SEED}-trace1.json").read_text())
    return result, record


@pytest.fixture(scope="module")
def traced_runs():
    cache: dict[str, list] = {}

    def get(workload: str) -> list:
        if workload not in cache:
            cache[workload] = [_traced(workload), _traced(workload)]
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(traced_runs, workload):
    (first, _), (second, _) = traced_runs(workload)
    assert first["correct"] and second["correct"]
    counts = sorted(k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES))
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload, layer", [
    ("embed-n1000", "fileio.read_matrix_csv"),
    ("verify-n40", "verification.check.biorthogonality"),
    ("noise-n64", "kernels.expand_kernel"),
])
def test_largest_self_time(traced_runs, workload, layer):
    (_, record), _ = traced_runs(workload)
    totals = record["span_totals"]
    assert max(totals, key=lambda name: totals[name]["self_s"]) == layer


@pytest.mark.parametrize("workload, metric, expected", [
    ("embed-n1000", "spectral.sym_eig.redundant_frac", 0.5),
    ("embed-n1000", "mds.double_center.redundant_frac", 0.5),
    ("verify-n40", "basis.basis_gram.redundant_frac", 0.75),
])
def test_redundant_calls(traced_runs, workload, metric, expected):
    (result, _), _ = traced_runs(workload)
    assert result["metrics"][metric]["value"] == expected


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    produced = {name: v[:2] for name, v in run.PER_LAYER.items()}
    produced.update(run.PROCESS_AND_TRACE)
    assert declared == produced


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n40", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_skips_missing_targets_and_restores_originals(monkeypatch):
    import dualmds.cli
    import dualmds.mds

    main, double_center = dualmds.cli.main, dualmds.mds.double_center
    gone = tracer.Target("basis", "no_such_function", "basis.no_such_function")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["basis.no_such_function"]
        assert dualmds.cli.main is not main
        t.op = 0
        assert dualmds.cli.main(["verify", "--n", "3"]) == 0
    finally:
        t.uninstall()
    assert dualmds.cli.main is main and dualmds.mds.double_center is double_center
    names = {s.name for s in t.spans}
    assert "verification.check.biorthogonality" in names
    assert not any(name.startswith("verification._check") for name in names)


def test_self_time_excludes_children():
    t = tracer.Tracer()
    spans = [tracer.Span("a", None, 0), tracer.Span("b", 0, 0)]
    spans[0].start, spans[0].end = 0.0, 10.0
    spans[1].start, spans[1].end, spans[1].outer = 2.0, 5.0, 4.0
    t.spans.extend(spans)
    assert t.self_times() == [6.0, 3.0]


def test_tail_is_the_highest_sample_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)


def test_output_checks_reject_wrong_output(tmp_path):
    verify = Verify(0, tmp_path)
    assert verify.check(0, "  [PASS] a: x=1\n  [PASS] b\n") is None
    assert verify.check(0, "  [PASS] a: x=1\n  [FAIL] b\n") is not None
    assert verify.check(1, "  [PASS] a\n") is not None

    noise = Noise(0, tmp_path)
    good = "  [PASS] noise_bound: max_observed_ratio=0.6; amplification_factor=3.3\n"
    assert noise.check(0, good + "  elapsed_seconds: 0.1\n") is None
    assert noise.check(0, good + "  elapsed_seconds: 0.2\n") is None
    assert noise.check(0, good.replace("0.6", "0.7")) is not None
    assert noise.check(0, good.replace("3.3", "0.5")) is not None

    export = NearnessExport(0, tmp_path)
    export.N = 3
    export.output.write_text("1 1 1\n1 2 -1\n1 3 -1\n2 1 -1\n2 2 1\n2 3 -1\n"
                             "3 1 -1\n3 2 -1\n3 3 1\n")
    assert export.check(0, "") is None
    export.output.write_text("1 1 1\n1 2 1\n1 3 -1\n2 1 -1\n2 2 1\n2 3 -1\n"
                             "3 1 -1\n3 2 -1\n3 3 1\n")
    assert export.check(0, "") is not None


def test_embed_check_uses_the_generating_points(tmp_path, monkeypatch):
    monkeypatch.setattr(Embed, "N", 20)
    embed = Embed(5, tmp_path)
    rotation = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    np.savetxt(embed.output, embed.points @ rotation + 7.0, delimiter=",")
    assert embed.check(0, "detected_rank=3") is None
    assert embed.check(0, "detected_rank=2") is not None
    np.savetxt(embed.output, embed.points[::-1], delimiter=",")
    assert embed.check(0, "detected_rank=3") is not None


def test_end_to_end_times_are_scaled_to_the_reference_host_speed():
    loop = run.Loop()
    loop.walls, loop.cpus, loop.ok = [1.0, 2.0, 3.0], [0.0] * 3, [True, True, False]
    ref = run.Reference.__new__(run.Reference)
    slow = 2.0 * run.CAL_REF_S  # probes take twice the reference time
    ref.probes = [slow] * 4
    ref.setup = [(0.1, slow), (0.3, slow), (0.2, slow)]
    metrics, notes = run.end_to_end(loop, ref)
    assert metrics["latency_s.p50"]["value"] == pytest.approx(0.75)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(2 / 3.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert notes["raw_latency_s.p50"] == pytest.approx(1.5)
    assert notes["host_speed"] == pytest.approx(0.5)
