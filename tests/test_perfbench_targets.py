"""The benchmark's tracer still finds every layer it measures.

``perfbench/tracer.py`` wraps ``dualmds`` functions by module and name
from outside the package, and ``perfbench/run.py`` reports a metric whose
target has gone as absent.  A traced run whose last line lacks a metric
that ``BENCHMARK.json`` declares is malformed, although every operation
passed.  Each workload runs once here under the tracer, and every target
must have been installed; ``verify`` must also report a span for each
check the benchmark times.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from dualmds import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
tracer_module = _load("tracer")
CHECK_SPANS = sorted(
    m["name"][: -len(".s")]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"].startswith(tracer_module.CHECK_PREFIX)
)


def test_benchmark_times_nine_checks():
    assert len(CHECK_SPANS) == 9


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload_finds_every_target(name, tmp_path):
    workload = WORKLOADS[name](1, tmp_path)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(workload.argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert workload.check(code, out.getvalue()) is None
    assert tracer.absent == []
    if name.startswith("verify"):
        spans = {span.name for span in tracer.spans}
        assert [c for c in CHECK_SPANS if c not in spans] == []
