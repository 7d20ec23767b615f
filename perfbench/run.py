#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dualmds command line.

Run from the root of a dualmds checkout:

    python3 perfbench/run.py --workload verify-n40 --seed 1 --seconds 22 --trace 0

The process imports ``dualmds`` from ``src/`` and is the single, closed-loop
caller of ``dualmds.cli.main(argv)``, in process, with stdout captured: it
starts the next operation only after the previous one returned and its
output passed the workload's check.  Inputs are generated from ``--seed``
before timing starts; the program receives only the generated files.

``--trace 0`` times the loop for ``--seconds`` and prints the end-to-end
metrics; ``setup_s`` is the median time to import ``dualmds.cli`` in fresh
interpreters started at intervals through the run.  End-to-end times are
scaled to a reference host speed measured between operations (see
``HostClock``); the raw wall-clock figures are in the summary line.
``--trace 1`` alternates untraced and traced operations (see ``tracer.py``)
for ``--seconds`` and prints the per-layer metrics, per traced operation,
unscaled.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it record the
environment (nproc, Python, numpy, BLAS and its threads, numba) and a
summary: sample count, ``latency_s.tail`` (the highest sample with ten
samples beyond it) and its percentile, the host speed, the raw median
latency and setup time, ``ops_failed_frac`` and the load average before
and after.  The same record, with the spans of a traced run, is written to
``.perfbench/`` at the checkout root.

An operation fails on a non-zero exit code, an exception, or a failed
output check.  Failed operations count in ``failed``; their reasons are in
the summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 9
SETUP_SETTLE_S = 0.2
CAL_REF_S = 0.03
TAIL_BEYOND = 10
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import dualmds.cli; print(time.perf_counter() - t)"
)

# latency_s.tail is printed in the summary line but not declared as an
# end-to-end metric: on a shared host its run-to-run spread is too wide for
# a regression bound.
END_TO_END = {
    "latency_s.p50": "s",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric name -> (unit, better, span name, field of Tracer.per_op)
PER_LAYER = {
    "cli.self_s": ("s", "lower", "cli", "self_s"),
    "report.render.s": ("s", "lower", "report.render", "self_s"),
    "fileio.read_matrix_csv.s": ("s", "lower", "fileio.read_matrix_csv", "self_s"),
    "fileio.read_matrix_csv.bytes": ("bytes", "lower", "fileio.read_matrix_csv", "bytes"),
    "fileio.write.s": ("s", "lower", "fileio.write", "self_s"),
    "fileio.write.bytes": ("bytes", "lower", "fileio.write", "bytes"),
    "pairspace.validate.s": ("s", "lower", "pairspace.validate", "self_s"),
    "pairspace.validate.calls": ("count", "lower", "pairspace.validate", "calls"),
    "mds.double_center.s": ("s", "lower", "mds.double_center", "self_s"),
    "mds.double_center.calls": ("count", "lower", "mds.double_center", "calls"),
    "mds.double_center.redundant_frac": ("fraction", "lower", "mds.double_center",
                                         "redundant_frac"),
    "mds.expand_coefficients.s": ("s", "lower", "mds.expand_coefficients", "self_s"),
    "mds.expand_coefficients.calls": ("count", "lower", "mds.expand_coefficients", "calls"),
    "mds.squared_distances.s": ("s", "lower", "mds.squared_distances", "self_s"),
    "mds.procrustes_residual.s": ("s", "lower", "mds.procrustes_residual", "self_s"),
    "kernels.expand_kernel.s": ("s", "lower", "kernels.expand_kernel", "self_s"),
    "kernels.expand_kernel.calls": ("count", "lower", "kernels.expand_kernel", "calls"),
    "kernels.expand_kernel.atoms": ("count", "lower", "kernels.expand_kernel", "atoms"),
    "kernels.amplification_kernel.s": ("s", "lower", "kernels.amplification_kernel",
                                       "self_s"),
    "spectral.sym_eig.s": ("s", "lower", "spectral.sym_eig", "self_s"),
    "spectral.sym_eig.calls": ("count", "lower", "spectral.sym_eig", "calls"),
    "spectral.sym_eig.dim3_sum": ("count", "lower", "spectral.sym_eig", "dim3_sum"),
    "spectral.sym_eig.redundant_frac": ("fraction", "lower", "spectral.sym_eig",
                                        "redundant_frac"),
    "spectral.group_spectrum.s": ("s", "lower", "spectral.group_spectrum", "self_s"),
    "basis.basis_gram.s": ("s", "lower", "basis.basis_gram", "self_s"),
    "basis.basis_gram.calls": ("count", "lower", "basis.basis_gram", "calls"),
    "basis.basis_gram.redundant_frac": ("fraction", "lower", "basis.basis_gram",
                                        "redundant_frac"),
    "basis.triangular_graph_adjacency.s": ("s", "lower", "basis.triangular_graph_adjacency",
                                           "self_s"),
    "basis.dual_atom.s": ("s", "lower", "basis.dual_atom", "self_s"),
    "basis.dual_atom.calls": ("count", "lower", "basis.dual_atom", "calls"),
    "basis.dual_gram_matrix.s": ("s", "lower", "basis.dual_gram_matrix", "self_s"),
    "nearness.constraint_matrix.s": ("s", "lower", "nearness.constraint_matrix", "self_s"),
    "nearness.constraint_matrix.calls": ("count", "lower", "nearness.constraint_matrix",
                                         "calls"),
    "nearness.constraint_matrix.redundant_frac": ("fraction", "lower",
                                                  "nearness.constraint_matrix",
                                                  "redundant_frac"),
    "nearness.constraint_gram.s": ("s", "lower", "nearness.constraint_gram", "self_s"),
    "nearness.triplets.s": ("s", "lower", "nearness.triplets", "self_s"),
    "stability.noise_experiment.self_s": ("s", "lower", "stability.noise_experiment",
                                          "self_s"),
    "stability.NoiseMatrix.s": ("s", "lower", "stability.NoiseMatrix", "self_s"),
}
# Inclusive time per verification check, keyed by the name the check reports.
CHECKS = ("atom_gram_spectrum", "triangular_decomposition", "biorthogonality",
          "dual_atom_spectrum", "dual_gram_inverse", "expansion_equivalence",
          "embedding_round_trip", "constraint_gram_identity",
          "constraint_singular_values")
for _check in CHECKS:
    PER_LAYER[f"verification.check.{_check}.s"] = (
        "s", "lower", f"verification.check.{_check}", "inclusive_s")
# cpu_util is process CPU time over wall time of untraced operations, so BLAS
# threading shows; overhead_frac is the median traced/untraced ratio of
# adjacent operations, minus one; coverage_frac is the share of a traced
# operation's wall time inside the spans that the cli root calls.
PROCESS_AND_TRACE = {
    "process.cpu_s_per_op": ("s", "lower"),
    "process.cpu_util": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.coverage_frac": ("fraction", "higher"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Time to import dualmds.cli in a fresh interpreter, as measured inside it."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    numba = subprocess.run([sys.executable, "-I", "-c", "import numba"],
                           capture_output=True, timeout=120).returncode == 0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "numba_imports": numba,
    }


def call(cli, argv):
    """One operation: (exit code or None, stdout, error text, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
    return code, out.getvalue(), error or err.getvalue().strip() or None, wall, cpu


class Loop:
    """Closed-loop results: per-operation wall and CPU times, failures."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.walls)


def run_op(cli, workload, loop: Loop, tracer=None) -> None:
    """One checked operation, recorded in ``loop``.

    Live objects are frozen out of the cyclic collector first, so the
    operation's collections scan what it allocates, as in a fresh process,
    and not the harness's records or the spans of earlier operations.
    """
    workload.reset()
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.op = loop.attempted
    code, out, error, wall, cpu = call(cli, workload.argv)
    if code != 0 and error is not None:
        reason = error
    else:
        reason = workload.check(code, out)
    loop.walls.append(wall)
    loop.cpus.append(cpu)
    loop.ok.append(reason is None)
    if reason is not None:
        loop.failures.append(reason)


def run_loop(cli, workload, seconds: float, between=None) -> Loop:
    """Operations until ``seconds`` of looping have passed; at least one.

    ``between(elapsed)`` runs after each operation with the loop's elapsed
    seconds; the time it takes does not count toward ``seconds``.
    """
    loop = Loop()
    start = time.perf_counter()
    paused = 0.0
    while True:
        run_op(cli, workload, loop)
        if between is not None:
            pause = time.perf_counter()
            between(pause - start - paused)
            paused += time.perf_counter() - pause
        if time.perf_counter() - start - paused >= seconds:
            return loop


def run_traced(cli, workload, seconds: float):
    """Untraced and traced operations, alternating, for ``seconds``.

    Alternating keeps the host's drift out of the tracing overhead; the
    tracer is installed only around the traced operations.
    """
    from tracer import Tracer

    untraced, traced, tracer = Loop(), Loop(), Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_op(cli, workload, untraced)
        tracer.install()
        try:
            run_op(cli, workload, traced, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            return untraced, traced, tracer


class HostClock:
    """A fixed job, independent of dualmds, that measures the host's speed.

    The host is shared: its speed drifts by tens of percent over seconds
    to minutes, and equally for every workload.  Timing this job between
    operations gives each operation a scale, CAL_REF_S over the mean of the
    probes just before and just after it, so that reported times are
    seconds on a host where the job takes CAL_REF_S.  A change to dualmds
    does not touch the job, so it moves the scaled times as much as the raw
    ones.  The job mixes interpreter work (float formatting and parsing,
    sorting tuples) with LAPACK and BLAS calls, as the workloads do.
    """

    def __init__(self):
        grid = np.arange(200 * 200, dtype=float).reshape(200, 200)
        self._sym = np.cos(grid * 1e-3) + np.cos(grid * 1e-3).T
        self._mat = np.sin(np.arange(300 * 300, dtype=float).reshape(300, 300) * 2e-3)

    def probe(self) -> float:
        start = time.perf_counter()
        [float(repr(i * 0.37)) for i in range(20000)]
        sorted(((i * 7919) % 97, i) for i in range(20000))
        np.linalg.eigh(self._sym)
        self._mat @ self._mat.T
        return time.perf_counter() - start


class Reference:
    """Work between timed operations: host-speed probes and setup samples.

    ``probes[i]`` and ``probes[i + 1]`` bracket operation ``i``.  Setup
    samples are spread evenly over the loop, each paired with the mean of
    the probe just before it and one taken right after it.  Each sample first waits SETUP_SETTLE_S: OpenBLAS worker
    threads of this process keep spinning for a while after an operation,
    and a child started next to them imports markedly slower.
    """

    def __init__(self, seconds: float):
        self.clock = HostClock()
        self.probes = [self.clock.probe()]
        self.setup: list[tuple[float, float]] = []
        self.interval = seconds / (SETUP_SAMPLES - 1)
        self.sample_setup()

    def sample_setup(self) -> None:
        time.sleep(SETUP_SETTLE_S)
        raw = import_seconds()
        self.setup.append((raw, (self.probes[-1] + self.clock.probe()) / 2.0))

    def __call__(self, elapsed: float) -> None:
        self.probes.append(self.clock.probe())
        if elapsed >= self.interval * len(self.setup):
            self.sample_setup()

    def scales(self) -> list[float]:
        """Per operation: CAL_REF_S over the mean of its two probes."""
        return [2.0 * CAL_REF_S / (a + b) for a, b in zip(self.probes, self.probes[1:])]


def tail(walls: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest sample with TAIL_BEYOND samples beyond it.

    With no more than TAIL_BEYOND samples there is none; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(walls)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / len(ordered), ordered[k - 1]


def end_to_end(loop: Loop, ref: Reference) -> tuple[dict, dict]:
    """Host-scaled end-to-end metrics, and a summary with the raw figures."""
    scaled = [w * k for w, k in zip(loop.walls, ref.scales())]
    ok = [w for w, good in zip(scaled, loop.ok) if good] or scaled
    percentile, tail_value = tail(ok)
    values = {
        "latency_s.p50": statistics.median(ok),
        "throughput_ops_s": sum(loop.ok) / sum(scaled),
        "setup_s": statistics.median(raw * CAL_REF_S / probe for raw, probe in ref.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "samples": len(ok),
        "latency_s.tail": tail_value,
        "tail_percentile": percentile,
        "host_speed": CAL_REF_S / statistics.median(ref.probes),
        "raw_latency_s.p50": statistics.median(
            [w for w, good in zip(loop.walls, loop.ok) if good] or loop.walls),
        "raw_setup_s": statistics.median(raw for raw, _ in ref.setup),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes


def per_layer(tracer, untraced: Loop, traced: Loop) -> tuple[dict, list[str]]:
    """Per-operation layer metrics from the traced loop; absent names listed."""
    totals = tracer.per_op(traced.attempted)
    ran_verification = any(name.startswith("verification.") for name in totals)
    metrics, absent = {}, []
    for name, (unit, _better, span, field) in PER_LAYER.items():
        if span in tracer.absent or (
                span.startswith("verification.check.")
                and ("verification" in tracer.absent
                     or (ran_verification and span not in totals))):
            absent.append(name)
            continue
        value = totals.get(span, {}).get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    op_wall = sum(traced.walls) / traced.attempted
    extra = {
        "process.cpu_s_per_op": sum(untraced.cpus) / untraced.attempted,
        "process.cpu_util": sum(untraced.cpus) / sum(untraced.walls),
        "trace.overhead_frac": statistics.median(
            t / u for u, t in zip(untraced.walls, traced.walls)) - 1.0,
        "trace.coverage_frac": tracer.root_children_s() / traced.attempted / op_wall,
    }
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": PROCESS_AND_TRACE[name][0]}
    return metrics, absent


def load_cli():
    """Import dualmds from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("dualmds.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"dualmds was imported from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualmds" / "cli.py").is_file():
        print(f"perfbench: no dualmds sources at {SRC}; run from the root of a "
              "dualmds checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    env = environment()
    cli = load_cli()
    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env}
    try:
        workload = workload_cls(args.seed, workdir)
        warm = run_loop(cli, workload, 0.0)  # one warm-up operation, checked, untimed
        if args.trace == 0:
            ref = Reference(args.seconds)
            timed = run_loop(cli, workload, args.seconds, between=ref)
            metrics, notes = end_to_end(timed, ref)
            record["probes"] = ref.probes
            record["setup_samples"] = ref.setup
            loops = (timed,)
        else:
            untraced, traced, tracer = run_traced(cli, workload, args.seconds)
            metrics, absent = per_layer(tracer, untraced, traced)
            notes = {"absent": absent, "traced_ops": traced.attempted,
                     "untraced_ops": untraced.attempted}
            record["spans"] = [s.as_dict() for s in tracer.spans]
            record["span_totals"] = tracer.per_op(traced.attempted)
            loops = (untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = warm.attempted + sum(lp.attempted for lp in loops)
    failures = warm.failures + [f for lp in loops for f in lp.failures]
    notes.update({
        "ops_failed_frac": len(failures) / attempted,
        "failures": sorted(set(failures))[:5],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    })
    record["summary"] = notes
    record["walls"] = [lp.walls for lp in loops]
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print("environment", json.dumps(env))
    print("summary", json.dumps(notes))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
