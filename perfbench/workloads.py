"""The benchmark's workloads: inputs made from a seed, argv, output checks.

Each workload stresses different dualmds layers, so a change to one
layer shows on the workload that exercises it and not on the others:

* ``verify-n40``: ``verify --n 40`` in text format.  The only workload
  dominated by ``basis`` (triangular-graph adjacency), the O(L^2)
  ``verification`` loops, ``nearness`` construction and a dense 780 x 780
  ``spectral`` eigendecomposition.  Text, not JSON: ``verify --format
  json`` crashes for n >= 11, and the benchmark does not work around that.
* ``noise-n64``: ``noise --n 64 --r 2 --trials 200``.  Thousands of small
  calls: 400 atom expansions at L = 2016 in ``_kernels``/``mds``, the
  per-trial ``stability`` glue and ``pairspace`` validation.
* ``embed-n1000``: ``embed`` of a 1000-point configuration in R^3, given
  as an ~18 MB repr-float CSV.  Dominated by the ``fileio`` read,
  validation of 10^6 entries, and two double centerings and two n = 1000
  eigendecompositions.
* ``nearness-n40-export``: ``nearness --n 40 --format triplets``.  The
  write side of ``fileio`` (88,920 lines) and the ``ConstraintMatrix``
  Python loops.

Every operation's output is checked independently of the program's own
verdict where that is cheap; :meth:`check` returns a reason on failure.
"""

from __future__ import annotations

import re
from math import comb
from pathlib import Path

import numpy as np


def _payload_float(text: str, key: str) -> float:
    match = re.search(rf"\b{key}=([^;\s]+)", text)
    if match is None:
        raise ValueError(f"report has no {key}")
    return float(match.group(1))


class Verify:
    name = "verify-n40"
    why = ("closed-form check suite at n=40: basis adjacency, O(L^2) "
           "verification loops and dense 780x780 eigh; file I/O idle")

    def __init__(self, seed: int, workdir: Path):
        self.argv = ["verify", "--n", "40"]

    def reset(self) -> None:
        pass

    def check(self, code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        statuses = re.findall(r"^\s+\[(\w+)\] ", out, flags=re.MULTILINE)
        if not statuses:
            return "no check lines in the report"
        failing = [s for s in statuses if s != "PASS"]
        if failing:
            return f"{len(failing)} of {len(statuses)} check lines not [PASS]"
        return None


class Noise:
    name = "noise-n64"
    why = ("200 seeded noise trials at n=64: 400 atom expansions in "
           "_kernels/mds, stability glue and validation; no eigh, no file I/O")

    def __init__(self, seed: int, workdir: Path):
        derived = int(np.random.SeedSequence(seed).generate_state(1)[0])
        self.argv = ["noise", "--n", "64", "--r", "2", "--trials", "200",
                     "--seed", str(derived)]
        self.reference: str | None = None

    def reset(self) -> None:
        pass

    def check(self, code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            ratio = _payload_float(out, "max_observed_ratio")
            factor = _payload_float(out, "amplification_factor")
        except ValueError as exc:
            return str(exc)
        if not 0.0 < ratio <= factor < 4.0:
            return f"expected 0 < {ratio} <= {factor} < 4"
        text = re.sub(r"^\s*elapsed_seconds:.*$", "", out, flags=re.MULTILINE)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "report differs from the first run with the same seed"
        return None


class Embed:
    name = "embed-n1000"
    why = ("one 18 MB CSV of 1000 points in R^3: CSV parse, validation of "
           "10^6 entries, double centering and n=1000 eigh, each twice")

    N = 1000
    R = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.points = rng.standard_normal((self.N, self.R))
        self.distances = workdir / "distances.csv"
        self.output = workdir / "points.csv"
        # Row by row, so the benchmark's own buffers stay small next to the
        # program's peak memory; each entry is exactly symmetric and the
        # diagonal exactly zero.
        with open(self.distances, "w", encoding="ascii") as fh:
            for p in self.points:
                row = ((self.points - p) ** 2).sum(axis=1)
                fh.write(",".join(map(repr, row.tolist())))
                fh.write("\n")
        self.argv = ["embed", str(self.distances), "--r", str(self.R),
                     "--out", str(self.output)]

    def reset(self) -> None:
        self.output.unlink(missing_ok=True)

    def check(self, code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        match = re.search(r"\bdetected_rank=(\d+)", out)
        if match is None or int(match.group(1)) != self.R:
            return f"detected rank is not {self.R}"
        try:
            recovered = np.loadtxt(self.output, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            return f"cannot read the written points: {exc}"
        if recovered.shape != self.points.shape:
            return f"written points have shape {recovered.shape}"
        A = recovered - recovered.mean(axis=0)
        B = self.points - self.points.mean(axis=0)
        nuclear = np.linalg.svd(A.T @ B, compute_uv=False).sum()
        residual = np.sqrt(max(np.sum(A * A) + np.sum(B * B) - 2.0 * nuclear, 0.0))
        relative = residual / np.linalg.norm(B)
        if not relative <= 1e-6:
            return f"Procrustes residual {relative:.3e} relative exceeds 1e-6"
        return None


class NearnessExport:
    name = "nearness-n40-export"
    why = ("triangle-constraint export at n=40: 88,920 triplet lines written, "
           "ConstraintMatrix loops; the write side of fileio")

    N = 40

    def __init__(self, seed: int, workdir: Path):
        self.output = workdir / "constraints.txt"
        self.argv = ["nearness", "--n", str(self.N), "--format", "triplets",
                     "--out", str(self.output)]

    def reset(self) -> None:
        self.output.unlink(missing_ok=True)

    def check(self, code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rows = 3 * comb(self.N, 3)
        try:
            text = self.output.read_text(encoding="ascii")
        except OSError as exc:
            return f"cannot read the triplet file: {exc}"
        if text.count("\n") != 3 * rows:
            return f"triplet file has {text.count(chr(10))} lines, expected {3 * rows}"
        try:
            entries = np.array(text.split(), dtype=np.int64).reshape(-1, 3)
        except ValueError as exc:
            return f"malformed triplet file: {exc}"
        row, sign = entries[:, 0], entries[:, 2]
        if row.min() < 1 or row.max() > rows or not np.all(np.abs(sign) == 1):
            return "triplet rows or signs out of range"
        plus = np.bincount(row, weights=sign == 1, minlength=rows + 1)[1:]
        minus = np.bincount(row, weights=sign == -1, minlength=rows + 1)[1:]
        if not (np.all(plus == 1) and np.all(minus == 2)):
            return "a row lacks exactly one +1 and two -1 entries"
        return None


WORKLOADS = {w.name: w for w in (Verify, Noise, Embed, NearnessExport)}
