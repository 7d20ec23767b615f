"""Batch command-line front end.

Subcommands: ``gen`` (random configuration to CSV), ``embed`` (distances
to coordinates), ``verify`` (closed-form check suite), ``noise``
(amplification experiments), ``nearness`` (constraint-matrix export and
checks), ``basis`` (print the small objects for inspection).

Exit codes: 0 all checks passed, 1 a check failed, 2 domain error
(invalid parameters, non-Euclidean input, a run refused by the memory
estimate, memory exhausted), 3 parse or I/O error, 4 internal error (any other
exception, reported on one stderr line and never as a failed check).
Reports print to stdout as text by default or as JSON with ``--format
json``; JSON output is byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import _reference
from .basis import (basis_atom, basis_gram, dual_atom, dual_gram_matrix,
                    require_dense_memory, require_memory)
from .errors import DomainError, NonEuclideanError, ParseError, ResourceLimitError
from .fileio import (CSV_BLOCK_ENTRIES, TRIPLET_BLOCK_LINES, format_float, read_matrix_csv,
                     write_integer_csv, write_matrix_csv, write_triplets)
from .mds import CERTIFIED_MIN_N, embed, squared_distances
from .nearness import (NEARNESS_ROW_BYTES, constraint_gram_deviation, constraint_matrix,
                       num_constraints, singular_value_verdict)
from .pairspace import PairIndex, PointConfiguration, SquaredDistanceMatrix
from .report import CheckResult, RunReport
from .stability import noise_experiment
from .verification import run_verification


def _emit(report: RunReport, fmt: str, out_path: str | None) -> None:
    text = report.to_json() if fmt == "json" else report.to_text()
    print(text)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.write("\n")


def _finish(report: RunReport, started: float, fmt: str,
            out_path: str | None) -> int:
    report.duration_s = time.perf_counter() - started
    _emit(report, fmt, out_path)
    return 0 if report.overall else 1


def cmd_gen(args) -> int:
    if not args.n > args.r >= 1:
        raise DomainError(f"need n > r >= 1, got n={args.n}, r={args.r}")
    rng = np.random.default_rng(args.seed)
    P = PointConfiguration(rng.standard_normal((args.n, args.r)))
    D = squared_distances(P)
    points_path = f"{args.out}_points.csv"
    dist_path = f"{args.out}_dist.csv"
    write_matrix_csv(points_path, P.points)
    write_matrix_csv(dist_path, D.entries)
    print(f"dualmds gen: wrote {points_path} and {dist_path} "
          f"(n={args.n}, r={args.r}, seed={args.seed})")
    return 0


def _dense_euclidean_payload(n: int, lambda_min: float) -> dict:
    """The dense route's Euclidean payload; it names the route where embed has two."""
    payload = {"lambda_min": lambda_min}
    return {"route": "dense", **payload} if n >= CERTIFIED_MIN_N else payload


def cmd_embed(args) -> int:
    started = time.perf_counter()
    try:
        D = SquaredDistanceMatrix(read_matrix_csv(args.distances))
    except DomainError as exc:
        raise ParseError(
            f"{args.distances}: not a valid squared-distance matrix: {exc}"
        ) from exc
    parameters = {"input": args.distances, "n": D.n, "r": args.r, "tol": args.tol}
    try:
        result = embed(D, r=args.r, tol=args.tol)
    except NonEuclideanError as exc:
        payload = _dense_euclidean_payload(D.n, exc.lambda_min)
        checks = [CheckResult("euclidean", False, payload)]
        report = RunReport("embed", parameters, checks)
        report.duration_s = time.perf_counter() - started
        _emit(report, args.format, None)
        return 2
    if result.route == "certified":
        euclidean = {"route": result.route,
                     "lambda_min_lower_bound": result.lambda_min,
                     "residual_norm": result.residual_norm}
        mass_key = "discarded_mass_upper_bound"
    else:
        euclidean = _dense_euclidean_payload(D.n, result.lambda_min)
        mass_key = "discarded_mass"
    checks = [
        CheckResult("euclidean", True, euclidean),
        CheckResult(
            "embedding",
            True,
            {
                "detected_rank": result.rank,
                "retained_eigenvalues": list(result.eigenvalues),
                mass_key: result.discarded_mass,
            },
        ),
    ]
    if args.out:
        write_matrix_csv(args.out, result.points.points)
        checks.append(CheckResult("output", True, {"points_file": args.out}))
    return _finish(RunReport("embed", parameters, checks), started,
                   args.format, None)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    checks = run_verification(args.n, seed=0)
    return _finish(RunReport("verify", {"n": args.n, "seed": 0}, checks),
                   started, args.format, args.out)


def cmd_noise(args) -> int:
    started = time.perf_counter()
    result = noise_experiment(args.n, args.r, args.epsilon, args.trials, args.seed)
    parameters = {
        "n": args.n,
        "r": args.r,
        "epsilon": args.epsilon,
        "trials": args.trials,
        "seed": args.seed,
    }
    checks = [
        CheckResult(
            "noise_bound",
            result.passed,
            {
                "max_observed_ratio": result.max_ratio,
                "amplification_factor": result.factor,
                "bound": result.bound,
                "attained_factor": result.attained,
                "adversarial_ratio": result.adversarial_ratio,
            },
        )
    ]
    return _finish(RunReport("noise", parameters, checks), started,
                   args.format, args.out)


def cmd_nearness(args) -> int:
    started = time.perf_counter()
    require_memory(args.n, NEARNESS_ROW_BYTES * num_constraints(args.n), "nearness")
    A = constraint_matrix(args.n)
    parameters = {"n": args.n, "format": args.format}
    if args.out:
        if args.format == "dense":
            write_integer_csv(args.out, A.dense_blocks(CSV_BLOCK_ENTRIES))
        else:
            write_triplets(args.out, A.triplet_blocks(TRIPLET_BLOCK_LINES))
        parameters["out"] = args.out
    deviation = constraint_gram_deviation(A)
    sv_ok, groups = singular_value_verdict(A, deviation == 0)
    checks = [
        CheckResult(
            "shape",
            True,
            {"rows": A.num_rows, "columns": A.num_cols,
             "nonzeros": 3 * A.num_rows},
        ),
        CheckResult("gram_identity", deviation == 0, {"max_deviation": deviation}),
        CheckResult("singular_values", sv_ok, {"groups": groups}),
    ]
    return _finish(RunReport("nearness", parameters, checks), started,
                   "text", None)


def _matrix_lines(M: np.ndarray, integer: bool = False) -> list[str]:
    out = []
    for row in np.atleast_2d(M):
        if integer:
            out.append("  ".join(f"{int(v):d}" for v in row))
        else:
            out.append("  ".join(format_float(v) for v in row))
    return out


# Peak of `dualmds basis` in L x L float64 arrays, per format, for the
# up-front refusal; every entry of H and G is rendered.  Measured peak RSS at
# n = 40, 60, 80: text 69, 234, 688 MB (a slope of 8.7 arrays), json 240,
# 1075, 3358 MB (43.7 arrays); rounded up.
BASIS_PEAK_ARRAYS = {"text": 10, "json": 45}


def cmd_basis(args) -> int:
    n = args.n
    require_dense_memory(n, BASIS_PEAK_ARRAYS[args.format], "basis")
    alpha = PairIndex(1, 2, n)
    w = basis_atom(alpha).entries
    v = dual_atom(alpha).materialize()
    H = basis_gram(n).entries
    G = dual_gram_matrix(n)
    if args.format == "json":
        report = RunReport(
            "basis",
            {"n": n, "pair": [alpha.i, alpha.j]},
            [
                CheckResult(
                    "objects",
                    True,
                    {
                        "atom": w,
                        "dual_atom": v,
                        "atom_gram": H,
                        "dual_gram": G,
                    },
                )
            ],
        )
        _emit(report, "json", args.out)
        return 0
    lines = [f"dualmds basis (n={n}, pair=({alpha.i},{alpha.j}))", ""]
    lines.append(f"atom w({alpha.i},{alpha.j}):")
    lines.extend(_matrix_lines(w, integer=True))
    lines.append("")
    lines.append(f"dual atom v({alpha.i},{alpha.j}):")
    lines.extend(_matrix_lines(v))
    lines.append("")
    lines.append("atom Gram matrix:")
    lines.extend(_matrix_lines(H, integer=True))
    lines.append("")
    lines.append("dual Gram matrix (inverse of the above):")
    lines.extend(_matrix_lines(G))
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmds",
        description="Classical multidimensional scaling through a dual basis "
                    "of rank-2 atoms, with closed-form self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a seeded random configuration and "
                                   "its squared distances as CSV")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--r", type=int, required=True, help="embedding dimension")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", required=True,
                   help="output prefix: writes PREFIX_points.csv and PREFIX_dist.csv")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", help="recover coordinates from a squared-"
                                     "distance CSV")
    p.add_argument("distances", help="path to the squared-distance CSV")
    p.add_argument("--r", type=int, default=None, help="target dimension "
                   "(default: detected rank)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="rank / positive-semidefiniteness tolerance")
    p.add_argument("--out", default=None, help="write recovered points CSV here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run the closed-form verification suite")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("noise", help="seeded additive-noise amplification trials")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--r", type=int, default=2, help="embedding dimension")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="noise level: entries uniform in [-epsilon, epsilon]")
    p.add_argument("--trials", type=int, default=100, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("nearness", help="triangle-inequality constraint matrix: "
                                        "export and checks")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--out", default=None, help="write the constraint matrix here")
    p.add_argument("--format", choices=("dense", "triplets"), default="dense",
                   help="matrix file format")
    p.set_defaults(func=cmd_nearness)

    p = sub.add_parser("basis", help="print the atom family objects for one size")
    p.add_argument("--n", type=int, default=_reference.REFERENCE_N,
                   help="number of points")
    p.add_argument("--out", default=None, help="also write the output here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_basis)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
