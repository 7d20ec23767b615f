"""Byte-identity guards against outputs recorded from the loop implementations.

``data/verify_n40.txt`` is the text report of ``dualmds verify --n 40``
without its ``elapsed_seconds`` line, and the digest below is that of the
``nearness --n 40 --format triplets`` export, both as produced when the
biorthogonality check, the triangular-graph adjacency and the constraint
columns were still computed entry by entry in Python loops.  The
vectorized code must reproduce them byte for byte.  The payloads of the
spectrum, inverse and round-trip checks come from LAPACK/BLAS; they were
recorded with numpy's bundled OpenBLAS, and another BLAS build may differ
in their last digits.

``data/verify_n40.json`` and ``data/nearness_n40.txt`` are the reports of
``dualmds verify --n 40 --format json`` and of ``dualmds nearness --n 40``
(without ``elapsed_seconds``), recorded when ``verify`` and ``nearness``
still built the atom Gram matrix and the constraint matrix once per
check, and took every spectrum by a full eigendecomposition with
eigenvectors.  Their groups are printed to 9 digits, which the
eigenvalue-only LAPACK route must reproduce.

``data/embed_n200.json`` and ``data/embed_non_euclidean.json`` are the
``embed --format json`` reports, and the second digest below is that of
the points file written by the first, all recorded when ``embed`` still
parsed its CSV value by value with ``float()`` and ran the Euclidean test
as a separate double centering and eigendecomposition.  The same BLAS
caveat applies.

The ``nearness --n N --out A.csv`` digests (N = 4, 12, 20) and the
``gen --n 50 --r 3 --seed 0`` digests were recorded when both exports
held the whole matrix and wrote ``repr`` of each float from one
``tolist()``; the block-streamed writers must reproduce them byte for
byte.  The ``gen`` files carry the same BLAS caveat.

``data/noise_n64.json`` is the ``noise --n 64 --r 2 --trials 200 --seed 0
--format json`` report as computed by -1/2 J E J from row and grand
means, with the attained worst case and the adversarial trial.  The
earlier difference of two atom sums gave a ``max_observed_ratio`` that
differs in the last digits by roundoff, and had neither of those keys.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dualmds.cli import main

DATA = Path(__file__).parent / "data"
NEARNESS_N40_TRIPLETS_SHA256 = (
    "3238fc26f972ac16f9b6b5756ba499d3f2e28b6b348693c02febcf41af3b8f91"
)
NEARNESS_DENSE_SHA256 = {
    4: "eb06f252e6478c50da749cdc3eb798b3af180201de284b0419ce606d584231df",
    12: "73b75a890ec84b8c501571635ee1f0aeb464fb1580e1e87ef9843bbb64b0870f",
    20: "eb7e1b37cf4fd38e1d2f6cc658b1e95b7e11c6ebf696ef2aa0b873cc6b1cf6f8",
}
GEN_N50_SHA256 = {
    "points": "06a4898ee106ab610acbf97d8ff9b523d7d79635ace8859fc210a7ff2a3b0399",
    "dist": "8f29f926f12d72f0f2796ec5fa566619231c4a7c6e697a573a30f0a2178efaf2",
}
EMBED_N200_POINTS_SHA256 = (
    "f13ec99a96af480b8d4b6eb0ffb40c3755ffcd296d1fdf08047a65a06c507580"
)


def test_verify_n40_report(capsys):
    assert main(["verify", "--n", "40"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.lstrip().startswith("elapsed_seconds:")]
    assert "\n".join(lines) + "\n" == (DATA / "verify_n40.txt").read_text()


def test_verify_n40_json_report(capsys):
    assert main(["verify", "--n", "40", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_n40.json").read_text()


def test_nearness_n40_report(capsys):
    assert main(["nearness", "--n", "40"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.lstrip().startswith("elapsed_seconds:")]
    assert "\n".join(lines) + "\n" == (DATA / "nearness_n40.txt").read_text()


def test_nearness_n40_triplet_export(tmp_path, capsys):
    out = tmp_path / "A.txt"
    assert main(["nearness", "--n", "40", "--format", "triplets",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == NEARNESS_N40_TRIPLETS_SHA256


@pytest.mark.parametrize("n", sorted(NEARNESS_DENSE_SHA256))
def test_nearness_dense_export(n, tmp_path, capsys):
    out = tmp_path / "A.csv"
    assert main(["nearness", "--n", str(n), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NEARNESS_DENSE_SHA256[n]


def test_gen_n50_files(tmp_path, capsys):
    prefix = tmp_path / "g"
    assert main(["gen", "--n", "50", "--r", "3", "--seed", "0", "--out", str(prefix)]) == 0
    capsys.readouterr()
    for kind, expected in GEN_N50_SHA256.items():
        data = (tmp_path / f"g_{kind}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected


def write_embed_n200_csv(path: Path) -> None:
    """Squared distances of a seeded n=200 configuration in R^3, repr floats.

    Each row is computed as sum((P - p)**2), so the matrix is exactly
    symmetric with an exactly zero diagonal.
    """
    P = np.random.default_rng(200).standard_normal((200, 3))
    with open(path, "w", encoding="ascii") as fh:
        for p in P:
            fh.write(",".join(repr(v) for v in ((P - p) ** 2).sum(axis=1).tolist()))
            fh.write("\n")


def test_embed_n200_report_and_points(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_embed_n200_csv(tmp_path / "dist.csv")
    assert main(["embed", "dist.csv", "--r", "3", "--format", "json",
                 "--out", "points.csv"]) == 0
    assert capsys.readouterr().out == (DATA / "embed_n200.json").read_text()
    digest = hashlib.sha256((tmp_path / "points.csv").read_bytes()).hexdigest()
    assert digest == EMBED_N200_POINTS_SHA256


def test_embed_non_euclidean_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("0,1,9\n1,0,1\n9,1,0\n")
    assert main(["embed", "bad.csv", "--format", "json"]) == 2
    assert capsys.readouterr().out == \
        (DATA / "embed_non_euclidean.json").read_text()


def test_noise_n64_report(capsys):
    assert main(["noise", "--n", "64", "--r", "2", "--trials", "200",
                 "--seed", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "noise_n64.json").read_text()
