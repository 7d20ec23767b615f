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

``data/embed_n200.json`` and ``data/embed_non_euclidean.json`` are the
``embed --format json`` reports, and the second digest below is that of
the points file written by the first, all recorded when ``embed`` still
parsed its CSV value by value with ``float()`` and ran the Euclidean test
as a separate double centering and eigendecomposition.  The same BLAS
caveat applies.
"""

import hashlib
from pathlib import Path

import numpy as np

from dualmds.cli import main

DATA = Path(__file__).parent / "data"
NEARNESS_N40_TRIPLETS_SHA256 = (
    "3238fc26f972ac16f9b6b5756ba499d3f2e28b6b348693c02febcf41af3b8f91"
)
EMBED_N200_POINTS_SHA256 = (
    "f13ec99a96af480b8d4b6eb0ffb40c3755ffcd296d1fdf08047a65a06c507580"
)


def test_verify_n40_report(capsys):
    assert main(["verify", "--n", "40"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.lstrip().startswith("elapsed_seconds:")]
    assert "\n".join(lines) + "\n" == (DATA / "verify_n40.txt").read_text()


def test_nearness_n40_triplet_export(tmp_path, capsys):
    out = tmp_path / "A.txt"
    assert main(["nearness", "--n", "40", "--format", "triplets",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == NEARNESS_N40_TRIPLETS_SHA256



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
