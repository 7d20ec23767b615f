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
"""

import hashlib
from pathlib import Path

from dualmds.cli import main

DATA = Path(__file__).parent / "data"
NEARNESS_N40_TRIPLETS_SHA256 = (
    "3238fc26f972ac16f9b6b5756ba499d3f2e28b6b348693c02febcf41af3b8f91"
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
