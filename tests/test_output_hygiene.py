"""Nothing a benchmark operation does may reach the process's stdout or stderr.

``perfbench/run.py`` calls ``dualmds.cli.main`` in process with
``sys.stdout`` and ``sys.stderr`` redirected to buffers, and its last
stdout line is its JSON result.  Output that escapes the redirection (a
stream bound at import, a logging handler, a thread or a child process
writing to the file descriptors) would land after that line, and the run
would measure nothing.  Each workload's argv runs here the same way, with
fds 1 and 2 captured underneath.  The CSV reader forks children in the
benchmark's own process; none of them may outlive the operation.
"""

import contextlib
import importlib.util
import io
import os
import threading
from pathlib import Path

import pytest

from dualmds import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_writes_only_to_redirected_streams(name, tmp_path, capfd):
    workload = WORKLOADS[name](1, tmp_path)
    capfd.readouterr()
    threads = threading.active_count()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(workload.argv)
    assert code == 0
    assert workload.check(code, out.getvalue()) is None
    assert err.getvalue() == ""
    assert capfd.readouterr() == ("", "")
    assert threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
