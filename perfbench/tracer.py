"""Layer tracing for the dualmds benchmark, applied from outside the package.

The tracer replaces selected functions and methods of the ``dualmds``
modules with wrappers that record one span per call: name, start, end,
parent span and operation id.  ``cli``, ``verification``, ``stability``,
``mds`` and ``nearness`` import their collaborators by name, so a
function is rebound at every ``dualmds`` module attribute that holds it;
for classes the wrapper goes on the class itself.  Nothing under ``src/``
is edited, and :meth:`Tracer.uninstall` restores every original.

A target that no longer exists (renamed or removed) is skipped; a span
name none of whose targets could be installed is listed in
:attr:`Tracer.absent`, and the metrics derived from it are reported as
absent rather than zero.  Verification checks are found by scanning
``dualmds.verification`` for functions and are keyed by the
``CheckResult.name`` they return, so renaming a ``_check_*`` function
does not rename its metric.

Instrumentation work (argument hashing, file sizes, bookkeeping) happens
outside the span's own [start, end] interval; a parent's self time is its
duration minus the full extent of its children, so that work is charged
to no layer.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(_first_arg(args, kwargs, "path")).st_size}


def _atoms(args, kwargs, result):
    return {"atoms": int(np.size(_first_arg(args, kwargs, "coeffs")))}


def _dim3(args, kwargs, result):
    return {"dim3_sum": int(np.shape(_first_arg(args, kwargs, "M"))[0]) ** 3}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives and what its span records.

    ``owner`` names a class in ``module`` when ``attr`` is a method.
    ``counts`` maps (args, kwargs, result) to exact per-call counts;
    ``keyed`` hashes the arguments so repeated calls can be recognized.
    """

    module: str
    attr: str
    span: str
    owner: str | None = None
    counts: Callable[[tuple, dict, object], dict] | None = None
    keyed: bool = False


TARGETS = (
    Target("cli", "main", "cli"),
    Target("report", "to_text", "report.render", owner="RunReport"),
    Target("report", "to_json", "report.render", owner="RunReport"),
    Target("fileio", "read_matrix_csv", "fileio.read_matrix_csv", counts=_file_bytes),
    Target("fileio", "write_matrix_csv", "fileio.write", counts=_file_bytes),
    Target("fileio", "write_triplets", "fileio.write", counts=_file_bytes),
    Target("pairspace", "__init__", "pairspace.validate", owner="SquaredDistanceMatrix"),
    Target("pairspace", "__init__", "pairspace.validate", owner="GramMatrix"),
    Target("pairspace", "__init__", "pairspace.validate", owner="PointConfiguration"),
    Target("pairspace", "__init__", "pairspace.validate", owner="CenteringMatrix"),
    Target("mds", "double_center", "mds.double_center", keyed=True),
    Target("mds", "expand_coefficients", "mds.expand_coefficients"),
    Target("mds", "dual_expansion", "mds.dual_expansion"),
    Target("mds", "squared_distances", "mds.squared_distances"),
    Target("mds", "is_euclidean", "mds.is_euclidean"),
    Target("mds", "embed", "mds.embed"),
    Target("mds", "procrustes_residual", "mds.procrustes_residual"),
    Target("_kernels", "expand_kernel", "kernels.expand_kernel", counts=_atoms),
    Target("_kernels", "amplification_kernel", "kernels.amplification_kernel"),
    Target("spectral", "sym_eig", "spectral.sym_eig", counts=_dim3, keyed=True),
    Target("spectral", "group_spectrum", "spectral.group_spectrum"),
    Target("basis", "basis_gram", "basis.basis_gram", keyed=True),
    Target("basis", "triangular_graph_adjacency", "basis.triangular_graph_adjacency"),
    Target("basis", "dual_atom", "basis.dual_atom"),
    Target("basis", "dual_gram_matrix", "basis.dual_gram_matrix"),
    Target("nearness", "constraint_matrix", "nearness.constraint_matrix", keyed=True),
    Target("nearness", "constraint_gram", "nearness.constraint_gram"),
    Target("nearness", "gram_identity_check", "nearness.gram_identity_check"),
    Target("nearness", "triplets", "nearness.triplets", owner="ConstraintMatrix"),
    Target("stability", "noise_experiment", "stability.noise_experiment"),
    Target("stability", "perturbed_gram", "stability.perturbed_gram"),
    Target("stability", "amplification_factor", "stability.amplification_factor"),
    Target("stability", "__post_init__", "stability.NoiseMatrix", owner="NoiseMatrix"),
)

CHECK_PREFIX = "verification.check."


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).data)
    elif value is None or isinstance(value, (bool, int, float, str, np.generic)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, (list, tuple)):
        h.update(b"(")
        for item in value:
            _feed(h, item)
        h.update(b")")
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    else:
        h.update(type(value).__qualname__.encode())
        state = getattr(value, "__dict__", None)
        if state is None:
            slots = getattr(type(value), "__slots__", ())
            state = {s: getattr(value, s, None) for s in slots}
        _feed(h, state)


def fingerprint(args, kwargs) -> bytes:
    """Digest of a call's arguments; equal arguments give equal digests."""
    h = hashlib.sha1(usedforsecurity=False)
    _feed(h, (args, kwargs))
    return h.digest()


class Span:
    """One traced call.  ``outer`` is its full extent including tracing work."""

    __slots__ = ("name", "start", "end", "parent", "op", "outer", "counts", "key")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = self.outer = 0.0
        self.counts = None
        self.key = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class Tracer:
    """Installs span-recording wrappers into the imported dualmds modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dualmds" or name.startswith("dualmds.")}
        installed = set()
        for target in TARGETS:
            module = modules.get(f"dualmds.{target.module}")
            if target.owner is None:
                original = getattr(module, target.attr, None)
            else:
                owner = getattr(module, target.owner, None)
                original = vars(owner).get(target.attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(original, target.span, target.counts, target.keyed)
            if target.owner is None:
                self._rebind(modules, original, wrapper)
            else:
                self._set(owner, target.attr, wrapper)
            installed.add(target.span)
        self.absent = sorted({t.span for t in TARGETS} - installed)
        verification = modules.get("dualmds.verification")
        if verification is None:
            self.absent.append("verification")
            return
        for attr, fn in list(vars(verification).items()):
            if (inspect.isfunction(fn) and fn.__module__ == verification.__name__
                    and not inspect.isgeneratorfunction(fn)):
                self._rebind(modules, fn, self._wrap(fn, f"verification.{attr}",
                                                     None, False, checks=True))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _set(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap(self, fn, name, counts, keyed, checks=False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer_start = clock()
            span = Span(name, stack[-1] if stack else None, self.op)
            if keyed:
                span.key = fingerprint(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                span.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                if counts is not None:
                    span.counts = counts(args, kwargs, result)
                if checks and hasattr(result, "name") and hasattr(result, "passed"):
                    span.name = CHECK_PREFIX + str(result.name)
                return result
            finally:
                span.outer = clock() - outer_start

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the full extent of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.outer
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def per_op(self, ops: int) -> dict:
        """Totals per span name, averaged over ``ops`` traced operations.

        Each entry holds ``self_s`` and ``inclusive_s`` (seconds), ``calls``,
        the summed counts, and ``redundant_frac``: the share of calls whose
        arguments equal those of an earlier call in the same operation
        (keyed targets only).
        """
        totals: dict[str, dict] = {}
        seen: set[tuple] = set()
        for span, self_s in zip(self.spans, self.self_times()):
            entry = totals.setdefault(span.name, {"self_s": 0.0, "inclusive_s": 0.0,
                                                  "calls": 0, "repeats": 0})
            entry["self_s"] += self_s
            entry["inclusive_s"] += span.end - span.start
            entry["calls"] += 1
            for key, value in (span.counts or {}).items():
                entry[key] = entry.get(key, 0) + value
            if span.key is not None:
                mark = (span.op, span.name, span.key)
                if mark in seen:
                    entry["repeats"] += 1
                seen.add(mark)
        for entry in totals.values():
            entry["redundant_frac"] = entry.pop("repeats") / entry["calls"]
            for key in entry:
                if key != "redundant_frac":
                    entry[key] /= ops
        return totals

    def root_children_s(self) -> float:
        """Summed duration of spans called directly from a root span."""
        roots = {i for i, s in enumerate(self.spans) if s.parent is None}
        return sum(s.end - s.start for s in self.spans if s.parent in roots)
