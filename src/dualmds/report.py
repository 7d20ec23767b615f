"""Structured run reports shared by all CLI commands.

A report is a list of named checks, each carrying a pass flag and a
payload of labeled numbers.  It renders two ways: a human-readable text
block (which includes the wall-clock duration) and a JSON document
(which deliberately omits the duration so that reruns with the same
seed are byte-identical).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fileio import format_float


def jsonable(value):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def _render_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    return str(value)


@dataclass(frozen=True)
class CheckResult:
    """One named check with its labeled numeric payload."""

    name: str
    passed: bool
    payload: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything one command run produced, pass/fail first."""

    command: str
    parameters: dict
    checks: list[CheckResult]
    duration_s: float = 0.0

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"dualmds {self.command}"]
        if self.parameters:
            params = ", ".join(f"{k}={_render_value(jsonable(v))}"
                               for k, v in self.parameters.items())
            lines.append(f"  parameters: {params}")
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = "; ".join(f"{k}={_render_value(jsonable(v))}"
                               for k, v in check.payload.items())
            suffix = f": {detail}" if detail else ""
            lines.append(f"  [{status}] {check.name}{suffix}")
        lines.append(f"  overall: {'PASS' if self.overall else 'FAIL'}")
        lines.append(f"  elapsed_seconds: {self.duration_s:.3f}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": jsonable(self.parameters),
            "checks": [
                {"name": c.name, "pass": jsonable(c.passed),
                 "payload": jsonable(c.payload)}
                for c in self.checks
            ],
            "pass": jsonable(self.overall),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)
