"""Structured pass/fail records emitted by the verification operations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def format_float(x: float) -> str:
    """Decimal rendering with 17 significant digits (round-trips exactly)."""
    return format(x, ".17g")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


@dataclass
class CheckReport:
    """Outcome of a single verification run.

    ``min_slack`` is the smallest margin by which the checked inequality held
    (negative means a violation); ``None`` when the check was vacuous.
    """

    name: str
    parameters: dict
    passed: bool
    min_slack: float | None
    details: dict = field(default_factory=dict)

    def to_text(self) -> str:
        record = {
            "name": self.name,
            "parameters": _jsonable(self.parameters),
            "pass": self.passed,
            "min_slack": _jsonable(self.min_slack),
            "details": _jsonable(self.details),
        }
        return json.dumps(record, indent=2, sort_keys=False)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        slack = "" if self.min_slack is None else f"  min_slack={self.min_slack:.6g}"
        return f"{status} {self.name}{slack}"
