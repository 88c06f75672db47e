"""Typed health checks for the admin endpoints.

``/healthz`` (liveness) and ``/readyz`` (readiness) should never be a
bare 200/500: an operator paging at 3am needs to know *which* check
failed.  A :class:`HealthReport` is a tuple of named, typed
:class:`HealthCheck` results — the HTTP layer maps ``report.ok`` to the
status code and serializes the full report as the JSON body, so the
failing check (worker pool dead, queue saturated, …) is always in the
response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class HealthCheck:
    """One named check: passed or failed, with a human-readable detail."""

    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class HealthReport:
    """The outcome of a set of checks; healthy only if every check passed."""

    checks: tuple[HealthCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failing(self) -> tuple[HealthCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }
