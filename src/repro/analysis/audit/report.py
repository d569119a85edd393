"""Audit results: violations and the per-run :class:`AuditReport`.

The report travels two ways: attached to a
:class:`~repro.scenario.result.SimulationResult` as ``audit_report``
for in-process callers, and flattened via :meth:`AuditReport.summary`
into the canned ``"audit"`` sweep metric — a plain JSON-safe dict that
survives process pools and the JSONL checkpoint unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["AuditViolation", "AuditReport"]


@dataclass(frozen=True)
class AuditViolation:
    """One invariant breach: which check, when, and what happened."""

    check: str
    time: float
    message: str

    def render(self) -> str:
        """One-line ``[check] t=...: message`` form."""
        return f"[{self.check}] t={self.time:.6g}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of auditing one simulation run.

    ``counts`` has one entry per executed check (zero when the
    invariant held); ``skipped`` maps each non-executed check to the
    reason (e.g. the lag bound needs event recording, surplus-order
    sanity only applies to exact SFS). Stored violations are capped —
    ``truncated`` counts the overflow — so a badly broken run cannot
    exhaust memory; ``counts`` always reflects every violation.
    """

    scheduler: str
    events_seen: int = 0
    dispatches_seen: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    violations: tuple[AuditViolation, ...] = ()
    truncated: int = 0

    @property
    def total_violations(self) -> int:
        """Violations across all checks (including unstored ones)."""
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        """Did every executed check hold?"""
        return self.total_violations == 0

    def summary(self) -> dict[str, Any]:
        """Flat JSON-safe form (the canned ``"audit"`` sweep metric)."""
        return {
            "ok": self.ok,
            "scheduler": self.scheduler,
            "total_violations": self.total_violations,
            "events_seen": self.events_seen,
            "dispatches_seen": self.dispatches_seen,
            "counts": dict(self.counts),
            "skipped": dict(self.skipped),
            "examples": [v.render() for v in self.violations[:5]],
        }

    def render(self) -> str:
        """Multi-line human-readable report."""
        status = "OK" if self.ok else f"{self.total_violations} VIOLATION(S)"
        lines = [
            f"audit [{self.scheduler}]: {status} "
            f"({self.events_seen} events, {self.dispatches_seen} dispatches)"
        ]
        for check in sorted(self.counts):
            lines.append(f"  {check}: {self.counts[check]} violation(s)")
        for check in sorted(self.skipped):
            lines.append(f"  {check}: skipped ({self.skipped[check]})")
        for violation in self.violations:
            lines.append(f"  {violation.render()}")
        if self.truncated:
            lines.append(f"  ... {self.truncated} further violation(s) not stored")
        return "\n".join(lines)
