"""The :class:`Auditor`: wires checks to a machine and builds the report.

Usage (what :func:`repro.scenario.runner.run_scenario` does under
``Scenario.audit``)::

    auditor = Auditor(machine, params=scenario.audit_params)
    auditor.install()
    machine.run_until(duration)
    report = auditor.finalize(machine.now)

Overhead discipline: each check is subscribed only to the hooks it
actually overrides, and the three streaming checks don't subscribe
hooks at all — their per-dispatch work (a compare-and-store and two
countdowns) is inlined into the single fused observer built by
:func:`~repro.analysis.audit.checks._make_dispatch_probe`, with
anything rarer than once per dispatch (the surplus-order brute force,
the starvation sweep) called back into the owning check. The hot hooks
are plain observer lists guarded by emptiness checks inside
:class:`~repro.sim.machine.Machine` / :class:`~repro.sim.tracing.Trace`
— together this keeps the audited N=5000 server cell within ~10% of
the unaudited run.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from repro.analysis.audit.checks import (
    CHECKS,
    KNOWN_PARAMS,
    PROBE_CHECKS,
    AuditCheck,
    _make_dispatch_probe,
)
from repro.analysis.audit.report import AuditReport, AuditViolation

__all__ = ["Auditor", "DEFAULT_MAX_VIOLATIONS"]

#: per-check stored-violation cap; counts keep incrementing past it
DEFAULT_MAX_VIOLATIONS = 100


class Auditor:
    """Attach registered invariant checks to one machine run."""

    def __init__(
        self,
        machine,
        checks: Iterable[str] | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        self.machine = machine
        self.params = dict(params or {})
        unknown = set(self.params) - KNOWN_PARAMS - {"max_violations"}
        if unknown:
            known = ", ".join(sorted(KNOWN_PARAMS | {"max_violations"}))
            raise ValueError(
                f"unknown audit param(s) {sorted(unknown)!r}; known: {known}"
            )
        for name, value in sorted(self.params.items()):
            # a NaN tolerance makes every `x > tol` test false, so the
            # check would pass everything
            if not math.isfinite(float(value)):
                raise ValueError(f"audit param {name} must be finite, got {value}")
        self.max_violations = int(
            self.params.get("max_violations", DEFAULT_MAX_VIOLATIONS)
        )
        names = sorted(CHECKS) if checks is None else list(checks)
        classes = [CHECKS.lookup(name) for name in names]
        self.counts: dict[str, int] = {}
        self.skipped: dict[str, str] = {}
        #: per-check storage, so one flooding check cannot evict the
        #: (possibly single) example of another invariant breaking
        self._stored: dict[str, list[AuditViolation]] = {}
        self._truncated = 0
        self._installed = False
        self.checks: list[AuditCheck] = []
        for name, cls in zip(names, classes):
            reason = cls.applies(machine)
            if reason is not None:
                self.skipped[name] = reason
                continue
            self.counts[name] = 0
            self.checks.append(cls(machine, self._emitter(name), self.params))

    def _emitter(self, name: str):
        """The bound emit callback for one check."""

        def emit(time: float, message: str) -> None:
            self.counts[name] += 1
            stored = self._stored.setdefault(name, [])
            if len(stored) < self.max_violations:
                stored.append(AuditViolation(name, time, message))
            else:
                self._truncated += 1

        return emit

    def install(self) -> "Auditor":
        """Subscribe the checks: overridden hooks, plus the fused probe.

        The streaming trio (:data:`~repro.analysis.audit.checks.
        PROBE_CHECKS`) shares one fused on-dispatch observer instead of
        subscribing individually; every other check is wired to exactly
        the hooks it overrides.
        """
        if self._installed:
            raise RuntimeError("auditor already installed")
        self._installed = True
        machine = self.machine
        probe_targets: dict[str, AuditCheck] = {}
        for check in self.checks:
            cls = type(check)
            if cls.name in PROBE_CHECKS:
                probe_targets[cls.name] = check
            if cls.on_event is not AuditCheck.on_event:
                machine.trace.on_event.append(check.on_event)
            if cls.on_dispatch is not AuditCheck.on_dispatch:
                machine.on_dispatch.append(check.on_dispatch)
            if cls.on_requeue is not AuditCheck.on_requeue:
                machine.on_requeue.append(check.on_requeue)
        if probe_targets:
            machine.on_dispatch.append(
                _make_dispatch_probe(
                    probe_targets.get("monotone_vtime"),
                    probe_targets.get("surplus_order"),
                    probe_targets.get("no_starvation"),
                )
            )
        return self

    def finalize(self, t_end: float) -> AuditReport:
        """Run end-of-run checks and assemble the report."""
        for check in self.checks:
            check.finalize(self.machine, t_end)
        trace = self.machine.trace
        merged = sorted(
            (v for stored in self._stored.values() for v in stored),
            key=lambda v: (v.time, v.check),
        )
        return AuditReport(
            scheduler=self.machine.scheduler.name,
            events_seen=trace.event_count if trace.record_events else 0,
            dispatches_seen=trace.dispatches,
            counts=dict(self.counts),
            skipped=dict(self.skipped),
            violations=tuple(merged),
            truncated=self._truncated,
        )
