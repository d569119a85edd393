"""Unit tests for the online invariant auditor.

Covers the check registry, the Auditor's wiring/validation, the
report/summary shapes, the skip logic (checks that are meaningless for
a given run refuse to fire rather than false-positive), and the spec /
metric / sweep integration paths. The fault-injection proof that every
check actually catches its target bug lives in
``test_audit_mutations.py``.
"""

import json
import math
import pickle

import pytest

from repro.analysis.audit import (
    CHECKS,
    Auditor,
    AuditReport,
    AuditViolation,
    check_names,
)
from repro.analysis.audit.auditor import DEFAULT_MAX_VIOLATIONS
from repro.analysis.audit.checks import KNOWN_PARAMS, AuditCheck, audit_check
from repro.exec import run_cells
from repro.scenario import Scenario, group, run_scenario, task
from repro.scenario.runner import build_machine

EXPECTED_CHECKS = [
    "bounded_lag",
    "monotone_vtime",
    "no_starvation",
    "resource_conservation",
    "service_conservation",
    "surplus_order",
]


def _scenario(**overrides):
    base = dict(
        name="audit-unit",
        scheduler="sfs",
        cpus=2,
        duration=4.0,
        quantum=0.05,
        tasks=(task("heavy", 4), *group(3, 1, "bg")),
        audit=True,
    )
    base.update(overrides)
    return Scenario(**base)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_six_checks_registered():
    assert check_names() == EXPECTED_CHECKS


def test_every_check_has_title_and_declared_params():
    for name, cls in CHECKS.items():
        assert cls.name == name
        assert cls.title
        for param in cls.params:
            assert param in KNOWN_PARAMS


def test_duplicate_check_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):

        @audit_check("service_conservation")
        class Dup(AuditCheck):
            """Duplicate."""


def test_docstringless_check_registration_rejected():
    with pytest.raises(ValueError, match="needs a docstring"):

        @audit_check("no_doc")
        class NoDoc(AuditCheck):
            pass


# ----------------------------------------------------------------------
# auditor wiring and validation
# ----------------------------------------------------------------------


def test_auditor_rejects_unknown_params():
    machine, _, _ = build_machine(_scenario())
    with pytest.raises(ValueError, match="unknown audit param"):
        Auditor(machine, params={"bogus_knob": 1})


@pytest.mark.parametrize(
    "param", ["conservation_tol", "lag_factor", "starvation_factor", "surplus_tol"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_auditor_rejects_non_finite_params(param, value):
    # every `x > nan` test is false, so a NaN tolerance audits clean
    machine, _, _ = build_machine(_scenario())
    with pytest.raises(ValueError, match=f"{param} must be finite"):
        Auditor(machine, params={param: value})


def test_auditor_rejects_unknown_checks():
    machine, _, _ = build_machine(_scenario())
    with pytest.raises(ValueError, match="unknown audit check"):
        Auditor(machine, checks=["not_a_check"])


def test_auditor_rejects_double_install():
    machine, _, _ = build_machine(_scenario())
    auditor = Auditor(machine).install()
    with pytest.raises(RuntimeError, match="already installed"):
        auditor.install()


def test_auditor_subscribes_only_the_fused_probe():
    machine, _, _ = build_machine(_scenario())
    Auditor(machine).install()
    # service_conservation and bounded_lag are finalize-only, and the
    # three streaming checks (no_starvation, surplus_order,
    # monotone_vtime) share the single fused dispatch probe — so a
    # fully audited run adds exactly one observer to one hook.
    assert not machine.trace.on_event
    assert len(machine.on_dispatch) == 1
    assert not machine.on_requeue


def test_checks_subset_selection():
    machine, _, _ = build_machine(_scenario())
    auditor = Auditor(machine, checks=["service_conservation"]).install()
    assert not machine.on_dispatch  # the only check is finalize-only
    report = auditor.finalize(0.0)
    assert list(report.counts) == ["service_conservation"]
    assert not report.skipped


def test_violation_cap_truncates_storage_not_counts():
    machine, _, _ = build_machine(_scenario())
    auditor = Auditor(
        machine, checks=["service_conservation"], params={"max_violations": 2}
    )
    emit = auditor._emitter("service_conservation")
    for i in range(5):
        emit(float(i), f"boom {i}")
    report = auditor.finalize(5.0)
    assert report.total_violations == 5
    assert len(report.violations) == 2
    assert report.truncated == 3
    assert not report.ok


# ----------------------------------------------------------------------
# skip logic
# ----------------------------------------------------------------------


def test_exact_sfs_runs_all_checks():
    report = run_scenario(_scenario()).audit_report
    # resource_conservation needs declared demand vectors; every other
    # check executes on a plain CPU population under exact SFS.
    assert sorted(report.counts) == [
        name for name in EXPECTED_CHECKS if name != "resource_conservation"
    ]
    assert sorted(report.skipped) == ["resource_conservation"]
    assert report.ok
    assert report.dispatches_seen > 0
    assert report.events_seen > 0


def test_non_tagged_scheduler_skips_tag_checks():
    report = run_scenario(_scenario(scheduler="round-robin")).audit_report
    assert sorted(report.counts) == ["no_starvation", "service_conservation"]
    assert sorted(report.skipped) == [
        "bounded_lag",
        "monotone_vtime",
        "resource_conservation",
        "surplus_order",
    ]
    assert report.ok


def test_sfq_keeps_vtime_check_but_not_sfs_only_checks():
    report = run_scenario(_scenario(scheduler="sfq")).audit_report
    assert "monotone_vtime" in report.counts
    assert "bounded_lag" in report.skipped
    assert "surplus_order" in report.skipped
    assert report.ok


def test_audit_forces_event_recording_for_gms_replay():
    # Even when the scenario opts out of event recording (the high-N
    # server default), --audit turns it back on: bounded_lag replays
    # the timeline, so auditing without it would silently skip the
    # paper's central bound.
    report = run_scenario(_scenario(record_events=False)).audit_report
    assert "bounded_lag" in report.counts
    assert report.events_seen > 0
    assert report.ok


def test_auditor_on_non_recording_machine_skips_gms_replay():
    # Direct Auditor use (no runner) on a machine without an event
    # timeline degrades transparently: the check is skipped, with the
    # reason in the report.
    from repro.analysis.audit import Auditor
    from repro.core.sfs import SurplusFairScheduler
    from repro.sim.machine import Machine

    machine = Machine(SurplusFairScheduler(), cpus=2, record_events=False)
    auditor = Auditor(machine).install()
    machine.run_until(0.5)
    report = auditor.finalize(machine.now)
    assert "bounded_lag" in report.skipped
    assert "replay" in report.skipped["bounded_lag"]
    assert report.events_seen == 0


def test_heuristic_sfs_skips_exactness_checks():
    report = run_scenario(_scenario(scheduler="sfs-heuristic")).audit_report
    assert "surplus_order" in report.skipped
    assert "bounded_lag" in report.skipped
    assert report.ok


# ----------------------------------------------------------------------
# report shapes
# ----------------------------------------------------------------------


def test_report_render_and_summary():
    violation = AuditViolation("surplus_order", 1.25, "wrong pick")
    report = AuditReport(
        scheduler="SFS",
        events_seen=10,
        dispatches_seen=20,
        counts={"surplus_order": 1, "monotone_vtime": 0},
        skipped={"bounded_lag": "why"},
        violations=(violation,),
    )
    assert report.total_violations == 1
    assert not report.ok
    text = report.render()
    assert "1 VIOLATION(S)" in text
    assert "[surplus_order] t=1.25: wrong pick" in text
    assert "skipped (why)" in text
    summary = report.summary()
    assert summary["ok"] is False
    assert summary["examples"] == [violation.render()]
    json.dumps(summary)  # must stay JSON-safe for checkpoints


def test_summary_examples_capped_at_five():
    violations = tuple(
        AuditViolation("no_starvation", float(i), f"v{i}") for i in range(8)
    )
    report = AuditReport(
        scheduler="SFS", counts={"no_starvation": 8}, violations=violations
    )
    assert len(report.summary()["examples"]) == 5
    assert DEFAULT_MAX_VIOLATIONS >= 5


# ----------------------------------------------------------------------
# scenario spec integration
# ----------------------------------------------------------------------


def test_audit_metric_requires_audit_flag():
    with pytest.raises(ValueError, match="audit"):
        _scenario(audit=False, metrics=("audit",))


def test_audit_params_require_audit_flag():
    with pytest.raises(ValueError, match="audit"):
        _scenario(audit=False, audit_params={"lag_factor": 4.0})


def test_unknown_audit_param_rejected_at_spec_time():
    with pytest.raises(ValueError, match="bogus"):
        _scenario(audit_params={"bogus": 1})


def test_unknown_audit_check_rejected_at_spec_time():
    with pytest.raises(ValueError, match="nope"):
        _scenario(audit_params={"checks": ("nope",)})


def test_audit_params_thread_through_run_scenario():
    result = run_scenario(
        _scenario(
            audit_params={
                "surplus_check_every": 1,
                "checks": ("surplus_order", "service_conservation"),
            }
        )
    )
    report = result.audit_report
    assert sorted(report.counts) == ["service_conservation", "surplus_order"]
    assert report.ok


def test_no_audit_means_no_report_and_metric_raises():
    result = run_scenario(_scenario(audit=False))
    assert result.audit_report is None
    from repro.scenario.result import summarize

    with pytest.raises(ValueError, match="audit"):
        summarize(result, ("audit",))


def test_audited_scenario_pickles():
    scn = _scenario(audit_params={"surplus_check_every": 4})
    clone = pickle.loads(pickle.dumps(scn))
    assert clone.audit and clone.audit_params["surplus_check_every"] == 4


# ----------------------------------------------------------------------
# sweep integration: the audit metric crosses the process pool
# ----------------------------------------------------------------------


def test_audit_metric_survives_worker_pool():
    scn = _scenario(duration=2.0)
    cells = run_cells([scn], ("shares", "audit"), workers=2)
    summary = cells[0].metrics["audit"]
    assert summary["ok"] is True
    assert summary["scheduler"] == "SFS"
    assert sorted(summary["counts"]) == [
        name for name in EXPECTED_CHECKS if name != "resource_conservation"
    ]
    json.dumps(summary)


def test_audit_determinism_same_report_twice():
    first = run_scenario(_scenario()).audit_report
    second = run_scenario(_scenario()).audit_report
    assert first.summary() == second.summary()
