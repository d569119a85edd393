"""Fault-injection proof for the invariant auditor.

Each test seeds one specific scheduler/accounting bug into an otherwise
healthy SFS run via monkeypatching and asserts the corresponding audit
check flags it — demonstrating the checks detect real corruption, not
just vacuously pass on correct code. The baseline test pins the flip
side: the unmutated run is violation-free, so any flag in the mutated
runs is attributable to the injected fault.
"""

import pytest

from repro.core.sfs import SurplusFairScheduler
from repro.core.tags import TaggedScheduler
from repro.scenario import Scenario, group, run_scenario, task
from repro.sim.machine import Machine
from repro.sim.task import TaskState


def _scenario(**overrides):
    base = dict(
        name="audit-mutation",
        scheduler="sfs",
        cpus=1,
        duration=8.0,
        quantum=0.05,
        tasks=(task("hog", 4), *group(3, 1, "bg")),
        audit=True,
        audit_params={"surplus_check_every": 1},
    )
    base.update(overrides)
    return Scenario(**base)


def test_baseline_unmutated_run_is_violation_free():
    report = run_scenario(_scenario()).audit_report
    assert report.ok, report.render()
    assert sorted(report.counts) == [
        "bounded_lag",
        "monotone_vtime",
        "no_starvation",
        "service_conservation",
        "surplus_order",
    ]


def test_skipped_start_tag_update_flagged_by_bounded_lag(monkeypatch):
    # The bug: on preemption, one thread's start tag is never advanced
    # to its finish tag (Eq. 6 skipped). Its surplus sticks at zero, so
    # SFS keeps re-dispatching it and it monopolizes the CPU — exactly
    # the service skew the GMS-replay lag bound exists to catch.
    orig = TaggedScheduler.on_preempt

    def broken(self, task, now, ran):
        if task.name == "hog":
            self._finish_quantum(task, ran)  # F advances; S stays stuck
            self._tags_updated(task, now)
            return
        orig(self, task, now, ran)

    monkeypatch.setattr(TaggedScheduler, "on_preempt", broken)
    report = run_scenario(_scenario()).audit_report
    assert report.counts["bounded_lag"] > 0, report.render()


def test_undercharged_finish_tag_flagged_by_bounded_lag(monkeypatch):
    # The bug: one thread's quantum is billed at half length when its
    # finish tag is computed, silently doubling its effective share.
    # The decision path stays self-consistent (surplus order holds over
    # the corrupted tags), so only the end-to-end lag bound catches it.
    orig = TaggedScheduler._finish_quantum

    def cheat(self, task, ran):
        if task.name == "hog":
            ran = ran * 0.5
        orig(self, task, ran)

    monkeypatch.setattr(TaggedScheduler, "_finish_quantum", cheat)
    report = run_scenario(_scenario()).audit_report
    assert report.counts["bounded_lag"] > 0, report.render()
    assert report.counts["surplus_order"] == 0


def _schedulable_by_surplus(sched):
    """Schedulable threads in ascending fresh (surplus, tid) order."""
    sched._refresh_vtime()
    return sorted(
        (t for t in sched._runnable.values() if t.state is TaskState.RUNNABLE),
        key=lambda t: (sched.surplus_of(t), t.tid),
    )


def test_broken_surplus_ordering_flagged(monkeypatch):
    # The bug: the decision returns the runnable thread with the
    # *largest* surplus (a reversed comparator / corrupted class
    # order). Every sampled dispatch disagrees with the brute-force
    # fresh minimum.
    def worst_pick(self, cpu, now):
        self.decision_count += 1
        ranked = _schedulable_by_surplus(self)
        return ranked[-1] if ranked else None

    monkeypatch.setattr(SurplusFairScheduler, "pick_next", worst_pick)
    report = run_scenario(_scenario()).audit_report
    assert report.counts["surplus_order"] > 0, report.render()


def test_dropped_service_charge_flagged_by_conservation(monkeypatch):
    # The bug: half of one thread's delivered service is never credited
    # to the task (the processor busy time still accrues) — the classic
    # lost-accounting bug the Σ service == Σ busy identity pins down.
    orig = Machine._charge

    def leaky(self, proc, now):
        hog = proc.task is not None and proc.task.name == "hog"
        before = proc.task.service if hog else 0.0
        orig(self, proc, now)
        if hog:
            proc.task.service = before + 0.5 * (proc.task.service - before)

    monkeypatch.setattr(Machine, "_charge", leaky)
    report = run_scenario(_scenario()).audit_report
    assert report.counts["service_conservation"] > 0, report.render()


def test_starved_thread_flagged_by_no_starvation(monkeypatch):
    # The bug: the decision path simply never selects one runnable
    # thread (a filtering bug), starving it while the run stays busy.
    def biased_pick(self, cpu, now):
        self.decision_count += 1
        for candidate in _schedulable_by_surplus(self):
            if candidate.name != "bg-1":
                return candidate
        return None

    monkeypatch.setattr(SurplusFairScheduler, "pick_next", biased_pick)
    report = run_scenario(_scenario()).audit_report
    assert report.counts["no_starvation"] > 0, report.render()
    starvation = [v for v in report.violations if v.check == "no_starvation"]
    assert any("bg-1" in v.message for v in starvation)


def test_backwards_virtual_time_flagged(monkeypatch):
    # The bug: virtual time jumps backwards mid-run without a
    # wrap-around rebase (tag corruption; a real rebase increments
    # rebase_count and is exempt).
    orig = SurplusFairScheduler.pick_next
    state = {"calls": 0}

    def corrupting(self, cpu, now):
        picked = orig(self, cpu, now)
        state["calls"] += 1
        if state["calls"] == 25:
            self._vtime = self._vtime - 5.0
        return picked

    monkeypatch.setattr(SurplusFairScheduler, "pick_next", corrupting)
    report = run_scenario(_scenario()).audit_report
    assert report.counts["monotone_vtime"] > 0, report.render()


def test_mutation_reports_carry_actionable_messages(monkeypatch):
    orig = TaggedScheduler._finish_quantum

    def cheat(self, task, ran):
        if task.name == "hog":
            ran = ran * 0.5
        orig(self, task, ran)

    monkeypatch.setattr(TaggedScheduler, "_finish_quantum", cheat)
    report = run_scenario(_scenario()).audit_report
    summary = report.summary()
    assert summary["ok"] is False
    assert summary["examples"], "violations must surface example messages"
    assert "lag" in summary["examples"][0]
