"""The traced pass: time calls into each layer of docs/ARCHITECTURE.md.

:class:`Spans` wraps the public entry points of every layer with a
timer for one repetition's run phase and removes the wrappers again.
Nothing under ``src/`` knows about it: wrappers are set as instance
attributes where the class allows that and as class attributes for
the ``__slots__`` classes (``SortedTaskList``, ``ReadjustmentFrontier``,
``CalendarEventQueue``), and :meth:`Spans.uninstall` undoes every patch.

A span opens only at a layer *boundary*, a call into a layer from code
of another layer. A call that re-enters the layer already on top of
the stack (``SortedTaskList.reposition`` calling ``remove`` and
``add``) belongs to the enclosing span. A layer's self time is the sum
of its spans minus the spans of other layers they enclose, so the run
layers' self times, ``machine.self_s`` included, add up to the traced
``Machine.run_until`` exactly. The wrappers' own cost falls to the
caller's self time, mostly ``machine.self_s``; the benchmark reports
their total as ``spans.overhead_s``.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Callable

#: layers timed inside ``Machine.run_until``; ``machine`` is the root
RUN_LAYERS = (
    "machine",
    "engine",
    "decision",
    "tags",
    "frontier",
    "runqueue",
    "behavior",
    "tracing",
    "audit",
)
#: every layer of the traced table, in table order
LAYERS = ("scenario", "runner") + RUN_LAYERS + ("metrics",)

TAG_HOOKS = (
    "on_arrival",
    "on_wakeup",
    "on_block",
    "on_preempt",
    "on_exit",
    "on_weight_change",
)
RUNQUEUE_CALLS = (
    "add",
    "remove",
    "discard",
    "reposition",
    "rebuild_sorted",
    "resort",
    "resort_insertion",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


class Spans:
    """Layer timers for one traced repetition."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(RUN_LAYERS, 0.0)
        self.calls = dict.fromkeys(RUN_LAYERS, 0)
        #: inclusive duration of every pick_next span, and the size of
        #: the runnable set it chose from
        self.pick_s: list[float] = []
        self.pick_runnable: list[int] = []
        #: open spans as [layer, time in enclosed spans of other layers]
        self._stack: list[list[Any]] = [[None, 0.0]]
        self._undo: list[tuple[Any, str | None, Any]] = []

    def _timed(self, layer: str, fn: Callable, machine=None) -> Callable:
        """Wrap ``fn`` in a span of ``layer``; ``machine`` marks a pick."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        pick_s = self.pick_s
        pick_runnable = self.pick_runnable

        def span(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if machine is not None:
                pick_runnable.append(machine.runnable_count)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dt
                self_s[layer] += dt - frame[1]
                calls[layer] += 1
                if machine is not None:
                    pick_s.append(dt)

        return span

    def _patch(self, owner: Any, name: str, layer: str, machine=None) -> None:
        """Replace ``owner.name`` by a timed wrapper; remember the undo."""
        self._undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, self._timed(layer, getattr(owner, name), machine))

    def _wrap_observers(self, observers: list) -> None:
        self._undo.append((observers, None, list(observers)))
        observers[:] = [self._timed("audit", fn) for fn in observers]

    def run(self, run_until: Callable, machine, tasks: dict, t_end: float) -> float:
        """Call ``run_until(machine, t_end)`` traced; return its duration.

        ``run_until`` is the root span, of layer ``machine``; every
        other layer's wrappers are installed just before it and removed
        right after, outside the returned duration.
        """
        self.install(machine, tasks)
        root = self._timed("machine", run_until)
        try:
            t0 = perf_counter()
            root(machine, t_end)
            return perf_counter() - t0
        finally:
            self.uninstall()

    def install(self, machine, tasks: dict) -> None:
        """Wrap every layer's public calls below ``run_until``."""
        from repro.core.weights import ReadjustmentFrontier
        from repro.sim.engine import PyEngine
        from repro.sim.runqueue import SortedTaskList

        patch = self._patch
        engine = machine.engine
        if isinstance(engine, PyEngine):
            # The compiled engine cannot be wrapped; its time stays in
            # machine.self_s.
            patch(engine, "schedule_at", "engine")
            patch(type(engine._queue), "push", "engine")
            patch(type(engine._queue), "pop_batch_due", "engine")
        scheduler = machine.scheduler
        patch(scheduler, "pick_next", "decision", machine=machine)
        patch(scheduler, "choose_victim", "decision")
        for hook in TAG_HOOKS:
            patch(scheduler, hook, "tags")
        for name in ("add", "remove", "reweight"):
            patch(ReadjustmentFrontier, name, "frontier")
        for name in RUNQUEUE_CALLS:
            patch(SortedTaskList, name, "runqueue")
        behaviors = {type(task.behavior) for task in tasks.values()}
        for cls in sorted(behaviors, key=lambda c: c.__qualname__):
            patch(cls, "start", "behavior")
            patch(cls, "next_segment", "behavior")
        patch(machine.trace, "record", "tracing")
        patch(machine.trace, "record_run", "tracing")
        self._wrap_observers(machine.on_dispatch)
        self._wrap_observers(machine.on_requeue)
        self._wrap_observers(machine.trace.on_event)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, name, previous = self._undo.pop()
            if name is None:
                owner[:] = previous
            elif previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)

    def metrics(
        self,
        machine,
        audit_report,
        run_s: float,
        audit_finalize_s: float,
        summarize_s: float,
    ) -> dict[str, float]:
        """Per-layer metrics of the run phase, plus the counters it moved."""
        from repro.sim.runqueue import SortedTaskList

        scheduler = machine.scheduler
        frontier = getattr(scheduler, "frontier", None)
        queues = {
            id(q): q
            for q in vars(scheduler).values()
            if isinstance(q, SortedTaskList)
        }
        if frontier is not None:
            queues[id(frontier.queue)] = frontier.queue
        decisions = getattr(scheduler, "decision_count", 0)
        resorts = getattr(scheduler, "resort_count", 0)
        repairs = frontier.repairs if frontier is not None else 0
        skips = frontier.fast_skips if frontier is not None else 0
        audited = audit_report is not None
        picks = self.pick_runnable
        s, n = self.self_s, self.calls
        trace = machine.trace
        return {
            "traced_run_s": run_s,
            "accounted_s": sum(s.values()),
            "engine.self_s": s["engine"],
            "engine.calls": n["engine"],
            "engine.events": machine.engine.events_fired,
            "machine.self_s": s["machine"],
            "machine.calls": n["machine"],
            "machine.dispatches": trace.dispatches,
            "machine.context_switches": trace.context_switches,
            "machine.preemptions": trace.preemptions,
            "decision.self_s": s["decision"],
            "decision.calls": n["decision"],
            "decision.p50_us": percentile(self.pick_s, 50) * 1e6,
            "decision.p99_us": percentile(self.pick_s, 99) * 1e6,
            "decision.runnable_mean": sum(picks) / len(picks) if picks else 0.0,
            "decision.runnable_max": max(picks, default=0),
            "decision.resorts": resorts,
            "decision.resort_ratio": resorts / decisions if decisions else 0.0,
            "tags.self_s": s["tags"],
            "tags.calls": n["tags"],
            "frontier.self_s": s["frontier"],
            "frontier.calls": n["frontier"],
            "frontier.repairs": repairs,
            "frontier.fast_skips": skips,
            "frontier.fast_skip_ratio": skips / (skips + repairs)
            if skips + repairs
            else 0.0,
            "frontier.phi_writes": frontier.phi_writes if frontier is not None else 0,
            "runqueue.self_s": s["runqueue"],
            "runqueue.calls": n["runqueue"],
            "runqueue.comparisons": sum(q.comparisons for q in queues.values()),
            "behavior.self_s": s["behavior"],
            "behavior.calls": n["behavior"],
            "tracing.self_s": s["tracing"],
            "tracing.calls": n["tracing"],
            "audit.observe_s": s["audit"],
            "audit.finalize_s": audit_finalize_s if audited else 0.0,
            "audit.calls": n["audit"] + (1 if audited else 0),
            "audit.violations": audit_report.total_violations if audited else 0,
            "metrics.self_s": summarize_s,
        }
