"""Name -> scheduler registry.

Used by the scenario layer, the experiment CLI and the ablation
benchmarks to sweep the same workload across every policy. Each
built-in policy class is registered below under its name; a variant is
the same class under another name, with preset constructor keywords.
:func:`make_scheduler` applies per-call overrides on top of those
presets, so scenarios can tweak policy parameters (e.g. the
heuristic's scan depth) without registering a new name::

    make_scheduler("sfs-heuristic", scan_depth=5)

Downstream projects add policies with :func:`register`: decorate a
documented class or factory that returns an attached-to-nothing
:class:`~repro.sim.scheduler.Scheduler`, and every experiment, sweep
and CLI subcommand can name it.
"""

from __future__ import annotations

import inspect

from repro.core.hierarchical import HierarchicalSurplusFairScheduler
from repro.core.sfs import SurplusFairScheduler
from repro.core.sfs_heuristic import HeuristicSurplusFairScheduler
from repro.registry import Registry
from repro.schedulers.bvt import BorrowedVirtualTimeScheduler
from repro.schedulers.gms_reference import GMSReferenceScheduler
from repro.schedulers.linux_ts import LinuxTimeSharingScheduler
from repro.schedulers.lottery import LotteryScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.schedulers.stride import StrideScheduler
from repro.schedulers.wfq import WeightedFairQueueingScheduler

__all__ = [
    "SCHEDULERS",
    "register",
    "make_scheduler",
    "scheduler_names",
    "scheduler_params_for",
    "check_scheduler_params",
]

#: name -> policy class (or downstream factory) taking keyword options
SCHEDULERS = Registry("scheduler")
register = SCHEDULERS.register
make_scheduler = SCHEDULERS.make

register("sfs")(SurplusFairScheduler)
register("sfs-noreadjust", readjust=False)(SurplusFairScheduler)
register("sfs-affinity", affinity_bonus=0.05)(SurplusFairScheduler)
register("sfs-heuristic")(HeuristicSurplusFairScheduler)
register("hierarchical-sfs")(HierarchicalSurplusFairScheduler)
register("sfq")(StartTimeFairScheduler)
register("sfq-readjust", readjust=True)(StartTimeFairScheduler)
register("gms-reference")(GMSReferenceScheduler)
register("linux-ts")(LinuxTimeSharingScheduler)
register("stride")(StrideScheduler)
register("stride-readjust", readjust=True)(StrideScheduler)
register("wfq")(WeightedFairQueueingScheduler)
register("wfq-readjust", readjust=True)(WeightedFairQueueingScheduler)
register("bvt")(BorrowedVirtualTimeScheduler)
register("bvt-readjust", readjust=True)(BorrowedVirtualTimeScheduler)
register("lottery")(LotteryScheduler)
register("lottery-readjust", readjust=True)(LotteryScheduler)
register("round-robin")(RoundRobinScheduler)


def scheduler_names() -> list[str]:
    """All registered scheduler names, sorted."""
    return sorted(SCHEDULERS)


def scheduler_params_for(name: str) -> frozenset[str] | None:
    """Keyword parameters ``name``'s registered callable accepts.

    Its signature (a policy class's constructor) is the source of
    truth. Returns ``None`` — meaning "unknown, skip validation" — for
    unregistered names and for callables taking ``**kwargs`` (such as
    a downstream factory forwarding its options).
    """
    if name not in SCHEDULERS:
        return None
    try:
        signature = inspect.signature(SCHEDULERS[name])
    except (TypeError, ValueError):
        return None
    params: list[str] = []
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            params.append(parameter.name)
    return frozenset(params)


def check_scheduler_params(name: str, params: object) -> None:
    """Fail fast on ``scheduler_params`` keys the policy cannot take.

    Raises ``ValueError`` listing the offending keys and the valid
    ones, so a typo like ``scan_dpeth`` dies at :class:`Scenario`
    construction instead of deep inside a sweep worker. Silently
    accepts anything when :func:`scheduler_params_for` returns
    ``None`` — the scenario layer still reports unknown *scheduler
    names* at run time, exactly as before.
    """
    valid = scheduler_params_for(name)
    if valid is None:
        return
    unknown = sorted(set(params) - valid)
    if unknown:
        shown = ", ".join(repr(key) for key in unknown)
        accepted = ", ".join(sorted(valid)) or "(none)"
        raise ValueError(
            f"scheduler {name!r} does not accept scheduler_params "
            f"{shown}; accepted: {accepted}"
        )
