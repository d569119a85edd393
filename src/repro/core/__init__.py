"""The paper's contribution: weight readjustment, GMS, and SFS.

Public API:

- :func:`repro.core.weights.readjust` / :func:`is_feasible` — the §2.1
  weight readjustment algorithm and feasibility test (Eq. 1);
- :class:`repro.core.gms.FluidGMS` — the idealized generalized
  multiprocessor sharing oracle (§2.2);
- :class:`repro.core.sfs.SurplusFairScheduler` — surplus fair
  scheduling (§2.3), the practical instantiation of GMS;
- :class:`repro.core.sfs_heuristic.HeuristicSurplusFairScheduler` — the
  §3.2 constant-time decision heuristic;
- :class:`repro.core.fixed_point.FixedTags` — kernel-style scaled
  integer tag arithmetic with wrap-around rebasing (§3.2).
"""

from repro.core.fixed_point import FixedTags, FloatTags, TagArithmetic
from repro.core.gms import FluidGMS, replay_trace
from repro.core.hierarchical import (
    HierarchicalSurplusFairScheduler,
    SchedulingClass,
)
from repro.core.sfs import SurplusFairScheduler
from repro.core.sfs_heuristic import HeuristicSurplusFairScheduler
from repro.core.tags import TaggedScheduler
from repro.core.weights import (
    ReadjustmentFrontier,
    is_feasible,
    readjust,
    violators,
    waterfill_shares,
)

__all__ = [
    "FixedTags",
    "FloatTags",
    "FluidGMS",
    "HeuristicSurplusFairScheduler",
    "HierarchicalSurplusFairScheduler",
    "ReadjustmentFrontier",
    "SchedulingClass",
    "SurplusFairScheduler",
    "TagArithmetic",
    "TaggedScheduler",
    "is_feasible",
    "readjust",
    "replay_trace",
    "violators",
    "waterfill_shares",
]
