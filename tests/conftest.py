"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import pytest

import repro
from repro.core.sfs import SurplusFairScheduler
from repro.sim.engine import PyEngine
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.cpu_bound import FiniteCompute, Infinite

try:
    from repro.sim._engine import Engine as CompiledEngine
except ImportError:  # pragma: no cover - pure-python environments
    CompiledEngine = None

#: every engine build importable here, by name
ENGINES = {"pure": PyEngine}
if CompiledEngine is not None:
    ENGINES["compiled"] = CompiledEngine


@pytest.fixture
def sfs_machine() -> Machine:
    """A 2-CPU machine running SFS with the paper's 200 ms quantum."""
    return Machine(SurplusFairScheduler(), cpus=2, quantum=0.2)


def repro_modules() -> list[ModuleType]:
    """Every ``repro`` module, imported (``__main__`` modules excluded)."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]


def add_inf(machine: Machine, weight: float, name: str, at: float = 0.0) -> Task:
    """Add a compute-bound (Inf) task."""
    return machine.add_task(Task(Infinite(), weight=weight, name=name), at=at)


def add_finite(
    machine: Machine, cpu: float, weight: float, name: str, at: float = 0.0
) -> Task:
    """Add a finite compute job."""
    return machine.add_task(
        Task(FiniteCompute(cpu), weight=weight, name=name), at=at
    )


def total_service(tasks) -> float:
    return sum(t.service for t in tasks)
