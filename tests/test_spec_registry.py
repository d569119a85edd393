"""Walk the spec-kind registries, so a kind added later is covered too.

Every behaviour, driver and event kind declares its config fields and
their ranges once, on its dataclass (``cls.fields``), and ``TaskSpec``
declares its ranges the same way. The tests here derive everything from
those tables, never from a list of kinds:

- values drawn inside the declared ranges load, dump and load back to
  an equal scenario, and the machine builds (``build``/``apply``);
- a value just outside each declared bound fails at load with a
  ``ConfigError`` naming its dotted path;
- a ``packet-flow`` config resolves whichever package a fresh
  interpreter imports first.

Two cross-field invariants shape the draws: every ``floats`` field of
one kind gets the same length and sorted values (``PacketFlow`` pairs
``arrivals[i]`` with ``sizes[i]`` and needs nondecreasing enqueue
times), and a combination a class rejects as a whole (its error names
the block, not a field) is discarded rather than failed.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.scenario.io import ConfigError, dumps_scenario, loads_config
from repro.scenario.io.loader import scenario_from_dict
from repro.scenario.runner import build_machine
from repro.scenario.spec import BEHAVIORS, DRIVERS, EVENTS, TaskSpec

#: (config path of the kind's block, registry)
ROLES = (
    ("tasks[0].behavior", BEHAVIORS),
    ("drivers[0]", DRIVERS),
    ("events[0]", EVENTS),
)
KINDS = [(where, kind, reg[kind]) for where, reg in ROLES for kind in sorted(reg)]
#: the one task every drawn scenario has; every string field names it,
#: so events always target an existing task
NAME = "t0"


def _low(f) -> float:
    if f.gt is not None:
        return f.gt + 1 if f.kind == "int" else f.gt
    return f.ge if f.ge is not None else -1000


def _number(f) -> st.SearchStrategy:
    if f.kind == "int":
        return st.integers(min_value=_low(f), max_value=_low(f) + 100)
    return st.floats(
        min_value=_low(f),
        max_value=max(_low(f), 0.0) + 1e6,
        exclude_min=f.gt is not None,
        allow_nan=False,
        allow_infinity=False,
    )


def _value(f, length: int) -> st.SearchStrategy:
    if f.kind == "floats":
        item = _number(f)
        return st.lists(item, min_size=length, max_size=length).map(sorted)
    if f.kind == "str":
        return st.sampled_from(f.choices) if f.choices else st.just(NAME)
    if f.kind == "bool":
        return st.booleans()
    return _number(f)


@st.composite
def blocks(draw, fields, force: str | None = None) -> dict:
    """A config block of ``fields``, every value inside its range.

    Optional fields are sometimes left out (their default loads);
    ``force`` names one that is always present.
    """
    length = draw(st.integers(min_value=2, max_value=5))
    out = {}
    for f in fields:
        if not f.required and f.name != force and draw(st.booleans()):
            continue
        value = _value(f, length)
        out[f.name] = draw(st.none() | value if f.nullable else value)
    return out


def _config(where: str, kind: str, block: dict, task: dict) -> dict:
    block = {"kind": kind, **block}
    task = {**task, "name": NAME}
    config = {"name": "walk", "duration": 1.0, "tasks": [task]}
    if where == "tasks[0].behavior":
        task["behavior"] = block
    else:
        config[where.removesuffix("[0]")] = [block]
    return config


@pytest.mark.parametrize("where, kind, cls", KINDS, ids=[k for _, k, _ in KINDS])
@given(data=st.data())
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_drawn_in_range_roundtrips_and_builds(where, kind, cls, data):
    task = data.draw(blocks(TaskSpec.fields), label="task")
    block = data.draw(blocks(cls.fields), label=kind)
    try:
        scenario = scenario_from_dict(_config(where, kind, block, task))
    except ConfigError as err:
        # a cross-field invariant of the class rejected the combination
        assume(err.path != where)
        raise
    for fmt in ("yaml", "json"):
        assert loads_config(dumps_scenario(scenario, fmt=fmt), fmt=fmt) == scenario
    build_machine(scenario)


def _bounds():
    for where, kind, cls in [("tasks[0]", None, TaskSpec), *KINDS]:
        for f in cls.fields:
            for bound in ("gt", "ge"):
                if getattr(f, bound) is not None:
                    yield pytest.param(
                        where, kind, cls, f, bound, id=f"{kind or 'task'}.{f.name}"
                    )


def _just_outside(f, bound: str) -> float:
    limit = getattr(f, bound)
    if bound == "gt":
        return limit
    return limit - 1 if f.kind == "int" else math.nextafter(limit, -math.inf)


@pytest.mark.parametrize("where, kind, cls, f, bound", list(_bounds()))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_just_outside_each_bound_fails_at_load(where, kind, cls, f, bound, data):
    outside = _just_outside(f, bound)
    block = data.draw(blocks(cls.fields, force=f.name))
    path = f"{where}.{f.name}"
    if f.kind == "floats":
        block[f.name] = [*block[f.name][:1], outside]
        path += "[1]"
    else:
        block[f.name] = outside
    if kind is None:
        config = {"name": "walk", "duration": 1.0, "tasks": [{**block, "name": NAME}]}
    else:
        config = _config(where, kind, block, {})
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(config)
    assert excinfo.value.path == path


def test_every_role_has_kinds():
    assert {kind for _, kind, _ in KINDS} >= {"packet-flow", "lat-ctx", "set-weight"}


PACKET_FLOW = """\
name: pf
duration: 1.0
tasks:
  - name: f
    behavior:
      kind: packet-flow
      bytes_per_sec: 1000.0
      arrivals: [0.0, 0.5]
      sizes: [100.0, 200.0]
"""


@pytest.mark.parametrize("first", ["repro.flows", "repro.scenario.io"])
def test_packet_flow_resolves_in_any_import_order(first):
    code = (
        f"import {first}\n"
        "import sys\n"
        "from repro.scenario.io import loads_config\n"
        "scenario = loads_config(sys.stdin.read())\n"
        "print(type(scenario.tasks[0].behavior).__name__)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=PACKET_FLOW,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "PacketFlow"
