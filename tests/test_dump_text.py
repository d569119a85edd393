"""Pin the exact text ``dumps_scenario`` writes.

Round-trip tests prove ``load(dump(s)) == s``, but not that the text
itself stays put: a reordered field or a changed list rendering would
pass them while breaking every diff against a dumped config. This
module pins the YAML and JSON text of

- a fixture holding every spec kind, each with non-default fields
  (all seven behaviours, both drivers, both events), byte for byte
  against ``tests/golden/all_kinds.yaml`` and ``all_kinds.json``;
- every ``examples/scenarios/*.yaml`` file, by the SHA-256 of its
  dump (the generated populations make those texts hundreds of
  kilobytes) in ``tests/golden/dump_digests.json``.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_dump_text.py``
only for an intended format change.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.flows import PacketFlow
from repro.scenario import (
    Compile,
    Compute,
    Disksim,
    Inf,
    InteractiveLoop,
    Kill,
    LatCtxRing,
    Mpeg,
    Scenario,
    SetWeight,
    ShortJobs,
    TaskSpec,
    task,
)
from repro.scenario.io import dumps_scenario, load_scenario, loads_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = sorted((ROOT / "examples" / "scenarios").glob("*.yaml"))
DIGESTS = GOLDEN / "dump_digests.json"


def all_kinds_scenario() -> Scenario:
    """Every registered spec kind once, every field off its default."""
    return Scenario(
        name="all-kinds",
        scheduler="sfq",
        cpus=3,
        quantum=0.05,
        duration=4.0,
        tasks=(
            TaskSpec(
                "inf",
                weight=2.0,
                behavior=Inf(),
                at=0.5,
                ts_priority=10,
                footprint_kb=64.0,
                resources={"cpu": 0.5, "memory": 0.25},
            ),
            task("compute", behavior=Compute(1.5)),
            task(
                "interactive",
                behavior=InteractiveLoop(think_time=0.5, burst=0.01, seed=3),
            ),
            task(
                "mpeg",
                behavior=Mpeg(frame_cost=0.02, target_fps=25.0, total_frames=50),
            ),
            task(
                "compile",
                behavior=Compile(seed=5, burst_mean=0.05, io_mean=0.003, total_cpu=1.0),
            ),
            task(
                "disksim",
                behavior=Disksim(checkpoint_every=0.5, checkpoint_io=0.001, seed=9),
            ),
            task(
                "flow",
                behavior=PacketFlow(
                    arrivals=(0.0, 0.25, 0.5),
                    sizes=(1500.0, 500.0, 1000.0),
                    bytes_per_sec=1.25e5,
                ),
            ),
        ),
        drivers=(
            ShortJobs(name="jobs", weight=3.0, job_cpu=0.2, first_arrival=0.5, gap=0.1),
            LatCtxRing(
                name="ring",
                nprocs=3,
                passes=50,
                work_cost=0.001,
                footprint_kb=16.0,
                start_at=1.0,
            ),
        ),
        events=(SetWeight("compute", 4.0, 1.0), Kill("mpeg", 3.0)),
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _example_digests() -> dict[str, dict[str, str]]:
    out = {}
    for path in EXAMPLES:
        scenario = load_scenario(path)
        out[path.name] = {
            fmt: _digest(dumps_scenario(scenario, fmt=fmt)) for fmt in ("yaml", "json")
        }
    return out


@pytest.mark.parametrize("fmt", ["yaml", "json"])
def test_all_kinds_dump_text_is_pinned(fmt):
    scenario = all_kinds_scenario()
    text = dumps_scenario(scenario, fmt=fmt)
    assert text == (GOLDEN / f"all_kinds.{fmt}").read_text(encoding="utf-8")
    assert loads_config(text, fmt=fmt) == scenario


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_dump_text_is_pinned(path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[path.name]
    scenario = load_scenario(path)
    for fmt in ("yaml", "json"):
        assert _digest(dumps_scenario(scenario, fmt=fmt)) == pinned[fmt], fmt


def test_every_example_is_pinned():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned) == [p.name for p in EXAMPLES]


if __name__ == "__main__":
    for fmt in ("yaml", "json"):
        (GOLDEN / f"all_kinds.{fmt}").write_text(
            dumps_scenario(all_kinds_scenario(), fmt=fmt), encoding="utf-8"
        )
    DIGESTS.write_text(json.dumps(_example_digests(), indent=2) + "\n", encoding="utf-8")
