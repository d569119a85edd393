"""Self-test of the benchmark's own code, at tiny workload sizes.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Builds the extension, records every workload's fingerprint at
:data:`SCALE` into a scratch file below ``.bench_build/``, and runs
both passes of every workload at that size, to check that

1. every metric ``BENCHMARK.json`` declares is printed, with its
   declared unit, for every workload, and its workloads are the ones
   ``workloads.py`` defines;
2. the traced table's layer names are the layers ``BENCHMARK.json``
   declares per-layer metrics for;
3. a tampered fingerprint is reported as a failure, not a pass, both
   on the seed it was made for and through the extra committed-seed
   repetition of any other seed.

Exits 0 when every check holds, else 1 after listing the failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run
from extension import BUILD_ROOT, BuildError, build_extension, discard
from workloads import DEFAULT_SEED, WORKLOADS

#: workload size factor: a few seconds in all, yet every layer is hit
SCALE = 0.02
OTHER_SEED = DEFAULT_SEED + 1
#: one fingerprint field to corrupt per workload
TAMPER = {
    "sfs-overload": ("events", lambda v: v + 1),
    "sfs-churn-audited": ("tasks_sha256", lambda v: "0" * len(v)),
    "flows-sfq-pure": ("metrics", lambda v: {**v, "resource_jains": {}}),
}


def printed(rows: list[dict], trace: int) -> str:
    """Everything ``run.py`` prints for ``rows``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for row in rows:
            run.report(row)
        print(json.dumps(run.result_line(rows, trace)))
    return out.getvalue()


def check_declared(rows: list[dict], trace: int, declared: dict[str, str]) -> list[str]:
    """Check 1: every declared metric, with its unit, for every row."""
    failures = []
    lines = printed(rows, trace).splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    for row in rows:
        for name, unit in declared.items():
            got = metrics.get(f"{row['workload']}:{name}")
            if got is None:
                failures.append(f"{row['workload']}: {name} is not printed")
            elif got["unit"] != unit or not isinstance(got["value"], (int, float)):
                failures.append(f"{row['workload']}: {name} printed as {got}, unit {unit}")
        if not trace:
            table = printed([row], trace)
            for name, unit in declared.items():
                if not any(
                    line.split()[:1] == [name] and line.split()[-1:] == [unit]
                    for line in table.splitlines()
                ):
                    failures.append(f"{row['workload']}: no table line {name} ... {unit}")
    return failures


def check_layers(rows: list[dict], declared: dict[str, str]) -> list[str]:
    """Check 2: the traced table lists exactly the declared layers."""
    want = {name.split(".", 1)[0] for name in declared}
    failures = []
    for row in rows:
        table = printed([row], 1).splitlines()
        start = next(i for i, line in enumerate(table) if line.startswith("layer "))
        end = next(i for i, line in enumerate(table) if line.startswith("run layers"))
        got = {line.split()[0] for line in table[start + 1 : end]}
        if got != want:
            failures.append(
                f"{row['workload']}: traced table lists {sorted(got)}, "
                f"BENCHMARK.json declares {sorted(want)}"
            )
    return failures


def main() -> int:
    spec = json.loads(run.BENCHMARK.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = [
        f"BENCHMARK.json workload {w['name']} does not match workloads.py"
        for w in spec["workloads"]
        if w["name"] not in WORKLOADS or WORKLOADS[w["name"]].why != w["why"]
    ]
    if len(spec["workloads"]) != len(WORKLOADS):
        failures.append("BENCHMARK.json and workloads.py list different workloads")
    try:
        extension = build_extension()
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=BUILD_ROOT))
    try:
        honest = scratch / "fingerprints.json"
        run.write_fingerprints(extension, honest, SCALE)

        def measure(name: str, seed: int, trace: int, prints: Path) -> dict:
            deadline = perf_counter() + run.BUDGET_S
            return run.run_workload(
                name, seed, 0, trace, extension, deadline, scale=SCALE, fingerprints=prints
            )

        for trace, declared, seed in ((0, end_to_end, OTHER_SEED), (1, per_layer, DEFAULT_SEED)):
            rows = [measure(name, seed, trace, honest) for name in WORKLOADS]
            failures += [
                f"{r['workload']} (trace {trace}) failed: {r['problems'] or r['unstable_counts']}"
                for r in rows
                if not r["correct"] or r["failed"]
            ]
            failures += check_declared(rows, trace, declared)
            if trace:
                failures += check_layers(rows, declared)

        data = json.loads(honest.read_text())
        for name, (field, corrupt) in TAMPER.items():
            data["fingerprints"][name][field] = corrupt(data["fingerprints"][name][field])
        tampered = scratch / "tampered.json"
        tampered.write_text(json.dumps(data))
        for name, seed in [(name, DEFAULT_SEED) for name in WORKLOADS] + [
            ("sfs-overload", OTHER_SEED)
        ]:
            line = run.result_line([measure(name, seed, 0, tampered)], 0)
            if line["correct"] or not line["failed"]:
                failures.append(f"{name} seed {seed}: tampered fingerprint passed")
    except run.ChildError as exc:
        failures.append(f"a workload child failed: {exc}")
    finally:
        discard(extension)
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
