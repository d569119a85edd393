"""Run one workload's repetitions in a process of its own.

``run.py`` starts this script once per workload and build, with
``SFS_ENGINE`` set, because the engine is chosen when ``repro`` is
imported. The script imports ``repro`` from the checkout's ``src/``
and the C extension only from the file ``--extension`` names (freshly
compiled by ``run.py``); without ``--extension`` no extension can load
at all. It prints one JSON object as its last line of output.

Every repetition is checked: it fails when it raises, when the audit
reports a violation, or when its fingerprint differs from the expected
one — the fingerprint ``--expect`` commits, when the seed is the one it
was made for, else the first repetition's (so repetitions must agree
with each other). When the seed is not the committed one, one extra
repetition on the committed seed checks the program against the
committed fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import importlib.abc
import importlib.util
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
EXTENSION = "repro.sim._engine"
#: fewest repetitions a run makes, however short ``--seconds`` is
MIN_REPS = 3


class ExtensionFinder(importlib.abc.MetaPathFinder):
    """Resolve ``repro.sim._engine`` to one file, or refuse it."""

    def __init__(self, path: str | None) -> None:
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != EXTENSION:
            return None
        if self.path is None:
            raise ImportError(f"{EXTENSION} is not built for this run")
        return importlib.util.spec_from_file_location(fullname, self.path)


def import_repro(extension: str | None) -> dict:
    """Import ``repro`` from this checkout; return its ``build_info()``."""
    sys.meta_path.insert(0, ExtensionFinder(extension))
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro.sim.engine import build_info

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not {ROOT}")
    info = build_info()
    wanted = os.environ.get("SFS_ENGINE")
    if info["engine"] != wanted:
        raise RuntimeError(f"SFS_ENGINE={wanted} but the {info['engine']} build is live")
    return info


def load_expected(path: str | None, workload: str):
    """(seed, fingerprint) that ``path`` commits for ``workload``, or None."""
    if path is None:
        return None
    data = json.loads(Path(path).read_text())
    return data["seed"], data["fingerprints"][workload]


def measure(args) -> dict:
    from hostspeed import HostSpeed
    from layers import Spans
    from workloads import WORKLOADS, mismatches, run_once

    workload = WORKLOADS[args.workload]
    committed = load_expected(args.expect, workload.name)
    want = committed[1] if committed and committed[0] == args.seed else None
    reps: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    peak_rss_mb = None
    first_fingerprint = None

    def attempt(seed: int, traced: bool, expected):
        """(repetition, host slowdown in each phase), or None if it raised."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        host = HostSpeed()
        try:
            with host:
                rep = run_once(workload, seed, args.scale, Spans() if traced else None)
        except Exception:
            failed += 1
            problems.append(f"seed {seed}: {traceback.format_exc().splitlines()[-1]}")
            traceback.print_exc()
            return None
        wrong = []
        if expected is not None:
            wrong = mismatches(rep.fingerprint, expected)
        if rep.violations:
            wrong.append(f"{rep.violations} audit violation(s)")
        if wrong:
            failed += 1
            problems.append(f"seed {seed}: differs in {', '.join(wrong)}")
        return rep, {name: host.slowdown(*span) for name, span in rep.phases.items()}

    def more() -> bool:
        if args.once:
            return attempted < 1
        if args.trace and attempted % 2:
            return True  # finish the untraced/traced pair
        return attempted < MIN_REPS or perf_counter() < deadline

    deadline = perf_counter() + args.seconds
    while more():
        # The traced pass alternates untraced and traced repetitions,
        # so both medians see the same machine conditions.
        traced = bool(args.trace) and attempted % 2 == 1
        result = attempt(args.seed, traced, want or first_fingerprint)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if result is None:
            continue
        rep, slowdown = result
        if first_fingerprint is None:
            first_fingerprint = rep.fingerprint
        reps.append(
            {
                "traced": traced,
                "slowdown": slowdown,
                "gen_s": rep.gen_s,
                "build_s": rep.build_s,
                "setup_s": rep.setup_s,
                "run_s": rep.run_s,
                "finalize_s": rep.finalize_s,
                "events": rep.events,
                "layers": rep.layers,
            }
        )
    if committed and committed[0] != args.seed and not args.once:
        attempt(committed[0], False, committed[1])
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": first_fingerprint,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply workload sizes; --expect must be made at the same scale",
    )
    parser.add_argument("--extension", help="path of the compiled _engine")
    parser.add_argument("--expect", help="fingerprints JSON to check against")
    parser.add_argument("--once", action="store_true", help="one repetition")
    args = parser.parse_args(argv)
    info = import_repro(args.extension)
    out = measure(args)
    out["build_info"] = info
    out["python"] = sys.version.split()[0]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
