"""Compile ``repro.sim._engine`` from the checked-out ``_engine.c``.

The benchmark never trusts a prebuilt extension: every invocation
compiles the C source of the tree under test into a fresh directory
below ``.bench_build/`` with the interpreter's own compiler flags (the
same ones ``python setup.py build_ext`` would use), and the workload
children load exactly that file (see ``child.py``). A compile error is
fatal — a benchmark of the compiled build must not silently measure
the pure one.
"""

from __future__ import annotations

import hashlib
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro" / "sim" / "_engine.c"
BUILD_ROOT = ROOT / ".bench_build"


class BuildError(RuntimeError):
    """The extension could not be compiled from the checked-out source."""


def _config(name: str) -> list[str]:
    value = sysconfig.get_config_var(name)
    if not value:
        raise BuildError(f"interpreter has no {name} build setting")
    return shlex.split(value)


def source_sha256() -> str:
    """Digest of the C source the extension is built from."""
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def build_extension() -> Path:
    """Compile ``_engine.c`` into a fresh directory; return the ``.so`` path.

    The caller owns the directory and removes it with :func:`discard`.
    """
    if not SOURCE.is_file():
        raise BuildError(f"missing C source {SOURCE.relative_to(ROOT)}")
    BUILD_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="engine-", dir=BUILD_ROOT))
    obj = out_dir / "_engine.o"
    lib = out_dir / f"_engine{sysconfig.get_config_var('EXT_SUFFIX')}"
    include = sysconfig.get_paths()["include"]
    steps = (
        _config("CC")
        + _config("CFLAGS")
        + _config("CCSHARED")
        + ["-I", include, "-c", str(SOURCE), "-o", str(obj)],
        _config("LDSHARED") + [str(obj), "-o", str(lib)],
    )
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            discard(lib)
            raise BuildError(
                f"{shlex.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}"
            )
    return lib


def discard(lib: Path) -> None:
    """Remove a directory made by :func:`build_extension`."""
    shutil.rmtree(lib.parent, ignore_errors=True)
