"""Setup shim: metadata lives in pyproject.toml.

Exists so that ``pip install -e .`` works in offline environments whose
setuptools lacks PEP 517 editable-wheel support (no ``wheel`` package),
and to drive the *optional* C extension build.

The extension (``repro.sim._engine``, built from
``src/repro/sim/_engine.c``) is the compiled hot path for the event
engine. It is strictly optional — the pure-Python engine is
behaviourally identical — so the build must never make installation
fail:

- ``python setup.py build_ext --inplace`` builds it explicitly (the
  normal development route; CI's compiled leg uses this);
- ``SFS_BUILD_EXT=1 pip install -e .`` requests it during install;
- ``SFS_BUILD_EXT=0`` (or any build failure, e.g. no C compiler)
  falls back to pure Python with a warning rather than an error.
"""

from __future__ import annotations

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

_EXT = Extension(
    "repro.sim._engine",
    sources=["src/repro/sim/_engine.c"],
)


def _want_ext() -> bool:
    """Build the extension? Explicit build_ext always; installs opt in."""
    if any(arg.startswith("build_ext") for arg in sys.argv[1:]):
        return True
    return os.environ.get("SFS_BUILD_EXT", "0") not in ("0", "", "false")


class optional_build_ext(build_ext):
    """A build_ext that degrades to pure Python instead of failing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing entirely
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link error
            self._warn(exc)

    def _warn(self, exc: Exception) -> None:
        if any(arg.startswith("build_ext") for arg in sys.argv[1:]):
            raise exc  # an explicit build_ext should fail loudly
        print(
            f"WARNING: building repro.sim._engine failed ({exc}); "
            "falling back to the pure-Python engine",
            file=sys.stderr,
        )


setup(
    ext_modules=[_EXT] if _want_ext() else [],
    cmdclass={"build_ext": optional_build_ext},
)
