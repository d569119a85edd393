"""The checked manifest of everything ``_engine.c`` mirrors.

The compiled engine (``src/repro/sim/_engine.c``) re-implements parts
of the pure-Python simulator and must stay behaviourally identical to
it (docs/ARCHITECTURE.md's compiled-boundary rules; the runtime side
is pinned by tests/test_eventq.py and the goldens). This module is the
*static* side of that contract: a declarative list of every mirrored
type surface, env flag and exception message, checked both ways by
:mod:`.cboundary` (rules SFS010/SFS011).

Workflow for widening the compiled boundary (e.g. moving ``_charge``
into C):

1. Write the C code and its pure-Python twin.
2. Declare every new mirrored method/getset/member, every new env flag
   and user-facing exception message *here*, and extend the checker if
   the new code mirrors something of another kind.
3. ``sfs-experiment lint --cboundary`` must come back clean. An
   undeclared mirror, a dropped mirror, or a drifted name or message
   is a blocking lint error — CI runs the check before building the
   extension, so drift is reported even where gcc is absent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "C_SOURCE",
    "ENV_FLAGS",
    "ENV_FLAG_FILES",
    "ENV_SCAN_FILES",
    "EXCEPTION_MIRRORS",
    "TYPE_MIRRORS",
    "ExceptionMirror",
    "TypeMirror",
]

#: the one compiled translation unit (repo-root-relative)
C_SOURCE = "src/repro/sim/_engine.c"


@dataclass(frozen=True)
class TypeMirror:
    """A C extension type mirroring a pure-Python class.

    The C tables (``*_methods``/``*_getset``/``*_members``) must
    expose exactly ``methods``/``getsets``/``members`` — nothing
    dropped, nothing undeclared — and the Python class must provide
    every one of those names (as a def, property, ``__slots__`` entry
    or instance attribute).
    """

    c_type: str
    py_file: str
    py_class: str
    methods_table: str | None
    getset_table: str | None
    members_table: str | None
    methods: tuple[str, ...]
    getsets: tuple[str, ...]
    members: tuple[str, ...] = ()


TYPE_MIRRORS: tuple[TypeMirror, ...] = (
    TypeMirror(
        c_type="Engine",
        py_file="src/repro/sim/engine.py",
        py_class="PyEngine",
        methods_table="Engine_methods",
        getset_table="Engine_getset",
        members_table=None,
        methods=("schedule_at", "schedule_after", "step", "run_until", "run"),
        getsets=("now", "events_fired", "pending"),
    ),
    TypeMirror(
        c_type="EventHandle",
        py_file="src/repro/sim/engine.py",
        py_class="EventHandle",
        methods_table="Handle_methods",
        getset_table="Handle_getset",
        members_table="Handle_members",
        methods=("cancel",),
        getsets=("cancelled",),
        members=("time", "seq", "fn", "args"),
    ),
)

#: env flags both engine selections honour; each must appear as a
#: string literal in at least one of ENV_FLAG_FILES
ENV_FLAGS: tuple[str, ...] = ("SFS_ENGINE",)
ENV_FLAG_FILES: tuple[str, ...] = ("src/repro/sim/engine.py",)
#: sim/core modules scanned for *undeclared* ``SFS_*`` env reads
ENV_SCAN_FILES: tuple[str, ...] = (
    "src/repro/sim/engine.py",
    "src/repro/sim/eventq.py",
    "src/repro/sim/runqueue.py",
    "src/repro/core/sfs.py",
)


@dataclass(frozen=True)
class ExceptionMirror:
    """A user-facing error message both engines must raise identically.

    ``skeleton`` is the message with every interpolation slot
    (``%R``-style C directives, f-string ``{...}`` holes) normalized
    to ``{}``; it must appear verbatim on both sides.
    """

    skeleton: str
    py_file: str


EXCEPTION_MIRRORS: tuple[ExceptionMirror, ...] = (
    ExceptionMirror(
        "cannot schedule event in the past: {} < now {}",
        "src/repro/sim/engine.py",
    ),
    ExceptionMirror("delay must be >= 0, got {}", "src/repro/sim/engine.py"),
    ExceptionMirror("t_end {} is in the past (now={})", "src/repro/sim/engine.py"),
)
