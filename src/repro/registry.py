"""One name table for every user-nameable kind.

Schedulers, scenario families, canned metrics, arrival processes,
demand distributions, cost models, audit checks, lint rules and the
behaviour, driver and event spec kinds are all :class:`Registry`
instances, so registering a name, looking it up, building its object
and summarizing it work, and fail, the same way for every kind::

    SCHEDULERS = Registry("scheduler")
    SCHEDULERS.register("sfq")(StartTimeFairScheduler)
    SCHEDULERS.register("sfq-readjust", readjust=True)(StartTimeFairScheduler)

    SCHEDULERS.make("sfq-readjust")  # StartTimeFairScheduler(readjust=True)
    SCHEDULERS.summary("sfq")  # first line of the class docstring
    SCHEDULERS.lookup("cfs")  # ValueError: unknown scheduler 'cfs'; known: ...

``register`` is a decorator too (``@METRICS.register("shares")``).
This module imports nothing from ``repro``, so every layer may use it.
"""

from __future__ import annotations

import re
from typing import Any, Callable, TypeVar

__all__ = ["NAME_RE", "Registry"]

#: a registered name, matched in full: letters, digits and ``. _ -``,
#: not leading with a separator (lint rule SFS004 checks it statically)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

_T = TypeVar("_T")


class Registry(dict):
    """Name -> registered object for one kind of thing, ``what``.

    Read it as the dict it is (``name in reg``, ``reg[name]``,
    ``sorted(reg)``); write it only through :meth:`register`. The
    tables are what ``sfs-experiment list`` shows, so an entry needs a
    docstring: its first line is the entry's summary.
    """

    def __init__(self, what: str) -> None:
        super().__init__()
        self.what = what
        self._presets: dict[str, dict[str, Any]] = {}

    def register(self, name: str, **preset: Any) -> Callable[[_T], _T]:
        """Decorator registering its object under ``name``, unchanged.

        Stacked decorators register one object under several names,
        each with its own ``preset`` keywords for :meth:`make`. Rejects
        a malformed or duplicate name and an object with no docstring.
        """

        def decorator(obj: _T) -> _T:
            if not (isinstance(name, str) and NAME_RE.fullmatch(name)):
                raise ValueError(
                    f"{self.what} name {name!r} is malformed: use letters, "
                    "digits and . _ - only"
                )
            if name in self:
                raise ValueError(f"{self.what} {name!r} is already registered")
            if not (getattr(obj, "__doc__", None) or "").strip():
                raise ValueError(f"{self.what} {name!r} needs a docstring")
            self[name] = obj
            self._presets[name] = preset
            return obj

        return decorator

    def lookup(self, name: str) -> Any:
        """The object registered under ``name``; ``ValueError`` if none."""
        try:
            return self[name]
        except KeyError:
            known = ", ".join(sorted(self))
            raise ValueError(f"unknown {self.what} {name!r}; known: {known}") from None

    def make(self, name: str, **overrides: Any) -> Any:
        """Call the entry for ``name`` with its presets, then ``overrides``."""
        return self.lookup(name)(**{**self._presets[name], **overrides})

    def summary(self, name: str) -> str:
        """The first line of the docstring of the entry for ``name``."""
        return self.lookup(name).__doc__.strip().splitlines()[0]
