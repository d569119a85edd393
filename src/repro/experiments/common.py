"""Helpers shared by the experiment modules.

Each experiment module defines its figure as a declarative
:class:`repro.scenario.Scenario` and restricts itself to the
schedulers that figure compares; :func:`resolve_scheduler` maps its
scheduler aliases to registry names with one uniform error.
"""

from __future__ import annotations

__all__ = ["resolve_scheduler"]


def resolve_scheduler(mapping: dict, name: str):
    """Look up an experiment's scheduler alias, with a uniform error.

    Each experiment module restricts itself to the schedulers its
    figure compares (a ``name -> registry spec`` mapping); anything
    else is rejected with ``ValueError`` rather than silently running
    an unrelated policy.
    """
    try:
        return mapping[name]
    except KeyError:
        raise ValueError(f"unsupported scheduler {name!r}") from None
