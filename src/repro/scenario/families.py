"""Registry of scenario *families*: named preset builders.

A family is a seeded builder producing whole populations as data —
``server_scenario`` (high-N open-arrival CPU workloads) and
``flow_scenario`` (packet flows over a shared link) are the built-ins.
Families register themselves at import in :data:`FAMILIES`, a
:class:`~repro.registry.Registry` whose summary of each family is its
builder's docstring, so ``sfs-experiment list`` enumerates every
domain from one place and a new domain package shows up with no CLI
change.
"""

from __future__ import annotations

from repro.registry import Registry

__all__ = ["FAMILIES", "register_family", "family_names"]

#: family name -> builder returning a Scenario
FAMILIES = Registry("scenario family")
register_family = FAMILIES.register


def family_names() -> list[str]:
    """All registered family names, sorted."""
    return sorted(FAMILIES)
