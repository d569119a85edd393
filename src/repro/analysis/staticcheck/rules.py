"""Rule registry and base machinery for the repo-specific linter.

The determinism conventions this repository lives by — seeded RNGs
threaded through scenarios, no wall clock inside the simulator, no
hash-order leaks into rendered output — were tribal knowledge enforced
only by review. Each convention is now a registered :class:`LintRule`
with a stable ``SFSnnn`` id, so ``sfs-experiment lint`` (and the
blocking CI job behind it) can enforce them mechanically.

Rules are registered with the :func:`rule` decorator in :data:`RULES`,
a :class:`~repro.registry.Registry` like every other name table::

    @rule("SFS001", scopes=SIM_SCOPES)
    class UnseededRandomRule(LintRule):
        \"\"\"What the rule enforces and why.\"\"\"
        ...

Every lint run instantiates fresh rule objects (:func:`make_rules`), so
rules may keep per-run state — SFS004 uses this to detect registry
names duplicated *across* files via the :meth:`LintRule.finish` hook.

Suppression is inline and per-line: a violation whose line carries a
``# sfs-lint: disable=SFS001`` comment (comma-separated ids, or
``all``) is dropped. There is deliberately no file-level or global
suppression — every waiver sits next to the code it excuses, where
review can see it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.registry import Registry

__all__ = [
    "LintRule",
    "Violation",
    "RULES",
    "SIM_SCOPES",
    "rule",
    "make_rules",
    "rule_ids",
    "disabled_ids_by_line",
]

#: the packages that constitute "simulation code": everything whose
#: behaviour must be a pure function of the scenario spec and its seeds
SIM_SCOPES: tuple[str, ...] = (
    "sim",
    "scenario",
    "schedulers",
    "core",
    "workloads",
)


@dataclass(frozen=True)
class Violation:
    """One finding: (rule, file, position, message)."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The canonical one-line ``path:line:col: SFSnnn message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        """Machine-readable form (the ``--format json`` output mode)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class LintRule:
    """Base class for one registered check.

    Subclasses implement :meth:`check` (per file) and may override
    :meth:`finish` (once per run, after every file was checked) for
    cross-file properties. ``id``, ``scopes`` and ``title`` are filled
    in by the :func:`rule` decorator from its arguments and the class
    docstring.
    """

    #: stable rule id ("SFS001"); set by the decorator
    id: str = ""
    #: one-line summary (first docstring line); set by the decorator
    title: str = ""
    #: package scopes the rule applies to (None = every scanned file)
    scopes: tuple[str, ...] | None = None

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        """Yield violations for one parsed file."""
        raise NotImplementedError

    def check_config(self, text: str, path: str) -> Iterator[Violation]:
        """Yield violations for one scenario config file (optional).

        Config files (``*.yaml``/``*.yml``/``*.json`` under a
        ``scenarios`` directory) have no AST; the engine routes them
        here instead of :meth:`check`. Most rules are python-only and
        inherit this no-op.
        """
        return iter(())

    def finish(self) -> Iterator[Violation]:
        """Yield cross-file violations after the whole run (optional)."""
        return iter(())

    def violation(self, path: str, node: ast.AST, message: str) -> Violation:
        """Build a Violation anchored at ``node``'s position."""
        return Violation(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule id -> rule class (populated by @rule)
RULES = Registry("lint rule")


def rule(
    rule_id: str, *, scopes: tuple[str, ...] | None = None
) -> Callable[[type[LintRule]], type[LintRule]]:
    """Register a :class:`LintRule` subclass in :data:`RULES`.

    Also sets the class's ``id``, ``scopes`` and ``title`` (the first
    line of its docstring), and returns the class unchanged so the
    registry stays invisible to the rule's own tests.
    """

    def decorator(cls: type[LintRule]) -> type[LintRule]:
        RULES.register(rule_id)(cls)
        cls.id, cls.scopes, cls.title = rule_id, scopes, RULES.summary(rule_id)
        return cls

    return decorator


def make_rules(select: Iterable[str] | None = None) -> list[LintRule]:
    """Fresh rule instances for one lint run (all, or the named subset)."""
    picked = sorted(RULES) if select is None else list(select)
    return [RULES.lookup(rule_id)() for rule_id in picked]


def rule_ids() -> list[str]:
    """All registered rule ids, sorted."""
    return sorted(RULES)


#: the inline escape hatch: ``# sfs-lint: disable=SFS001,SFS005`` (or all)
_DISABLE_RE = re.compile(r"#\s*sfs-lint:\s*disable=([A-Za-z0-9_,\s]+|all)")


def disabled_ids_by_line(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids disabled on that line.

    The special id ``all`` suppresses every rule on the line. A pragma
    on a comment-only line waives the *next* line instead, so long
    statements can keep their waiver (and its justification) on the
    line above. Scanning raw source lines (rather than the token
    stream) keeps the pragma usable even on lines the parser
    attributes to a different statement.
    """
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(text)
        if not match:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        target = lineno + 1 if text.lstrip().startswith("#") else lineno
        out[target] = out.get(target, frozenset()) | ids
    return out
