"""Lint driver: file discovery, scope filtering, suppression, rendering.

The engine walks the requested paths, parses every ``*.py`` file once,
runs each registered rule whose scope matches the file, drops findings
suppressed by an inline ``# sfs-lint: disable=`` pragma, and renders
the rest as text or JSON. Scenario config files under a ``scenarios``
directory are routed to :meth:`LintRule.check_config` instead of the
AST path (SFS007 schema-validates them; the pragma works from YAML
comments too). Exposed as ``sfs-experiment lint`` and
``python -m repro.analysis.staticcheck``.

Beyond the per-file rules, ``--project`` runs the interprocedural
determinism rules SFS008/SFS009 (:mod:`.project`) against the repo
root inferred from the linted paths. Paths in every
finding are rendered repo-root-relative so CI annotations are stable
across machines, and ``--output`` tees the JSON report to a file.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.staticcheck import checks  # noqa: F401  (registers rules)
from repro.analysis.staticcheck.rules import (
    RULES,
    LintRule,
    Violation,
    disabled_ids_by_line,
    make_rules,
    rule_ids,
)

__all__ = [
    "DEFAULT_ROOTS",
    "discover_files",
    "find_repo_root",
    "lint_source",
    "lint_paths",
    "render_text",
    "render_json",
    "main",
]

#: what a bare ``sfs-experiment lint`` scans, relative to the repo root
DEFAULT_ROOTS: tuple[str, ...] = ("src", "tests", "benchmarks", "examples")

#: scenario config suffixes picked up under a ``scenarios`` directory
_CONFIG_SUFFIXES = (".yaml", ".yml", ".json")

#: directories never descended into
_SKIP_DIRS = frozenset(
    {
        ".git",
        "__pycache__",
        ".ruff_cache",
        ".pytest_cache",
        "build",
        "dist",
        ".venv",
        "venv",
    }
)

#: filesystem markers that identify a repo root
_ROOT_MARKERS = ("pyproject.toml", ".git")


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of lintable files.

    Directories yield every ``*.py`` file plus any scenario config
    (``*.yaml``/``*.yml``/``*.json``) living under a ``scenarios``
    directory — the example library SFS007 guards. Explicitly named
    config files are always included.
    """
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*"):
                if _SKIP_DIRS.intersection(sub.parts) or not sub.is_file():
                    continue
                if sub.suffix == ".py":
                    out.add(sub)
                elif sub.suffix in _CONFIG_SUFFIXES and "scenarios" in sub.parts:
                    out.add(sub)
        elif path.suffix == ".py" or path.suffix in _CONFIG_SUFFIXES:
            out.add(path)
    return sorted(out)


def find_repo_root(paths: Sequence[str | Path]) -> Path | None:
    """Locate the repo root for the linted paths (pyproject/.git marker).

    Walks up from the first path (then from the cwd) looking for a
    directory containing one of :data:`_ROOT_MARKERS`. Returns None
    when nothing matches — path rendering then falls back to the
    paths as given.
    """
    probes: list[Path] = []
    if paths:
        first = Path(paths[0]).resolve()
        probes.append(first if first.is_dir() else first.parent)
    probes.append(Path.cwd())
    for start in probes:
        for cand in (start, *start.parents):
            if any((cand / marker).exists() for marker in _ROOT_MARKERS):
                return cand
    return None


def _display_path(file: Path, root: Path | None) -> str:
    """Repo-root-relative rendering of a file path (posix separators).

    Falls back to cwd-relative, then to the path as given, so files
    outside any recognizable repo (tmp dirs in tests) keep stable
    names too.
    """
    resolved = file.resolve()
    bases = [root] if root is not None else []
    bases.append(Path.cwd())
    for base in bases:
        try:
            return resolved.relative_to(base.resolve()).as_posix()
        except ValueError:
            continue
    return file.as_posix()


def _file_scope(path: Path) -> str | None:
    """The repro package a file belongs to (``sim``, ``core``, ...).

    Inferred from the path parts following a ``repro`` component, so it
    works for both ``src/repro/sim/machine.py`` and installed layouts.
    Files outside the ``repro`` package (tests, benchmarks, scripts)
    have no scope and only run scope-less rules.
    """
    parts = path.parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro":
            return parts[i + 1] if i + 1 < len(parts) - 1 else None
    return None


def _applies(rule: LintRule, scope: str | None) -> bool:
    return rule.scopes is None or scope in rule.scopes


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: Iterable[LintRule] | None = None,
    scope: str | None = None,
) -> list[Violation]:
    """Lint one source string (the unit-test entry point).

    ``scope`` simulates the file living in that repro package; rules
    restricted to other scopes are skipped. Cross-file (:meth:`finish`)
    findings are included, so single-file duplicate detection works.
    """
    active = list(rules) if rules is not None else make_rules()
    tree = ast.parse(source)
    disabled = disabled_ids_by_line(source)
    found: list[Violation] = []
    for lint_rule in active:
        if not _applies(lint_rule, scope):
            continue
        found.extend(lint_rule.check(tree, source, path))
    if rules is None:
        for lint_rule in active:
            found.extend(lint_rule.finish())
    return _suppress(found, {path: disabled})


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    project: bool = False,
) -> tuple[list[Violation], int]:
    """Lint files/directories; returns (violations, files_checked).

    ``project`` additionally runs the interprocedural analyzer
    (SFS008/SFS009) over the repo root inferred from ``paths`` — a
    ValueError is raised when no root can be located.
    """
    rules = make_rules(select)
    files = discover_files(paths)
    root = find_repo_root(paths)
    found: list[Violation] = []
    disabled_by_path: dict[str, dict[int, frozenset[str]]] = {}
    for file in files:
        path_str = _display_path(file, root)
        if file.suffix in _CONFIG_SUFFIXES:
            try:
                text = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                found.append(
                    Violation(
                        rule="SFS000",
                        path=path_str,
                        line=1,
                        col=0,
                        message=f"file is unreadable: {exc.__class__.__name__}",
                    )
                )
                continue
            disabled_by_path[path_str] = disabled_ids_by_line(text)
            for lint_rule in rules:
                found.extend(lint_rule.check_config(text, path_str))
            continue
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file))
        except (SyntaxError, UnicodeDecodeError) as exc:
            found.append(
                Violation(
                    rule="SFS000",
                    path=path_str,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    message=f"file does not parse: {exc.__class__.__name__}",
                )
            )
            continue
        disabled_by_path[path_str] = disabled_ids_by_line(source)
        scope = _file_scope(file)
        for lint_rule in rules:
            if _applies(lint_rule, scope):
                found.extend(lint_rule.check(tree, source, path_str))
    for lint_rule in rules:
        found.extend(lint_rule.finish())
    if project:
        if root is None:
            raise ValueError(
                "cannot locate a repo root (pyproject.toml/.git) for the "
                "project analyzer; lint from inside the repo or pass "
                "paths within it"
            )
        from repro.analysis.staticcheck.project import project_violations

        extra = project_violations(root)
        if select is not None:
            wanted = set(select)
            extra = [v for v in extra if v.rule in wanted]
        found.extend(extra)
    return _suppress(found, disabled_by_path), len(files)


def _suppress(
    violations: Iterable[Violation],
    disabled_by_path: dict[str, dict[int, frozenset[str]]],
) -> list[Violation]:
    """Drop violations waived by an inline pragma on their line."""
    kept = []
    for v in violations:
        ids = disabled_by_path.get(v.path, {}).get(v.line, frozenset())
        if v.rule in ids or "all" in ids:
            continue
        kept.append(v)
    return sorted(kept, key=lambda v: (v.path, v.line, v.col, v.rule))


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [v.render() for v in violations]
    noun = "violation" if len(violations) == 1 else "violations"
    lines.append(f"{len(violations)} {noun} in {files_checked} files checked")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_checked: int) -> str:
    """Machine-readable report (``--format json`` / ``--output``)."""
    report = {
        "files_checked": files_checked,
        "violations": [v.to_json() for v in violations],
    }
    return json.dumps(report, indent=2, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; exit status 0 = clean, 1 = findings, 2 = usage."""
    parser = argparse.ArgumentParser(
        prog="sfs-experiment lint",
        description=(
            "Repo-specific determinism/soundness linter (rules "
            + ", ".join(rule_ids())
            + "). Waive a finding inline with '# sfs-lint: disable=SFSnnn'."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_ROOTS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_ROOTS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="also run the interprocedural project analyzer (SFS008/SFS009)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in rule_ids():
            scopes = ",".join(RULES[rule_id].scopes or ["all files"])
            print(f"{rule_id}  [{scopes}]  {RULES.summary(rule_id)}")
        return 0

    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        violations, files_checked = lint_paths(
            args.paths,
            select=select,
            project=args.project,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.output:
        Path(args.output).write_text(
            render_json(violations, files_checked) + "\n", encoding="utf-8"
        )
    render = render_json if args.format == "json" else render_text
    print(render(violations, files_checked))
    return 1 if violations else 0
