"""Interprocedural determinism rules (SFS008/SFS009) over the call graph.

The per-file rules SFS001-SFS003 only see direct draws and leaks;
nondeterminism can also *reach* simulation code through the harness
layers the linter cannot follow file by file — registries, the grid
runner, analysis helpers. This module propagates the per-function
summaries of :mod:`.callgraph` transitively and reports the boundary
call sites:

- **SFS008** ``nondeterminism-reaches-sim``: a function in a sim
  scope (:data:`~repro.analysis.staticcheck.rules.SIM_SCOPES`) calls
  out of the sim scopes into a function whose transitive closure
  reaches an unseeded RNG draw or a wall-clock read. The message
  carries the full call chain down to the effect.
- **SFS009** ``unordered-order-escapes``: a sim-scope function
  *iterates* the result of a call out of the sim scopes into a
  function that (transitively, through returned calls) returns a
  syntactic set — hash order escaping into simulation behaviour that
  SFS003 cannot see per-file.

Findings anchor at the boundary call site, so the existing inline
pragma machinery (``# sfs-lint: disable=SFS008``) waives sanctioned
harness boundaries right where they happen. Run via
``sfs-experiment lint --project``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.staticcheck.callgraph import (
    CallGraph,
    Effect,
    build_callgraph,
)
from repro.analysis.staticcheck.rules import (
    SIM_SCOPES,
    Violation,
    disabled_ids_by_line,
)

__all__ = [
    "FunctionSummary",
    "analyze_project",
    "effect_closure",
    "project_summaries",
    "project_violations",
    "unordered_closure",
]

_KIND_LABEL = {
    "rng": "unseeded randomness",
    "clock": "a wall-clock read",
}


@dataclass(frozen=True)
class FunctionSummary:
    """Per-function summary: direct and transitive effect kinds."""

    qualname: str
    path: str
    line: int
    direct: frozenset[str]
    transitive: frozenset[str]
    returns_unordered: bool


def _scope(module: str) -> str | None:
    """The repro package a module belongs to (mirrors engine._file_scope)."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return None


def effect_closure(graph: CallGraph) -> dict[str, frozenset[str]]:
    """Effect kinds each function can reach through any call chain."""
    kinds: dict[str, set[str]] = {
        qual: {e.kind for e in fn.effects} for qual, fn in graph.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for qual, fn in graph.functions.items():
            current = kinds[qual]
            before = len(current)
            for call in fn.calls:
                current |= kinds.get(call.target, set())
            if len(current) != before:
                changed = True
    return {qual: frozenset(v) for qual, v in kinds.items()}


def unordered_closure(graph: CallGraph) -> dict[str, bool]:
    """Functions whose *return value* is (transitively) an unordered set.

    Propagates only through tail positions (``return g(...)``): a
    function that merely calls a set-returning helper somewhere does
    not itself return unordered data.
    """
    ret = {qual: fn.returns_set for qual, fn in graph.functions.items()}
    changed = True
    while changed:
        changed = False
        for qual, fn in graph.functions.items():
            if ret[qual]:
                continue
            for call in fn.calls:
                if call.in_return and ret.get(call.target, False):
                    ret[qual] = True
                    changed = True
                    break
    return ret


def _effect_chain(
    graph: CallGraph,
    closures: dict[str, frozenset[str]],
    start: str,
    kind: str,
) -> tuple[list[str], Effect] | None:
    """Shortest call chain from ``start`` to a direct ``kind`` effect."""
    queue: list[list[str]] = [[start]]
    visited = {start}
    while queue:
        path = queue.pop(0)
        fn = graph.functions.get(path[-1])
        if fn is None:
            continue
        for effect in fn.effects:
            if effect.kind == kind:
                return path, effect
        for call in fn.calls:
            if call.target in visited:
                continue
            if kind in closures.get(call.target, frozenset()):
                visited.add(call.target)
                queue.append(path + [call.target])
    return None


def _unordered_chain(
    graph: CallGraph, ret: dict[str, bool], start: str
) -> list[str] | None:
    """Return-call chain from ``start`` to a function returning a set."""
    queue: list[list[str]] = [[start]]
    visited = {start}
    while queue:
        path = queue.pop(0)
        fn = graph.functions.get(path[-1])
        if fn is None:
            continue
        if fn.returns_set:
            return path
        for call in fn.calls:
            if call.in_return and call.target not in visited:
                if ret.get(call.target, False):
                    visited.add(call.target)
                    queue.append(path + [call.target])
    return None


def analyze_project(root: str | Path) -> CallGraph:
    """Build the call graph for a repo root (its ``src/repro`` tree)."""
    return build_callgraph(Path(root) / "src")


def project_summaries(graph: CallGraph) -> dict[str, FunctionSummary]:
    """The propagated per-function summaries (tests and tooling API)."""
    closures = effect_closure(graph)
    unordered = unordered_closure(graph)
    return {
        qual: FunctionSummary(
            qualname=qual,
            path=fn.path,
            line=fn.line,
            direct=frozenset(e.kind for e in fn.effects),
            transitive=closures[qual],
            returns_unordered=unordered[qual],
        )
        for qual, fn in graph.functions.items()
    }


def project_violations(
    root: str | Path, graph: CallGraph | None = None
) -> list[Violation]:
    """Run SFS008/SFS009 over the project; pragma waivers applied.

    Paths in the returned violations are repo-root-relative (posix),
    matching the lint engine's rendering.
    """
    root = Path(root)
    if graph is None:
        graph = analyze_project(root)
    closures = effect_closure(graph)
    unordered = unordered_closure(graph)
    found: list[Violation] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if _scope(fn.module) not in SIM_SCOPES:
            continue
        for call in fn.calls:
            callee = graph.functions.get(call.target)
            if callee is None or _scope(callee.module) in SIM_SCOPES:
                continue
            for kind in ("rng", "clock"):
                if kind not in closures.get(call.target, frozenset()):
                    continue
                chained = _effect_chain(graph, closures, call.target, kind)
                if chained is None:
                    continue
                chain, effect = chained
                found.append(
                    Violation(
                        rule="SFS008",
                        path=fn.path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"{_KIND_LABEL[kind]} reaches simulation code: "
                            + " -> ".join([qual, *chain])
                            + f" reaches {effect.detail} "
                            + f"({effect.path}:{effect.line}); thread seeded "
                            "RNGs / engine time through the scenario, or "
                            "waive a sanctioned harness boundary with "
                            "'# sfs-lint: disable=SFS008'"
                        ),
                    )
                )
            if call.sink is not None and unordered.get(call.target, False):
                chain = _unordered_chain(graph, unordered, call.target)
                if chain is None:
                    continue
                terminal = graph.functions[chain[-1]]
                found.append(
                    Violation(
                        rule="SFS009",
                        path=fn.path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"unordered iteration order escapes into "
                            f"simulation code: {call.sink} iterates "
                            + " -> ".join([qual, *chain])
                            + f", and {terminal.qualname} returns a set "
                            f"({terminal.path}:{terminal.line}); sort at "
                            "the source or wrap the call in sorted(...)"
                        ),
                    )
                )
    return _suppress_pragmas(sorted(set(found), key=_sort_key), root)


def _sort_key(v: Violation) -> tuple[str, int, int, str, str]:
    return (v.path, v.line, v.col, v.rule, v.message)


def _suppress_pragmas(found: list[Violation], root: Path) -> list[Violation]:
    """Apply the inline ``# sfs-lint: disable=`` pragmas at the sinks."""
    disabled: dict[str, dict[int, frozenset[str]]] = {}
    kept: list[Violation] = []
    for v in found:
        if v.path not in disabled:
            try:
                source = (root / v.path).read_text(encoding="utf-8")
            except OSError:
                source = ""
            disabled[v.path] = disabled_ids_by_line(source)
        ids = disabled[v.path].get(v.line, frozenset())
        if v.rule in ids or "all" in ids:
            continue
        kept.append(v)
    return kept
