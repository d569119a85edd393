"""The repo-specific lint rules (SFS001-SFS011).

Each rule encodes one determinism or soundness convention the
reproduction depends on:

- goldens and the perf-trend gate assume byte-identical reruns, which
  dies the moment simulation code reads the wall clock or draws from
  an unseeded RNG (SFS001, SFS002) or leaks hash order into rendered
  output (SFS003);
- the registry pattern every subsystem copies (schedulers, metrics,
  audit checks, lint rules) only stays navigable if entries are
  documented and uniquely named (SFS004);
- tag/surplus arithmetic is bit-exact by construction, so a float
  ``==`` outside the fixed-point modules is either a bug or a
  deliberate bit-identity check that deserves a waiver comment
  (SFS005);
- a grid on a process pool pickles Scenario/SweepCell across process
  boundaries, which lambdas and closures silently break (SFS006);
- the example scenario configs are executable documentation, so one
  that stops schema-validating is a broken promise the moment someone
  copies it (SFS007);
- nondeterminism and hash order can also reach simulation code
  *transitively* through harness layers, which the interprocedural
  project analyzer catches (SFS008, SFS009; :mod:`.project`);
- the optional C engine must stay a faithful mirror of its pure-Python
  reference, pinned statically by the compiled-boundary conformance
  checker (SFS010, SFS011; :mod:`.cboundary`).

Rules are registered via :func:`repro.analysis.staticcheck.rules.rule`
and run by :mod:`repro.analysis.staticcheck.engine`. SFS008-SFS011 are
produced by their dedicated analyzers (enabled with ``lint --project``
/ ``lint --cboundary``); the classes here carry their ids, titles and
docs, and their per-file hooks are no-ops.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.staticcheck.rules import (
    SIM_SCOPES,
    LintRule,
    Violation,
    rule,
)

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "OrderLeakRule",
    "RegistryHygieneRule",
    "FloatTagEqualityRule",
    "PickleSafetyRule",
    "ScenarioConfigRule",
    "TransitiveNondeterminismRule",
    "UnorderedEscapeRule",
    "MirrorSurfaceRule",
    "MirrorDriftRule",
]


def _call_name(func: ast.AST) -> str | None:
    """The bare callee name of a call (``f`` for both ``f()``/``m.f()``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted(node: ast.AST) -> str | None:
    """Reconstruct a dotted name (``numpy.random``), or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


# ----------------------------------------------------------------------
# SFS001: unseeded randomness in simulation code
# ----------------------------------------------------------------------

#: numpy.random attributes that are fine: explicit generator plumbing
_NUMPY_OK = frozenset({"Generator", "SeedSequence", "BitGenerator", "PCG64"})


@rule("SFS001", scopes=SIM_SCOPES)
class UnseededRandomRule(LintRule):
    """Simulation code must thread seeded RNGs, never the module-level ones.

    ``random.<fn>()`` and ``numpy.random.<fn>()`` draw from interpreter-
    global state: any import-order or call-order change reshuffles every
    stream, and goldens stop reproducing. ``random.Random(seed)`` /
    ``numpy.random.default_rng(seed)`` instances threaded through the
    scenario are the only sanctioned sources; constructing either
    *without* a seed is flagged too.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(node, path)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(node, path)

    def _check_call(self, node: ast.Call, path: str) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = _dotted(func.value)
        if owner == "random":
            if func.attr == "SystemRandom":
                yield self.violation(
                    path, node, "random.SystemRandom is nondeterministic by design"
                )
            elif func.attr == "Random":
                if not node.args and not node.keywords:
                    yield self.violation(
                        path,
                        node,
                        "random.Random() without a seed; pass an explicit seed",
                    )
            else:
                yield self.violation(
                    path,
                    node,
                    f"module-level random.{func.attr}() draws from global "
                    "state; thread a seeded random.Random instead",
                )
        elif owner in ("numpy.random", "np.random"):
            if func.attr == "default_rng":
                if not node.args and not node.keywords:
                    yield self.violation(
                        path,
                        node,
                        "numpy default_rng() without a seed; pass an explicit seed",
                    )
            elif func.attr not in _NUMPY_OK:
                yield self.violation(
                    path,
                    node,
                    f"{owner}.{func.attr}() uses numpy's global RNG state; "
                    "thread a seeded Generator instead",
                )

    def _check_import(self, node: ast.ImportFrom, path: str) -> Iterator[Violation]:
        if node.module == "random":
            bad = [
                a.name
                for a in node.names
                if a.name not in ("Random", "SystemRandom")
            ]
            if bad:
                yield self.violation(
                    path,
                    node,
                    f"importing {', '.join(bad)} from random invites "
                    "global-state draws; import Random and seed it",
                )
        elif node.module == "numpy.random":
            bad = [
                a.name
                for a in node.names
                if a.name not in _NUMPY_OK | {"default_rng"}
            ]
            if bad:
                yield self.violation(
                    path,
                    node,
                    f"importing {', '.join(bad)} from numpy.random invites "
                    "global-state draws; use a seeded Generator",
                )


# ----------------------------------------------------------------------
# SFS002: wall-clock reads in simulation code
# ----------------------------------------------------------------------

_WALL_CLOCK_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})


@rule("SFS002", scopes=SIM_SCOPES)
class WallClockRule(LintRule):
    """Simulation code must never read the wall clock.

    Inside the simulator, "now" is ``machine.now`` — engine time.
    ``time.time()`` / ``datetime.now()`` smuggle host wall-clock into
    results, so identical scenarios stop producing identical output.
    (Harness code *outside* the sim scopes — e.g. the grid runner's
    ``wall_s`` measurement — may read clocks freely.)
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                owner = _dotted(func.value)
                if owner == "time" and func.attr in _WALL_CLOCK_FNS:
                    yield self.violation(
                        path,
                        node,
                        f"time.{func.attr}() reads the host clock; use "
                        "simulation time (machine.now)",
                    )
                elif (
                    func.attr in _DATETIME_NOW
                    and owner is not None
                    and (owner in ("datetime", "date") or owner.startswith("datetime."))
                ):
                    yield self.violation(
                        path,
                        node,
                        f"{owner}.{func.attr}() reads the host clock; "
                        "simulation code must be time-free",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in _WALL_CLOCK_FNS]
                if bad:
                    yield self.violation(
                        path,
                        node,
                        f"importing {', '.join(bad)} from time invites "
                        "wall-clock reads in simulation code",
                    )


# ----------------------------------------------------------------------
# SFS003: hash-order leaks into ordered output
# ----------------------------------------------------------------------

#: sinks whose output order is observable (lists, rendered strings, ...)
_ORDERED_SINKS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})


@rule("SFS003")
class OrderLeakRule(LintRule):
    """Unordered sets must not feed sort-free ordered output.

    Iterating a ``set`` observes string-hash order, which varies with
    ``PYTHONHASHSEED`` — the classic source of almost-always-identical
    goldens. Flagged: ``for``-loops and list/generator/dict
    comprehensions over set expressions, and sets (or dict views)
    passed straight to ``list``/``tuple``/``enumerate``/``join``.
    Wrap the set in ``sorted(...)`` to fix. Dict iteration itself is
    insertion-ordered (deterministic here, where insertion follows
    event order) and is deliberately not flagged.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        set_names = _set_assigned_names(tree)

        def is_set(node: ast.AST) -> bool:
            return _is_set_expr(node, set_names)

        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and is_set(node.iter):
                yield self.violation(
                    path,
                    node.iter,
                    "iterating a set leaks hash order; wrap in sorted(...)",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if is_set(comp.iter):
                        yield self.violation(
                            path,
                            comp.iter,
                            "comprehension over a set leaks hash order; "
                            "wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in _ORDERED_SINKS and node.args and is_set(node.args[0]):
                    yield self.violation(
                        path,
                        node,
                        f"{name}() over a set leaks hash order; wrap in sorted(...)",
                    )
                elif (
                    name == "join"
                    and isinstance(node.func, ast.Attribute)
                    and node.args
                    and (is_set(node.args[0]) or _is_dict_view(node.args[0]))
                ):
                    yield self.violation(
                        path,
                        node,
                        "join() over an unordered/unsorted collection "
                        "renders nondeterministic text; wrap in sorted(...)",
                    )


def _set_assigned_names(tree: ast.AST) -> frozenset[str]:
    """Names only ever assigned syntactic set values (cheap inference)."""
    sets: set[str] = set()
    others: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, frozenset()):
                        sets.add(target.id)
                    else:
                        others.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                if _is_set_expr(node.value, frozenset()):
                    sets.add(node.target.id)
                else:
                    others.add(node.target.id)
    return frozenset(sets - others)


def _is_set_expr(node: ast.AST, set_names: frozenset[str]) -> bool:
    """Is ``node`` syntactically an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


def _is_dict_view(node: ast.AST) -> bool:
    """A bare ``d.values()`` / ``d.keys()`` / ``d.items()`` call?"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys", "items")
        and not node.args
        and not node.keywords
    )


# ----------------------------------------------------------------------
# SFS004: registry hygiene
# ----------------------------------------------------------------------

#: module-level dict literals that act as registries
_REGISTRY_DICTS = frozenset({"METRICS", "COST_MODELS", "CHECKS", "ARRIVALS", "DEMANDS"})
_REGISTER_DECORATORS = frozenset(
    {
        "register",
        "rule",
        "register_arrival",
        "register_demand",
        "register_behavior",
        "register_driver",
        "register_event",
    }
)
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@rule("SFS004")
class RegistryHygieneRule(LintRule):
    """Every registered entry needs a docstring and a unique, sane name.

    Covers the ``@register``-style decorators (schedulers, lint rules,
    audit checks, arrival and demand kinds, and the behaviour, driver
    and event spec kinds) and the module-level registry dict literals
    (``METRICS``, ``COST_MODELS``, ``CHECKS``, ``ARRIVALS``,
    ``DEMANDS``): names must be unique across the whole scanned file
    set (a duplicate either raises at import or, in a dict literal,
    silently wins), contain no whitespace or exotic characters, and the
    registered function/class must carry a docstring — the registry
    *is* the discovery surface (``sfs-experiment list``), so an
    undocumented entry is invisible in the place users look first.
    """

    def __init__(self) -> None:
        #: registered name -> "path:line" of first sighting (per run)
        self._seen: dict[str, str] = {}
        self._dupes: list[Violation] = []

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        module_docs = _module_level_docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._check_decorated(node, path)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in _REGISTRY_DICTS:
                        yield from self._check_dict_registry(
                            node.value, module_docs, path
                        )

    def _check_decorated(self, node, path: str) -> Iterator[Violation]:
        names = []
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            deco_name = _call_name(deco.func)
            if deco_name not in _REGISTER_DECORATORS:
                continue
            if (
                deco.args
                and isinstance(deco.args[0], ast.Constant)
                and isinstance(deco.args[0].value, str)
            ):
                names.append((deco.args[0].value, deco))
        if not names:
            return
        if not ast.get_docstring(node):
            yield self.violation(
                path,
                node,
                f"registered entry {node.name!r} has no docstring; the "
                "registry is the discovery surface",
            )
        for name, deco in names:
            yield from self._note_name(name, deco, path)

    def _check_dict_registry(
        self, dct: ast.Dict, module_docs: dict[str, bool], path: str
    ) -> Iterator[Violation]:
        for key, value in zip(dct.keys, dct.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            yield from self._note_name(key.value, key, path)
            if isinstance(value, ast.Name) and module_docs.get(value.id) is False:
                yield self.violation(
                    path,
                    key,
                    f"registry entry {key.value!r} maps to undocumented "
                    f"function {value.id!r}; add a docstring",
                )

    def _note_name(self, name: str, node: ast.AST, path: str) -> Iterator[Violation]:
        if not _NAME_RE.match(name):
            yield self.violation(
                path,
                node,
                f"registered name {name!r} is not a sane registry key "
                "(letters, digits, . _ - only)",
            )
        where = f"{path}:{getattr(node, 'lineno', 1)}"
        first = self._seen.setdefault(name, where)
        if first != where:
            self._dupes.append(
                self.violation(
                    path,
                    node,
                    f"registered name {name!r} already used at {first}; "
                    "later registration shadows or raises",
                )
            )

    def finish(self) -> Iterator[Violation]:
        return iter(self._dupes)


def _module_level_docstrings(tree: ast.AST) -> dict[str, bool]:
    """Module-level function name -> whether it has a docstring."""
    out: dict[str, bool] = {}
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = bool(ast.get_docstring(node))
    return out


# ----------------------------------------------------------------------
# SFS005: float equality on tag/surplus arithmetic
# ----------------------------------------------------------------------

#: attribute names that mean "this value is a tag/surplus quantity"
_TAG_ATTRS = frozenset(
    {
        "phi",
        "virtual_time",
        "_vtime",
        "_last_finish",
    }
)
#: callee names whose result is a tag/surplus quantity
_TAG_CALLS = frozenset({"surplus_of", "surplus", "finish_tag", "start_tag"})
#: modules where == on tags is the point (kernel fixed-point arithmetic)
_TAG_WHITELIST_SUFFIXES = ("core/fixed_point.py",)


@rule("SFS005", scopes=SIM_SCOPES)
class FloatTagEqualityRule(LintRule):
    """No float ``==``/``!=`` on tag/surplus arithmetic outside fixed-point.

    Start tags, finish tags, phis and surpluses are floats whose exact
    bit patterns depend on operation order; an equality test on them is
    either a latent epsilon bug or an intentional bit-identity check.
    The intentional ones (change detection, oracle agreement) carry a
    ``# sfs-lint: disable=SFS005`` waiver with a justifying comment;
    the kernel fixed-point module, where tags are integers and ``==``
    is exact, is whitelisted wholesale. Scoped to simulation code:
    tests asserting hand-computed exact tag values are fine.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        norm = path.replace("\\", "/")
        if any(norm.endswith(sfx) for sfx in _TAG_WHITELIST_SUFFIXES):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_tag_expr(expr) for expr in operands):
                yield self.violation(
                    path,
                    node,
                    "float ==/!= on tag/surplus arithmetic; use the tag "
                    "arithmetic strategy or an explicit tolerance (waive "
                    "intentional bit-identity checks with a comment)",
                )

    def _is_tag_expr(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Subscript):
                value = node.value
                if isinstance(value, ast.Attribute) and value.attr == "sched":
                    return True
            elif isinstance(node, ast.Attribute) and node.attr in _TAG_ATTRS:
                return True
            elif isinstance(node, ast.Call):
                if _call_name(node.func) in _TAG_CALLS:
                    return True
        return False


# ----------------------------------------------------------------------
# SFS006: pickle safety of scenario/sweep data
# ----------------------------------------------------------------------

#: constructors whose arguments must survive pickling to sweep workers
_PICKLED_CTORS = frozenset(
    {
        "Scenario",
        "TaskSpec",
        "Probe",
        "task",
        "group",
        "Sweep",
        "SweepCell",
        "ShortJobs",
        "LatCtxRing",
        "SetWeight",
        "Kill",
        "CellJob",
        "server_scenario",
        "with_",
    }
)


@rule("SFS006")
class PickleSafetyRule(LintRule):
    """Scenario/SweepCell payloads must stay pickle-safe.

    A grid on a process pool ships scenarios to worker processes by
    pickling, and the checkpoint fingerprints them the same way.
    Lambdas and nested functions pickle only by accident of never being
    exercised in-process — until the first pooled run (``--workers``
    other than 0) dies. Probe callables and any field of the pickled
    dataclasses must be module-level.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        nested = _nested_function_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name not in _PICKLED_CTORS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Lambda):
                        yield self.violation(
                            path,
                            sub,
                            f"lambda passed into {name}(...) will not "
                            "pickle to sweep workers; use a module-level "
                            "function",
                        )
                    elif isinstance(sub, ast.Name) and sub.id in nested:
                        yield self.violation(
                            path,
                            sub,
                            f"nested function {sub.id!r} passed into "
                            f"{name}(...) will not pickle to sweep "
                            "workers; hoist it to module level",
                        )


# ----------------------------------------------------------------------
# SFS007: example scenario configs must schema-validate
# ----------------------------------------------------------------------


@rule("SFS007")
class ScenarioConfigRule(LintRule):
    """Scenario config files must load through the schema without error.

    The ``examples/scenarios/`` library is executable documentation:
    CI runs every file, users copy them as starting points, and the
    README table links them by name. A config that stops schema-
    validating — a typoed field, a renamed arrival kind, a stale
    scheduler name — is a broken promise that only surfaces when
    someone runs it. This rule feeds each discovered ``*.yaml`` /
    ``*.yml`` / ``*.json`` config through the same
    :func:`repro.scenario.io.loads_config` pipeline the CLI uses and
    reports the first validation failure with its dotted field path.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        return iter(())

    def check_config(self, text: str, path: str) -> Iterator[Violation]:
        from repro.scenario.io import ConfigError, loads_config

        fmt = "json" if path.endswith(".json") else "yaml"
        try:
            loads_config(text, fmt=fmt)
        except ConfigError as exc:
            yield Violation(
                rule=self.id,
                path=path,
                line=1,
                col=0,
                message=f"config fails schema validation: {exc}",
            )
        except ValueError as exc:
            yield Violation(
                rule=self.id,
                path=path,
                line=1,
                col=0,
                message=f"config fails to load: {exc}",
            )


# ----------------------------------------------------------------------
# SFS008-SFS011: analyzer-produced rules (project / compiled boundary)
# ----------------------------------------------------------------------


@rule("SFS008", scopes=SIM_SCOPES)
class TransitiveNondeterminismRule(LintRule):
    """Nondeterminism must not reach simulation code through call chains.

    SFS001/SFS002 see only direct draws and clock reads; this rule's
    findings come from the interprocedural project analyzer
    (:mod:`repro.analysis.staticcheck.project`), which propagates
    RNG/wall-clock summaries over the whole-src call graph and flags
    every sim-scope call site whose out-of-scope callee transitively
    reaches one, with the full call chain in the message. Produced
    under ``lint --project``; sanctioned harness boundaries carry an
    inline ``# sfs-lint: disable=SFS008`` waiver at the call site.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        return iter(())


@rule("SFS009", scopes=SIM_SCOPES)
class UnorderedEscapeRule(LintRule):
    """Unordered iteration order must not escape into simulation code.

    The transitive companion of SFS003: a sim-scope function that
    iterates the result of an out-of-scope call whose return value is
    (transitively) a set observes hash order — invisible per-file
    because the set literal lives in the callee. Produced by the
    project analyzer under ``lint --project``; fix by sorting at the
    source or wrapping the call in ``sorted(...)``.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        return iter(())


@rule("SFS010")
class MirrorSurfaceRule(LintRule):
    """The compiled engine's mirror surface must match its manifest.

    Every method/getset/member the C extension exposes is declared in
    :mod:`repro.analysis.staticcheck.cboundary_manifest`; a dropped,
    missing or undeclared mirror is a blocking error, and the Python
    twin class must still provide every mirrored name. Produced by the
    compiled-boundary conformance checker under ``lint --cboundary``.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        return iter(())


@rule("SFS011")
class MirrorDriftRule(LintRule):
    """Compiled/pure mirror internals must not drift.

    Cross-checks the env-flag declarations and exception-message parity
    of the C extension against its Python reference. Produced by the
    compiled-boundary conformance checker under ``lint --cboundary``.
    """

    def check(self, tree: ast.AST, source: str, path: str) -> Iterator[Violation]:
        return iter(())


def _nested_function_names(tree: ast.AST) -> frozenset[str]:
    """Names of functions defined inside other functions."""
    nested: set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.Lambda):
                visit(child, True)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return frozenset(nested)
