"""Compiled-boundary conformance checker (rules SFS010/SFS011).

Cross-checks ``src/repro/sim/_engine.c`` against its pure-Python
reference modules using the declarative manifest in
:mod:`.cboundary_manifest` and the tokenizer in :mod:`.csrc`:

- **SFS010 (mirror surface)**: the C method/getset/member tables must
  expose exactly the declared mirror surface, nothing dropped and
  nothing undeclared, and the Python twin class must still provide
  every mirrored name.
- **SFS011 (mirror drift)**: env flags and exception messages must
  agree on both sides.

Runs before the extension is ever built (pure text/AST analysis), so
the CI compiled leg can fail fast on drift even where gcc is absent.
Entry point: :func:`check_cboundary`, wired into the lint engine via
``lint --cboundary``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.staticcheck import cboundary_manifest as manifest
from repro.analysis.staticcheck import csrc
from repro.analysis.staticcheck.rules import Violation

__all__ = ["check_cboundary"]

#: printf-style directives (``%R``, ``%zd``, ...) -> ``{}``; ``%%`` -> ``%``
_C_FMT = re.compile(
    r"%(?:%|[#0\- +]*[0-9*]*(?:\.[0-9*]+)?(?:hh|h|ll|l|j|z|t|L)?[a-zA-Z])"
)


def _c_skeleton(text: str) -> str:
    """Normalize a C format string to the shared ``{}`` skeleton."""
    return _C_FMT.sub(lambda m: "%" if m.group(0) == "%%" else "{}", text)


def _py_skeletons(tree: ast.AST) -> set[str]:
    """Every string/f-string in a module, holes normalized to ``{}``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            parts = []
            for value in node.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append("{}")
            out.add("".join(parts))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _class_def(tree: ast.AST, name: str) -> ast.ClassDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _class_surface(cls: ast.ClassDef) -> set[str]:
    """Names a class provides: defs, properties, slots, self-attributes."""
    names: set[str] = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
            for sub in ast.walk(item):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and isinstance(sub.ctx, ast.Store)
                ):
                    names.add(sub.attr)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    for sub in ast.walk(item.value):
                        if isinstance(sub, ast.Constant) and isinstance(
                            sub.value, str
                        ):
                            names.add(sub.value)
    return names


def _env_reads(tree: ast.AST) -> set[str]:
    """First string argument of os.environ.get / os.getenv calls."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr not in ("get", "getenv"):
            continue
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                out.add(value)
    return out


class _Checker:
    """One conformance run: parses everything once, collects violations."""

    def __init__(self, root: Path, c_path: Path | None) -> None:
        self.root = root
        self.c_path = c_path if c_path is not None else root / manifest.C_SOURCE
        self.c_rel = self._rel(self.c_path)
        self.out: list[Violation] = []
        self._trees: dict[str, ast.AST | None] = {}

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def add(self, rule: str, path: str, line: int, message: str) -> None:
        self.out.append(
            Violation(rule=rule, path=path, line=line, col=0, message=message)
        )

    def tree(self, rel_path: str) -> ast.AST | None:
        """Parse (and cache) a repo-relative Python reference file."""
        if rel_path not in self._trees:
            file = self.root / rel_path
            try:
                self._trees[rel_path] = ast.parse(
                    file.read_text(encoding="utf-8"), filename=str(file)
                )
            except (OSError, SyntaxError, UnicodeDecodeError) as exc:
                self._trees[rel_path] = None
                self.add(
                    "SFS010",
                    rel_path,
                    1,
                    f"python reference file is unreadable "
                    f"({exc.__class__.__name__}); the compiled-boundary "
                    "manifest points at it",
                )
        return self._trees[rel_path]

    # ------------------------------------------------------------------
    # SFS010: mirror surface
    # ------------------------------------------------------------------

    def check_table(
        self,
        table: str | None,
        expected: tuple[str, ...],
        what: str,
        c_type: str,
        py_class: str,
    ) -> None:
        if table is None:
            return
        entries = csrc.table_entries(self.tokens, table)
        if entries is None:
            self.add(
                "SFS010",
                self.c_rel,
                1,
                f"C table {table!r} (the {c_type} {what} surface) was not "
                "found; cboundary_manifest expects it",
            )
            return
        names = {t.text: t.line for t in entries}
        for name in expected:
            if name not in names:
                self.add(
                    "SFS010",
                    self.c_rel,
                    min(names.values(), default=1),
                    f"mirrored {what} {name!r} declared in cboundary_manifest "
                    f"is missing from C table {table} — the compiled "
                    f"{c_type} no longer matches {py_class}",
                )
        for name in sorted(set(names) - set(expected)):
            self.add(
                "SFS010",
                self.c_rel,
                names[name],
                f"C table {table} exposes undeclared {what} {name!r}; "
                "declare the mirror in cboundary_manifest so conformance "
                "stays checked",
            )

    def check_type_mirrors(self) -> None:
        for tm in manifest.TYPE_MIRRORS:
            self.check_table(
                tm.methods_table, tm.methods, "method", tm.c_type, tm.py_class
            )
            self.check_table(
                tm.getset_table, tm.getsets, "getset", tm.c_type, tm.py_class
            )
            self.check_table(
                tm.members_table, tm.members, "member", tm.c_type, tm.py_class
            )
            tree = self.tree(tm.py_file)
            if tree is None:
                continue
            cls = _class_def(tree, tm.py_class)
            if cls is None:
                self.add(
                    "SFS010",
                    tm.py_file,
                    1,
                    f"class {tm.py_class!r} mirrored by C type {tm.c_type} "
                    "was not found; update cboundary_manifest or restore it",
                )
                continue
            surface = _class_surface(cls)
            for name in tm.methods + tm.getsets + tm.members:
                if name not in surface:
                    self.add(
                        "SFS010",
                        tm.py_file,
                        cls.lineno,
                        f"{tm.py_class} no longer provides {name!r}, which "
                        f"the compiled {tm.c_type} mirrors — pure and "
                        "compiled surfaces have drifted",
                    )

    # ------------------------------------------------------------------
    # SFS011: mirror drift
    # ------------------------------------------------------------------

    def check_env_flags(self) -> None:
        declared = set(manifest.ENV_FLAGS)
        seen: set[str] = set()
        for rel in manifest.ENV_FLAG_FILES:
            tree = self.tree(rel)
            if tree is not None:
                seen |= _py_skeletons(tree)
        for flag in manifest.ENV_FLAGS:
            if flag not in seen:
                self.add(
                    "SFS011",
                    manifest.ENV_FLAG_FILES[0],
                    1,
                    f"declared env flag {flag!r} no longer appears in the "
                    "python reference files; update cboundary_manifest or "
                    "restore the flag",
                )
        for rel in manifest.ENV_SCAN_FILES:
            tree = self.tree(rel)
            if tree is None:
                continue
            for name in sorted(_env_reads(tree)):
                if name.startswith("SFS_") and name not in declared:
                    self.add(
                        "SFS011",
                        rel,
                        1,
                        f"env flag {name!r} is read here but not declared in "
                        "cboundary_manifest.ENV_FLAGS; the compiled engine "
                        "will not honour it",
                    )

    def check_exceptions(self) -> None:
        c_skels = {
            _c_skeleton(t.text): t.line
            for t in csrc.string_literals(self.tokens)
        }
        for ex in manifest.EXCEPTION_MIRRORS:
            if ex.skeleton not in c_skels:
                self.add(
                    "SFS011",
                    self.c_rel,
                    1,
                    f"C no longer raises the mirrored message "
                    f"{ex.skeleton!r}; pure and compiled error surfaces "
                    "have drifted",
                )
            tree = self.tree(ex.py_file)
            if tree is not None and ex.skeleton not in _py_skeletons(tree):
                self.add(
                    "SFS011",
                    ex.py_file,
                    1,
                    f"python engine no longer raises the mirrored message "
                    f"{ex.skeleton!r}; pure and compiled error surfaces "
                    "have drifted",
                )

    def run(self) -> list[Violation]:
        try:
            source = self.c_path.read_text(encoding="utf-8")
        except OSError as exc:
            self.add(
                "SFS010",
                self.c_rel,
                1,
                f"compiled source {self.c_rel} is unreadable "
                f"({exc.__class__.__name__}); cboundary_manifest.C_SOURCE "
                "points at it",
            )
            return self.out
        self.tokens = csrc.tokenize(source)
        self.check_type_mirrors()
        self.check_env_flags()
        self.check_exceptions()
        return sorted(
            set(self.out), key=lambda v: (v.path, v.line, v.col, v.rule, v.message)
        )


def check_cboundary(
    root: str | Path, c_path: str | Path | None = None
) -> list[Violation]:
    """Run the full conformance check; returns sorted violations.

    ``root`` is the repo root (the directory holding ``src/``).
    ``c_path`` overrides the C source location — the fault-injection
    tests point it at mutated copies of ``_engine.c``.
    """
    return _Checker(Path(root), None if c_path is None else Path(c_path)).run()
