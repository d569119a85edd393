"""A purpose-built C tokenizer for the compiled-boundary checker.

This is not a C parser — it recognises exactly the two shapes a
conformance checker (:mod:`.cboundary`) reads out of
``src/repro/sim/_engine.c``:

- ``PyMethodDef``/``PyGetSetDef``/``PyMemberDef`` initializer tables
  (the first string literal of each ``{...}`` entry is the exposed
  name),
- every string literal, with C's adjacent-literal concatenation
  applied (exception-message parity).

Comments and preprocessor lines are stripped, string/char literals are
decoded enough for text comparison, and everything else becomes
single-character punctuation tokens. Stdlib only, by design: the
linter must run in the plain CI container before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Token",
    "merge_adjacent_strings",
    "string_literals",
    "table_entries",
    "tokenize",
]

#: simple-escape decoding for string/char literals (enough for text
#: comparison; unknown escapes keep their backslash verbatim)
_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ID_CONT = _ID_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    """One lexical token: ``kind`` is id, num, str, char or punct."""

    kind: str
    text: str
    line: int


def tokenize(source: str) -> list[Token]:
    """Tokenize C source, dropping comments and preprocessor lines."""
    tokens: list[Token] = []
    i, n, line = 0, len(source), 1
    bol = True  # only whitespace seen since the last newline
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            bol = True
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                j = n - 2
            line += source.count("\n", i, j)
            i = j + 2
            continue
        if ch == "#" and bol:
            # Preprocessor line (with backslash continuations).
            while i < n:
                j = source.find("\n", i)
                if j < 0:
                    i = n
                    break
                if source[j - 1] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        bol = False
        if ch == '"' or ch == "'":
            quote = ch
            start_line = line
            j = i + 1
            buf: list[str] = []
            while j < n and source[j] != quote:
                c = source[j]
                if c == "\\" and j + 1 < n:
                    nxt = source[j + 1]
                    buf.append(_ESCAPES.get(nxt, "\\" + nxt))
                    j += 2
                    continue
                if c == "\n":
                    line += 1
                buf.append(c)
                j += 1
            kind = "str" if quote == '"' else "char"
            tokens.append(Token(kind, "".join(buf), start_line))
            i = j + 1
            continue
        if ch in _ID_START:
            j = i + 1
            while j < n and source[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", source[i:j], line))
            i = j
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and (
                source[j] in _ID_CONT
                or source[j] == "."
                or (source[j] in "+-" and source[j - 1] in "eEpP")
            ):
                j += 1
            tokens.append(Token("num", source[i:j], line))
            i = j
            continue
        tokens.append(Token("punct", ch, line))
        i += 1
    return tokens


def merge_adjacent_strings(tokens: list[Token]) -> list[Token]:
    """Apply C's adjacent-string-literal concatenation."""
    out: list[Token] = []
    for tok in tokens:
        if tok.kind == "str" and out and out[-1].kind == "str":
            prev = out.pop()
            out.append(Token("str", prev.text + tok.text, prev.line))
        else:
            out.append(tok)
    return out


def string_literals(tokens: list[Token]) -> list[Token]:
    """Every string literal, post-concatenation, in source order."""
    return [t for t in merge_adjacent_strings(tokens) if t.kind == "str"]


def table_entries(tokens: list[Token], table_name: str) -> list[Token] | None:
    """The entry names of an array-of-struct initializer table.

    Given ``static PyMethodDef Engine_methods[] = { {"step", ...}, ...
    {NULL} };`` returns the first string literal of each ``{...}``
    entry (``{NULL}`` sentinels contribute nothing). Returns None when
    no initializer named ``table_name`` exists.
    """
    start = None
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text != table_name:
            continue
        j = i + 1
        # Optional [ ... ] after the name, then = {
        if j < len(tokens) and tokens[j].text == "[":
            while j < len(tokens) and tokens[j].text != "]":
                j += 1
            j += 1
        if (
            j + 1 < len(tokens)
            and tokens[j].text == "="
            and tokens[j + 1].text == "{"
        ):
            start = j + 1
            break
    if start is None:
        return None
    entries: list[Token] = []
    depth = 0
    expecting_name = False
    for tok in tokens[start:]:
        if tok.text == "{" and tok.kind == "punct":
            depth += 1
            expecting_name = depth == 2
        elif tok.text == "}" and tok.kind == "punct":
            depth -= 1
            if depth == 0:
                break
        elif expecting_name and tok.kind == "str":
            entries.append(tok)
            expecting_name = False
    return entries
