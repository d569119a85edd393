"""Tests for the compiled-boundary conformance checker (SFS010/SFS011).

The C tokenizer gets unit coverage, the real repo must check clean,
and fault injection mutates a *copy* of ``_engine.c`` — counter
rename, dropped mirrored method, undeclared extra method, exception
message drift — asserting each drift is flagged as a blocking finding
with the right rule id.
"""

from pathlib import Path

from repro.analysis.staticcheck import csrc
from repro.analysis.staticcheck.cboundary import check_cboundary
from repro.analysis.staticcheck.cboundary_manifest import C_SOURCE

REPO_ROOT = Path(__file__).resolve().parents[1]
ENGINE_C = REPO_ROOT / C_SOURCE


# ----------------------------------------------------------------------
# csrc: the minimal C tokenizer
# ----------------------------------------------------------------------


def test_tokenize_strips_comments_and_preprocessor():
    tokens = csrc.tokenize(
        """
#include <stdio.h>
// line comment with "a string"
int x = 1; /* block
   comment */ int y = 2;
"""
    )
    texts = [t.text for t in tokens]
    assert texts == ["int", "x", "=", "1", ";", "int", "y", "=", "2", ";"]


def test_tokenize_string_and_char_literals():
    tokens = csrc.tokenize('char c = \'x\'; const char *s = "a\\nb";')
    kinds = {t.text: t.kind for t in tokens if t.kind in ("str", "char")}
    assert kinds == {"x": "char", "a\nb": "str"}


def test_merge_adjacent_strings():
    tokens = csrc.merge_adjacent_strings(csrc.tokenize('f("one " "two", ";");'))
    assert [t.text for t in tokens if t.kind == "str"] == ["one two", ";"]


def test_table_entries_reads_first_string_of_each_entry():
    tokens = csrc.tokenize(
        """
static PyMethodDef Demo_methods[] = {
    {"alpha", (PyCFunction)f, METH_NOARGS, "doc"},
    {"beta", (PyCFunction)g, METH_VARARGS, "doc"},
    {NULL, NULL, 0, NULL},
};
"""
    )
    entries = csrc.table_entries(tokens, "Demo_methods")
    assert [t.text for t in entries] == ["alpha", "beta"]
    assert csrc.table_entries(tokens, "Missing_table") is None


# ----------------------------------------------------------------------
# the real repo conforms
# ----------------------------------------------------------------------


def test_real_engine_c_conforms_to_manifest():
    assert ENGINE_C.is_file(), "compiled engine source moved; update manifest"
    assert check_cboundary(REPO_ROOT) == []


# ----------------------------------------------------------------------
# fault injection on a mutated copy of _engine.c
# ----------------------------------------------------------------------


def _mutated(tmp_path, transform):
    source = ENGINE_C.read_text(encoding="utf-8")
    mutated = transform(source)
    assert mutated != source, "mutation did not apply; anchors moved"
    c_copy = tmp_path / "_engine_mut.c"
    c_copy.write_text(mutated, encoding="utf-8")
    return check_cboundary(REPO_ROOT, c_path=c_copy)


def _rename_events_fired(source):
    return source.replace('"events_fired"', '"events_fired_count"')


def test_counter_rename_is_flagged(tmp_path):
    # The engine's one counter is a getset, so a rename breaks the
    # mirror surface both ways: the declared name is gone and the new
    # one is undeclared.
    found = _mutated(tmp_path, _rename_events_fired)
    assert {v.rule for v in found} == {"SFS010"}
    messages = " | ".join(v.message for v in found)
    assert "'events_fired'" in messages
    assert "events_fired_count" in messages


def test_dropped_mirrored_method_is_flagged(tmp_path):
    def drop_run_until(source):
        lines = [
            line
            for line in source.splitlines(keepends=True)
            if '{"run_until"' not in line
        ]
        return "".join(lines)

    found = _mutated(tmp_path, drop_run_until)
    assert [v.rule for v in found] == ["SFS010"]
    assert "run_until" in found[0].message
    assert "Engine_methods" in found[0].message


def test_undeclared_extra_method_is_flagged(tmp_path):
    extra = (
        '    {"warp", (PyCFunction)Engine_run, METH_VARARGS, "undeclared"},\n'
    )
    found = _mutated(
        tmp_path,
        lambda s: s.replace(
            'static PyMethodDef Engine_methods[] = {\n',
            "static PyMethodDef Engine_methods[] = {\n" + extra,
        ),
    )
    assert [v.rule for v in found] == ["SFS010"]
    assert "warp" in found[0].message
    assert "undeclared" in found[0].message


def test_exception_message_drift_is_flagged(tmp_path):
    found = _mutated(
        tmp_path,
        lambda s: s.replace(
            '"cannot schedule event in the past: "',
            '"cannot schedule an event in the past: "',
        ),
    )
    assert {v.rule for v in found} == {"SFS011"}
    assert any("cannot schedule" in v.message for v in found)


def test_missing_c_source_is_blocking(tmp_path):
    found = check_cboundary(REPO_ROOT, c_path=tmp_path / "nope.c")
    assert found and all(v.rule == "SFS010" for v in found)


def test_violations_are_sorted_and_deduped(tmp_path):
    found = _mutated(tmp_path, _rename_events_fired)
    keys = [(v.path, v.line, v.col, v.rule, v.message) for v in found]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
