"""Unit tests for the repo-specific determinism linter (SFS001-007).

Each rule gets a firing case and a clean case; the engine gets
discovery, suppression, scope, rendering and CLI coverage; and the
final test dogfoods the linter on this repository itself — the same
invocation the blocking CI job runs.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.staticcheck import (
    lint_paths,
    lint_source,
    main,
    render_json,
    render_text,
)
from repro.analysis.staticcheck.engine import DEFAULT_ROOTS, discover_files
from repro.analysis.staticcheck.rules import (
    RULES,
    disabled_ids_by_line,
    make_rules,
    rule_ids,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _find(source, rule_id, scope="sim", path="<test>.py"):
    """Violations of one rule (check + finish) on one source string."""
    rules = make_rules([rule_id])
    found = lint_source(source, path, rules=rules, scope=scope)
    for lint_rule in rules:
        found.extend(lint_rule.finish())
    return found


def _rules_fired(source, rule_id, scope="sim"):
    return [v.rule for v in _find(source, rule_id, scope=scope)]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_all_eleven_rules_registered():
    assert rule_ids() == [f"SFS00{i}" for i in range(1, 10)] + ["SFS010", "SFS011"]


def test_every_rule_has_title_and_scope_metadata():
    for rule_id, cls in RULES.items():
        assert cls.id == rule_id
        assert cls.title, rule_id
        assert cls.scopes is None or len(cls.scopes) > 0


def test_make_rules_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown lint rule"):
        make_rules(["SFS999"])


# ----------------------------------------------------------------------
# SFS001: unseeded randomness
# ----------------------------------------------------------------------


def test_sfs001_flags_module_level_random():
    assert _rules_fired("import random\nx = random.random()\n", "SFS001")


def test_sfs001_flags_unseeded_random_instance():
    assert _rules_fired("import random\nr = random.Random()\n", "SFS001")


def test_sfs001_allows_seeded_random_instance():
    assert not _rules_fired("import random\nr = random.Random(42)\n", "SFS001")


def test_sfs001_flags_numpy_global_draws():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert _rules_fired(src, "SFS001")


def test_sfs001_allows_seeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng(7)\n"
    assert not _rules_fired(src, "SFS001")


def test_sfs001_flags_bare_from_random_import():
    assert _rules_fired("from random import choice\n", "SFS001")
    assert not _rules_fired("from random import Random\n", "SFS001")


def test_sfs001_is_scoped_to_sim_code():
    src = "import random\nx = random.random()\n"
    assert not _rules_fired(src, "SFS001", scope=None)


# ----------------------------------------------------------------------
# SFS002: wall-clock reads
# ----------------------------------------------------------------------


def test_sfs002_flags_time_time():
    assert _rules_fired("import time\nt = time.time()\n", "SFS002")


def test_sfs002_flags_datetime_now():
    src = "import datetime\nd = datetime.datetime.now()\n"
    assert _rules_fired(src, "SFS002")


def test_sfs002_flags_from_time_import():
    assert _rules_fired("from time import perf_counter\n", "SFS002")


def test_sfs002_allows_simulation_time():
    assert not _rules_fired("now = machine.now\n", "SFS002")


def test_sfs002_is_scoped_to_sim_code():
    assert not _rules_fired("import time\nt = time.time()\n", "SFS002", scope=None)


# ----------------------------------------------------------------------
# SFS003: hash-order leaks (applies to every scanned file)
# ----------------------------------------------------------------------


def test_sfs003_flags_for_loop_over_set():
    assert _rules_fired("for x in {1, 2, 3}:\n    print(x)\n", "SFS003", scope=None)


def test_sfs003_flags_comprehension_over_set_call():
    assert _rules_fired("out = [x for x in set(items)]\n", "SFS003", scope=None)


def test_sfs003_flags_list_of_tracked_set_name():
    src = "names = {'a', 'b'}\nout = list(names)\n"
    assert _rules_fired(src, "SFS003", scope=None)


def test_sfs003_flags_join_over_dict_view():
    assert _rules_fired("s = ', '.join(d.keys())\n", "SFS003", scope=None)


def test_sfs003_allows_sorted_sets():
    src = "for x in sorted({1, 2, 3}):\n    print(x)\nout = list(sorted(set(y)))\n"
    assert not _rules_fired(src, "SFS003", scope=None)


def test_sfs003_allows_set_operations_without_ordered_sink():
    assert not _rules_fired(
        "flags = {1, 2} | {3}\nok = 2 in flags\n", "SFS003", scope=None
    )


# ----------------------------------------------------------------------
# SFS004: registry hygiene (applies to every scanned file)
# ----------------------------------------------------------------------


def test_sfs004_flags_registered_entry_without_docstring():
    src = "@register('sfs')\ndef _sfs(**options):\n    return 1\n"
    found = _find(src, "SFS004", scope=None)
    assert any("no docstring" in v.message for v in found)


def test_sfs004_flags_registered_spec_kind_without_docstring():
    src = (
        '@register_behavior("warp", speed={"gt": 0.0})\n'
        "@dataclass(frozen=True)\n"
        "class Warp:\n"
        "    speed: float\n"
    )
    found = _find(src, "SFS004", scope=None)
    assert any("'Warp' has no docstring" in v.message for v in found)


def test_sfs004_allows_documented_entry():
    src = '@register("sfs")\ndef _sfs(**options):\n    "Surplus fair."\n    return 1\n'
    assert not _find(src, "SFS004", scope=None)


def test_sfs004_flags_insane_registry_name():
    src = '@register("bad name!")\ndef _f(**o):\n    "Doc."\n    return 1\n'
    found = _find(src, "SFS004", scope=None)
    assert any("not a sane registry key" in v.message for v in found)


def test_sfs004_flags_duplicate_names_across_files():
    src = '@register("dup")\ndef _f(**o):\n    "Doc."\n    return 1\n'
    rules = make_rules(["SFS004"])
    lint_source(src, "a.py", rules=rules, scope=None)
    lint_source(src, "b.py", rules=rules, scope=None)
    dupes = [v for r in rules for v in r.finish()]
    assert len(dupes) == 1
    assert "already used at a.py" in dupes[0].message


def test_sfs004_flags_dict_registry_mapping_to_undocumented_function():
    src = "def _shares(result):\n    return 1\n\nMETRICS = {'shares': _shares}\n"
    found = _find(src, "SFS004", scope=None)
    assert any("undocumented" in v.message for v in found)


# ----------------------------------------------------------------------
# SFS005: float equality on tag arithmetic
# ----------------------------------------------------------------------


def test_sfs005_flags_phi_equality():
    assert _rules_fired("if task.phi == other.phi:\n    pass\n", "SFS005", scope="core")


def test_sfs005_flags_sched_tag_equality():
    src = "same = a.sched['S'] == b.sched['S']\n"
    assert _rules_fired(src, "SFS005", scope="core")


def test_sfs005_flags_surplus_call_inequality():
    src = "if sched.surplus_of(t) != 0.0:\n    pass\n"
    assert _rules_fired(src, "SFS005", scope="core")


def test_sfs005_allows_ordering_comparisons():
    assert not _rules_fired(
        "if task.phi < other.phi:\n    pass\n", "SFS005", scope="core"
    )


def test_sfs005_whitelists_fixed_point_module():
    rules = make_rules(["SFS005"])
    found = lint_source(
        "ok = task.phi == 1.0\n",
        "src/repro/core/fixed_point.py",
        rules=rules,
        scope="core",
    )
    assert not found


def test_sfs005_does_not_apply_outside_sim_scopes():
    assert not _rules_fired("assert t.phi == 2.0\n", "SFS005", scope=None)


# ----------------------------------------------------------------------
# SFS006: pickle safety (applies to every scanned file)
# ----------------------------------------------------------------------


def test_sfs006_flags_lambda_in_scenario_ctor():
    src = "s = Scenario(name='x', probes=(Probe(1.0, lambda m, t: 0),))\n"
    found = _find(src, "SFS006", scope=None)
    assert any("lambda" in v.message for v in found)


def test_sfs006_flags_nested_function_argument():
    src = (
        "def build():\n"
        "    def probe(m, t):\n"
        "        return 0\n"
        "    return Scenario(name='x', probes=(Probe(1.0, probe),))\n"
    )
    found = _find(src, "SFS006", scope=None)
    assert any("nested function" in v.message for v in found)


def test_sfs006_allows_module_level_probe_functions():
    src = (
        "def probe(m, t):\n"
        "    return 0\n"
        "s = Scenario(name='x', probes=(Probe(1.0, probe),))\n"
    )
    assert not _find(src, "SFS006", scope=None)


# ----------------------------------------------------------------------
# suppression pragmas
# ----------------------------------------------------------------------


def test_same_line_pragma_suppresses():
    src = "t = time.time()  # sfs-lint: disable=SFS002\n"
    assert not lint_source(src, scope="sim")


def test_comment_line_pragma_waives_the_next_line():
    src = (
        "# sfs-lint: disable=SFS002 (harness timing, justified)\n"
        "t = time.time()\n"
    )
    assert not lint_source(src, scope="sim")


def test_disable_all_suppresses_every_rule():
    src = "t = time.time()  # sfs-lint: disable=all\n"
    assert not lint_source(src, scope="sim")


def test_pragma_for_other_rule_does_not_suppress():
    src = "t = time.time()  # sfs-lint: disable=SFS001\n"
    assert [v.rule for v in lint_source(src, scope="sim")] == ["SFS002"]


def test_disabled_ids_by_line_parsing():
    src = (
        "x = 1  # sfs-lint: disable=SFS001,SFS005\n"
        "# sfs-lint: disable=SFS002\n"
        "y = 2\n"
    )
    assert disabled_ids_by_line(src) == {
        1: frozenset({"SFS001", "SFS005"}),
        3: frozenset({"SFS002"}),
    }


# ----------------------------------------------------------------------
# engine: discovery, scope inference, rendering, CLI
# ----------------------------------------------------------------------


def test_discover_files_skips_cache_dirs(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    files = discover_files([tmp_path])
    assert [f.name for f in files] == ["mod.py"]


def test_lint_paths_scopes_rules_by_package(tmp_path):
    sim = tmp_path / "src" / "repro" / "sim"
    harness = tmp_path / "src" / "repro" / "exec"
    sim.mkdir(parents=True)
    harness.mkdir(parents=True)
    bad = "import time\nt = time.time()\n"
    (sim / "mod.py").write_text(bad)
    (harness / "mod.py").write_text(bad)  # wall clock fine outside sim scopes
    violations, files_checked = lint_paths([tmp_path])
    assert files_checked == 2
    assert [v.rule for v in violations] == ["SFS002"]
    assert "sim" in violations[0].path


def test_lint_paths_reports_unparseable_files(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    violations, files_checked = lint_paths([tmp_path])
    assert files_checked == 1
    assert [v.rule for v in violations] == ["SFS000"]


def test_render_text_and_json_roundtrip(tmp_path):
    target = tmp_path / "src" / "repro" / "core"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nt = time.time()\n")
    violations, files_checked = lint_paths([tmp_path])
    text = render_text(violations, files_checked)
    assert "SFS002" in text and "1 violation in 1 files checked" in text
    payload = json.loads(render_json(violations, files_checked))
    assert payload["files_checked"] == 1
    assert payload["violations"][0]["rule"] == "SFS002"


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty_pkg = tmp_path / "src" / "repro" / "sim"
    dirty_pkg.mkdir(parents=True)
    dirty = dirty_pkg / "mod.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    assert main(["--select", "SFS999", str(clean)]) == 2
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SFS001" in out and "SFS006" in out


def test_main_select_restricts_rules(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text("import time\nt = time.time()\n")
    assert main(["--select", "SFS001", str(tmp_path)]) == 0
    assert main(["--select", "SFS002", str(tmp_path)]) == 1


# ----------------------------------------------------------------------
# dogfood: this repository lints clean (the blocking CI invariant)
# ----------------------------------------------------------------------


def test_repository_lints_clean():
    roots = [REPO_ROOT / root for root in DEFAULT_ROOTS]
    violations, files_checked = lint_paths(roots)
    rendered = "\n".join(v.render() for v in violations)
    assert not violations, f"repo must lint clean:\n{rendered}"
    assert files_checked > 100


# ----------------------------------------------------------------------
# SFS007: scenario configs must schema-validate
# ----------------------------------------------------------------------

GOOD_CONFIG = """\
name: ok
duration: 1.0
tasks:
  - {name: a}
"""

BAD_CONFIG = """\
name: broken
cpus: -3
duration: 1.0
"""


def test_sfs007_flags_invalid_config(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "bad.yaml").write_text(BAD_CONFIG)
    violations, files_checked = lint_paths([tmp_path])
    assert files_checked == 1
    assert [v.rule for v in violations] == ["SFS007"]
    assert "cpus" in violations[0].message


def test_sfs007_passes_valid_config(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "good.yaml").write_text(GOOD_CONFIG)
    violations, files_checked = lint_paths([tmp_path])
    assert files_checked == 1
    assert violations == []


def test_sfs007_validates_json_configs(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "bad.json").write_text('{"name": "broken", "cpus": []}')
    violations, _ = lint_paths([tmp_path])
    assert [v.rule for v in violations] == ["SFS007"]


def test_configs_outside_scenarios_dirs_not_discovered(tmp_path):
    (tmp_path / "random.yaml").write_text(BAD_CONFIG)
    violations, files_checked = lint_paths([tmp_path])
    assert files_checked == 0
    assert violations == []


def test_explicit_config_path_is_linted(tmp_path):
    config = tmp_path / "direct.yaml"
    config.write_text(BAD_CONFIG)
    violations, files_checked = lint_paths([config])
    assert files_checked == 1
    assert [v.rule for v in violations] == ["SFS007"]


def test_sfs007_pragma_works_from_yaml(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    waived = "name: broken  # sfs-lint: disable=SFS007\ncpus: -3\nduration: 1.0\n"
    (scenarios / "waived.yaml").write_text(waived)
    violations, files_checked = lint_paths([tmp_path])
    assert files_checked == 1
    assert violations == []


def test_default_roots_include_examples():
    assert "examples" in DEFAULT_ROOTS
