"""Tests for the interprocedural rules SFS008/SFS009 and lint satellites.

A synthetic mini-repo (pyproject marker + ``src/repro`` tree) drives
the positive cases: a sim-scope function calling through the exec
layer to a wall-clock read (SFS008, full chain in the message), a
sim-scope loop over a set returned across the boundary (SFS009), and
the inline pragma waiving each at the call site. The real repository
is then dogfooded — the blocking CI invocation must be clean. The
engine satellites ride along: repo-root-relative path rendering and
``--output`` JSON emission.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.staticcheck import lint_paths, main
from repro.analysis.staticcheck.engine import find_repo_root
from repro.analysis.staticcheck.project import project_violations

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write_pkg(root, sim_body):
    """Lay out a minimal repo: marker file + src/repro/{sim,exec,util}."""
    (root / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    pkg = root / "src" / "repro"
    for sub in ("sim", "exec", "util"):
        (pkg / sub).mkdir(parents=True, exist_ok=True)
        (pkg / sub / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "util" / "clock.py").write_text(
        textwrap.dedent(
            """
            import time


            def now():
                return time.time()


            def tags():
                return {"a", "b"}
            """
        )
    )
    (pkg / "exec" / "backend.py").write_text(
        textwrap.dedent(
            """
            from repro.util import clock


            def submit():
                return clock.now()
            """
        )
    )
    (pkg / "sim" / "driver.py").write_text(textwrap.dedent(sim_body))
    return root


def test_sfs008_reports_full_chain(tmp_path):
    _write_pkg(
        tmp_path,
        """
        from repro.exec import backend


        def step():
            return backend.submit()
        """,
    )
    found = project_violations(tmp_path)
    assert [v.rule for v in found] == ["SFS008"]
    v = found[0]
    assert v.path == "src/repro/sim/driver.py"
    assert (
        "repro.sim.driver.step -> repro.exec.backend.submit "
        "-> repro.util.clock.now" in v.message
    )
    assert "time.time" in v.message
    assert "src/repro/util/clock.py" in v.message


def test_sfs008_pragma_waives_the_boundary_call(tmp_path):
    _write_pkg(
        tmp_path,
        """
        from repro.exec import backend


        def step():
            return backend.submit()  # sfs-lint: disable=SFS008
        """,
    )
    assert project_violations(tmp_path) == []


def test_sfs009_fires_when_set_is_iterated_across_boundary(tmp_path):
    _write_pkg(
        tmp_path,
        """
        from repro.util.clock import tags


        def spread():
            total = 0
            for tag in tags():
                total += len(tag)
            return total
        """,
    )
    found = project_violations(tmp_path)
    assert [v.rule for v in found] == ["SFS009"]
    assert "repro.util.clock.tags" in found[0].message
    assert "returns a set" in found[0].message


def test_sfs009_quiet_when_sorted_or_not_iterated(tmp_path):
    _write_pkg(
        tmp_path,
        """
        from repro.util.clock import tags


        def materialize():
            return sorted(tags())


        def count():
            return len(tags())
        """,
    )
    assert project_violations(tmp_path) == []


def test_sim_internal_calls_are_not_boundaries(tmp_path):
    _write_pkg(
        tmp_path,
        """
        def helper():
            return {"a", "b"}


        def spread():
            return [t for t in helper()]
        """,
    )
    assert [v.rule for v in project_violations(tmp_path)] == []


def test_cli_project_flag_reports_and_fails(tmp_path, capsys):
    _write_pkg(
        tmp_path,
        """
        from repro.exec import backend


        def step():
            return backend.submit()
        """,
    )
    status = main([str(tmp_path / "src"), "--project"])
    out = capsys.readouterr().out
    assert status == 1
    assert "SFS008" in out
    assert "src/repro/sim/driver.py" in out


# ----------------------------------------------------------------------
# satellites: path rendering, --output
# ----------------------------------------------------------------------


def test_find_repo_root_walks_up_to_marker(tmp_path):
    _write_pkg(tmp_path, "\n")
    nested = tmp_path / "src" / "repro" / "sim" / "driver.py"
    assert find_repo_root([nested]) == tmp_path


def test_paths_render_repo_root_relative(tmp_path):
    _write_pkg(
        tmp_path,
        """
        import random


        def draw():
            return random.random()
        """,
    )
    found, _ = lint_paths([tmp_path / "src"])
    assert [v.path for v in found] == ["src/repro/sim/driver.py"]


def test_output_writes_json_report(tmp_path, capsys):
    _write_pkg(
        tmp_path,
        """
        import random


        def draw():
            return random.random()
        """,
    )
    out_file = tmp_path / "report.json"
    status = main([str(tmp_path / "src"), "--output", str(out_file)])
    capsys.readouterr()
    assert status == 1
    report = json.loads(out_file.read_text())
    assert report["violations"][0]["rule"] == "SFS001"
    assert report["violations"][0]["path"] == "src/repro/sim/driver.py"


# ----------------------------------------------------------------------
# dogfood: this repository is clean under the blocking CI invocation
# ----------------------------------------------------------------------


def test_real_repo_has_no_project_violations():
    assert project_violations(REPO_ROOT) == []


def test_real_repo_clean_under_full_blocking_invocation(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    status = main(["--project"])
    out = capsys.readouterr().out
    assert status == 0, out
