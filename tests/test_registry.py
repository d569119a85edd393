"""The one name-table class and the eleven tables built on it.

Every user-nameable kind (schedulers, scenario families, metrics,
arrival and demand kinds, cost models, audit checks, lint rules, and
the behaviour, driver and event spec kinds) lives in a
:class:`~repro.registry.Registry`, so registration, lookup errors and
summaries behave the same for all of them. The walk at the end keeps
that true: a module-level table added later without a row here fails.
"""

from pathlib import Path

import pytest

from tests.conftest import repro_modules
from repro.analysis.audit.checks import CHECKS
from repro.analysis.staticcheck import lint_source
from repro.analysis.staticcheck.rules import RULES, make_rules
from repro.registry import Registry
from repro.scenario.arrivals import ARRIVALS
from repro.scenario.demands import DEMANDS
from repro.scenario.families import FAMILIES
from repro.scenario.result import METRICS
from repro.scenario.spec import BEHAVIORS, DRIVERS, EVENTS
from repro.schedulers.registry import SCHEDULERS
from repro.sim.costs import COST_MODELS

SRC = Path(__file__).resolve().parents[1] / "src"

#: table -> the noun its errors use
TABLES = {
    "SCHEDULERS": (SCHEDULERS, "scheduler"),
    "FAMILIES": (FAMILIES, "scenario family"),
    "METRICS": (METRICS, "metric"),
    "ARRIVALS": (ARRIVALS, "arrival process"),
    "DEMANDS": (DEMANDS, "demand distribution"),
    "COST_MODELS": (COST_MODELS, "cost model"),
    "CHECKS": (CHECKS, "audit check"),
    "RULES": (RULES, "lint rule"),
    "BEHAVIORS": (BEHAVIORS, "behaviour kind"),
    "DRIVERS": (DRIVERS, "driver kind"),
    "EVENTS": (EVENTS, "event kind"),
}


class Widget:
    """A documented widget.

    Takes keyword options only.
    """

    def __init__(self, size=1, color="red"):
        self.size, self.color = size, color


class Undocumented:
    pass


def _widgets():
    widgets = Registry("widget")
    widgets.register("plain")(Widget)
    widgets.register("big", size=10)(Widget)
    return widgets


class TestRegistry:
    def test_register_returns_its_object_unchanged(self):
        widgets = Registry("widget")
        assert widgets.register("solo")(Widget) is Widget
        assert widgets == {"solo": Widget}
        assert widgets.what == "widget"

    def test_make_applies_presets_then_overrides(self):
        widgets = _widgets()
        assert widgets.make("plain").size == 1
        assert widgets.make("big").size == 10
        big = widgets.make("big", size=3, color="blue")
        assert (big.size, big.color) == (3, "blue")

    def test_summary_is_the_first_docstring_line(self):
        assert _widgets().summary("big") == "A documented widget."

    def test_lookup_error_names_what_and_lists_known_names(self):
        with pytest.raises(ValueError) as raised:
            _widgets().make("huge")
        assert str(raised.value) == "unknown widget 'huge'; known: big, plain"

    @pytest.mark.parametrize(
        "name, entry, message",
        [
            ("plain", Widget, "widget 'plain' is already registered"),
            ("bad name!", Widget, "widget name 'bad name!' is malformed"),
            ("-lead", Widget, "widget name '-lead' is malformed"),
            ("", Widget, "widget name '' is malformed"),
            ("tail\n", Widget, "widget name 'tail\\\\n' is malformed"),
            ("fresh", Undocumented, "widget 'fresh' needs a docstring"),
            ("fresh", lambda: None, "widget 'fresh' needs a docstring"),
        ],
        ids=["duplicate", "space", "leading-dash", "empty", "newline", "class", "lambda"],
    )
    def test_register_rejects(self, name, entry, message):
        widgets = _widgets()
        with pytest.raises(ValueError, match=message):
            widgets.register(name)(entry)
        assert sorted(widgets) == ["big", "plain"]


@pytest.mark.parametrize("table", sorted(TABLES))
def test_every_table_registers_and_looks_up_alike(table):
    registry, what = TABLES[table]
    assert isinstance(registry, Registry)
    assert registry.what == what
    before = dict(registry)
    existing = sorted(registry)[0]
    bad, fresh = "bad name!", "no-such-entry"
    with pytest.raises(ValueError, match=f"{what} '{existing}' is already registered"):
        registry.register(existing)(Widget)
    with pytest.raises(ValueError, match=f"{what} name 'bad name!' is malformed"):
        registry.register(bad)(Widget)
    with pytest.raises(ValueError, match=f"{what} '{fresh}' needs a docstring"):
        registry.register(fresh)(Undocumented)
    assert registry == before
    with pytest.raises(ValueError, match=f"unknown {what} '{fresh}'; known: "):
        registry.lookup(fresh)
    for name in registry:
        assert registry.summary(name), name


def test_every_module_level_table_is_a_tested_registry():
    found = {
        id(value): attr
        for module in repro_modules()
        for attr, value in vars(module).items()
        if isinstance(value, Registry)
    }
    assert sorted(found.values()) == sorted(TABLES)


def test_lint_sees_every_registered_name():
    # Registry.register rejects a duplicate within one table; only lint
    # SFS004 sees a name reused across tables, and only for
    # registrations it can read: probing each registered name after a
    # scan of src must flag every one as already used.
    rules = make_rules(["SFS004"])
    for path in sorted(SRC.rglob("*.py")):
        lint_source(path.read_text(encoding="utf-8"), str(path), rules=rules)
    names = sorted({name for registry, _ in TABLES.values() for name in registry})
    probe = "".join(f"register({name!r})(Probe)\n" for name in names)
    lint_source(probe, "probe.py", rules=rules)
    flagged = {v.line for v in rules[0].finish() if v.path == "probe.py"}
    assert flagged == set(range(1, len(names) + 1))
