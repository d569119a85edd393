"""Flow/packet domain tests.

Covers the pieces PR 10 added on top of the scenario pipeline: the
``FlowTransmitter`` behaviour mechanics, the flow spec dataclasses,
the ``flows`` preset family, and the properties the domain exists to
demonstrate — bytes served never exceed link capacity x time, and
backlogged weighted flows converge to their weight ratio under every
fair queueing policy. Plus the operational contracts: metrics are
bit-identical at every worker count, everything pickles,
the config loader round-trips flow scenarios, the multi-resource
metrics follow their defining arithmetic, and the
``resource_conservation`` audit check runs clean (or skips with a
reason) as applicable.
"""

import math
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import run_cells
from repro.experiments.cli import main
from repro.flows import (
    FLOW_RESOURCE_PROFILES,
    FlowSpec,
    FlowTransmitter,
    LinkSpec,
    PacketFlow,
    dominant_shares,
    flow_scenario,
    materialize_flows,
    resource_jains,
    resource_service,
    resource_shares,
)
from repro.scenario import (
    FAMILIES,
    METRICS,
    ConfigError,
    dumps_scenario,
    family_names,
    loads_config,
    make_demand,
    run_scenario,
)
from repro.sim.events import Block, Exit, Run

MB = 1.25e6  # a 10 Mbit/s link, the LinkSpec default

FAIR_POLICIES = ("sfs", "wfq", "sfq")


def _backlogged(name, weight, packets=300, size=1500.0, seed=0):
    return FlowSpec(
        name=name,
        weight=weight,
        packets=packets,
        size="constant-mtu",
        size_params={"mtu": size},
        seed=seed,
    )


def _bytes_sent(result):
    return {name: state.behavior.bytes_sent for name, state in result.tasks.items()}


# ---------------------------------------------------------------- specs


class TestSpecs:
    def test_link_capacity_aggregates_channels(self):
        link = LinkSpec(bytes_per_sec=1e6, channels=3)
        assert link.total_bytes_per_sec == 3e6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bytes_per_sec": 0.0},
            {"bytes_per_sec": -1.0},
            {"bytes_per_sec": math.inf},
            {"channels": 0},
        ],
    )
    def test_link_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LinkSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "f", "weight": 0.0},
            {"name": "f", "packets": 0},
            {"name": "f", "at": -0.1},
            {"name": "f", "resources": {"gpu": 1.0}},
            {"name": "f", "resources": {"cpu": -1.0}},
        ],
    )
    def test_flow_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowSpec(**kwargs)

    @pytest.mark.parametrize(
        "arrivals, sizes, bps",
        [
            ((), (), 1.0),  # no packets
            ((0.0, 1.0), (10.0,), 1.0),  # length mismatch
            ((1.0, 0.5), (10.0, 10.0), 1.0),  # decreasing enqueues
            ((0.0,), (0.0,), 1.0),  # zero-byte packet
            ((0.0,), (10.0,), 0.0),  # dead link
        ],
    )
    def test_packet_flow_rejects_bad_values(self, arrivals, sizes, bps):
        with pytest.raises(ValueError):
            PacketFlow(arrivals=arrivals, sizes=sizes, bytes_per_sec=bps)

    def test_specs_pickle_and_compare_equal(self):
        for spec in (
            LinkSpec(bytes_per_sec=2e6, channels=2),
            FlowSpec(name="f", weight=3.0, resources={"cpu": 0.5}),
            PacketFlow(arrivals=(0.0, 0.5), sizes=(100.0, 200.0), bytes_per_sec=1e3),
        ):
            assert pickle.loads(pickle.dumps(spec)) == spec


# ---------------------------------------------------------- transmitter


class TestFlowTransmitter:
    def test_sends_head_of_line_and_books_delays(self):
        pf = PacketFlow(
            arrivals=(0.0, 0.0, 0.5),
            sizes=(1000.0, 500.0, 250.0),
            bytes_per_sec=1000.0,
        )
        t = FlowTransmitter(pf)
        assert t.start(0.0) == Run(1.0)
        assert t.next_segment(1.0) == Run(0.5)
        assert t.next_segment(1.5) == Run(0.25)
        assert t.next_segment(1.75) == Exit()
        assert t.packets_sent == 3
        assert t.bytes_sent == 1750.0
        # completion - enqueue: 1.0-0, 1.5-0, 1.75-0.5
        assert t.delays == [1.0, 1.5, 1.25]

    def test_blocks_until_next_enqueue(self):
        pf = PacketFlow(arrivals=(1.0,), sizes=(100.0,), bytes_per_sec=100.0)
        t = FlowTransmitter(pf)
        assert t.start(0.0) == Block(1.0)
        assert t.next_segment(1.0) == Run(1.0)
        assert t.next_segment(2.0) == Exit()
        assert t.delays == [1.0]
        assert t.throughput(2.0) == 50.0

    def test_throughput_rejects_nonpositive_duration(self):
        t = FlowTransmitter(
            PacketFlow(arrivals=(0.0,), sizes=(1.0,), bytes_per_sec=1.0)
        )
        with pytest.raises(ValueError):
            t.throughput(0.0)


# --------------------------------------------------------- demand kinds


class TestPacketDemandKinds:
    def test_constant_mtu_is_fixed_at_mtu(self):
        dist = make_demand("constant-mtu", mtu=900.0)
        rng = random.Random(1)
        assert [dist.sample(rng) for _ in range(3)] == [900.0] * 3

    def test_packet_trace_cycles_in_order(self):
        dist = make_demand("packet-trace", sizes=[40.0, 1500.0, 9000.0])
        rng = random.Random(1)
        expected = [40.0, 1500.0, 9000.0] * 2 + [40.0]
        assert [dist.sample(rng) for _ in range(7)] == expected

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("constant-mtu", {"mtu": 1500.0}),
            ("packet-trace", {"sizes": [100.0, 200.0]}),
        ],
    )
    def test_one_draw_parity_with_stochastic_kinds(self, kind, params):
        """Each sample consumes exactly one rng.random()."""
        dist = make_demand(kind, **params)
        rng, control = random.Random(7), random.Random(7)
        for _ in range(5):
            dist.sample(rng)
            control.random()
        assert rng.getstate() == control.getstate()


# --------------------------------------------------------------- family


class TestFlowFamily:
    def test_registered_beside_server(self):
        assert {"flows", "server"} <= set(family_names())
        assert FAMILIES["flows"] is flow_scenario
        assert "link" in FAMILIES.summary("flows")

    def test_generated_population_is_deterministic(self):
        a = flow_scenario(n_flows=5, packets_per_flow=20, seed=9)
        b = flow_scenario(n_flows=5, packets_per_flow=20, seed=9)
        assert a == b
        assert a != flow_scenario(n_flows=5, packets_per_flow=20, seed=10)

    def test_flow_draws_independent_of_population(self):
        """One flow's packet stream never depends on its neighbours."""
        spec = _backlogged("probe", 2.0, packets=10, seed=5)
        others = [_backlogged(f"bg-{i}", 1.0, seed=i) for i in range(3)]
        link = LinkSpec()
        alone, _, _ = materialize_flows([spec], link)
        crowd, _, _ = materialize_flows([spec, *others], link)
        assert alone[0].behavior == crowd[0].behavior

    def test_materialize_horizon_covers_offered_work(self):
        tasks, mean_size, horizon = materialize_flows(
            [_backlogged("a", 1.0, packets=100, size=1250.0)],
            LinkSpec(bytes_per_sec=1250.0),
        )
        assert mean_size == 1250.0
        assert horizon == pytest.approx(100.0)  # 100 packets x 1 s
        assert tasks[0].behavior.total_bytes == 125000.0

    def test_scenario_and_metrics_pickle(self):
        scenario = flow_scenario(
            n_flows=3,
            packets_per_flow=15,
            resource_profiles=FLOW_RESOURCE_PROFILES,
        )
        assert pickle.loads(pickle.dumps(scenario)) == scenario
        result = run_scenario(scenario)
        for name in (
            "flow_throughput",
            "packet_delay_p99",
            "resource_shares",
            "dominant_shares",
            "resource_jains",
        ):
            value = METRICS[name](result)
            assert pickle.loads(pickle.dumps(value)) == value


# ----------------------------------------------------------- properties


flow_spec_st = st.builds(
    _backlogged,
    name=st.sampled_from(["a", "b", "c", "d"]),
    weight=st.floats(min_value=0.5, max_value=10.0),
    packets=st.integers(min_value=1, max_value=60),
    size=st.floats(min_value=64.0, max_value=9000.0),
    seed=st.integers(min_value=0, max_value=10),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    specs=st.lists(
        flow_spec_st, min_size=1, max_size=4, unique_by=lambda f: f.name
    ),
    channels=st.integers(min_value=1, max_value=2),
    policy=st.sampled_from(FAIR_POLICIES + ("round-robin",)),
    cut=st.floats(min_value=0.1, max_value=1.0),
)
def test_bytes_served_never_exceed_capacity(specs, channels, policy, cut):
    """Conservation law: sum of goodput <= channels x rate x time."""
    link = LinkSpec(bytes_per_sec=1e5, channels=channels)
    scenario = flow_scenario(flows=specs, link=link, scheduler=policy)
    scenario = scenario.with_(duration=scenario.duration * cut)
    result = run_scenario(scenario)
    total = sum(_bytes_sent(result).values())
    capacity = link.total_bytes_per_sec * result.duration
    assert total <= capacity * (1 + 1e-9)


@settings(max_examples=10, deadline=None)
@given(
    policy=st.sampled_from(FAIR_POLICIES),
    ratio=st.integers(min_value=2, max_value=5),
)
def test_backlogged_flows_converge_to_weight_ratio(policy, ratio):
    """Two always-backlogged flows split the link by weight.

    The window ends well before either flow drains (600 packets would
    need ~0.72 s at 3:1), so throughput is pure scheduler allocation.
    """
    scenario = flow_scenario(
        flows=(
            _backlogged("heavy", float(ratio), seed=1),
            _backlogged("light", 1.0, seed=2),
        ),
        scheduler=policy,
    ).with_(duration=0.25)
    result = run_scenario(scenario)
    sent = _bytes_sent(result)
    assert sent["light"] > 0
    observed = sent["heavy"] / sent["light"]
    assert observed == pytest.approx(ratio, rel=0.05)
    assert result.jains() > 0.99


# -------------------------------------------------------- worker counts


class TestBackendStability:
    METRIC_NAMES = (
        "completed",
        "jains",
        "flow_throughput",
        "packet_delay_p50",
        "packet_delay_p95",
        "resource_shares",
        "dominant_shares",
        "resource_jains",
    )

    def _grid(self):
        return [
            flow_scenario(
                n_flows=4,
                packets_per_flow=30,
                scheduler=policy,
                seed=11,
                resource_profiles=FLOW_RESOURCE_PROFILES,
            )
            for policy in FAIR_POLICIES
        ]

    def _comparable(self, cells):
        return [(c.index, c.scheduler, dict(c.metrics)) for c in cells]

    def test_metrics_identical_across_backends(self, tmp_path):
        grid = self._grid()
        serial = run_cells(grid, self.METRIC_NAMES, workers=0)
        pooled = run_cells(grid, self.METRIC_NAMES, workers=2)
        checkpointed = run_cells(
            grid,
            self.METRIC_NAMES,
            workers=2,
            checkpoint=str(tmp_path / "flows.jsonl"),
        )
        want = self._comparable(serial)
        assert self._comparable(pooled) == want
        assert self._comparable(checkpointed) == want

    def test_cells_pickle_round_trip(self):
        cells = run_cells(self._grid()[:1], self.METRIC_NAMES, workers=0)
        assert self._comparable(
            pickle.loads(pickle.dumps(cells))
        ) == self._comparable(cells)


# --------------------------------------------------------------- loader


FLOWS_YAML = """\
name: cfg-flows
scheduler: sfs
duration: 0.2
metrics: [flow_throughput, jains]
link: {bytes_per_sec: 1250000.0}
flows:
  - {name: heavy, weight: 3.0, packets: 50, seed: 1}
  - name: tail
    weight: 1.0
    packets: 50
    seed: 2
    size: {kind: packet-trace, sizes: [400.0, 9000.0]}
    resources: {cpu: 0.5, bandwidth: 1.0}
"""


class TestLoader:
    def test_flows_block_loads_and_round_trips(self):
        scenario = loads_config(FLOWS_YAML)
        assert scenario.cpus == 1
        names = [t.name for t in scenario.tasks]
        assert names == ["heavy", "tail"]
        assert scenario.tasks[1].resources == {"cpu": 0.5, "bandwidth": 1.0}
        # quantum defaults to one mean packet transmission time
        assert 0 < scenario.quantum < 0.01
        assert loads_config(dumps_scenario(scenario)) == scenario

    def test_loaded_config_matches_python_construction(self):
        scenario = loads_config(FLOWS_YAML)
        built = flow_scenario(
            flows=(
                _backlogged("heavy", 3.0, packets=50, seed=1),
                FlowSpec(
                    name="tail",
                    packets=50,
                    seed=2,
                    size="packet-trace",
                    size_params={"sizes": [400.0, 9000.0]},
                    resources={"cpu": 0.5, "bandwidth": 1.0},
                ),
            ),
            metrics=("flow_throughput", "jains"),
        ).with_(name="cfg-flows", duration=0.2, record_events=True)
        assert scenario == built

    def test_flows_without_link_is_an_error(self):
        text = FLOWS_YAML.replace("link: {bytes_per_sec: 1250000.0}\n", "")
        with pytest.raises(ConfigError, match="link"):
            loads_config(text)

    def test_link_without_flows_is_an_error(self):
        text = "name: x\nduration: 1.0\nlink: {bytes_per_sec: 1.0}\n"
        with pytest.raises(ConfigError, match="flows"):
            loads_config(text)

    def test_cpus_conflicts_with_link(self):
        with pytest.raises(ConfigError, match="conflicts"):
            loads_config("cpus: 2\n" + FLOWS_YAML)

    def test_unknown_size_kind_is_an_error(self):
        text = FLOWS_YAML.replace(
            "kind: packet-trace, sizes: [400.0, 9000.0]",
            "kind: no-such-kind",
        )
        with pytest.raises(ConfigError, match=r"flows\[1\]\.size\.kind"):
            loads_config(text)

    def test_unknown_resource_is_an_error(self):
        text = FLOWS_YAML.replace("cpu: 0.5", "gpu: 0.5")
        with pytest.raises(ConfigError, match="gpu"):
            loads_config(text)

    def test_packet_flow_behavior_block_loads(self):
        scenario = loads_config(
            "name: raw\n"
            "duration: 1.0\n"
            "tasks:\n"
            "  - name: f\n"
            "    behavior:\n"
            "      kind: packet-flow\n"
            "      bytes_per_sec: 1000.0\n"
            "      arrivals: [0.0, 0.5]\n"
            "      sizes: [100.0, 200.0]\n"
        )
        behavior = scenario.tasks[0].behavior
        assert behavior == PacketFlow(
            arrivals=(0.0, 0.5), sizes=(100.0, 200.0), bytes_per_sec=1000.0
        )


# ------------------------------------------------------- multi-resource


class TestResourceMetrics:
    def _result(self):
        scenario = flow_scenario(
            flows=(
                FlowSpec(
                    name="a",
                    weight=2.0,
                    packets=200,
                    seed=1,
                    resources={"cpu": 0.5, "bandwidth": 1.0},
                ),
                FlowSpec(
                    name="b",
                    weight=1.0,
                    packets=200,
                    seed=2,
                    resources={"memory": 2.0, "bandwidth": 1.0},
                ),
            ),
        ).with_(duration=0.2)
        return run_scenario(scenario)

    def test_service_is_service_times_vector(self):
        result = self._result()
        service = resource_service(result)
        s_a = result.tasks["a"].service
        s_b = result.tasks["b"].service
        assert service["cpu"] == {"a": s_a * 0.5}
        assert service["memory"] == {"b": s_b * 2.0}
        assert service["bandwidth"] == {"a": s_a, "b": s_b}

    def test_shares_sum_to_one_per_resource(self):
        shares = resource_shares(self._result())
        assert set(shares) == {"cpu", "memory", "bandwidth"}
        for per_task in shares.values():
            assert sum(per_task.values()) == pytest.approx(1.0)

    def test_dominant_share_is_max_over_resources(self):
        result = self._result()
        shares = resource_shares(result)
        dominant = dominant_shares(result)
        for name in ("a", "b"):
            assert dominant[name] == max(
                per_task[name]
                for per_task in shares.values()
                if name in per_task
            )
        # sole consumers dominate their private resource outright
        assert dominant["a"] == shares["cpu"]["a"] == 1.0
        assert dominant["b"] == shares["memory"]["b"] == 1.0

    def test_jains_per_resource_bounded(self):
        jains = resource_jains(self._result())
        assert set(jains) == {"cpu", "memory", "bandwidth"}
        for value in jains.values():
            assert 0.0 < value <= 1.0

    def test_empty_without_declared_vectors(self):
        result = run_scenario(flow_scenario(n_flows=2, packets_per_flow=10))
        assert resource_service(result) == {}
        assert resource_shares(result) == {}
        assert dominant_shares(result) == {}
        assert resource_jains(result) == {}


# ---------------------------------------------------------------- audit


class TestAuditApplicability:
    def test_resource_conservation_runs_clean_on_flows(self):
        scenario = flow_scenario(
            n_flows=3,
            packets_per_flow=20,
            resource_profiles=FLOW_RESOURCE_PROFILES,
        ).with_(audit=True)
        report = run_scenario(scenario).audit_report
        assert report.ok
        assert report.counts.get("resource_conservation") == 0
        assert "resource_conservation" not in report.skipped

    def test_bounded_lag_earns_per_wakeup_slack_on_open_arrivals(self):
        """Open-arrival flows block/wake per packet; the lag bound
        scales with recorded wakeups instead of flagging the expected
        per-window discretization error (the flows_study --audit
        configuration, which tripped the constant bound)."""
        for load, truncate in ((0.7, False), (1.4, True)):
            scenario = flow_scenario(
                n_flows=12, packets_per_flow=120, load=load, seed=42
            ).with_(audit=True)
            if truncate:
                # the flows_study overload cell: arrival window only,
                # churning video flows perturb the backlogged bulks
                scenario = scenario.with_(duration=scenario.duration / (1.5 * load))
            report = run_scenario(scenario).audit_report
            assert report.ok
            assert report.counts.get("bounded_lag") == 0

    def test_resource_conservation_skips_with_reason_otherwise(self):
        scenario = flow_scenario(
            n_flows=3, packets_per_flow=20
        ).with_(audit=True)
        report = run_scenario(scenario).audit_report
        assert report.ok
        assert "resource_conservation" not in report.counts
        assert "vector" in report.skipped["resource_conservation"]


# ------------------------------------------------------------------ CLI


class TestRegistryList:
    def test_list_names_the_flow_domain(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenario families" in out
        assert "flows" in out and "server" in out
        assert "constant-mtu" in out and "packet-trace" in out
        assert "flow_throughput" in out and "resource_jains" in out
        assert "audit checks" in out
        assert "resource_conservation" in out
