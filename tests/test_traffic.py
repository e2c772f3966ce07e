"""Tests for datacenter-scale traffic generation (repro.traffic).

Covers the distribution samplers' statistics (moments and skew pinned
at n = 10^5), the scenario registry, seed-tree determinism (same seed
=> identical flow lists; serial == ``--parallel`` fan-out), the widened
escalation taxonomy ("microburst" and "ddos" classes firing in fluid
runs), the packet adapter's validation against the
``firewall -> telemetry`` NF chain, and the golden fingerprints that
pin :mod:`repro.flowsim.scenario`'s and every family's flow lists
across refactors of the generators.
"""

import hashlib
import math
from random import Random

import pytest

from repro.flowsim import ScenarioConfig, build_leaf_spine, generate_flows
from repro.harness.experiments import (
    TRAFFIC_CHAIN,
    _map_points,
    _traffic_point,
    traffic_sweep,
)
from repro.nf import FirewallNF, TelemetryNF, compile_chain, run_chain
from repro.sim import Environment
from repro.traffic import (
    CACHE_SIZE_CDF,
    CDFTableSizes,
    ExponentialSizes,
    FabricShape,
    LognormalSizes,
    OnOffArrivals,
    ParetoSizes,
    PoissonArrivals,
    TrafficScenario,
    UnknownScenarioError,
    WEBSEARCH_SIZE_CDF,
    ZipfPopularity,
    available_scenarios,
    fan_in_burst,
    get_scenario,
    packet_stream,
    register_scenario,
    run_fluid,
    unregister_scenario,
)


# ---------------------------------------------------------------------------
# Samplers: statistics at n = 10^5
# ---------------------------------------------------------------------------


class TestSamplers:
    def test_exponential_mean_and_floor(self):
        rng = Random(7)
        sampler = ExponentialSizes(mean_bytes=2e6)
        draws = [sampler.sample(rng) for _ in range(100_000)]
        assert min(draws) >= 1458.0
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(2e6, rel=0.02)

    def test_exponential_matches_handrolled_draws(self):
        """The dedup contract: same RNG calls as the original inline
        expression in flowsim.scenario, so the hybrid sweep is
        bit-identical across the refactor."""
        sampler = ExponentialSizes(mean_bytes=2e6)
        a, b = Random(3), Random(3)
        for _ in range(1000):
            assert sampler.sample(a) == max(
                1458.0, b.expovariate(1.0 / 2e6)
            )

    def test_lognormal_first_moment(self):
        """mu is derived from the mean, so the sample mean must land on
        mean_bytes — the parameterisation the scenarios rely on."""
        rng = Random(11)
        sampler = LognormalSizes(mean_bytes=1e6, sigma=1.0)
        assert sampler.mu == pytest.approx(math.log(1e6) - 0.5)
        draws = [sampler.sample(rng) for _ in range(100_000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(1e6, rel=0.05)

    def test_pareto_mean(self):
        rng = Random(13)
        sampler = ParetoSizes(alpha=2.5, min_bytes=1458.0)
        assert sampler.mean_bytes == pytest.approx(2.5 * 1458.0 / 1.5)
        draws = [sampler.sample(rng) for _ in range(100_000)]
        assert min(draws) >= 1458.0
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(sampler.mean_bytes, rel=0.05)

    def test_pareto_heavy_tail_is_infinite_mean(self):
        assert ParetoSizes(alpha=1.0).mean_bytes == float("inf")

    def test_cdf_table_bounds_and_quantiles(self):
        table = CDFTableSizes(WEBSEARCH_SIZE_CDF)
        assert table.quantile(0.0) == WEBSEARCH_SIZE_CDF[0][0]
        assert table.quantile(1.0) == WEBSEARCH_SIZE_CDF[-1][0]
        rng = Random(17)
        draws = [table.sample(rng) for _ in range(100_000)]
        assert min(draws) >= WEBSEARCH_SIZE_CDF[0][0]
        assert max(draws) <= WEBSEARCH_SIZE_CDF[-1][0]
        mean = sum(draws) / len(draws)
        # The geometric-midpoint approximation of the table mean is
        # coarse; the sample mean must land in the same decade.
        assert mean == pytest.approx(table.mean_bytes, rel=0.5)

    def test_cdf_table_validation(self):
        with pytest.raises(ValueError):
            CDFTableSizes([(100.0, 1.0)])
        with pytest.raises(ValueError):
            CDFTableSizes([(100.0, 0.5), (50.0, 1.0)])
        with pytest.raises(ValueError):
            CDFTableSizes([(100.0, 0.6), (200.0, 0.5)])
        with pytest.raises(ValueError):
            CDFTableSizes([(100.0, 0.5), (200.0, 0.9)])

    def test_cache_cdf_is_mice_dominated(self):
        table = CDFTableSizes(CACHE_SIZE_CDF)
        assert table.quantile(0.85) == pytest.approx(1458.0)

    def test_poisson_mean_interarrival(self):
        rng = Random(19)
        arrivals = PoissonArrivals(rate_per_s=1e4)
        now, n = 0.0, 100_000
        for _ in range(n):
            now = arrivals.next_after(rng, now)
        assert n / now == pytest.approx(1e4, rel=0.02)

    def test_onoff_long_run_rate(self):
        rng = Random(23)
        arrivals = OnOffArrivals(on_rate_per_s=4e4, mean_on_s=1e-3,
                                 mean_off_s=3e-3)
        assert arrivals.mean_rate_per_s == pytest.approx(1e4)
        now, n = 0.0, 100_000
        for _ in range(n):
            now = arrivals.next_after(rng, now)
        assert n / now == pytest.approx(1e4, rel=0.1)

    def test_onoff_arrivals_strictly_increase(self):
        rng = Random(29)
        arrivals = OnOffArrivals(on_rate_per_s=1e5, mean_on_s=1e-4,
                                 mean_off_s=1e-4)
        now = 0.0
        for _ in range(10_000):
            nxt = arrivals.next_after(rng, now)
            assert nxt > now
            now = nxt

    def test_zipf_weights_follow_exponent(self):
        pop = ZipfPopularity(n=64, exponent=1.0)
        assert pop.weight(1) / pop.weight(2) == pytest.approx(2.0)
        assert pop.weight(1) / pop.weight(4) == pytest.approx(4.0)
        assert sum(pop.weight(r) for r in range(1, 65)) == pytest.approx(1.0)

    def test_zipf_sample_frequencies_match_weights(self):
        rng = Random(31)
        pop = ZipfPopularity(n=16, exponent=1.2)
        counts = [0] * 16
        n = 100_000
        for _ in range(n):
            counts[pop.sample(rng)] += 1
        # Rank-1 frequency and the 1 vs 8 ratio both track the weights.
        assert counts[0] / n == pytest.approx(pop.weight(1), rel=0.05)
        assert (counts[0] / counts[7]
                == pytest.approx(pop.weight(1) / pop.weight(8), rel=0.15))

    def test_zipf_uniform_at_zero_exponent(self):
        pop = ZipfPopularity(n=10, exponent=0.0)
        for rank in range(1, 11):
            assert pop.weight(rank) == pytest.approx(0.1)

    def test_fan_in_burst_excludes_target(self):
        rng = Random(37)
        for _ in range(200):
            target, senders = fan_in_burst(rng, 16, 12)
            assert target not in senders
            assert len(senders) == 12
            assert len(set(senders)) == 12

    def test_fan_in_burst_degree_clamped(self):
        rng = Random(41)
        __, senders = fan_in_burst(rng, 4, 100)
        assert len(senders) == 3
        with pytest.raises(ValueError):
            fan_in_burst(rng, 1, 2)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExponentialSizes(mean_bytes=0.0)
        with pytest.raises(ValueError):
            LognormalSizes(mean_bytes=-1.0)
        with pytest.raises(ValueError):
            LognormalSizes(mean_bytes=1e6, sigma=0.0)
        with pytest.raises(ValueError):
            ParetoSizes(alpha=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate_per_s=0.0)
        with pytest.raises(ValueError):
            OnOffArrivals(on_rate_per_s=0.0, mean_on_s=1.0, mean_off_s=1.0)
        with pytest.raises(ValueError):
            ZipfPopularity(n=0)
        with pytest.raises(ValueError):
            ZipfPopularity(n=4, exponent=-1.0)
        with pytest.raises(ValueError):
            ZipfPopularity(n=4).weight(5)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_families_registered(self):
        names = available_scenarios()
        assert len(names) >= 6
        for name in ("websearch", "cache", "incast", "microburst",
                     "ddos", "heavy-hitter"):
            assert name in names
            assert get_scenario(name).name == name

    def test_unknown_scenario_raises(self):
        with pytest.raises(UnknownScenarioError):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_raises(self):
        scenario = get_scenario("websearch")
        with pytest.raises(ValueError):
            register_scenario(scenario)
        register_scenario(scenario, replace=True)  # idempotent path

    def test_register_unregister_roundtrip(self):
        class Empty(TrafficScenario):
            name = "test-empty"
            description = "no flows"

            def generate(self, env, num_flows):
                return []

        scenario = Empty()
        register_scenario(scenario)
        try:
            assert "test-empty" in available_scenarios()
            assert get_scenario("TEST-EMPTY") is scenario  # case-folded
        finally:
            unregister_scenario("test-empty")
        assert "test-empty" not in available_scenarios()


# ---------------------------------------------------------------------------
# Determinism: seed tree, serial vs parallel
# ---------------------------------------------------------------------------


def _flow_tuple(flow):
    return (flow.flow_id, flow.src, flow.dst, flow.size_bytes,
            flow.start_s, flow.service)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["websearch", "cache", "incast",
                                      "microburst", "ddos", "heavy-hitter"])
    def test_same_seed_same_flows(self, name):
        scenario = get_scenario(name)
        first = scenario.generate(Environment(seed=42), 500)
        second = scenario.generate(Environment(seed=42), 500)
        assert list(map(_flow_tuple, first)) == list(
            map(_flow_tuple, second)
        )
        third = scenario.generate(Environment(seed=43), 500)
        assert list(map(_flow_tuple, first)) != list(
            map(_flow_tuple, third)
        )

    def test_scenarios_draw_distinct_streams(self):
        """Two scenarios under one seed must not replay each other's
        draws: each generates from its own ``traffic/<name>`` key."""
        web = get_scenario("websearch").generate(Environment(seed=1), 200)
        cache = get_scenario("cache").generate(Environment(seed=1), 200)
        assert [f.size_bytes for f in web] != [f.size_bytes for f in cache]

    def test_packet_stream_deterministic(self):
        scenario = get_scenario("ddos")
        first = packet_stream(scenario, 512)
        second = packet_stream(scenario, 512)
        assert first == second
        assert len(first) == 512

    def test_traffic_point_serial_equals_parallel(self):
        """The sweep contract: ``--parallel`` fan-out is bit-identical
        to the serial loop, per-row and per-field."""
        points = [(name, 300, 256) for name in ("microburst", "ddos")]
        serial = _map_points(_traffic_point, points, parallel=None)
        fanned = _map_points(_traffic_point, points, parallel=2)
        assert serial == fanned

    def test_traffic_sweep_driver_parallel_matches_serial(self):
        kwargs = dict(scenarios=["cache"], num_flows=300, chain_packets=256)
        assert traffic_sweep(**kwargs) == traffic_sweep(
            **kwargs, parallel=2
        )


# ---------------------------------------------------------------------------
# Golden pins: the flowsim dedup refactor changed no draw
# ---------------------------------------------------------------------------


def _flows_fingerprint(flows):
    digest = hashlib.sha256()
    for flow in flows:
        digest.update(repr(_flow_tuple(flow)).encode())
    return digest.hexdigest()


#: name -> (2000-flow list sha256 at the default seed, at seed 5).
FAMILY_PINS = {
    "websearch": (
        "207109dea83e66b1e08a597bae9da52ebc5aa8db950855cfc4170def691ef53d",
        "f1168173b19994942fa632839bdfa34c0e42bcb392268705535fe69c2d783430",
    ),
    "cache": (
        "99c606d63d2b89eb12b0153b5e31d014f0f69e9046b603dd7c3b3d6b6cf0db57",
        "6c19c472c9a7d3d1abf36db13b1653a1d9aa4dd4d041140f808d4f48119bfd4b",
    ),
    "incast": (
        "654850f213830341d6ba3d2bc652e6d6fb7832db1eb0ba6a4acd70a917c1a05c",
        "cac90cd1c8f8b30bb81b4a63ee6f4cec9f845e7362c6626a27a5a8899f3e8802",
    ),
    "microburst": (
        "14cf6ad0507be01bd6e21484f35dfafcc57f706f1ee56a400d9bcce7b42ae4c3",
        "7305cad8bb4a7a733f293a3b9cfcc89625b67f2f94fbec63801a1e107186a20f",
    ),
    "ddos": (
        "c7b60e477c878af7c05d3727851ddb4ee484793d9ec1c6eb31f1c03a91caf449",
        "920b137ce3c9c40bab0b1e3c771758d2e06d4fd973187ab13bdf4bc1982a4b66",
    ),
    "heavy-hitter": (
        "510067040e231b3c02dc8f70a9ee272175a93fff905499c9ee28e39873b51a08",
        "b64bde68c83d956a3fb697eceecdf04b2f5771768b083637b361bd49df8e3c44",
    ),
}


class TestGoldenFingerprints:
    """Pinned before the samplers were factored out of
    :mod:`repro.flowsim.scenario`, and for every registered family
    before the fluid scenario paths were merged; these hashes are the
    proof those refactors left every draw bit-identical."""

    def test_every_family_is_pinned(self):
        assert set(FAMILY_PINS) == set(available_scenarios())

    @pytest.mark.parametrize("name", sorted(FAMILY_PINS))
    def test_family_flow_lists(self, name):
        scenario = get_scenario(name)
        unseeded, seed_5 = FAMILY_PINS[name]
        assert _flows_fingerprint(
            scenario.generate(Environment(), 2000)) == unseeded
        assert _flows_fingerprint(
            scenario.generate(Environment(seed=5), 2000)) == seed_5

    def test_ddos_packet_stream(self):
        digest = hashlib.sha256()
        for view in packet_stream(get_scenario("ddos"), 512):
            digest.update(repr(view).encode())
        assert digest.hexdigest() == (
            "24daddba66bd400af45dbef45391e0982d657d74f6952a16ca037c8ae2dadfc7"
        )

    def test_default_config_unseeded(self):
        flows = generate_flows(Environment(), ScenarioConfig())
        assert _flows_fingerprint(flows) == (
            "83cfff751e3b12d9d06455a08ae48dbf1fe9bc98bdcdc63f5a262b265e8d250b"
        )

    def test_default_config_seed_5(self):
        flows = generate_flows(Environment(seed=5), ScenarioConfig())
        assert _flows_fingerprint(flows) == (
            "0ac2b5d8147ffc40e74cf7ef6538823a60edda1f47fe6aa75fc0710595d9b102"
        )

    def test_burst_heavy_config(self):
        flows = generate_flows(Environment(), ScenarioConfig(
            num_flows=500, incast_fraction=0.1, aggregation_fraction=0.1,
        ))
        assert _flows_fingerprint(flows) == (
            "7c8dcf90a8e478bab7dc3491cab94cfcf2420113d474bbe7d38636b07bd8ca70"
        )


# ---------------------------------------------------------------------------
# Fluid adapter: the widened escalation taxonomy
# ---------------------------------------------------------------------------


class TestFluidRuns:
    def test_microburst_class_fires(self):
        result = run_fluid(get_scenario("microburst"), 1500)
        assert result.escalations.get("microburst", 0) > 0
        assert "ddos" not in result.escalations
        assert len(result.records) == 1500

    def test_ddos_class_fires(self):
        result = run_fluid(get_scenario("ddos"), 1500)
        assert result.escalations.get("ddos", 0) > 0
        assert "microburst" not in result.escalations

    def test_all_families_complete(self):
        for name in available_scenarios():
            result = run_fluid(get_scenario(name), 400)
            assert len(result.records) == 400
            assert result.summary["flows"] == 400
            assert result.sim_seconds > 0
            assert result.simulated_payload_bytes > 0

    def test_websearch_mostly_fluid(self):
        """The bread-and-butter family must not lean on escalation —
        that would forfeit the hybrid speedup it exists to exercise."""
        result = run_fluid(get_scenario("websearch"), 1500)
        escalated = sum(result.escalations.values())
        assert escalated < 150


# ---------------------------------------------------------------------------
# Packet adapter vs the firewall -> telemetry chain
# ---------------------------------------------------------------------------


class TestPacketValidation:
    def test_ddos_flood_trips_firewall(self):
        """The acceptance check: the DDoS mix, compiled to packets,
        must drive the firewall's per-source policers and blocklist —
        spoofed sources concentrate the flood on a 4-address pool."""
        trace = packet_stream(get_scenario("ddos"), 4096)
        compiled = compile_chain(TRAFFIC_CHAIN)
        result = run_chain(compiled.spec, compiled.nfs,
                           ["trio", "trio"], trace)
        firewall = result.nf_counters["firewall"]
        assert firewall["packets_dropped_policer"] > 0
        assert firewall["sources_blocked"] > 0
        dropped = sum(t[1] for t in result.flow_verdicts.values())
        forwarded = sum(t[0] for t in result.flow_verdicts.values())
        assert dropped > 0
        assert forwarded > 0  # background traffic still flows

    def test_ddos_attack_packets_use_spoofed_pool(self):
        # FlowKey is (src_ip, dst_ip, src_port, dst_port) as ints.
        scenario = get_scenario("ddos")
        trace = packet_stream(scenario, 2048)
        attack_srcs = {pkt.flow[0] for pkt in trace
                       if pkt.flow[3] == 443}
        assert 0 < len(attack_srcs) <= scenario.spoofed_sources
        spoof_prefix = (10 << 8) | 99  # 10.99.0.0/16
        assert all(src >> 16 == spoof_prefix for src in attack_srcs)

    def test_heavy_hitter_exports_from_telemetry(self):
        """Zipf-skewed traffic through a telemetry NF with a matched
        threshold must export heavy hitters; the default 128-per-epoch
        threshold is tuned for line-rate traces, so the test lowers it
        rather than inflating the stream."""
        trace = packet_stream(get_scenario("heavy-hitter"), 4096,
                              max_packets_per_flow=32)
        telemetry = TelemetryNF(heavy_hitter_packets_per_epoch=4)
        result = run_chain("telemetry", [telemetry], ["trio"], trace)
        exports = result.nf_exports["telemetry"]
        assert len(exports) > 0
        tracked = result.nf_counters["telemetry"]["flows_tracked"]
        assert tracked > len(exports)  # hitters are the skewed few

    def test_benign_scenario_passes_clean(self):
        """The websearch mix must not trip the firewall: per-flow
        source ports spread the load far below the policer budgets."""
        trace = packet_stream(get_scenario("websearch"), 2048)
        firewall = FirewallNF()
        result = run_chain("firewall", [firewall], ["trio"], trace)
        counters = result.nf_counters["firewall"]
        # Counters are sparse: an event that never fired has no key.
        assert counters.get("sources_blocked", 0) == 0

    def test_stream_respects_flow_sizes(self):
        """A one-MTU flow contributes exactly one packet; a long flow
        is capped at max_packets_per_flow."""
        scenario = get_scenario("cache")
        env = Environment()
        flows = scenario.generate(env, 256)
        trace = packet_stream(scenario, 10_000, num_flows=256,
                              max_packets_per_flow=4)
        # Total packets = sum of per-flow trains, all emitted.
        expected = sum(
            min(4, max(1, math.ceil(f.size_bytes / 1458.0)))
            for f in flows
        )
        assert len(trace) == min(10_000, expected)

    def test_packet_stream_validates_args(self):
        with pytest.raises(ValueError):
            packet_stream(get_scenario("cache"), 0)

    @pytest.mark.parametrize("name", ["websearch", "cache", "incast",
                                      "microburst", "ddos", "heavy-hitter"])
    def test_benign_addresses_are_fabric_hosts(self, name):
        """Every non-flood packet runs between hosts of the fabric
        :func:`build_leaf_spine` builds for the scenario."""
        scenario = get_scenario(name)
        topology = build_leaf_spine(Environment(), scenario.fabric)
        host_ips = {int(host.ip) for host in topology.hosts.values()}
        benign = [pkt for pkt in packet_stream(scenario, 512)
                  if pkt.flow[3] != 443]
        assert benign
        for pkt in benign:
            assert pkt.src_ip in host_ips
            assert pkt.dst_ip in host_ips


# ---------------------------------------------------------------------------
# Fabric shape
# ---------------------------------------------------------------------------


class TestFabricShape:
    def test_host_addressing_roundtrip(self):
        fabric = FabricShape()
        names = fabric.host_names()
        assert len(names) == fabric.num_hosts == 64
        assert names[0] == "h00-00"
        assert fabric.host_address(17) == (1, 1)

    def test_aggregate_access_bandwidth(self):
        fabric = FabricShape(leaves=2, hosts_per_leaf=4,
                             host_bandwidth_bps=10e9)
        assert fabric.aggregate_access_bps == pytest.approx(80e9)
