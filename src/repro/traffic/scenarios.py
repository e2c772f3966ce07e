"""The built-in scenario families.

Six workload shapes cover the load classes the paper's three Trio
applications face (firewall, telemetry, in-network aggregation), after
the taxonomy of the datacenter traffic-generation literature
(Parsonson et al., PAPERS.md):

``websearch``
    Query/response traffic from the web-search flow-size CDF — mice
    plus a multi-MB elephant tail — with Poisson arrivals and uniform
    endpoints.
``cache``
    Key-value traffic: tiny objects from the cache CDF, on/off
    burst-modulated arrivals, Zipf-skewed destination popularity (hot
    shards).
``incast``
    Bulk lognormal background plus synchronised fan-in bursts
    (``"incast"`` service — the classic escalation trigger).
``microburst``
    Bulk background plus microburst *trains*: repeated back-to-back
    fan-in waves of tiny flows (``"microburst"`` service, the new
    escalation class).
``ddos``
    Benign background plus spoofed-source flood volleys converging on a
    small victim set (``"ddos"`` service); the packet adapter maps the
    flood onto few spoofed source IPs so the firewall NF's per-source
    policers trip.
``heavy-hitter``
    Pareto (heavy-tailed) sizes with Zipf-skewed endpoint popularity —
    the few-flows-carry-most-bytes skew the telemetry NF's heavy-hitter
    tables must survive.

Every family keeps its offered load comfortably below the fabric's
bottlenecks so the fluid level's active-flow set stays bounded at
10^5–10^6 flows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.flowsim.flow import FlowSpec
from repro.flowsim.scenario import FabricShape
from repro.sim import Environment
from repro.traffic.base import TrafficScenario
from repro.traffic.registry import register_scenario
from repro.traffic.samplers import (
    ArrivalProcess,
    Burst,
    CACHE_SIZE_CDF,
    CDFTableSizes,
    ExponentialSizes,
    LognormalSizes,
    OnOffArrivals,
    ParetoSizes,
    PoissonArrivals,
    SizeSampler,
    WEBSEARCH_SIZE_CDF,
    ZipfPopularity,
    draw_flows,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "DDoSScenario",
    "FanInScenario",
    "MixedScenario",
    "register_builtin_scenarios",
]


class MixedScenario(TrafficScenario):
    """Independent flows: pluggable size law, arrivals, endpoint skew.

    Arrival rate is sized so offered load is ``load`` times the
    aggregate host access bandwidth
    (:meth:`~repro.flowsim.scenario.FabricShape.arrival_rate`).  With
    ``burst_arrivals`` the Poisson process is replaced by an on/off
    modulated one at the same long-run rate; with ``dst_skew`` /
    ``src_skew`` endpoints are drawn Zipf(popularity rank = host
    index) instead of uniformly.
    """

    def __init__(
        self,
        name: str,
        description: str,
        sizes: SizeSampler,
        mean_size_bytes: float,
        load: float = 0.5,
        dst_skew: float = 0.0,
        src_skew: float = 0.0,
        service: str = "bulk",
        burst_arrivals: Optional[Tuple[int, float]] = None,
        fabric: FabricShape = FabricShape(),
    ):
        super().__init__(fabric)
        if not 0.0 < load < 1.0:
            raise ValueError(f"load must be in (0, 1): {load}")
        self.name = name
        self.description = description
        self.sizes = sizes
        self.mean_size_bytes = mean_size_bytes
        self.load = load
        self.dst_skew = dst_skew
        self.src_skew = src_skew
        self.service = service
        #: (flows per on-burst, duty cycle) — None means plain Poisson.
        self.burst_arrivals = burst_arrivals

    def _arrivals(self) -> ArrivalProcess:
        rate = self.fabric.arrival_rate(self.load, self.mean_size_bytes)
        if self.burst_arrivals is None:
            return PoissonArrivals(rate)
        flows_per_burst, duty = self.burst_arrivals
        on_rate = rate / duty
        mean_on_s = flows_per_burst / on_rate
        mean_off_s = mean_on_s * (1.0 - duty) / duty
        return OnOffArrivals(on_rate, mean_on_s, mean_off_s)

    def generate(self, env: Environment,
                 num_flows: int) -> List[FlowSpec]:
        n = self.fabric.num_hosts
        return draw_flows(
            self.rng(env), self.fabric.host_names(), num_flows,
            self._arrivals(), self.sizes, service=self.service,
            src_pop=(ZipfPopularity(n, self.src_skew)
                     if self.src_skew > 0 else None),
            dst_pop=(ZipfPopularity(n, self.dst_skew)
                     if self.dst_skew > 0 else None),
        )


class FanInScenario(TrafficScenario):
    """Bulk background plus synchronised fan-in burst trains.

    Each burst picks one victim and ``burst_degree`` distinct senders
    (via :func:`~repro.traffic.samplers.fan_in_burst`), then emits
    ``burst_rounds`` back-to-back waves spaced ``round_spacing_s``
    apart — one round is a classic incast, several rounds of tiny
    flows are a microburst train.
    """

    def __init__(
        self,
        name: str,
        description: str,
        background: SizeSampler,
        mean_size_bytes: float,
        load: float = 0.5,
        burst_fraction: float = 0.06,
        burst_degree: int = 12,
        burst_flow_bytes: float = 40_000.0,
        burst_rounds: int = 1,
        round_spacing_s: float = 2e-6,
        burst_service: str = "incast",
        fabric: FabricShape = FabricShape(),
    ):
        super().__init__(fabric)
        if not 0.0 < load < 1.0:
            raise ValueError(f"load must be in (0, 1): {load}")
        if burst_degree < 1 or burst_rounds < 1:
            raise ValueError(
                f"burst geometry must be >= 1: {burst_degree}, "
                f"{burst_rounds}"
            )
        self.name = name
        self.description = description
        self.background = background
        self.mean_size_bytes = mean_size_bytes
        self.load = load
        self.burst = Burst(burst_fraction, burst_degree, burst_flow_bytes,
                           burst_service, rounds=burst_rounds,
                           round_spacing_s=round_spacing_s)

    def generate(self, env: Environment,
                 num_flows: int) -> List[FlowSpec]:
        fabric = self.fabric
        return draw_flows(
            self.rng(env), fabric.host_names(), num_flows,
            PoissonArrivals(fabric.arrival_rate(self.load,
                                                self.mean_size_bytes)),
            self.background, bursts=(self.burst,),
        )


class DDoSScenario(TrafficScenario):
    """Benign background plus spoofed-source flood volleys.

    A volley is ``flood_degree`` small ``"ddos"`` flows launched at the
    same instant from distinct compromised hosts, all converging on one
    of ``victims`` fixed victim hosts.  At the fluid level the fan-in
    drives the ``"ddos"`` escalation class; at the packet level the
    adapter maps flood flows onto ``spoofed_sources`` source IPs so the
    firewall NF's per-source per-epoch policers trip and blocklisting
    engages.
    """

    def __init__(
        self,
        name: str,
        description: str,
        background: SizeSampler,
        mean_size_bytes: float,
        load: float = 0.3,
        attack_fraction: float = 0.35,
        flood_degree: int = 20,
        flood_flow_bytes: float = 6_000.0,
        victims: int = 2,
        spoofed_sources: int = 4,
        fabric: FabricShape = FabricShape(),
    ):
        super().__init__(fabric)
        if not 0.0 < load < 1.0:
            raise ValueError(f"load must be in (0, 1): {load}")
        if victims < 1 or victims >= fabric.num_hosts:
            raise ValueError(f"victim pool out of range: {victims}")
        if spoofed_sources < 1:
            raise ValueError(
                f"spoofed pool must be >= 1: {spoofed_sources}")
        self.name = name
        self.description = description
        self.background = background
        self.mean_size_bytes = mean_size_bytes
        self.load = load
        # The victim is one of the last `victims` fabric hosts.
        self.flood = Burst(attack_fraction, flood_degree, flood_flow_bytes,
                           "ddos", victims=victims)
        self.spoofed_sources = spoofed_sources

    def generate(self, env: Environment,
                 num_flows: int) -> List[FlowSpec]:
        fabric = self.fabric
        return draw_flows(
            self.rng(env), fabric.host_names(), num_flows,
            PoissonArrivals(fabric.arrival_rate(self.load,
                                                self.mean_size_bytes)),
            self.background, bursts=(self.flood,),
        )


def _builtin_scenarios() -> Tuple[TrafficScenario, ...]:
    """Construct one instance of each built-in family."""
    websearch_sizes = CDFTableSizes(WEBSEARCH_SIZE_CDF)
    cache_sizes = CDFTableSizes(CACHE_SIZE_CDF)
    return (
        MixedScenario(
            "websearch",
            "web-search flow-size CDF, Poisson arrivals, uniform "
            "endpoints",
            sizes=websearch_sizes,
            mean_size_bytes=websearch_sizes.mean_bytes,
            load=0.5,
        ),
        MixedScenario(
            "cache",
            "cache-follower sizes, on/off burst-modulated arrivals, "
            "Zipf-hot destination shards",
            sizes=cache_sizes,
            mean_size_bytes=cache_sizes.mean_bytes,
            load=0.08,
            dst_skew=0.9,
            burst_arrivals=(64, 0.25),
        ),
        FanInScenario(
            "incast",
            "lognormal bulk background plus synchronised incast "
            "fan-in bursts",
            background=LognormalSizes(mean_bytes=2e6, sigma=1.0),
            mean_size_bytes=2e6,
            load=0.5,
            burst_fraction=0.06,
            burst_degree=12,
            burst_flow_bytes=40_000.0,
            burst_service="incast",
        ),
        FanInScenario(
            "microburst",
            "bulk background plus microburst trains: repeated fan-in "
            "waves of tiny flows",
            background=ExponentialSizes(mean_bytes=2e6),
            mean_size_bytes=2e6,
            load=0.3,
            burst_fraction=0.12,
            burst_degree=8,
            burst_flow_bytes=8_000.0,
            burst_rounds=4,
            round_spacing_s=2e-6,
            burst_service="microburst",
        ),
        DDoSScenario(
            "ddos",
            "benign background plus spoofed-source flood volleys on a "
            "small victim set",
            background=ExponentialSizes(mean_bytes=2e6),
            mean_size_bytes=2e6,
            load=0.3,
        ),
        MixedScenario(
            "heavy-hitter",
            "Pareto heavy-tailed sizes with Zipf-skewed endpoint "
            "popularity",
            sizes=ParetoSizes(alpha=1.3),
            mean_size_bytes=ParetoSizes(alpha=1.3).mean_bytes,
            load=0.15,
            dst_skew=1.1,
            src_skew=1.1,
        ),
    )


BUILTIN_SCENARIOS: Tuple[TrafficScenario, ...] = _builtin_scenarios()


def register_builtin_scenarios(replace: bool = True) -> None:
    """(Re-)register the built-in families; idempotent on re-import."""
    for scenario in BUILTIN_SCENARIOS:
        register_scenario(scenario, replace=replace)


register_builtin_scenarios()
