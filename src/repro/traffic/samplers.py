"""Seeded samplers for empirical datacenter traffic distributions.

Every sampler draws exclusively from a :class:`random.Random` stream the
caller obtained from ``Environment.rng_stream("traffic/...")`` — no
module-level RNG state, no wall clock — so a scenario's flow list is a
pure function of ``(scenario, seed)`` and serial runs are bit-identical
to ``--parallel`` fan-outs.

The distribution families follow "Traffic Generation for Benchmarking
Data Centre Networks" (Parsonson et al., PAPERS.md): empirical
flow-size CDF tables (web-search- and cache-shaped), lognormal and
Pareto parametric sizes, Poisson and on/off-modulated interarrivals,
and Zipf flow-popularity skew.  :func:`draw_flows` is the one
flow-drawing loop over them, for the canonical
:mod:`repro.flowsim.scenario` workload and every traffic family alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from random import Random
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.flowsim.flow import FlowSpec

__all__ = [
    "ArrivalProcess",
    "Burst",
    "CACHE_SIZE_CDF",
    "CDFTableSizes",
    "ExponentialSizes",
    "LognormalSizes",
    "OnOffArrivals",
    "ParetoSizes",
    "PoissonArrivals",
    "SizeSampler",
    "WEBSEARCH_SIZE_CDF",
    "ZipfPopularity",
    "draw_flows",
    "fan_in_burst",
]


class SizeSampler(Protocol):
    """Anything that draws one flow size (payload bytes) per call."""

    def sample(self, rng: Random) -> float: ...


class ArrivalProcess(Protocol):
    """Anything that advances a flow-arrival clock."""

    def next_after(self, rng: Random, now_s: float) -> float: ...


# ---------------------------------------------------------------------------
# Flow sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialSizes:
    """Exponential flow sizes with a frame-sized floor.

    Draw-for-draw identical to the original hand-rolled expression in
    :mod:`repro.flowsim.scenario` (``max(min, expovariate(1/mean))``),
    which is what keeps the ``hybrid`` sweep bit-identical after the
    dedup refactor.
    """

    mean_bytes: float
    min_bytes: float = 1458.0

    def __post_init__(self) -> None:
        if self.mean_bytes <= 0:
            raise ValueError(f"mean must be positive: {self.mean_bytes}")

    def sample(self, rng: Random) -> float:
        return max(self.min_bytes,
                   rng.expovariate(1.0 / self.mean_bytes))


@dataclass(frozen=True)
class LognormalSizes:
    """Lognormal flow sizes parameterised by their *mean*, not ``mu``.

    ``mu`` is derived as ``ln(mean) - sigma^2/2`` so the distribution's
    first moment equals ``mean_bytes`` exactly — the property the
    sampler-statistics tests pin at n = 10^5.
    """

    mean_bytes: float
    sigma: float = 1.0
    min_bytes: float = 64.0

    def __post_init__(self) -> None:
        if self.mean_bytes <= 0:
            raise ValueError(f"mean must be positive: {self.mean_bytes}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive: {self.sigma}")

    @property
    def mu(self) -> float:
        return math.log(self.mean_bytes) - 0.5 * self.sigma * self.sigma

    def sample(self, rng: Random) -> float:
        return max(self.min_bytes, rng.lognormvariate(self.mu, self.sigma))


@dataclass(frozen=True)
class ParetoSizes:
    """Pareto (heavy-tailed) flow sizes: ``min_bytes * paretovariate``.

    For ``alpha > 1`` the mean is ``alpha * min_bytes / (alpha - 1)``;
    lower ``alpha`` means a heavier elephant tail.
    """

    alpha: float
    min_bytes: float = 1458.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive: {self.alpha}")

    @property
    def mean_bytes(self) -> float:
        if self.alpha <= 1.0:
            return float("inf")
        return self.alpha * self.min_bytes / (self.alpha - 1.0)

    def sample(self, rng: Random) -> float:
        return self.min_bytes * rng.paretovariate(self.alpha)


class CDFTableSizes:
    """Inverse-transform sampling from an empirical flow-size CDF table.

    ``points`` is a sequence of ``(size_bytes, cumulative_probability)``
    pairs, non-decreasing in both coordinates, ending at probability
    1.0.  Sampling draws ``u ~ U(0, 1)`` and interpolates the size
    log-linearly between the bracketing table rows — the standard way
    the DCTCP-style workload tables are replayed by datacenter traffic
    generators.
    """

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("CDF table needs at least two points")
        prev_size, prev_p = 0.0, -1.0
        for size, p in points:
            if size <= prev_size and prev_p >= 0.0:
                raise ValueError(f"CDF sizes must increase: {size}")
            if p <= prev_p:
                raise ValueError(f"CDF probabilities must increase: {p}")
            prev_size, prev_p = size, p
        if abs(points[-1][1] - 1.0) > 1e-9:
            raise ValueError(
                f"CDF must end at probability 1.0: {points[-1][1]}"
            )
        self._sizes: List[float] = [float(size) for size, _ in points]
        self._probs: List[float] = [float(p) for _, p in points]

    @property
    def mean_bytes(self) -> float:
        """Mean of the piecewise (log-linear) distribution, approximated
        by the geometric midpoint of each probability segment."""
        total = self._sizes[0] * self._probs[0]
        for i in range(1, len(self._sizes)):
            mass = self._probs[i] - self._probs[i - 1]
            mid = math.sqrt(self._sizes[i - 1] * self._sizes[i])
            total += mass * mid
        return total

    def quantile(self, u: float) -> float:
        """Size at cumulative probability ``u`` (log-linear)."""
        if u <= self._probs[0]:
            return self._sizes[0]
        if u >= 1.0:
            return self._sizes[-1]
        hi = bisect_left(self._probs, u)
        lo = hi - 1
        span = self._probs[hi] - self._probs[lo]
        frac = 0.0 if span <= 0.0 else (u - self._probs[lo]) / span
        log_lo = math.log(self._sizes[lo])
        log_hi = math.log(self._sizes[hi])
        return math.exp(log_lo + frac * (log_hi - log_lo))

    def sample(self, rng: Random) -> float:
        return self.quantile(rng.random())


#: Web-search-shaped flow-size CDF (mice-dominated with a multi-MB
#: elephant tail), after the query/response workload tables used by the
#: datacenter traffic-generation literature (Parsonson et al.,
#: PAPERS.md).  Sizes in payload bytes.
WEBSEARCH_SIZE_CDF: Tuple[Tuple[float, float], ...] = (
    (1_458.0, 0.15),
    (10_000.0, 0.40),
    (30_000.0, 0.60),
    (100_000.0, 0.75),
    (300_000.0, 0.85),
    (1_000_000.0, 0.93),
    (5_000_000.0, 0.98),
    (30_000_000.0, 1.00),
)

#: Cache-follower-shaped CDF: overwhelmingly tiny objects with a short
#: tail — the key-value / cache traffic class of the same literature.
CACHE_SIZE_CDF: Tuple[Tuple[float, float], ...] = (
    (64.0, 0.30),
    (256.0, 0.60),
    (1_458.0, 0.85),
    (10_000.0, 0.95),
    (100_000.0, 0.99),
    (1_000_000.0, 1.00),
)


# ---------------------------------------------------------------------------
# Interarrivals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless interarrivals at ``rate_per_s`` flow starts/second."""

    rate_per_s: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive: {self.rate_per_s}")

    def next_after(self, rng: Random, now_s: float) -> float:
        return now_s + rng.expovariate(self.rate_per_s)


class OnOffArrivals:
    """On/off burst-modulated arrivals.

    Alternates exponentially distributed *on* and *off* periods; flow
    starts arrive as a Poisson process at ``on_rate_per_s`` during on
    periods and not at all during off periods.  The long-run average
    rate is ``on_rate * mean_on / (mean_on + mean_off)``.  Phase
    boundaries are drawn from the same stream as the arrivals, in a
    fixed order, so the whole arrival pattern replays from the seed.
    """

    def __init__(self, on_rate_per_s: float, mean_on_s: float,
                 mean_off_s: float):
        if on_rate_per_s <= 0:
            raise ValueError(f"on-rate must be positive: {on_rate_per_s}")
        if mean_on_s <= 0 or mean_off_s < 0:
            raise ValueError(
                f"invalid on/off periods: {mean_on_s}, {mean_off_s}"
            )
        self.on_rate_per_s = on_rate_per_s
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self._phase_end_s = -1.0  # first next_after() opens an on period

    def next_after(self, rng: Random, now_s: float) -> float:
        """Next arrival instant strictly after ``now_s``."""
        t = now_s
        if self._phase_end_s < 0.0:
            self._phase_end_s = t + rng.expovariate(1.0 / self.mean_on_s)
        while True:
            t += rng.expovariate(self.on_rate_per_s)
            if t <= self._phase_end_s:
                return t
            # The candidate fell past the end of the on period: skip the
            # off period and retry from the start of the next burst.
            t = self._phase_end_s
            if self.mean_off_s > 0.0:
                t += rng.expovariate(1.0 / self.mean_off_s)
            self._phase_end_s = t + rng.expovariate(1.0 / self.mean_on_s)


# ---------------------------------------------------------------------------
# Popularity skew
# ---------------------------------------------------------------------------


class ZipfPopularity:
    """Zipf-skewed index sampling: rank ``k`` has weight ``k^-s``.

    Used for flow/endpoint popularity — a handful of heavy hitters plus
    a long tail, the skew every per-flow state structure (telemetry
    tables, firewall policers, cache shards) must survive.  Sampling is
    inverse-transform over the precomputed cumulative weights, one
    ``rng.random()`` draw per sample.
    """

    def __init__(self, n: int, exponent: float = 1.0):
        if n < 1:
            raise ValueError(f"population must be >= 1: {n}")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0: {exponent}")
        self.n = n
        self.exponent = exponent
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += rank ** -exponent
            cumulative.append(total)
        self._cumulative = [c / total for c in cumulative]

    def weight(self, rank: int) -> float:
        """Probability mass of 1-based ``rank``."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank out of range: {rank}")
        prev = self._cumulative[rank - 2] if rank >= 2 else 0.0
        return self._cumulative[rank - 1] - prev

    def sample(self, rng: Random) -> int:
        """A 0-based index, rank 0 the most popular."""
        return bisect_left(self._cumulative, rng.random())


# ---------------------------------------------------------------------------
# Synchronised bursts
# ---------------------------------------------------------------------------


def fan_in_burst(rng: Random, num_hosts: int, degree: int,
                 victims: int = 0) -> Tuple[int, List[int]]:
    """Endpoint draw for one synchronised fan-in burst.

    Picks a target host, uniformly or, with ``victims``, from the last
    ``victims`` hosts, then ``min(degree, num_hosts - 1)`` distinct
    senders from the rest.
    """
    if num_hosts < 2:
        raise ValueError(f"fan-in needs >= 2 hosts: {num_hosts}")
    if victims:
        target = num_hosts - 1 - rng.randrange(victims)
    else:
        target = rng.randrange(num_hosts)
    senders = rng.sample(
        [h for h in range(num_hosts) if h != target],
        min(degree, num_hosts - 1),
    )
    return target, senders


@dataclass(frozen=True)
class Burst:
    """One burst arm of :func:`draw_flows`.

    On an arrival the arm fires with probability ``fraction`` while its
    budget, ``fraction`` of the flow count, lasts.  It draws a
    :func:`fan_in_burst` and emits ``rounds`` waves of ``degree``
    ``flow_bytes`` flows tagged ``service``, ``round_spacing_s`` apart.
    """

    fraction: float
    degree: int
    flow_bytes: float
    service: str
    rounds: int = 1
    round_spacing_s: float = 0.0
    victims: int = 0


def draw_flows(
    rng: Random,
    hosts: Sequence[str],
    num_flows: int,
    arrivals: ArrivalProcess,
    sizes: SizeSampler,
    service: str = "bulk",
    bursts: Sequence[Burst] = (),
    src_pop: Optional[ZipfPopularity] = None,
    dst_pop: Optional[ZipfPopularity] = None,
) -> List[FlowSpec]:
    """``num_flows`` flow specs, start-time ordered.

    For each arrival the burst arms are tried in order; if none fires,
    one ``service`` flow of ``sizes`` runs between distinct endpoints,
    Zipf-drawn where a popularity is given and uniform otherwise.
    """
    n = len(hosts)
    budgets = [int(num_flows * arm.fraction) for arm in bursts]
    flows: List[FlowSpec] = []
    now = 0.0
    while len(flows) < num_flows:
        now = arrivals.next_after(rng, now)
        for k, arm in enumerate(bursts):
            if budgets[k] > 0 and rng.random() < arm.fraction:
                target, senders = fan_in_burst(rng, n, arm.degree,
                                               arm.victims)
                for wave in range(arm.rounds):
                    when = now + wave * arm.round_spacing_s
                    for sender in senders:
                        flows.append(FlowSpec(
                            len(flows), hosts[sender], hosts[target],
                            arm.flow_bytes, when, arm.service))
                budgets[k] -= len(senders) * arm.rounds
                break
        else:
            if src_pop is not None:
                src = src_pop.sample(rng)
            else:
                src = rng.randrange(n)
            if dst_pop is not None:
                dst = dst_pop.sample(rng)
                if dst == src:
                    dst = (dst + 1) % n
            else:
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
            # Positional: (flow_id, src, dst, size_bytes, start_s,
            # service), the cheaper call on the per-arrival path.
            flows.append(FlowSpec(len(flows), hosts[src], hosts[dst],
                                  sizes.sample(rng), now, service))
    return flows[:num_flows]
