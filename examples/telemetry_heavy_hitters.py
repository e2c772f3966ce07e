#!/usr/bin/env python3
"""In-network telemetry: a heavy-hitter monitor on Trio (§7).

§7 proposes telemetry as a future Trio use case: "service providers can
leverage Trio's large memory to keep track of incoming packets" and
"Trio's timer threads are suitable for periodic monitoring".  The
:class:`~repro.nf.telemetry.TelemetryMonitor` application implements
exactly that: per-flow Packet/Byte Counters updated at line rate (no
sampling), timer-thread sweeps that export flows above a rate threshold,
and REF-flag-based retirement of idle flow state.

Run:  python examples/telemetry_heavy_hitters.py
"""

from repro.nf import TelemetryMonitor
from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE


def main() -> None:
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=2)
    monitor = pfe.install_app(
        TelemetryMonitor(
            heavy_hitter_pps=100_000,   # export flows above 100 kpps
            scan_threads=4,
            scan_period_s=200e-6,
        )
    )

    src = Host(env, "src", MACAddress(1), IPv4Address("10.0.0.1"))
    dst = Host(env, "dst", MACAddress(2), IPv4Address("10.0.0.2"))
    topo = Topology(env)
    topo.connect(src.nic.port, pfe.port(0))
    topo.connect(dst.nic.port, pfe.port(1))
    pfe.add_route(dst.ip, "pfe1.p1")

    def traffic():
        # One elephant flow and a handful of mice.
        for i in range(300):
            yield src.send_udp(dst.mac, dst.ip, 7777, 80, b"x" * 400)
            if i % 10 == 0:
                yield src.send_udp(dst.mac, dst.ip, 8000 + i, 80, b"y" * 60)
            yield env.timeout(2e-6)

    env.process(traffic())
    env.run(until=4e-3)

    heavy = {report.flow for report in monitor.reports}
    print(f"flows tracked: {monitor.flows_tracked} total, "
          f"{len(pfe.hash_table)} live, {monitor.flows_retired} retired "
          "as idle")
    print(f"heavy-hitter reports: {len(monitor.reports)} "
          f"({len(heavy)} distinct flows)")
    for flow in sorted(heavy):
        src_ip = IPv4Address(flow[0])
        peak = max(r.packets_per_s for r in monitor.reports
                   if r.flow == flow)
        print(f"  heavy hitter: {src_ip}:{flow[2]} -> port {flow[3]} "
              f"(peak {peak / 1e3:.0f} kpps)")
    print(f"packets forwarded at line rate meanwhile: "
          f"{pfe.packets_forwarded}")


if __name__ == "__main__":
    main()
