#!/usr/bin/env python3
"""In-network DDoS mitigation on the datapath (§7).

A volumetric attacker floods a server through a Trio PFE running the
:class:`~repro.nf.firewall.DDoSMitigator` application: per-source
policers absorb the first burst, timer threads review offenders and move
the attacker onto the blocklist, and once the attack subsides, the
REF-flag quiet-interval analysis rehabilitates the source — §5's
temporary-vs-permanent straggler analysis, applied to attackers.

Run:  python examples/ddos_mitigation.py
"""

from repro.nf import DDoSMitigator
from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE


def main() -> None:
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=3)
    app = pfe.install_app(
        DDoSMitigator(
            allowed_pps=100_000,
            packet_size_hint=100,
            burst_packets=16,
            strike_threshold=2,
            review_threads=4,
            review_period_s=100e-6,
        )
    )

    topo = Topology(env)
    attacker = Host(env, "attacker", MACAddress(1), IPv4Address("10.0.0.1"))
    legit = Host(env, "legit", MACAddress(2), IPv4Address("10.0.0.2"))
    victim = Host(env, "victim", MACAddress(3), IPv4Address("10.0.0.3"))
    topo.connect(attacker.nic.port, pfe.port(0))
    topo.connect(legit.nic.port, pfe.port(1))
    topo.connect(victim.nic.port, pfe.port(2))
    pfe.add_route(victim.ip, "pfe1.p2")

    def attack():
        # ~1M packets/s for 3 ms, 10x the allowed per-source rate.
        for __ in range(3000):
            yield attacker.send_udp(victim.mac, victim.ip, 666, 80,
                                    b"A" * 72)
            yield env.timeout(1e-6)

    def legitimate():
        for __ in range(30):
            yield env.timeout(200e-6)
            yield legit.send_udp(victim.mac, victim.ip, 5, 80, b"legit")

    delivered = {"attack": 0, "legit": 0}

    def victim_rx():
        while True:
            packet = yield victim.recv()
            __, ip, __, payload = packet.parse_udp()
            delivered["legit" if payload == b"legit" else "attack"] += 1

    env.process(attack())
    env.process(legitimate())
    env.process(victim_rx())
    env.run(until=12e-3)

    print("attack: 3000 packets at ~10x the per-source budget\n")
    for event in app.events:
        source = IPv4Address(event.source_ip)
        print(f"  t={event.time * 1e3:6.2f} ms  {event.action:<8} {source} "
              f"(strikes={event.strikes})")
    print(f"\nvictim received {delivered['attack']} attack packets "
          f"(of 3000) and {delivered['legit']}/30 legitimate packets")
    print(f"dropped at the first instruction of the datapath: "
          f"{app.packets_blocked}")
    print(f"currently blocked: "
          f"{[str(IPv4Address(s)) for s in app.blocked_sources] or 'nobody'} "
          "(attacker rehabilitated after going quiet)")


if __name__ == "__main__":
    main()
