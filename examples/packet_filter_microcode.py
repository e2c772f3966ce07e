#!/usr/bin/env python3
"""The §3.2 Microcode example: compile and run the packet filter.

Compiles the paper's filtering application with the Trio Compiler (TC),
installs it on a simulated PFE, sends a mix of traffic through, and reads
the Packet/Byte Counters back out of the Shared Memory System — exactly
the Figure 5 workflow.

Run:  python examples/packet_filter_microcode.py
"""

from repro.microcode.programs import build_filter_executor
from repro.net import Host, IPv4Address, MACAddress, Packet, Topology
from repro.net.headers import ETHERTYPE_ARP, EthernetHeader
from repro.sim import Environment
from repro.trio import PFE, TrioApplication


class FilterApp(TrioApplication):
    """Wraps the compiled Microcode program as a PFE application."""

    name = "ip-filter"

    def on_install(self, pfe):
        self.pfe = pfe
        # Two 16-byte Packet/Byte Counters (Figure 6 layout).
        self.counter_base = pfe.memory.alloc(32, region="sram", align=16)
        self.executor = build_filter_executor(self.counter_base)

    def handle_packet(self, tctx, pctx):
        yield from self.executor.run(tctx, pctx)


def main() -> None:
    print("Compiling the filter program with TC …")
    program = build_filter_executor().program
    print(f"  {program.num_instructions} instructions: "
          f"{sorted(program.instructions)}")
    for name, budget in program.budgets.items():
        print(f"  {name:<16} reg reads={budget.reg_reads} "
              f"mem reads={budget.mem_reads} "
              f"reg writes={budget.reg_writes}")

    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=2)
    app = pfe.install_app(FilterApp())

    src = Host(env, "src", MACAddress(1), IPv4Address("10.0.0.1"))
    dst = Host(env, "dst", MACAddress(2), IPv4Address("10.0.0.2"))
    topo = Topology(env)
    topo.connect(src.nic.port, pfe.port(0))
    topo.connect(dst.nic.port, pfe.port(1))
    pfe.add_route(dst.ip, "pfe1.p1")

    def traffic():
        # 5 clean IPv4/UDP packets: forwarded.
        for i in range(5):
            yield src.send_udp(dst.mac, dst.ip, 1000, 2000, b"data" * 8)
        # 3 non-IP frames (ARP): dropped, counted.
        for i in range(3):
            ether = EthernetHeader(dst=dst.mac, src=src.mac,
                                   ethertype=ETHERTYPE_ARP)
            yield src.nic.send(Packet(ether.pack() + bytes(46)))

    env.process(traffic())
    env.run(until=env.now + 1e-3)

    non_ip = pfe.memory.read_raw(app.counter_base, 16)
    ip_opt = pfe.memory.read_raw(app.counter_base + 16, 16)
    print(f"\nforwarded: {pfe.packets_forwarded}, dropped: "
          f"{pfe.packets_dropped}")
    print("non-IP counter:     packets="
          f"{int.from_bytes(non_ip[:8], 'little')} "
          f"bytes={int.from_bytes(non_ip[8:], 'little')}")
    print("IP-options counter: packets="
          f"{int.from_bytes(ip_opt[:8], 'little')} "
          f"bytes={int.from_bytes(ip_opt[8:], 'little')}")


if __name__ == "__main__":
    main()
