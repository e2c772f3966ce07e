"""Tests for the vMX virtual router (VCP commit model, VFP timing)."""

from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import GENERATIONS, TrioApplication
from repro.trio.vmx import VMX_VFP_CONFIG, VirtualMX


def wire_pair(env, device_port_a, device_port_b):
    topo = Topology(env)
    h0 = Host(env, "h0", MACAddress(1), IPv4Address("10.0.0.1"))
    h1 = Host(env, "h1", MACAddress(2), IPv4Address("10.0.0.2"))
    topo.connect(h0.nic.port, device_port_a)
    topo.connect(h1.nic.port, device_port_b)
    return h0, h1


class TestVCP:
    def test_changes_take_effect_only_on_commit(self):
        env = Environment()
        vmx = VirtualMX(env)
        h0, h1 = wire_pair(env, vmx.port(0), vmx.port(1))
        vmx.vcp.set_route(h1.ip, f"{vmx.vfp.name}.p1")
        assert vmx.vcp.pending_changes == 1

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"early")

        env.process(send())
        env.run(until=1e-3)
        assert vmx.vfp.packets_dropped == 1  # no route yet

        vmx.vcp.commit("add host route")
        assert vmx.vcp.pending_changes == 0
        assert vmx.vcp.committed_version == 1

        def send2():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"after commit")

        def recv():
            packet = yield h1.recv()
            return packet.parse_udp()[3]

        env.process(send2())
        p = env.process(recv())
        assert env.run(until=p) == b"after commit"

    def test_rollback_discards_candidate(self):
        env = Environment()
        vmx = VirtualMX(env)
        vmx.vcp.set_route(IPv4Address("10.0.0.2"), f"{vmx.vfp.name}.p1")
        assert vmx.vcp.rollback() == 1
        assert vmx.vcp.pending_changes == 0
        vmx.vcp.commit()
        assert IPv4Address("10.0.0.2") not in vmx.vfp.route_table

    def test_application_install_via_commit(self):
        env = Environment()
        vmx = VirtualMX(env)

        class App(TrioApplication):
            pass

        app = App()
        vmx.vcp.set_application(app)
        assert vmx.vfp.app is None
        vmx.vcp.commit()
        assert vmx.vfp.app is app

    def test_commit_history(self):
        env = Environment()
        vmx = VirtualMX(env)
        vmx.vcp.set_route(IPv4Address("10.0.0.2"), f"{vmx.vfp.name}.p0")
        vmx.vcp.commit("first")
        vmx.vcp.commit("empty")
        assert [c.version for c in vmx.vcp.history] == [1, 2]
        assert vmx.vcp.history[0].description == "first"


class TestVFPTiming:
    def test_vfp_config_is_software_class(self):
        hw = GENERATIONS[5]
        assert VMX_VFP_CONFIG.num_ppes < hw.num_ppes
        assert VMX_VFP_CONFIG.num_rmw_engines < hw.num_rmw_engines
        # Software atomics deliver far fewer adds per second than the
        # hardware RMW complex.
        assert VMX_VFP_CONFIG.rmw_add32_rate_ops_s < hw.rmw_add32_rate_ops_s / 5

    def test_same_application_runs_slower_on_vmx(self):
        """Trio-ML runs unmodified on the VFP, with lower throughput."""
        from repro.harness import build_single_pfe_testbed
        from repro.trioml import TrioMLJobConfig

        def run(chipset):
            env = Environment()
            config = TrioMLJobConfig(grads_per_packet=256, window=8)
            testbed = build_single_pfe_testbed(
                env, config, num_workers=4, chipset=chipset
            )
            vector = [1] * (256 * 16)
            procs = testbed.run_allreduce([vector] * 4)
            env.run(until=env.all_of(procs))
            first = procs[0].value
            assert all(b.values == [4] * 256 for b in first)
            return env.now

    # hardware gen-5 vs x86 VFP
        hw_time = run(None)
        vfp_time = run(VMX_VFP_CONFIG)
        assert vfp_time > hw_time
