"""Tests for multi-device hierarchical aggregation (§4).

"Hierarchical aggregation can be extended to work across multiple devices
by setting the destination IP of the Result packet to the IP address of
next-level aggregator and relying on IP forwarding to unicast the packet.
The top-level aggregator will, of course, multicast the final result back
to the servers."
"""

from repro.net import IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE
from repro.trioml import (
    TrioMLJobConfig,
    TrioMLWorker,
    setup_remote_first_level_job,
    setup_single_level_job,
)


def build_two_device_hierarchy(env, grads_per_packet=64, window=4):
    """Device A (leaf) aggregates two local workers and unicasts partials
    to device B (top), which aggregates two local workers plus device A
    and multicasts the final Result back through A."""
    topo = Topology(env)
    group_ip = IPv4Address("239.8.8.8")
    service_a = IPv4Address("10.255.0.1")
    service_b = IPv4Address("10.255.0.2")

    device_a = PFE(env, "deviceA", num_ports=3)
    device_b = PFE(env, "deviceB", num_ports=3)
    # Port 2 on each device is the inter-device uplink.
    topo.connect(device_a.port(2), device_b.port(2))

    config_a = TrioMLJobConfig(job_id=1, grads_per_packet=grads_per_packet,
                               window=window, service_ip=service_a,
                               group_ip=group_ip)
    config_b = TrioMLJobConfig(job_id=1, grads_per_packet=grads_per_packet,
                               window=window, service_ip=service_b,
                               group_ip=group_ip)

    def make_worker(pfe, config, name, src_id, index, host_index):
        worker = TrioMLWorker(
            env, name=name, src_id=src_id, job_id=1,
            mac=MACAddress(0x30 + host_index),
            ip=IPv4Address(f"10.8.0.{host_index + 1}"),
            router_mac=config.router_mac, service_ip=config.service_ip,
            grads_per_packet=grads_per_packet, window=window,
        )
        topo.connect(worker.nic.port, pfe.port(index))
        return worker

    a_workers = [make_worker(device_a, config_a, f"a{i}", i, i, i)
                 for i in range(2)]
    b_workers = [make_worker(device_b, config_b, f"b{i}", i, i, i + 2)
                 for i in range(2)]

    handle_a = setup_remote_first_level_job(
        device_a, config_a, a_workers,
        {w.name: device_a.port(i).name for i, w in enumerate(a_workers)},
        own_src_id=100,
        upstream_service_ip=service_b,
        uplink_port="deviceA.p2",
    )
    # Device B: its two local workers plus device A as source 100.
    handle_b = setup_single_level_job(
        device_b, config_b, b_workers,
        {w.name: device_b.port(i).name for i, w in enumerate(b_workers)},
        remote_src_ids=[100],
    )
    # Final results must also reach device A's workers: the uplink port
    # joins the group on B, and A forwards group traffic to its workers.
    device_b.multicast.join(group_ip, "deviceB.p2")

    return (device_a, device_b, a_workers, b_workers,
            handle_a, handle_b)


class TestMultiDeviceHierarchy:
    def test_four_workers_across_two_devices(self):
        env = Environment()
        (device_a, device_b, a_workers, b_workers,
         handle_a, handle_b) = build_two_device_hierarchy(env)
        grads = {
            worker: [(index + 1)] * 128
            for index, worker in enumerate(a_workers + b_workers)
        }
        procs = [env.process(w.allreduce(g)) for w, g in grads.items()]
        env.run(until=env.all_of(procs))
        expected = [1 + 2 + 3 + 4] * 64
        for proc in procs:
            assert all(block.values == expected for block in proc.value)

    def test_final_results_report_total_worker_count(self):
        env = Environment()
        __, __, a_workers, b_workers, __, __ = (
            build_two_device_hierarchy(env)
        )
        procs = [env.process(w.allreduce([1] * 64))
                 for w in a_workers + b_workers]
        env.run(until=env.all_of(procs))
        for proc in procs:
            assert proc.value[0].src_cnt == 4  # workers, not devices

    def test_leaf_device_emits_non_final_partials(self):
        env = Environment()
        (device_a, device_b, a_workers, b_workers,
         handle_a, handle_b) = build_two_device_hierarchy(env)
        procs = [env.process(w.allreduce([1] * 64))
                 for w in a_workers + b_workers]
        env.run(until=env.all_of(procs))
        # Device A produced one (non-final) partial per block...
        runtime_a = handle_a.runtimes["deviceA"]
        assert runtime_a.blocks_completed == 1
        assert not runtime_a.result_dst_ip.is_multicast
        assert runtime_a.top_pfe is None  # unicast, not over a fabric
        # ...which device B aggregated as source 100.
        aggregator_b = handle_b.aggregators["deviceB"]
        assert aggregator_b.packets_aggregated == 3  # 2 local + 1 remote

    def test_final_result_traverses_uplink_once_per_block(self):
        env = Environment()
        (device_a, device_b, a_workers, b_workers,
         __, __) = build_two_device_hierarchy(env)
        uplink_b = device_b.port(2)
        procs = [env.process(w.allreduce([1] * 256))  # 4 blocks
                 for w in a_workers + b_workers]
        env.run(until=env.all_of(procs))
        # Uplink B->A carries exactly the 4 final Results (A's workers
        # receive them via A's group membership after forwarding).
        assert uplink_b.tx_packets == 4
