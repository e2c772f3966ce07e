"""Tests: multiple concurrent aggregation jobs on one device (Figure 9),
per-job memory caps, and wide source bitmasks."""

from repro.net import IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE
from repro.trioml import TrioMLJobConfig, TrioMLWorker, setup_single_level_job


def make_worker(env, name, src_id, job_id, index, config, **kwargs):
    return TrioMLWorker(
        env, name=name, src_id=src_id, job_id=job_id,
        mac=MACAddress(0x10 + index), ip=IPv4Address(f"10.0.0.{index + 1}"),
        router_mac=config.router_mac, service_ip=config.service_ip,
        grads_per_packet=config.grads_per_packet, window=config.window,
        **kwargs,
    )


class TestMultipleJobs:
    def test_two_jobs_aggregate_independently(self):
        """Figure 9: multiple jobs, each with multiple blocks in flight,
        share the hash table and the aggregation buffers."""
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=4)
        topo = Topology(env)
        config1 = TrioMLJobConfig(job_id=1, grads_per_packet=64, window=4,
                                  group_ip=IPv4Address("239.1.1.1"))
        config2 = TrioMLJobConfig(job_id=2, grads_per_packet=64, window=4,
                                  group_ip=IPv4Address("239.2.2.2"))
        job1_workers, job2_workers = [], []
        ports1, ports2 = {}, {}
        for i in range(2):
            worker = make_worker(env, f"j1w{i}", i, 1, i, config1)
            topo.connect(worker.nic.port, pfe.port(i))
            ports1[worker.name] = pfe.port(i).name
            job1_workers.append(worker)
        for i in range(2):
            worker = make_worker(env, f"j2w{i}", i, 2, i + 2, config2)
            topo.connect(worker.nic.port, pfe.port(i + 2))
            ports2[worker.name] = pfe.port(i + 2).name
            job2_workers.append(worker)
        setup_single_level_job(pfe, config1, job1_workers, ports1)
        setup_single_level_job(pfe, config2, job2_workers, ports2)

        grads1 = [[1] * 256, [10] * 256]
        grads2 = [[100] * 256, [1000] * 256]
        procs = (
            [env.process(w.allreduce(g))
             for w, g in zip(job1_workers, grads1)]
            + [env.process(w.allreduce(g))
               for w, g in zip(job2_workers, grads2)]
        )
        env.run(until=env.all_of(procs))
        job1_result = [v for b in procs[0].value for v in b.values][:256]
        job2_result = [v for b in procs[2].value for v in b.values][:256]
        assert job1_result == [11] * 256     # jobs never cross-pollinate
        assert job2_result == [1100] * 256

    def test_same_aggregator_instance_serves_both_jobs(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        topo = Topology(env)
        config1 = TrioMLJobConfig(job_id=1, grads_per_packet=64, window=2)
        config2 = TrioMLJobConfig(job_id=2, grads_per_packet=64, window=2)
        w1 = make_worker(env, "w1", 0, 1, 0, config1)
        w2 = make_worker(env, "w2", 0, 2, 1, config2)
        topo.connect(w1.nic.port, pfe.port(0))
        topo.connect(w2.nic.port, pfe.port(1))
        handle1 = setup_single_level_job(
            pfe, config1, [w1], {"w1": pfe.port(0).name})
        handle2 = setup_single_level_job(
            pfe, config2, [w2], {"w2": pfe.port(1).name})
        assert handle1.aggregator is handle2.aggregator
        assert set(handle1.aggregator.jobs) == {1, 2}


class TestBlockCap:
    def test_block_cnt_max_bounds_concurrent_blocks(self):
        """Figure 17's block_cnt_max caps a job's concurrent aggregation
        blocks; over-cap packets are dropped (the sender's retransmission
        recovers them once blocks drain)."""
        env = Environment()
        config = TrioMLJobConfig(
            grads_per_packet=64, window=8,
            retransmit_timeout_s=0.001,
        )
        from repro.harness import build_single_pfe_testbed
        testbed = build_single_pfe_testbed(env, config, num_workers=2)
        runtime = next(iter(testbed.handle.runtimes.values()))
        runtime.record.block_cnt_max = 2  # tiny cap

        # Worker 0 rushes ahead: its window-8 burst creates up to 8 block
        # records before worker 1 contributes anything.
        def delayed(block_id):
            return 0.0005  # worker 1 lags behind every block

        testbed.workers[1].straggle_hook = delayed
        vector = [1] * (64 * 8)
        procs = testbed.run_allreduce([vector] * 2)
        env.run(until=env.all_of(procs))
        aggregator = testbed.handle.aggregator
        assert aggregator.block_cap_drops > 0
        # The cap was never violated...
        assert runtime.record.block_total_cnt == 8
        # ...and retransmission still completed every block exactly.
        flat = [v for b in procs[0].value for v in b.values]
        assert flat == [2] * 512

    def test_no_cap_drops_under_default_config(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=8)
        from repro.harness import build_single_pfe_testbed
        testbed = build_single_pfe_testbed(env, config, num_workers=2)
        procs = testbed.run_allreduce([[1] * 512] * 2)
        env.run(until=env.all_of(procs))
        assert testbed.handle.aggregator.block_cap_drops == 0


class TestWideSourceMasks:
    def test_source_ids_above_64_use_upper_mask_words(self):
        """Figure 17/18 carry four 64-bit masks for up to 256 sources;
        the RMW fetch-and-or must land in the right word."""
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=4)
        topo = Topology(env)
        config = TrioMLJobConfig(job_id=1, grads_per_packet=64, window=2)
        src_ids = (5, 70, 130, 200)  # one per mask word
        workers, ports = [], {}
        for index, src_id in enumerate(src_ids):
            worker = make_worker(env, f"w{index}", src_id, 1, index, config)
            topo.connect(worker.nic.port, pfe.port(index))
            ports[worker.name] = pfe.port(index).name
            workers.append(worker)
        setup_single_level_job(pfe, config, workers, ports)
        procs = [env.process(w.allreduce([w.src_id] * 64))
                 for w in workers]
        env.run(until=env.all_of(procs))
        total = sum(src_ids)
        for proc in procs:
            assert proc.value[0].values == [total] * 64
            assert proc.value[0].src_cnt == 4
