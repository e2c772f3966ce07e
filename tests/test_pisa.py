"""Unit tests for the PISA pipeline model and the Tofino switch."""

import pytest

from repro.net import Host, IPv4Address, MACAddress, Packet, Topology
from repro.pisa import (
    P4Program,
    PipelineError,
    PisaPipeline,
    RegisterArray,
    StageContext,
    TofinoSwitch,
)
from repro.pisa.pipeline import PassResult
from repro.sim import Environment


class TestRegisterArray:
    def test_values_masked_to_width(self):
        reg = RegisterArray("r", stage=0, size=4, width_bits=16)
        reg.write_raw(0, 0x1_2345)
        assert reg.read_raw(0) == 0x2345

    def test_index_bounds(self):
        reg = RegisterArray("r", stage=0, size=4)
        with pytest.raises(PipelineError):
            reg.read_raw(4)
        with pytest.raises(PipelineError):
            reg.write_raw(-1, 0)

    def test_invalid_width_rejected(self):
        with pytest.raises(PipelineError):
            RegisterArray("r", stage=0, size=4, width_bits=24)

    def test_invalid_size_rejected(self):
        with pytest.raises(PipelineError):
            RegisterArray("r", stage=0, size=0)

    def test_bits_footprint(self):
        assert RegisterArray("r", 0, 100, 32).bits == 3200


class TestStageContext:
    def make(self, num_stages=12):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe", num_stages=num_stages)
        return StageContext(pipeline)

    def test_stage_forward_only(self):
        ctx = self.make()
        ctx.stage(3)
        with pytest.raises(PipelineError, match="backwards"):
            ctx.stage(2)

    def test_stage_beyond_depth_rejected(self):
        ctx = self.make(num_stages=4)
        with pytest.raises(PipelineError):
            ctx.stage(4)

    def test_register_only_from_owning_stage(self):
        ctx = self.make()
        reg = RegisterArray("r", stage=5, size=4)
        with pytest.raises(PipelineError, match="stage"):
            ctx.read(reg, 0)
        ctx.stage(5)
        assert ctx.read(reg, 0) == 0

    def test_one_access_per_register_per_pass(self):
        ctx = self.make()
        reg = RegisterArray("r", stage=0, size=4)
        ctx.read(reg, 0)
        with pytest.raises(PipelineError, match="twice"):
            ctx.write(reg, 0, 1)

    def test_per_stage_access_budget(self):
        ctx = self.make()
        regs = [RegisterArray(f"r{i}", stage=0, size=1)
                for i in range(StageContext.MAX_ACCESSES_PER_STAGE + 1)]
        for reg in regs[:-1]:
            ctx.read(reg, 0)
        with pytest.raises(PipelineError, match="budget"):
            ctx.read(regs[-1], 0)

    def test_budget_resets_per_stage(self):
        ctx = self.make()
        limit = StageContext.MAX_ACCESSES_PER_STAGE
        for stage in (0, 1):
            ctx.stage(stage)
            for i in range(limit):
                ctx.read(RegisterArray(f"r{stage}_{i}", stage=stage, size=1), 0)

    def test_read_modify_write_atomic(self):
        ctx = self.make()
        reg = RegisterArray("r", stage=0, size=1)
        reg.write_raw(0, 10)
        old, new = ctx.read_modify_write(reg, 0, lambda v: v + 5)
        assert (old, new) == (10, 15)
        assert reg.read_raw(0) == 15


class TestPisaPipeline:
    def test_program_registers_validated_against_stage_budget(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe", num_stages=2)

        class Greedy(P4Program):
            def on_install(self, pipeline):
                # One register bigger than the per-stage SRAM budget.
                self.register("big", stage=0,
                              size=PisaPipeline.STAGE_SRAM_BITS // 32 + 1)

        with pytest.raises(PipelineError, match="budget"):
            pipeline.install(Greedy())

    def test_register_stage_placement_validated(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe", num_stages=2)

        class Misplaced(P4Program):
            def on_install(self, pipeline):
                self.register("r", stage=5, size=4)

        with pytest.raises(PipelineError, match="stage"):
            pipeline.install(Misplaced())

    def test_pass_latency_applied(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe", pass_latency_s=600e-9,
                                packet_rate_pps=1e9)
        emitted = []
        pipeline.set_emit_handler(lambda p, e: emitted.append(env.now))

        class Echo(P4Program):
            def process(self, ctx, packet, pass_index):
                return PassResult(emit=[(packet, "out")])

        pipeline.install(Echo())
        pipeline.submit(Packet(bytes(64)))
        env.run(until=1e-3)
        assert emitted == [pytest.approx(600e-9 + 1e-9)]

    def test_recirculation_consumes_extra_pass(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")
        done = []

        class TwoPass(P4Program):
            def process(self, ctx, packet, pass_index):
                if pass_index == 0:
                    return PassResult(recirculate=True)
                done.append(pass_index)
                return PassResult(dropped=True)

        pipeline.install(TwoPass())
        pipeline.submit(Packet(bytes(64)))
        env.run(until=1e-3)
        assert done == [1]
        assert pipeline.recirculations == 1
        assert pipeline.passes == 2

    def test_duplicate_register_name_rejected(self):
        program = P4Program()
        program.register("r", 0, 1)
        with pytest.raises(PipelineError):
            program.register("r", 1, 1)

    def test_no_program_drops(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")
        pipeline.submit(Packet(bytes(64)))
        env.run(until=1e-3)
        assert pipeline.drops == 1

    def test_admission_is_fifo_at_line_rate(self):
        # One packet per 1/pps (1 ns), shared by fresh and recirculated
        # packets: A's recirculation at 601 ns queues behind B, C and D,
        # offered at 600.5 ns and admitted at 601.5, 602.5 and 603.5 ns.
        env = Environment()
        pipeline = PisaPipeline(env, "pipe", pass_latency_s=600e-9,
                                packet_rate_pps=1e9)
        passes = []

        class Log(P4Program):
            def process(self, ctx, packet, pass_index):
                passes.append((packet.meta["name"], pass_index, env.now))
                return PassResult(recirculate=packet.meta["name"] == "A"
                                  and pass_index == 0, dropped=True)

        def offer(name):
            packet = Packet(bytes(64))
            packet.meta["name"] = name
            pipeline.submit(packet)

        pipeline.install(Log())
        for name in ("A", "A2", "A3"):
            offer(name)
        for name in "BCD":
            env.call_at(600.5e-9, offer, name)
        env.run()
        assert [(name, index) for name, index, __ in passes] == [
            ("A", 0), ("A2", 0), ("A3", 0),
            ("B", 0), ("C", 0), ("D", 0), ("A", 1)]
        assert [t for __, __, t in passes] == pytest.approx(
            [601e-9, 602e-9, 603e-9,
             1201.5e-9, 1202.5e-9, 1203.5e-9, 1204.5e-9], rel=0, abs=1e-18)

    def test_one_event_per_pass(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")
        before = env.scheduled_events
        for __ in range(5):
            pipeline.submit(Packet(bytes(64)))
        env.run()
        assert pipeline.drops == 5
        assert env.scheduled_events - before == 5

    @pytest.mark.parametrize("field, value", [
        ("packet_rate_pps", 0),
        ("packet_rate_pps", -1e9),
        ("packet_rate_pps", float("nan")),
        ("packet_rate_pps", float("inf")),
        ("pass_latency_s", -600e-9),
        ("pass_latency_s", float("nan")),
        ("pass_latency_s", float("inf")),
    ])
    def test_malformed_timing_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PisaPipeline(Environment(), "pipe", **{field: value})
        with pytest.raises(ValueError, match=field):
            TofinoSwitch(Environment(), **{field: value})


class _StageProgram(P4Program):
    """Counts packets in one register, then forwards the original."""

    def __init__(self, name, stage, size=4, width_bits=32):
        super().__init__()
        self.name = name
        self._stage = stage
        self._size = size
        self._width = width_bits

    def on_install(self, pipeline):
        self.counter = self.register(
            f"{self.name}.count", self._stage, self._size, self._width
        )

    def process(self, ctx, packet, pass_index):
        ctx.stage(self._stage)
        ctx.read_modify_write(self.counter, 0, lambda v: v + 1)
        return PassResult(emit=[(packet, "out")])


class TestInstallMany:
    def make(self, num_stages=12):
        return PisaPipeline(Environment(), "pipe", num_stages=num_stages)

    def test_stage_disjoint_programs_compose(self):
        pipeline = self.make()
        a = _StageProgram("a", stage=0)
        b = _StageProgram("b", stage=1)
        composed = pipeline.install_many([a, b])
        assert pipeline.program is composed
        assert set(composed.registers) == {"a.count", "b.count"}

    def test_empty_list_rejected(self):
        with pytest.raises(PipelineError, match="at least one"):
            self.make().install_many([])

    def test_register_name_collision_names_both_programs(self):
        a = _StageProgram("a", stage=0)
        b = _StageProgram("b", stage=1)
        b.name = "a"  # so both declare 'a.count'
        with pytest.raises(PipelineError,
                           match="declared by both 'a' and 'a'"):
            self.make().install_many([a, b])

    def test_stage_sharing_rejected(self):
        a = _StageProgram("a", stage=3)
        b = _StageProgram("b", stage=3)
        with pytest.raises(PipelineError, match="stage-disjoint"):
            self.make().install_many([a, b])

    def test_joint_sram_budget_enforced(self):
        # The SRAM check runs over the union of all composed programs'
        # registers, not just the last one installed.
        big = _StageProgram("big", stage=0,
                            size=PisaPipeline.STAGE_SRAM_BITS // 32 + 1)
        small = _StageProgram("small", stage=1)
        with pytest.raises(PipelineError, match="budget"):
            self.make().install_many([big, small])

    def test_composed_pass_runs_programs_in_order(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")
        a = _StageProgram("a", stage=0)
        b = _StageProgram("b", stage=1)
        pipeline.install_many([a, b])
        emitted = []
        pipeline.set_emit_handler(lambda p, e: emitted.append((p, e)))
        pipeline.submit(Packet(bytes(64)))
        env.run(until=1e-3)
        # Both programs saw the packet; the original egressed exactly once.
        assert a.counter.read_raw(0) == 1
        assert b.counter.read_raw(0) == 1
        assert len(emitted) == 1

    def test_drop_short_circuits_later_programs(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")

        class Dropper(P4Program):
            name = "dropper"

            def process(self, ctx, packet, pass_index):
                return PassResult(dropped=True)

        tail = _StageProgram("tail", stage=1)
        pipeline.install_many([Dropper(), tail])
        pipeline.submit(Packet(bytes(64)))
        env.run(until=1e-3)
        assert tail.counter.read_raw(0) == 0
        assert pipeline.drops == 1

    def test_extra_packets_emitted_immediately(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")
        clone = Packet(bytes(32))

        class Cloner(P4Program):
            name = "cloner"

            def process(self, ctx, packet, pass_index):
                return PassResult(emit=[(packet, "fwd"), (clone, "mirror")])

        tail = _StageProgram("tail", stage=1)
        pipeline.install_many([Cloner(), tail])
        emitted = []
        pipeline.set_emit_handler(lambda p, e: emitted.append((p, e)))
        original = Packet(bytes(64))
        pipeline.submit(original)
        env.run(until=1e-3)
        # The clone egresses; the original continues into 'tail' and
        # egresses last with the egress the last forwarder chose.
        assert emitted == [(clone, "mirror"), (original, "out")]
        assert tail.counter.read_raw(0) == 1

    def test_recirculation_short_circuits(self):
        env = Environment()
        pipeline = PisaPipeline(env, "pipe")

        class OnePassRecirc(P4Program):
            name = "recirc"

            def process(self, ctx, packet, pass_index):
                if pass_index == 0:
                    return PassResult(recirculate=True)
                return PassResult(emit=[(packet, "out")])

        tail = _StageProgram("tail", stage=1)
        pipeline.install_many([OnePassRecirc(), tail])
        pipeline.submit(Packet(bytes(64)))
        env.run(until=1e-3)
        # Pass 0 recirculated before 'tail' ran; pass 1 reached it.
        assert pipeline.recirculations == 1
        assert tail.counter.read_raw(0) == 1


class TestTofinoSwitch:
    def test_port_to_pipeline_mapping(self):
        env = Environment()
        switch = TofinoSwitch(env, num_pipelines=4, ports_per_pipeline=16)
        assert len(switch.ports) == 64
        assert switch.port(2, 5).name == "tofino.pipe2.p5"

    def test_l3_forwarding_between_hosts(self):
        env = Environment()
        switch = TofinoSwitch(env)

        class Forward(P4Program):
            def process(self, ctx, packet, pass_index):
                return PassResult(emit=[(packet, None)])

        switch.install(0, Forward())
        topo = Topology(env)
        h0 = Host(env, "h0", MACAddress(1), IPv4Address("10.0.0.1"))
        h1 = Host(env, "h1", MACAddress(2), IPv4Address("10.0.0.2"))
        topo.connect(h0.nic.port, switch.port(0, 0))
        topo.connect(h1.nic.port, switch.port(0, 1))
        switch.add_route(h1.ip, switch.port(0, 1).name)

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"via tofino")

        def recv():
            packet = yield h1.recv()
            return packet.parse_udp()[3]

        env.process(send())
        p = env.process(recv())
        assert env.run(until=p) == b"via tofino"

    def test_install_all_gives_independent_instances(self):
        env = Environment()
        switch = TofinoSwitch(env, num_pipelines=2)
        programs = switch.install_all(lambda: P4Program())
        assert programs[0] is not programs[1]

    def test_add_route_validates_port(self):
        env = Environment()
        switch = TofinoSwitch(env)
        with pytest.raises(ValueError):
            switch.add_route(IPv4Address("1.1.1.1"), "ghost")
