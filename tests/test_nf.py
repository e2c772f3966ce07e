"""Unit tests for the NF abstraction: base contract, registry, and the
three shipped NFs (firewall, telemetry, aggregate).

Chain compilation, placement, and execution are covered by
``test_nf_chain.py``; these tests pin the per-NF semantics the
placement-identity contract is built on.
"""

import pytest

from repro.nf import (
    AggregateNF,
    FirewallNF,
    NF,
    NFError,
    NFState,
    PacketView,
    STATE_COUNTER,
    STATE_HASH_ENTRIES,
    STATE_REGISTER_ARRAY,
    STATE_TIMER_THREADS,
    StateSpec,
    StrikePolicy,
    TelemetryNF,
    UnknownNFError,
    VERDICT_CONSUME,
    VERDICT_DROP,
    VERDICT_FORWARD,
    available_nfs,
    get_nf,
    register_nf,
    sweep_decision,
    unregister_nf,
)
from repro.nf.firewall import _SourceEntry
from repro.trioml.aggregator import TrioMLAggregator
from repro.trioml.protocol import TRIO_ML_UDP_PORT


def view(index=0, flow=(0x0A000001, 0xC0A80001, 1000, 2000),
         length=100, payload_len=16, payload_word=0):
    return PacketView(index=index, flow=flow, length=length,
                      payload_len=payload_len, payload_word=payload_word)


class TestStateSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(NFError, match="unknown state kind"):
            StateSpec("bloom_filter", "b", entries=4)

    def test_entries_floor(self):
        with pytest.raises(NFError, match="entries >= 1"):
            StateSpec(STATE_COUNTER, "c", entries=0)

    def test_timer_threads_floor(self):
        with pytest.raises(NFError, match="threads >= 1"):
            StateSpec(STATE_TIMER_THREADS, "t", threads=0)

    def test_sram_bits(self):
        assert StateSpec(STATE_REGISTER_ARRAY, "r", entries=100,
                         width_bits=32).sram_bits == 3200
        assert StateSpec(STATE_TIMER_THREADS, "t", threads=4).sram_bits == 0


class TestNFDefaults:
    def test_pisa_registers_derived_from_state(self):
        class Sample(NF):
            name = "sample"

            def state_resources(self):
                return (
                    StateSpec(STATE_HASH_ENTRIES, "keys", entries=64,
                              width_bits=32),
                    StateSpec(STATE_COUNTER, "hits", entries=8,
                              width_bits=64),
                    StateSpec(STATE_TIMER_THREADS, "sweep", threads=2),
                )

        regs = Sample().pisa_registers()
        # Hash state widens to 64-bit pairs; timers need no registers.
        assert regs == (("sample.keys", 64, 64), ("sample.hits", 8, 64))

    def test_budget_helpers(self):
        nf = FirewallNF(max_sources=128, review_threads=3)
        assert nf.hash_entries() == 128
        assert nf.timer_threads() == 3
        assert nf.trio_state_ops_per_packet() == (1, 1)

    def test_trio_instruction_charge_adds_parse_bound(self):
        nf = TelemetryNF()
        assert nf.trio_instructions_per_packet(4.0) == pytest.approx(
            4.0 + nf.trio_body_instructions
        )


class TestRegistry:
    def test_defaults_registered(self):
        assert {"firewall", "telemetry", "aggregate"} <= set(available_nfs())

    def test_lookup_case_insensitive(self):
        assert get_nf("FIREWALL") is get_nf("firewall")

    def test_unknown_name(self):
        with pytest.raises(UnknownNFError, match="nonesuch"):
            get_nf("nonesuch")

    def test_register_unregister_roundtrip(self):
        nf = TelemetryNF(max_flows=32)
        nf.name = "telemetry-small"
        register_nf(nf)
        try:
            assert get_nf("telemetry-small") is nf
        finally:
            unregister_nf("telemetry-small")
        with pytest.raises(UnknownNFError):
            get_nf("telemetry-small")


class TestStrikePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            StrikePolicy(strike_threshold=0)
        with pytest.raises(ValueError):
            StrikePolicy(rehab_quiet_intervals=0)

    def test_blocks_at_threshold(self):
        policy = StrikePolicy(strike_threshold=3)
        entry = _SourceEntry()
        assert policy.review(entry, offended=True, ref_seen=True) is None
        assert policy.review(entry, offended=True, ref_seen=True) is None
        assert policy.review(entry, offended=True, ref_seen=True) == "block"
        assert entry.blocked and entry.strikes == 3

    def test_rehabilitation_needs_consecutive_quiet(self):
        policy = StrikePolicy(strike_threshold=1, rehab_quiet_intervals=2)
        entry = _SourceEntry()
        assert policy.review(entry, offended=True, ref_seen=True) == "block"
        assert policy.review(entry, False, ref_seen=False) is None
        # Traffic resets the quiet streak.
        assert policy.review(entry, False, ref_seen=True) is None
        assert entry.quiet_intervals == 0
        assert policy.review(entry, False, ref_seen=False) is None
        assert policy.review(entry, False, ref_seen=False) == "unblock"
        assert not entry.blocked and entry.strikes == 0

    def test_unblocked_source_never_reblocked_without_new_strikes(self):
        policy = StrikePolicy(strike_threshold=2)
        entry = _SourceEntry(strikes=5, blocked=True)
        # Already blocked: further offences add strikes, no new event.
        assert policy.review(entry, offended=True, ref_seen=True) is None
        assert entry.strikes == 6


class TestSweepDecision:
    def test_heavy_hitter_exported(self):
        assert sweep_decision(128, 128, ref_seen=True) == (True, False)
        assert sweep_decision(127, 128, ref_seen=True) == (False, False)

    def test_silent_flow_retired(self):
        assert sweep_decision(0, 128, ref_seen=False) == (False, True)


class TestFirewallNF:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FirewallNF(allowed_packets_per_epoch=0)
        with pytest.raises(ValueError):
            FirewallNF(epoch_packets=0)

    def test_budget_policing(self):
        nf = FirewallNF(allowed_packets_per_epoch=2)
        state = NFState()
        pkt = view()
        assert nf.process(state, pkt) == VERDICT_FORWARD
        assert nf.process(state, pkt) == VERDICT_FORWARD
        assert nf.process(state, pkt) == VERDICT_DROP
        assert state.counters["packets_dropped_policer"] == 1

    def test_block_after_strikes_then_rehabilitate(self):
        nf = FirewallNF(allowed_packets_per_epoch=1, strike_threshold=2,
                        rehab_quiet_epochs=2)
        state = NFState()
        pkt = view()
        for epoch in range(2):
            nf.process(state, pkt)
            nf.process(state, pkt)  # over budget -> offence this epoch
            nf.on_epoch(state, epoch)
        assert state.table[pkt.src_ip].blocked
        assert ("block", 1, pkt.src_ip, 2) in state.exports
        # Blocked traffic is dropped first-instruction.
        assert nf.process(state, pkt) == VERDICT_DROP
        assert state.counters["packets_blocked"] == 1
        # That packet set the REF flag, so epoch 2 is not quiet.
        nf.on_epoch(state, 2)
        nf.on_epoch(state, 3)
        nf.on_epoch(state, 4)
        assert not state.table[pkt.src_ip].blocked
        assert ("unblock", 4, pkt.src_ip, 0) in state.exports

    def test_table_capacity_forwards_unpoliced(self):
        nf = FirewallNF(max_sources=1)
        state = NFState()
        assert nf.process(state, view()) == VERDICT_FORWARD
        other = view(flow=(0x0A000002, 0xC0A80001, 1000, 2000))
        assert nf.process(state, other) == VERDICT_FORWARD
        assert state.counters["packets_unpoliced"] == 1


class TestTelemetryNF:
    def test_heavy_hitter_export(self):
        nf = TelemetryNF(heavy_hitter_packets_per_epoch=3)
        state = NFState()
        pkt = view(length=100)
        for __ in range(3):
            assert nf.process(state, pkt) == VERDICT_FORWARD
        nf.on_epoch(state, 0)
        assert state.exports == [("hh", 0, pkt.flow, 3, 300)]
        assert state.counters["reports_exported"] == 1

    def test_silent_flow_retired(self):
        nf = TelemetryNF()
        state = NFState()
        nf.process(state, view())
        nf.on_epoch(state, 0)  # seen this epoch: kept
        assert len(state.table) == 1
        nf.on_epoch(state, 1)  # silent: retired
        assert not state.table
        assert state.counters["flows_retired"] == 1

    def test_capacity_forwards_uncounted(self):
        nf = TelemetryNF(max_flows=1)
        state = NFState()
        nf.process(state, view())
        nf.process(state, view(flow=(1, 2, 3, 4)))
        assert state.counters["flows_dropped_capacity"] == 1


class TestAggregateNF:
    AGG_FLOW = (0x0A010001, 0x0AC80001, 4000, TRIO_ML_UDP_PORT)

    def test_non_aggregation_traffic_passes_through(self):
        nf = AggregateNF()
        state = NFState()
        assert nf.process(state, view()) == VERDICT_FORWARD
        assert state.counters["packets_passthrough"] == 1

    def test_window_completion_emits_result(self):
        nf = AggregateNF(window=3)
        state = NFState()
        for i in range(2):
            pkt = view(flow=self.AGG_FLOW, payload_word=10 + i)
            assert nf.process(state, pkt) == VERDICT_CONSUME
        final = view(flow=self.AGG_FLOW, payload_word=12)
        assert nf.process(state, final) == VERDICT_FORWARD
        group = self.AGG_FLOW[1]
        assert state.exports == [("agg", group, 0, 3, 33)]
        assert state.table[group].count == 0

    def test_stalled_block_flushed_degraded(self):
        nf = AggregateNF(window=16)
        state = NFState()
        nf.process(state, view(flow=self.AGG_FLOW, payload_word=5))
        nf.on_epoch(state, 0)  # progress since "last" epoch: kept
        nf.on_epoch(state, 1)  # no progress for a full epoch: flushed
        group = self.AGG_FLOW[1]
        assert state.exports == [("agg-degraded", group, 0, 1, 5)]
        assert state.counters["blocks_degraded"] == 1

    def test_state_resources_anchor_to_aggregator(self):
        nf = AggregateNF(window=16, max_groups=8, grads_per_packet=4,
                         straggler_threads=2)
        specs = TrioMLAggregator.nf_state_resources(
            max_blocks=8, grads_per_block=4, timer_threads=2
        )
        assert nf.state_resources() == specs
        kinds = [spec.kind for spec in specs]
        assert kinds == [STATE_HASH_ENTRIES, STATE_REGISTER_ARRAY,
                         STATE_COUNTER, STATE_TIMER_THREADS]
        # Without timers the sweep spec disappears (the data-path-only
        # deployment of §4).
        assert len(TrioMLAggregator.nf_state_resources(8, 4)) == 3
