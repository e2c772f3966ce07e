"""Chain compiler, placement search, and the placement-identity contract.

The tentpole guarantee: every legal placement of a chain — any split
across Trio / PISA / host, serial or fanned across worker processes —
produces bit-identical per-flow verdicts, counters, and exports.  The
parametrized tests here execute the canonical chain under *every* legal
placement and compare full results, not just digests.
"""

import pytest

from repro.harness.experiments import DEFAULT_CHAIN, chains_sweep
from repro.nf import (
    BACKEND_HOST,
    BACKEND_PISA,
    BACKEND_TRIO,
    BACKENDS,
    ChainError,
    CROSSING_LATENCY_S,
    FirewallNF,
    TelemetryNF,
    compile_chain,
    enumerate_placements,
    generate_trace,
    greedy_place,
    parse_chain,
    register_nf,
    run_chain,
    unregister_nf,
)
from repro.nf.chain import main as chain_main


@pytest.fixture(scope="module")
def compiled():
    return compile_chain(DEFAULT_CHAIN)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(2048, seed=3)


@pytest.fixture(scope="module")
def reference(compiled, trace):
    """The all-host run: the semantic ground truth."""
    return run_chain(compiled.spec, compiled.nfs,
                     ("host", "host", "host"), trace)


class TestParseChain:
    def test_basic(self):
        assert parse_chain("Firewall -> TELEMETRY->aggregate") == (
            "firewall", "telemetry", "aggregate"
        )

    def test_empty_element_rejected(self):
        with pytest.raises(ChainError, match="empty element"):
            parse_chain("firewall -> -> aggregate")

    def test_empty_spec_rejected(self):
        with pytest.raises(ChainError):
            parse_chain("   ")

    def test_unknown_nf_rejected(self):
        with pytest.raises(ChainError, match="nonesuch"):
            compile_chain("firewall -> nonesuch")


class TestCompile:
    def test_canonical_chain_fully_feasible(self, compiled):
        for name in compiled.names:
            assert compiled.feasible_backends(name) == BACKENDS

    def test_parse_bounds_from_static_analysis(self, compiled):
        # The statically analysed worst-case instruction bounds of the
        # three parse front-ends (nf_firewall_parse, nf_telemetry_parse,
        # trio_ml_parse).
        assert compiled.parse_bounds == {
            "firewall": 3.0, "telemetry": 4.0, "aggregate": 6.0,
        }

    def test_no_warnings_for_shipped_nfs(self, compiled):
        assert compiled.warnings == []

    def test_costs_are_positive_and_crossings_counted(self, compiled):
        cost = compiled.placement_costs(("trio", "pisa", "host"))
        assert cost.crossings == 2
        assert all(c.per_packet_s > 0 for c in cost.nf_costs)
        assert cost.per_packet_s == pytest.approx(
            sum(c.per_packet_s for c in cost.nf_costs)
            + 2 * CROSSING_LATENCY_S
        )

    def test_missing_microcode_program_warns(self):
        nf = TelemetryNF()
        nf.name = "telemetry-noparse"
        nf.microcode_program = None
        register_nf(nf)
        try:
            result = compile_chain("telemetry-noparse")
            assert any("parse front-end" in w for w in result.warnings)
            assert result.parse_bounds["telemetry-noparse"] == 0.0
        finally:
            unregister_nf("telemetry-noparse")


class TestInfeasibility:
    def test_pisa_rejects_oversized_flow_table(self):
        nf = TelemetryNF(max_flows=100_000)
        nf.name = "telemetry-big"
        register_nf(nf)
        try:
            result = compile_chain("telemetry-big")
            backends = result.feasible_backends("telemetry-big")
            assert BACKEND_PISA not in backends
            assert BACKEND_TRIO in backends and BACKEND_HOST in backends
            reason = result.feasibility[("telemetry-big", BACKEND_PISA)].reason
            assert "budget" in reason
        finally:
            unregister_nf("telemetry-big")

    def test_trio_rejects_timer_overcommit(self):
        nf = FirewallNF(review_threads=64)  # hardware has 32
        nf.name = "firewall-timers"
        register_nf(nf)
        try:
            result = compile_chain("firewall-timers")
            assert BACKEND_TRIO not in result.feasible_backends(
                "firewall-timers"
            )
            reason = result.feasibility[
                ("firewall-timers", BACKEND_TRIO)
            ].reason
            assert "timer threads" in reason
        finally:
            unregister_nf("firewall-timers")

    def test_joint_trio_timer_budget(self):
        """Two NFs individually feasible on Trio can jointly overcommit."""
        left = FirewallNF(review_threads=20)
        left.name = "firewall-l"
        right = FirewallNF(review_threads=20)
        right.name = "firewall-r"
        register_nf(left)
        register_nf(right)
        try:
            result = compile_chain("firewall-l -> firewall-r")
            for name in result.names:
                assert BACKEND_TRIO in result.feasible_backends(name)
            problems = result.validate_placement(("trio", "trio"))
            assert any("40 timer threads" in p for p in problems)
            legal = enumerate_placements(result)
            assert ("trio", "trio") not in {
                option.placement for option in legal
            }
        finally:
            unregister_nf("firewall-l")
            unregister_nf("firewall-r")

    def test_unfeasible_everywhere_is_a_compile_error(self):
        nf = TelemetryNF(max_flows=2_000_000)  # beyond Trio hash budget
        nf.name = "telemetry-huge"
        nf.host_ns_per_packet = 100.0
        register_nf(nf)
        try:
            result = compile_chain("telemetry-huge")
            # Host remains the backstop; Trio and PISA both refuse.
            assert result.feasible_backends("telemetry-huge") == (
                BACKEND_HOST,
            )
        finally:
            unregister_nf("telemetry-huge")

    def test_placement_length_mismatch(self, compiled):
        assert compiled.validate_placement(("host",)) == [
            "placement names 1 backends for 3 NFs"
        ]


class TestPlacementSearch:
    def test_enumeration_sorted_by_cost(self, compiled):
        options = enumerate_placements(compiled)
        assert len(options) >= 2  # the acceptance bar: >= 2 feasible
        costs = [option.per_packet_s for option in options]
        assert costs == sorted(costs)

    def test_every_enumerated_placement_is_legal(self, compiled):
        for option in enumerate_placements(compiled):
            assert compiled.validate_placement(option.placement) == []

    def test_greedy_is_legal_and_priced(self, compiled):
        placement = greedy_place(compiled)
        assert compiled.validate_placement(placement) == []
        cheapest = enumerate_placements(compiled)[0].per_packet_s
        greedy_cost = compiled.placement_costs(placement).per_packet_s
        assert greedy_cost >= cheapest  # greedy is a heuristic


class TestPlacementIdentity:
    """The bit-identical contract, placement by placement."""

    LEGAL = [
        option.placement
        for option in enumerate_placements(compile_chain(DEFAULT_CHAIN))
    ]

    def test_full_cross_product_is_legal(self):
        assert len(self.LEGAL) == len(BACKENDS) ** 3

    @pytest.mark.parametrize(
        "placement", LEGAL, ids=[",".join(p) for p in LEGAL]
    )
    def test_placement_matches_reference(self, compiled, trace, reference,
                                         placement):
        result = run_chain(compiled.spec, compiled.nfs, placement, trace)
        assert result.flow_verdicts == reference.flow_verdicts
        assert result.nf_counters == reference.nf_counters
        assert result.nf_exports == reference.nf_exports
        assert result.fingerprint() == reference.fingerprint()

    def test_chain_actually_exercises_all_verdicts(self, reference):
        totals = [sum(t[i] for t in reference.flow_verdicts.values())
                  for i in range(3)]
        assert all(total > 0 for total in totals), (
            "trace must produce forwarded, dropped, AND consumed packets "
            f"for the identity check to mean anything: {totals}"
        )


class TestTrace:
    def test_deterministic_per_seed(self):
        assert generate_trace(256, seed=5) == generate_trace(256, seed=5)
        assert generate_trace(256, seed=5) != generate_trace(256, seed=6)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            generate_trace(0)


class TestHarnessSweep:
    def test_serial_and_parallel_rows_identical(self):
        serial = chains_sweep(packets=512, seed=1)
        fanned = chains_sweep(packets=512, seed=1, parallel=2)
        assert serial == fanned
        assert len({row.fingerprint for row in serial}) == 1
        assert sum(row.chosen for row in serial) == 1


class TestCli:
    def test_default_run_succeeds(self, capsys):
        assert chain_main(["--packets", "512"]) == 0
        out = capsys.readouterr().out
        assert "placement:" in out and "fingerprint" in out

    def test_validate_all_reports_one_fingerprint(self, capsys):
        assert chain_main(["--packets", "512", "--validate-all"]) == 0
        assert "1 distinct fingerprint(s)" in capsys.readouterr().out

    def test_unknown_nf_exits_1(self, capsys):
        assert chain_main(["firewall -> nonesuch"]) == 1
        assert "nonesuch" in capsys.readouterr().err

    def test_illegal_placement_exits_1(self, capsys):
        nf = TelemetryNF(max_flows=100_000)
        nf.name = "telemetry-big"
        register_nf(nf)
        try:
            code = chain_main(["telemetry-big", "--backend", "pisa",
                               "--packets", "64"])
        finally:
            unregister_nf("telemetry-big")
        assert code == 1
        assert "infeasible on pisa" in capsys.readouterr().err

    def test_werror_promotes_warnings(self, capsys):
        nf = TelemetryNF()
        nf.name = "telemetry-noparse"
        nf.microcode_program = None
        register_nf(nf)
        try:
            assert chain_main(["telemetry-noparse", "--werror"]) == 2
        finally:
            unregister_nf("telemetry-noparse")

    def test_explicit_placement_honoured(self, capsys):
        assert chain_main([DEFAULT_CHAIN, "--placement", "trio,host,pisa",
                           "--packets", "256"]) == 0
        assert "placement: trio,host,pisa" in capsys.readouterr().out

    @pytest.mark.parametrize("packets", ["0", "-5"])
    def test_packets_below_one_is_a_usage_error(self, capsys, packets):
        with pytest.raises(SystemExit) as exit_info:
            chain_main(["--packets", packets])
        assert exit_info.value.code == 2
        assert "--packets must be >= 1" in capsys.readouterr().err
