"""Dynamic happens-before race validator for shared data-plane state.

The static MC4xx pass (:mod:`repro.microcode.analysis`) proves atomicity
properties about *Microcode programs*; this module validates the same
contract at *runtime* over everything the simulator executes — Microcode
or native application handlers.  When enabled, every shared-memory XTXN
in :mod:`repro.trio.memory` and every hash-block operation in
:mod:`repro.trio.hashtable` records a **window**: the actor (PPE thread
id), the byte extent touched, whether the operation is engine-serialized
(RMW) or plain, and the simulated-time interval from issue to
completion.  :meth:`RaceCheckSession.analyze` then searches the recorded
windows for happens-before violations:

* **lost update** — one actor performs a plain read followed by a plain
  write of an overlapping shared extent, and some *other* actor's write
  (plain or RMW) commits strictly inside that read→write span.  This is
  the runtime shadow of the static ``MC401``: whatever the other thread
  wrote is silently overwritten.
* **concurrent conflict** — two *plain* accesses from different actors,
  at least one a write, touch overlapping extents in strictly
  overlapping time windows.  The FCFS engine will pick an order, but
  the outcome depends on arrival timing — the runtime shadow of
  ``MC402``.

RMW-vs-anything overlaps are never flagged: delegation to the engine
owning the address *is* the §2.3 synchronization contract (this is why
the fig14 straggler path — a timer thread's ``bulk_read`` racing a
straggler's ``bulk_add32`` — is correct and stays quiet).

One recording gate: a :class:`RaceCheckSession` is an obs-bus session
(:class:`~repro.obs.bus.ObsSession`) that keeps the shared-state probes
a plain session drops, and :func:`enable` pushes it on the one session
stack.  A race-check run is thus an observed run — bit-identical to an
unobserved one — and ``obs.suppressed()`` silences the checker too, so
a reference microsim's restarted clock never splices into the windows.

Determinism contract (detlint-enforced): no wall clock, no randomness;
every timestamp is simulated seconds passed in by the call site.

Run the CI scenarios from the command line::

    python -m repro.tools.racecheck builtins --expect-clean
    python -m repro.tools.racecheck injected --expect-races 1
    python -m repro.tools.racecheck fig14 --expect-clean
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.obs import bus as _obs

__all__ = [
    "RaceCheckSession",
    "RaceFinding",
    "enable",
    "disable",
    "main",
]

#: Bucket granule for the pair search — matches the RMW engine address
#: interleave, so accesses that could meet at an engine share a bucket.
_BUCKET_BYTES = 64


@dataclass(frozen=True)
class RaceFinding:
    """One detected happens-before violation."""

    kind: str                 # "lost_update" | "concurrent_conflict"
    space: str                # "mem" | "hash"
    lo: int                   # overlapping extent [lo, hi)
    hi: int
    actors: Tuple[str, str]   # (victim, other) for lost updates
    window: Tuple[float, float]
    detail: str

    def describe(self) -> str:
        start, end = self.window
        return (f"{self.kind}: {self.space}[{self.lo:#x}..{self.hi:#x}) "
                f"actors {self.actors[0]} vs {self.actors[1]} during "
                f"[{start * 1e9:.1f}ns, {end * 1e9:.1f}ns): {self.detail}")


class _Access:
    """One recorded shared-state access window."""

    __slots__ = ("actor", "op", "atomic", "space", "addr", "size",
                 "start", "end", "index")

    def __init__(self, actor: str, op: str, atomic: bool, space: str,
                 addr: int, size: int, start: float, end: float,
                 index: int):
        self.actor = actor
        self.op = op            # "read" | "write"
        self.atomic = atomic    # served by an RMW engine / hash block
        self.space = space
        self.addr = addr
        self.size = size
        self.start = start
        self.end = end
        self.index = index

    def overlaps_extent(self, other: "_Access") -> bool:
        return (self.space == other.space
                and self.addr < other.addr + other.size
                and other.addr < self.addr + self.size)


class RaceCheckSession(_obs.ObsSession):
    """An obs session that records shared-state access windows."""

    def __init__(self) -> None:
        super().__init__()
        self.accesses: List[_Access] = []
        self._anon = itertools.count()
        self._actor_names: Dict[object, str] = {}
        self._hash_keys: Dict[Hashable, int] = {}
        #: Per-op commits observed at the RMW engines while recording
        #: (engine index -> count); populated by :mod:`repro.trio.rmw`.
        self.engine_commits: Dict[int, int] = {}

    # -- recording (called from the trio models) ------------------------

    def record(self, actor: Optional[object], op: str, addr: int,
               size: int, start: float, end: float, *,
               atomic: bool = False, space: str = "mem") -> None:
        """Record one access window.

        ``actor`` is the PPE thread id when the access came through a
        :class:`~repro.trio.ppe.ThreadContext`; unattributed accesses
        (harness code driving the memory directly) each get a unique
        anonymous actor so they can never fabricate a same-actor
        read→write pair.  Actor ids intern to first-seen-order labels
        (``t0``, ``t1``, ...) so reports are byte-identical across runs
        even though the raw thread-id counter is process-global.
        """
        if actor is None:
            name = f"anon#{next(self._anon)}"
        else:
            interned = self._actor_names.get(actor)
            if interned is None:
                interned = f"t{len(self._actor_names)}"
                self._actor_names[actor] = interned
            name = interned
        self.accesses.append(_Access(
            name, op, atomic, space, addr, max(size, 1), start, end,
            len(self.accesses),
        ))

    def record_hash(self, actor: Optional[object], op: str, key: Hashable,
                    start: float, end: float) -> None:
        """Record a hash-block op; keys intern to a synthetic key space."""
        index = self._hash_keys.get(key)
        if index is None:
            index = len(self._hash_keys)
            self._hash_keys[key] = index
        self.record(actor, op, index, 1, start, end, atomic=True,
                    space="hash")

    def note_engine_commit(self, engine_index: int) -> None:
        """Count a per-op commit at one RMW engine (serialization proof)."""
        self.engine_commits[engine_index] = (
            self.engine_commits.get(engine_index, 0) + 1
        )

    # -- analysis -------------------------------------------------------

    def analyze(self) -> List[RaceFinding]:
        """Search the recorded windows for happens-before violations."""
        findings: List[RaceFinding] = []
        seen: set = set()
        self._find_concurrent_conflicts(findings, seen)
        self._find_lost_updates(findings, seen)
        findings.sort(key=lambda f: (f.window[0], f.space, f.lo, f.kind))
        return findings

    def _buckets(self, accesses: Sequence[_Access]
                 ) -> Dict[Tuple[str, int], List[_Access]]:
        buckets: Dict[Tuple[str, int], List[_Access]] = {}
        for access in accesses:
            first = access.addr // _BUCKET_BYTES
            last = (access.addr + access.size - 1) // _BUCKET_BYTES
            for bucket in range(first, last + 1):
                buckets.setdefault((access.space, bucket), []).append(access)
        return buckets

    def _find_concurrent_conflicts(self, findings: List[RaceFinding],
                                   seen: set) -> None:
        plain = [a for a in self.accesses if not a.atomic]
        for bucket_accesses in self._buckets(plain).values():
            bucket_accesses.sort(key=lambda a: (a.start, a.index))
            for i, first in enumerate(bucket_accesses):
                for second in bucket_accesses[i + 1:]:
                    if second.start >= first.end:
                        break  # sorted by start: nothing later overlaps
                    if first.actor == second.actor:
                        continue
                    if first.op == "read" and second.op == "read":
                        continue
                    if not first.overlaps_extent(second):
                        continue
                    lo = max(first.addr, second.addr)
                    hi = min(first.addr + first.size,
                             second.addr + second.size)
                    # One finding per (kind, location): sixteen threads
                    # hammering one counter is one race, not 120.
                    key = ("concurrent_conflict", first.space, lo)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(RaceFinding(
                        kind="concurrent_conflict",
                        space=first.space, lo=lo, hi=hi,
                        actors=(first.actor, second.actor),
                        window=(max(first.start, second.start),
                                min(first.end, second.end)),
                        detail=(f"plain {first.op} and plain {second.op} "
                                "in overlapping windows; outcome depends "
                                "on XTXN arrival order"),
                    ))

    def _find_lost_updates(self, findings: List[RaceFinding],
                           seen: set) -> None:
        # Candidate victim spans: same actor, plain read then plain write
        # of an overlapping extent with no intervening atomic op by that
        # actor on the same extent.
        writes_by_bucket = self._buckets(
            [a for a in self.accesses if a.op == "write"])
        by_actor: Dict[str, List[_Access]] = {}
        for access in self.accesses:
            by_actor.setdefault(access.actor, []).append(access)
        for actor, accesses in by_actor.items():
            accesses.sort(key=lambda a: (a.start, a.index))
            for i, read in enumerate(accesses):
                if read.op != "read" or read.atomic:
                    continue
                for later in accesses[i + 1:]:
                    if not read.overlaps_extent(later):
                        continue
                    if later.atomic:
                        break  # the actor synchronized; span is closed
                    if later.op != "write":
                        continue
                    self._scan_span(read, later, writes_by_bucket,
                                    findings, seen)
                    break  # only the first read->write pairing
        return

    def _scan_span(self, read: _Access, write: _Access,
                   writes_by_bucket: Dict[Tuple[str, int], List[_Access]],
                   findings: List[RaceFinding], seen: set) -> None:
        first = read.addr // _BUCKET_BYTES
        last = (read.addr + read.size - 1) // _BUCKET_BYTES
        for bucket in range(first, last + 1):
            for other in writes_by_bucket.get((read.space, bucket), ()):
                if other.actor == read.actor:
                    continue
                if not other.overlaps_extent(read):
                    continue
                # The other writer's commit lands strictly inside the
                # victim's read->write span: its update is overwritten.
                if not (read.start < other.end < write.end):
                    continue
                lo = max(read.addr, other.addr)
                hi = min(read.addr + read.size, other.addr + other.size)
                key = ("lost_update", read.space, lo)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(RaceFinding(
                    kind="lost_update",
                    space=read.space, lo=lo, hi=hi,
                    actors=(read.actor, other.actor),
                    window=(read.start, write.end),
                    detail=(f"actor {read.actor} read at "
                            f"{read.start * 1e9:.1f}ns and wrote back at "
                            f"{write.end * 1e9:.1f}ns; actor "
                            f"{other.actor}'s {'RMW ' if other.atomic else ''}"
                            f"write committed at {other.end * 1e9:.1f}ns "
                            "in between and is overwritten"),
                ))

    def summary(self) -> Dict[str, int]:
        plain = sum(1 for a in self.accesses if not a.atomic)
        return {
            "accesses": len(self.accesses),
            "plain": plain,
            "atomic": len(self.accesses) - plain,
            "hash_keys": len(self._hash_keys),
            "engine_commits": sum(self.engine_commits.values()),
        }


# ----------------------------------------------------------------------
# The gate: a race session on the obs bus's session stack
# ----------------------------------------------------------------------

def enable() -> RaceCheckSession:
    """Start recording shared-state access windows (stackable)."""
    new_session = RaceCheckSession()
    _obs.push(new_session)
    return new_session


def disable() -> Optional[RaceCheckSession]:
    """Stop the active race session and return it (finalized).

    Pops only a race session: with a plain obs session (or none)
    active, returns ``None`` and leaves the stack alone.
    """
    active = _obs.session()
    if not isinstance(active, RaceCheckSession):
        return None
    _obs.disable()
    return active


# ----------------------------------------------------------------------
# CI scenarios
# ----------------------------------------------------------------------

#: The intentionally racy Microcode program: the textbook MC401 lost
#: update (plain load -> register add -> plain store), run by many
#: concurrent packet threads against one shared DMEM word.
RACY_COUNTER_SOURCE = """
// Shared DMEM hit counter, updated the WRONG way: load/modify/store.
const HIT_CNT = 64;
reg r_cnt;

count: begin
    DmemLoad(r_cnt, HIT_CNT);
    r_cnt = r_cnt + 1;
    DmemStore(HIT_CNT, r_cnt);
    goto done;
end
"""

#: The RMW-correct twin: the same counter through the engine.
SAFE_COUNTER_SOURCE = """
// Shared DMEM hit counter, updated the RIGHT way: one RMW add.
const HIT_CNT = 64;

count: begin
    DmemAdd32(HIT_CNT, 1);
    goto done;
end
"""


def _run_microcode_threads(source: str, num_threads: int,
                           stagger_s: float = 10e-9) -> Tuple[int, int]:
    """Run ``num_threads`` packet threads of ``source`` on one PFE.

    Threads start ``stagger_s`` apart — well inside the ~70 ns XTXN
    latency, so the load/store windows of neighbouring threads overlap.
    Returns (final counter value, number of threads).
    """
    from repro.microcode import MicrocodeExecutor, TrioCompiler
    from repro.net import IPv4Address, MACAddress, Packet
    from repro.sim import Environment
    from repro.trio import PFE
    from repro.trio.ppe import PacketContext, ThreadContext

    program = TrioCompiler(extern_labels=("done",)).compile(
        source, entry="count")

    def done(tctx: object, pctx: object) -> Iterator[object]:
        return
        yield  # pragma: no cover - zero-event terminal

    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=1)

    def one_thread(delay_s: float) -> Iterator[object]:
        yield env.delay(delay_s)
        packet = Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=IPv4Address("1.1.1.1"), dst_ip=IPv4Address("2.2.2.2"),
            src_port=1, dst_port=2, payload=b"x" * 20,
        )
        head, tail = packet.split(pfe.config.head_size_bytes)
        pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
        tctx = ThreadContext(
            env=env, ppe=pfe.ppes[0], config=pfe.config,
            memory=pfe.memory, hash_table=pfe.hash_table, packet_ctx=pctx,
        )
        executor = MicrocodeExecutor(program, terminals={"done": done})
        yield from executor.run(tctx, pctx)

    for i in range(num_threads):
        env.process(one_thread(i * stagger_s))
    env.run()
    final = int.from_bytes(pfe.memory.read_raw(64, 4), "little")
    return final, num_threads


def _scenario_injected() -> Tuple[List[RaceFinding], Dict[str, int]]:
    """The intentionally racy program: must detect the lost update."""
    rc = enable()
    final, threads = _run_microcode_threads(RACY_COUNTER_SOURCE, 16)
    disable()
    findings = rc.analyze()
    stats = rc.summary()
    stats["counter_final"] = final
    stats["counter_expected"] = threads
    stats["updates_lost"] = threads - final
    return findings, stats


def _scenario_builtins() -> Tuple[List[RaceFinding], Dict[str, int]]:
    """Builtin programs (plus the RMW-correct counter twin): no races."""
    from repro.microcode.programs import build_filter_executor
    from repro.net import IPv4Address, MACAddress, Packet
    from repro.sim import Environment
    from repro.trio import PFE
    from repro.trio.ppe import PacketContext, ThreadContext

    rc = enable()
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=1)
    executor = build_filter_executor()

    def one_packet(delay_s: float, drop_me: bool) -> Iterator[object]:
        yield env.delay(delay_s)
        packet = Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("10.0.0.2"),
            src_port=1000, dst_port=53, payload=b"x" * 64,
        )
        head, tail = packet.split(pfe.config.head_size_bytes)
        head = bytearray(head)
        if drop_me:
            # Corrupt the ethertype: the filter sends the packet down
            # the count_dropped path, exercising the shared drop
            # counter via CounterIncPhys — the RMW-correct pattern the
            # checker must stay quiet about even under concurrency.
            head[12:14] = b"\x86\xdd"
        pctx = PacketContext(packet=packet, head=head, tail=tail)
        tctx = ThreadContext(
            env=env, ppe=pfe.ppes[0], config=pfe.config,
            memory=pfe.memory, hash_table=pfe.hash_table, packet_ctx=pctx,
        )
        yield from executor.run(tctx, pctx)

    for i in range(32):
        env.process(one_packet(i * 5e-9, i % 2 == 0))
    env.run()

    final, threads = _run_microcode_threads(SAFE_COUNTER_SOURCE, 16)
    disable()
    findings = rc.analyze()
    stats = rc.summary()
    stats["counter_final"] = final
    stats["counter_expected"] = threads
    return findings, stats


def _scenario_fig14() -> Tuple[List[RaceFinding], Dict[str, int]]:
    """A fig14-shaped Trio-ML slice (straggler detector on): no races."""
    from repro.harness import experiments as exp

    rc = enable()
    try:
        exp.profile_dataplane_slice(blocks=6, grads_per_packet=256,
                                    timeout_ms=2.5, detector_threads=8)
    finally:
        disable()
    return rc.analyze(), rc.summary()


_SCENARIOS = {
    "builtins": _scenario_builtins,
    "injected": _scenario_injected,
    "fig14": _scenario_fig14,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.racecheck",
        description="Dynamic happens-before validation of shared "
                    "data-plane state (the runtime side of the MC4xx "
                    "static checks).",
    )
    parser.add_argument("scenario", choices=sorted(_SCENARIOS),
                        help="workload to record and analyze")
    parser.add_argument("--expect-clean", action="store_true",
                        help="exit non-zero if any race is detected")
    parser.add_argument("--expect-races", type=int, default=None,
                        metavar="N",
                        help="exit non-zero unless exactly N distinct "
                             "racy locations are detected")
    args = parser.parse_args(argv)

    findings, stats = _SCENARIOS[args.scenario]()
    racy_locations = {(f.space, f.lo) for f in findings}

    print(f"== racecheck {args.scenario}")
    for key in sorted(stats):
        print(f"  {key}: {stats[key]}")
    if findings:
        print(f"  {len(findings)} race(s):")
        for finding in findings:
            print(f"    {finding.describe()}")
    else:
        print("  no races detected")

    if args.expect_clean and findings:
        print(f"FAIL: expected no races, found {len(findings)}",
              file=sys.stderr)
        return 1
    if (args.expect_races is not None
            and len(racy_locations) != args.expect_races):
        print(f"FAIL: expected {args.expect_races} racy location(s), "
              f"found {len(racy_locations)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
