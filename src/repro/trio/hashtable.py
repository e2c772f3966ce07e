"""The hardware hash block with per-record REF flags (§5).

Trio's hash hardware supports lookup/insert/delete over the crossbar and a
per-record 'Recently Referenced' (REF) flag: set when a record is created
and whenever a lookup touches it.  Timer threads periodically walk the
table, test-and-clear each record's REF flag, and treat a clear flag as
"not accessed for at least one timer interval" — the straggler detection
primitive.

The table is bucketed; scans are partitioned into ``num_segments`` equal
bucket ranges so N timer threads can each walk 1/N of the table (§5,
"Multi-thread scanning of large hash tables").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.obs import bus as _obs
from repro.sim import Environment

__all__ = ["HardwareHashTable", "HashRecord"]


@dataclass
class HashRecord:
    """One record in the hash block.

    ``value`` is the application payload (e.g. a Trio-ML block record);
    ``ref_flag`` is the hardware REF bit.
    """

    key: Hashable
    value: Any
    ref_flag: bool = True

    def __repr__(self) -> str:
        return f"<HashRecord key={self.key!r} ref={self.ref_flag}>"


class HardwareHashTable:
    """Bucketed hash table with latency-charged operations and REF flags."""

    def __init__(
        self,
        env: Environment,
        num_buckets: int = 4096,
        op_latency_s: float = 70e-9,
        scan_entry_latency_s: float = 10e-9,
    ):
        """``op_latency_s`` is the PPE-observed latency of one hash XTXN
        (SRAM-class); ``scan_entry_latency_s`` is the per-record cost of a
        timer-thread scan step."""
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.env = env
        self.num_buckets = num_buckets
        self.op_latency_s = op_latency_s
        self.scan_entry_latency_s = scan_entry_latency_s
        # Buckets allocate lazily: a fresh table is one flat None-list, not
        # ``num_buckets`` empty dicts (constructed once per simulated PFE).
        self._buckets: List[Optional[Dict[Hashable, HashRecord]]] = (
            [None] * num_buckets
        )
        self._count = 0
        self.lookups = 0
        self.inserts = 0
        self.deletes = 0
        #: Display name used for obs tracks/labels; the owning PFE
        #: overrides it with a per-PFE name.
        self.obs_name = "hash"

    def __len__(self) -> int:
        return self._count

    def _bucket_of(self, key: Hashable) -> Dict[Hashable, HashRecord]:
        idx = _stable_hash(key) % self.num_buckets
        bucket = self._buckets[idx]
        if bucket is None:
            bucket = self._buckets[idx] = {}
        return bucket

    # ------------------------------------------------------------------
    # Latency-charged operations (generators)
    # ------------------------------------------------------------------

    def _xtxn(self, op: str, key: Hashable, pre_delay_s: float, actor,
              at: Optional[float]):
        """Charge one hash XTXN and record its window on the obs bus.

        The op leaves the issuing thread at ``at`` (its clock,
        ``env.now`` when None) plus ``pre_delay_s`` (its deferred charge)
        and completes in one kernel event (see ThreadContext.execute);
        the table is read or changed at completion.  ``actor``
        attributes the op for the racecheck validator; every hash op is
        per-key atomic in hardware, so these windows never conflict —
        they only serve as commit points for the analysis.
        """
        env = self.env
        if at is None:
            at = env.now
        yield env.delay_until(at + (pre_delay_s + self.op_latency_s))
        obs = _obs.session()
        if obs is not None:
            obs.record_hash(actor, op, key, at + pre_delay_s, env.now)

    def lookup(self, key: Hashable, pre_delay_s: float = 0.0, actor=None,
               at: Optional[float] = None):
        """Hash lookup XTXN; returns the record (REF set) or None."""
        yield from self._xtxn("read", key, pre_delay_s, actor, at)
        self.lookups += 1
        record = self._bucket_of(key).get(key)
        if record is not None:
            record.ref_flag = True
        return record

    def insert(self, key: Hashable, value: Any, pre_delay_s: float = 0.0,
               actor=None, at: Optional[float] = None):
        """Hash insert XTXN; returns the new record (REF set).

        Inserting an existing key replaces its value, matching
        insert-or-update hash hardware semantics.
        """
        yield from self._xtxn("write", key, pre_delay_s, actor, at)
        self.inserts += 1
        count = self._count
        record = self.insert_nowait(key, value)
        if self._count != count:
            self._obs_occupancy()
        return record

    def insert_if_absent(self, key: Hashable, value: Any,
                         pre_delay_s: float = 0.0, actor=None,
                         at: Optional[float] = None):
        """Atomic insert-or-get XTXN; returns (record, created).

        The hash hardware serialises operations on one key, so two threads
        racing to create the same record see a single winner; the loser
        gets the winner's record back.
        """
        yield from self._xtxn("write", key, pre_delay_s, actor, at)
        self.inserts += 1
        existing = self._bucket_of(key).get(key)
        if existing is not None:
            existing.ref_flag = True
            return existing, False
        record = self.insert_nowait(key, value)
        self._obs_occupancy()
        return record, True

    def delete(self, key: Hashable, pre_delay_s: float = 0.0, actor=None,
               at: Optional[float] = None):
        """Hash delete XTXN; returns True if the key existed."""
        yield from self._xtxn("write", key, pre_delay_s, actor, at)
        self.deletes += 1
        existed = self.delete_nowait(key)
        if existed:
            self._obs_occupancy()
        return existed

    def scan_segment(self, segment: int, num_segments: int):
        """Walk 1/``num_segments`` of the buckets; returns the records.

        Charges per-record scan latency, so a big segment takes a timer
        thread proportionally longer — the motivation for deploying N
        parallel scanning threads (§5).
        """
        records = self.segment_records(segment, num_segments)
        cost = max(1, len(records)) * self.scan_entry_latency_s
        yield self.env.delay(cost)
        obs = _obs.session()
        if obs is not None:
            obs.probe("hash.scan_sweeps", table=self.obs_name)
            obs.observe("hash.scan_records", len(records),
                        table=self.obs_name)
        return records

    def _obs_occupancy(self) -> None:
        """Sample table occupancy onto the trace after a count change."""
        obs = _obs.session()
        if obs is not None:
            obs.sample(f"hash.occupancy/{self.obs_name}",
                       self.env.now, self._count)

    # ------------------------------------------------------------------
    # Zero-time accessors (control plane / tests)
    # ------------------------------------------------------------------

    def segment_bounds(self, segment: int, num_segments: int) -> Tuple[int, int]:
        """Bucket index range [start, end) owned by ``segment``."""
        if not 0 <= segment < num_segments:
            raise ValueError(
                f"segment {segment} outside 0..{num_segments - 1}"
            )
        per = (self.num_buckets + num_segments - 1) // num_segments
        start = segment * per
        end = min(start + per, self.num_buckets)
        return start, end

    def segment_records(self, segment: int, num_segments: int
                        ) -> List[HashRecord]:
        """Records in the buckets owned by ``segment`` (zero time)."""
        start, end = self.segment_bounds(segment, num_segments)
        records: List[HashRecord] = []
        for bucket in self._buckets[start:end]:
            if bucket:
                records.extend(bucket.values())
        return records

    def insert_nowait(self, key: Hashable, value: Any) -> HashRecord:
        """Zero-time insert used by control-plane configuration."""
        bucket = self._bucket_of(key)
        existing = bucket.get(key)
        if existing is not None:
            existing.value = value
            existing.ref_flag = True
            return existing
        record = HashRecord(key=key, value=value)
        bucket[key] = record
        self._count += 1
        return record

    def delete_nowait(self, key: Hashable) -> bool:
        """Zero-time delete used by control-plane teardown."""
        bucket = self._bucket_of(key)
        if key in bucket:
            del bucket[key]
            self._count -= 1
            return True
        return False

    def get_nowait(self, key: Hashable) -> Optional[HashRecord]:
        """Zero-time peek that does NOT set the REF flag."""
        return self._bucket_of(key).get(key)

    def all_records(self) -> Iterator[HashRecord]:
        """Iterate every record (zero time)."""
        for bucket in self._buckets:
            if bucket:
                yield from bucket.values()


def _stable_hash(key: Hashable) -> int:
    """``hash(key)`` with every ``str``/``bytes`` part replaced by its CRC-32.

    Python salts ``str`` and ``bytes`` hashes per interpreter
    (``PYTHONHASHSEED``), so plain ``hash`` would place a key such as
    ``("src", ip)`` in a different bucket, and so a different timer-scan
    segment, from run to run.  Ints hash to themselves, so an int-only
    key keeps the bucket plain ``hash`` gives it.
    """
    if type(key) is tuple:
        for part in key:
            if type(part) is not int:
                return hash(tuple(map(_stable_part, key)))
        return hash(key)
    return hash(_stable_part(key))


def _stable_part(part: Hashable) -> Hashable:
    if isinstance(part, str):
        return zlib.crc32(part.encode())
    if isinstance(part, bytes):
        return zlib.crc32(part)
    return part
