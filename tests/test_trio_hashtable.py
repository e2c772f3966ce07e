"""Unit tests for the hardware hash table and its REF flags."""

import os
import subprocess
import sys

import pytest

import repro
from repro.sim import Environment
from repro.trio import HardwareHashTable


@pytest.fixture
def table_env():
    env = Environment()
    table = HardwareHashTable(env, num_buckets=64, op_latency_s=70e-9)
    return env, table


def run(env, generator):
    proc = env.process(generator)
    return env.run(until=proc)


class TestBasicOps:
    def test_insert_lookup_delete(self, table_env):
        env, table = table_env

        def proc():
            yield from table.insert(("job", 1), "record")
            record = yield from table.lookup(("job", 1))
            existed = yield from table.delete(("job", 1))
            gone = yield from table.lookup(("job", 1))
            return record.value, existed, gone

        value, existed, gone = run(env, proc())
        assert value == "record"
        assert existed is True
        assert gone is None
        assert len(table) == 0

    def test_insert_overwrites_value(self, table_env):
        env, table = table_env

        def proc():
            yield from table.insert("k", 1)
            yield from table.insert("k", 2)
            record = yield from table.lookup("k")
            return record.value

        assert run(env, proc()) == 2
        assert len(table) == 1

    def test_delete_missing_returns_false(self, table_env):
        env, table = table_env

        def proc():
            existed = yield from table.delete("ghost")
            return existed

        assert run(env, proc()) is False

    def test_insert_if_absent_returns_winner(self, table_env):
        env, table = table_env

        def proc():
            first, created1 = yield from table.insert_if_absent("k", "a")
            second, created2 = yield from table.insert_if_absent("k", "b")
            return first, created1, second, created2

        first, created1, second, created2 = run(env, proc())
        assert created1 and not created2
        assert second is first
        assert first.value == "a"

    def test_ops_charge_latency(self, table_env):
        env, table = table_env

        def proc():
            yield from table.insert("k", 1)
            yield from table.lookup("k")
            return env.now

        assert run(env, proc()) == pytest.approx(2 * 70e-9)

    def test_op_counters(self, table_env):
        env, table = table_env

        def proc():
            yield from table.insert("k", 1)
            yield from table.lookup("k")
            yield from table.delete("k")

        run(env, proc())
        assert (table.inserts, table.lookups, table.deletes) == (1, 1, 1)


class TestRefFlags:
    def test_set_on_create(self, table_env):
        env, table = table_env

        def proc():
            record = yield from table.insert("k", 1)
            return record

        record = run(env, proc())
        assert record.ref_flag is True

    def test_lookup_resets_flag(self, table_env):
        env, table = table_env

        def proc():
            record = yield from table.insert("k", 1)
            record.ref_flag = False  # timer thread cleared it
            yield from table.lookup("k")
            return record

        record = run(env, proc())
        assert record.ref_flag is True

    def test_get_nowait_does_not_touch_flag(self, table_env):
        env, table = table_env

        def proc():
            record = yield from table.insert("k", 1)
            record.ref_flag = False
            return record

        record = run(env, proc())
        assert table.get_nowait("k") is record
        assert record.ref_flag is False


class TestSegments:
    def test_bounds_cover_all_buckets(self, table_env):
        __, table = table_env
        covered = []
        for segment in range(7):
            start, end = table.segment_bounds(segment, 7)
            covered.extend(range(start, end))
        assert sorted(covered) == list(range(table.num_buckets))

    def test_bad_segment_rejected(self, table_env):
        __, table = table_env
        with pytest.raises(ValueError):
            table.segment_bounds(7, 7)

    def test_segments_partition_records(self, table_env):
        env, table = table_env
        for i in range(200):
            table.insert_nowait(("job", i), i)
        seen = []
        for segment in range(5):
            seen.extend(r.key for r in table.segment_records(segment, 5))
        assert sorted(seen) == sorted(("job", i) for i in range(200))

    def test_scan_segment_charges_per_record(self, table_env):
        env, table = table_env
        for i in range(100):
            table.insert_nowait(i, i)

        def proc():
            records = yield from table.scan_segment(0, 1)
            return len(records), env.now

        count, now = run(env, proc())
        assert count == 100
        assert now == pytest.approx(100 * table.scan_entry_latency_s)


class TestControlPlane:
    def test_insert_nowait_and_delete_nowait(self, table_env):
        __, table = table_env
        table.insert_nowait("k", "v")
        assert len(table) == 1
        assert table.delete_nowait("k") is True
        assert table.delete_nowait("k") is False
        assert len(table) == 0

    def test_all_records_iterates_everything(self, table_env):
        __, table = table_env
        for i in range(50):
            table.insert_nowait(i, i)
        assert sorted(r.key for r in table.all_records()) == list(range(50))

    def test_bucket_count_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            HardwareHashTable(env, num_buckets=0)


class TestBucketPlacement:
    def test_int_only_keys_keep_their_hash_bucket(self, table_env):
        __, table = table_env
        for key in (5, -1, (3, -1), (7, 12), (167772161, 167772162, 80, 9)):
            bucket = table._bucket_of(key)
            assert bucket is table._buckets[hash(key) % table.num_buckets]

    def test_placement_ignores_the_string_hash_seed(self):
        # ("job", i) and ("src", ip) keys carry a str part, whose hash
        # Python salts per interpreter: two seeds must still give the
        # same timer-scan ablation and the same DDoS mitigation run.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ablation = ("-c", "from repro.harness import experiments as exp; "
                    "print([row.value for row in "
                    "exp.ablation_scan_threads()])")
        example = (os.path.join(root, "examples", "ddos_mitigation.py"),)

        def run_with_seed(seed, args):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run([sys.executable, *args], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout

        for args in (ablation, example):
            assert run_with_seed(0, args) == run_with_seed(1, args)
