"""Write-ahead log unit tests: framing, torn tails, compaction, faults.

The WAL's contract (DESIGN.md §8): an append that returned has its
record's bytes in the OS page cache (SIGKILL-safe) in every sync mode;
a crash mid-append damages at most the final record; a tolerant scan
keeps every earlier record and reports the torn bytes; compaction drops
a checkpoint-covered prefix atomically.
"""

import os

import pytest

from repro.core import persist
from repro.durability.wal import MAGIC, WalRecord, WriteAheadLog, scan
from repro.exceptions import PersistenceError
from repro.testing import faults


def make_wal(tmp_path, **kwargs):
    wal = WriteAheadLog(tmp_path / "wal.log", **kwargs)
    wal.open()
    return wal


class TestFraming:
    def test_round_trip(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append("append_points", {"series": "s", "values": [1.0, 2.0]}, "r1")
        wal.append("add_series", {"name": "x", "values": [0.5]}, None)
        wal.close()
        result = scan(tmp_path / "wal.log")
        assert result.torn_bytes == 0
        assert [r.seq for r in result.records] == [1, 2]
        assert result.records[0] == WalRecord(
            1, "append_points", {"series": "s", "values": [1.0, 2.0]}, "r1"
        )
        assert result.records[1].request_id is None

    def test_sequence_continues_across_reopen(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append("a", {})
        wal.append("b", {})
        wal.close()
        wal2 = WriteAheadLog(tmp_path / "wal.log")
        assert wal2.open().last_seq == 2
        assert wal2.append("c", {}).seq == 3
        wal2.close()

    def test_not_a_wal_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"definitely not a WAL header")
        with pytest.raises(PersistenceError, match="bad magic"):
            scan(path)

    @pytest.mark.parametrize("mode", ["always", "interval", "never"])
    def test_all_sync_modes_persist_records(self, tmp_path, mode):
        wal = make_wal(tmp_path / mode, sync=mode, interval_ms=5.0)
        for i in range(10):
            wal.append("op", {"i": i})
        # No close(): records must be readable from the file as written
        # (flush-before-ack), which is the SIGKILL-safety property.
        assert len(scan(tmp_path / mode / "wal.log").records) == 10
        wal.close()

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync mode"):
            WriteAheadLog(tmp_path / "w.log", sync="sometimes")


class TestTornTail:
    def _torn(self, tmp_path, cut):
        wal = make_wal(tmp_path)
        for i in range(5):
            wal.append("op", {"i": i})
        wal.close()
        path = tmp_path / "wal.log"
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)
        return path

    def test_cut_mid_payload_drops_only_final_record(self, tmp_path):
        path = self._torn(tmp_path, 3)
        result = scan(path)
        assert [r.params["i"] for r in result.records] == [0, 1, 2, 3]
        assert result.torn_bytes > 0

    def test_cut_mid_header_drops_only_final_record(self, tmp_path):
        wal = make_wal(tmp_path)
        frame_len = None
        for i in range(3):
            before = wal.size()
            wal.append("op", {"i": i})
            frame_len = wal.size() - before
        wal.close()
        path = tmp_path / "wal.log"
        with open(path, "r+b") as fh:  # leave 2 header bytes of record 3
            fh.truncate(os.path.getsize(path) - (frame_len - 2))
        result = scan(path)
        assert [r.seq for r in result.records] == [1, 2]

    def test_corrupt_crc_stops_scan(self, tmp_path):
        wal = make_wal(tmp_path)
        for i in range(4):
            wal.append("op", {"i": i})
        wal.close()
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte of the final record
        path.write_bytes(bytes(data))
        result = scan(path)
        assert [r.seq for r in result.records] == [1, 2, 3]
        assert result.torn_bytes > 0

    def test_open_truncates_torn_tail_and_appends_cleanly(self, tmp_path):
        path = self._torn(tmp_path, 5)
        wal = WriteAheadLog(path)
        result = wal.open()
        assert result.last_seq == 4
        assert os.path.getsize(path) == result.valid_bytes
        wal.append("fresh", {})
        wal.close()
        post = scan(path)
        assert post.torn_bytes == 0
        assert [r.seq for r in post.records] == [1, 2, 3, 4, 5]

    def test_empty_file_without_magic_is_not_a_wal(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        with pytest.raises(PersistenceError):
            scan(path)

    def test_header_only_file_scans_empty(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(MAGIC)
        result = scan(path)
        assert result.records == [] and result.torn_bytes == 0


class TestCompaction:
    def test_compact_drops_covered_prefix(self, tmp_path):
        wal = make_wal(tmp_path)
        for i in range(8):
            wal.append("op", {"i": i})
        freed = wal.compact(5)
        assert freed > 0
        assert [r.seq for r in wal.records()] == [6, 7, 8]
        # Appends keep the global sequence, not a restarted one.
        assert wal.append("op", {"i": 8}).seq == 9
        wal.close()

    def test_compact_to_zero_keeps_everything(self, tmp_path):
        wal = make_wal(tmp_path)
        for i in range(3):
            wal.append("op", {"i": i})
        wal.compact(0)
        assert len(list(wal.records())) == 3
        wal.close()


class TestFailpoints:
    def test_wal_append_fault_leaves_no_record(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.append("op", {"i": 0})
        with faults.inject("wal.append", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                wal.append("op", {"i": 1})
        # The failed append reserved nothing: no bytes, no seq.
        assert [r.seq for r in wal.records()] == [1]
        assert wal.append("op", {"i": 2}).seq == 2
        wal.close()

    def test_torn_tail_fault_at_wal_written(self, tmp_path):
        """Crash-after-write-before-ack: the record is shaved and the
        append raises, so recovery must neither see it nor resurrect it."""
        wal = make_wal(tmp_path)
        wal.append("op", {"i": 0})
        with faults.inject("wal.written", "torn-tail", cut_bytes=4):
            with pytest.raises(faults.FaultInjectedError):
                wal.append("op", {"i": 1})
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.log")
        result = reopened.open()
        assert [r.params["i"] for r in result.records] == [0]
        reopened.close()

    def test_wal_fsync_fault_blocks_always_mode(self, tmp_path):
        wal = make_wal(tmp_path / "a", sync="always")
        with faults.inject("wal.fsync", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                wal.append("op", {})
        wal.close()


class TestDirectoryFsyncHelpers:
    def test_fsync_dir_on_regular_dir(self, tmp_path):
        persist.fsync_dir(tmp_path)  # must not raise

    def test_atomic_json_write_replaces(self, tmp_path):
        target = tmp_path / "m.json"
        persist.atomic_json_write(target, {"a": 1})
        persist.atomic_json_write(target, {"a": 2})
        import json

        assert json.loads(target.read_text()) == {"a": 2}
        assert not (tmp_path / "m.json.tmp").exists()

    def test_atomic_write_failure_leaves_old_content(self, tmp_path):
        target = tmp_path / "m.json"
        persist.atomic_json_write(target, {"a": 1})
        with pytest.raises(TypeError):
            persist.atomic_json_write(target, {"bad": object()})
        import json

        assert json.loads(target.read_text()) == {"a": 1}
        assert not (tmp_path / "m.json.tmp").exists()
