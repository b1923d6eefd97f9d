"""Checkpoint and recovery tests (repro.durability).

Covers a handle's checkpoints (the writer's rename as the commit point,
retention and WAL compaction by the handle's own checkpoint, verified
newest-first fallback, the same-seq rule), and in-process crash/recover
cycles through the service: every
acknowledged mutating op survives, recovered state is
*identical* (structure fingerprint and query results) to the pre-crash
state, event sequence numbers stay monotonic, and the idempotency window
is reseeded so post-restart client retries still dedupe.  Subprocess
SIGKILL chaos lives in test_durability_chaos.py.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.mmap_layout import SNAPSHOT_FORMAT
from repro.data.dataset import TimeSeriesDataset
from repro.durability import DurabilityManager, dataset_slug
from repro.exceptions import PersistenceError
from repro.server.protocol import Request
from repro.server.service import OnexService
from repro.testing import faults
from tests.damage import edit_meta, flip_byte


def make_base(seed=301):
    rng = np.random.default_rng(seed)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=18).cumsum() for _ in range(3)], name="ckpt-base"
    )
    base = OnexBase(
        ds,
        BuildConfig(similarity_threshold=0.15, min_length=4, max_length=6),
    )
    base.build()
    return base


def crash_at(point, fn):
    """Run *fn* in a forked child that dies at failpoint *point* the way
    ``kill -9`` would: no ``except``, no ``finally``, no cleanup."""
    with faults.inject(point, "kill-worker"):
        child = multiprocessing.get_context("fork").Process(target=fn)
        child.start()
        child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 17, child.exitcode


def attach(data_dir):
    """A fresh handle on ``ckpt-base``'s directory, as a restart opens it."""
    return DurabilityManager(data_dir, wal_sync="never").attach("ckpt-base")[0]


def checkpoint_at(handle, base, seq, stream_state=None):
    """Log records up to WAL seq *seq*, then checkpoint there."""
    while handle.wal.last_seq < seq:
        handle.log("append_points", {})
    return handle.checkpoint(base, stream_state)


def checkpoints(directory):
    return sorted(p.name for p in directory.glob("base-*"))


def wal_seqs(handle):
    return [record.seq for record in handle.wal.records()]


class TestHandleCheckpoints:
    def test_write_load_round_trip(self, tmp_path):
        base = make_base()
        stream_state = {"event_seq": 7, "monitors": []}
        handle = attach(tmp_path)
        record = checkpoint_at(handle, base, 5, stream_state)
        assert record == {
            "seq": 5,
            "base_file": "base-5/arrays.bin",
            "data_file": "base-5/meta.json",
        }
        assert all(
            (handle.directory / record[k]).is_file() for k in ("base_file", "data_file")
        )
        revived = attach(tmp_path)
        loaded, meta, tail = revived.restore(list(revived.wal.records()))
        assert revived.checkpoint_seq == 5 and tail == []
        assert meta["stream"] == stream_state
        assert loaded.raw_dataset.name == base.raw_dataset.name
        assert loaded.structure_fingerprint() == base.structure_fingerprint()
        assert meta["structure_fingerprint"] == base.structure_fingerprint()

    def test_retention_keeps_two_and_deletes_older(self, tmp_path):
        """Each checkpoint keeps itself and the one the handle wrote
        before it, and the WAL keeps what follows that one."""
        base = make_base()
        handle = attach(tmp_path)
        for seq in (1, 2, 10):
            checkpoint_at(handle, base, seq)
        assert checkpoints(handle.directory) == ["base-10", "base-2"]
        assert handle.checkpoint_seq == 10
        assert wal_seqs(handle) == list(range(3, 11))

    def test_retention_keeps_the_checkpoint_that_loaded(self, tmp_path):
        """Recovery fell past a damaged ``base-20`` to ``base-10``: the
        next checkpoint keeps ``base-10`` and the WAL after it, not the
        newer directory that does not load."""
        base = make_base()
        handle = attach(tmp_path)
        checkpoint_at(handle, base, 10)
        checkpoint_at(handle, base, 20)
        flip_byte(handle.directory / "base-20" / "arrays.bin", 100)
        revived = attach(tmp_path)
        revived.restore(list(revived.wal.records()))
        assert revived.checkpoint_seq == 10
        checkpoint_at(revived, base, 30)
        assert checkpoints(revived.directory) == ["base-10", "base-30"]
        assert wal_seqs(revived) == list(range(11, 31))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda d: flip_byte(d / "arrays.bin", 100),
            lambda d: edit_meta(
                d, lambda m: m["stream"].update(event_seq=99), reseal=False
            ),
            lambda d: edit_meta(
                d, lambda m: m["stats"].update(build_seconds=0.5), reseal=False
            ),
            lambda d: (d / "meta.json").unlink(),
        ],
        ids=["arrays-flipped-byte", "meta-stream-value", "meta-stats-value", "no-meta"],
    )
    def test_falls_back_past_a_newest_that_does_not_load(self, tmp_path, damage):
        base = make_base()
        handle = attach(tmp_path)
        checkpoint_at(handle, base, 1, {"event_seq": 1})
        checkpoint_at(handle, base, 2, {"event_seq": 2})
        damage(handle.directory / "base-2")
        revived = attach(tmp_path)
        loaded, meta, tail = revived.restore(list(revived.wal.records()))
        assert revived.checkpoint_seq == 1 and meta["stream"] == {"event_seq": 1}
        assert [record.seq for record in tail] == [2]
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_none_loads(self, tmp_path):
        handle = attach(tmp_path)
        with pytest.raises(PersistenceError, match="no checkpoint"):
            handle.restore([])
        handle.checkpoint(make_base())
        flip_byte(handle.directory / "base-0" / "arrays.bin")
        with pytest.raises(PersistenceError, match="no checkpoint .* loads.*sha256"):
            handle.restore([])

    def test_persist_save_failpoint_leaves_previous_checkpoint(self, tmp_path):
        """A failure before the rename leaves the previous checkpoint in
        force; a crash there leaves a ``.tmp`` that the next attach sweeps."""
        base = make_base()
        handle = attach(tmp_path)
        checkpoint_at(handle, base, 1)
        with faults.inject("persist.save", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                checkpoint_at(handle, base, 2)
        assert checkpoints(handle.directory) == ["base-1"]
        crash_at("persist.save", lambda: handle.checkpoint(base))
        assert checkpoints(handle.directory) == ["base-1", "base-2.tmp"]
        (handle.directory / "dataset.json.tmp").write_text("{")
        revived = attach(tmp_path)
        assert not list(revived.directory.glob("*.tmp"))
        # A first checkpoint compacts nothing: an emptied WAL numbers from 1.
        assert [record.seq for record in revived.wal.records()] == [1, 2]
        revived.restore([])
        assert revived.checkpoint_seq == 1

    def test_persist_rename_failpoint_leaves_new_checkpoint(self, tmp_path):
        base = make_base()
        handle = attach(tmp_path)
        checkpoint_at(handle, base, 1)
        checkpoint_at(handle, base, 2)
        crash_at("persist.rename", lambda: checkpoint_at(handle, base, 3))
        # Committed, and the crash came before the older ones were deleted.
        assert checkpoints(handle.directory) == ["base-1", "base-2", "base-3"]
        revived = attach(tmp_path)
        revived.restore([])
        assert revived.checkpoint_seq == 3
        checkpoint_at(revived, base, 4)
        assert checkpoints(revived.directory) == ["base-3", "base-4"]

    def test_recheckpoint_at_same_seq(self, tmp_path):
        """The handle's own directory at the seq is left untouched; one it
        did not load (recovery fell past it) is replaced."""
        base = make_base()
        handle = attach(tmp_path)
        checkpoint_at(handle, base, 4)
        checkpoint_at(handle, base, 5)
        meta_path = handle.directory / "base-5" / "meta.json"
        before = meta_path.stat()
        handle.checkpoint(base)
        after = meta_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        flip_byte(handle.directory / "base-5" / "arrays.bin")
        revived = attach(tmp_path)
        revived.restore([])
        assert revived.checkpoint_seq == 4
        revived.checkpoint(base)
        assert checkpoints(revived.directory) == ["base-4", "base-5"]
        again = attach(tmp_path)
        loaded, _, _ = again.restore([])
        assert again.checkpoint_seq == 5
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_previous_format_is_refused_by_name(self, tmp_path):
        """A data dir the previous format wrote (``meta.json`` format 3
        and a ``manifest.json``) fails with the reader's format message
        and nothing in it is deleted."""
        handle = attach(tmp_path)
        checkpoint_at(handle, make_base(), 3)
        edit_meta(handle.directory / "base-3", lambda m: m.update(format=3), reseal=False)
        (handle.directory / "manifest.json").write_text('{"format": 2, "checkpoints": []}')
        names = sorted(p.name for p in handle.directory.iterdir())
        revived = attach(tmp_path)
        with pytest.raises(PersistenceError, match="format 3; only format 4"):
            revived.restore([])
        assert sorted(p.name for p in revived.directory.iterdir()) == names


class TestDatasetSlug:
    def test_safe_names_unchanged(self):
        assert dataset_slug("MATTERS-sim") == "MATTERS-sim"
        assert dataset_slug("a.b_c-4") == "a.b_c-4"

    def test_exotic_names_get_hash_suffix_and_never_collide(self):
        a, b = dataset_slug("a/b"), dataset_slug("a_b")
        assert a != b and a != "a_b"
        assert dataset_slug("a/b") == a  # stable
        assert "/" not in dataset_slug("x/../../etc")

    def test_empty_name(self):
        slug = dataset_slug("")
        assert slug and "/" not in slug


# ---------------------------------------------------------------------------
# Service-level crash/recover cycles (in-process)
# ---------------------------------------------------------------------------

_LOAD = {
    "source": "electricity",
    "households": 1,
    "similarity_threshold": 0.1,
    "min_length": 4,
    "max_length": 4,
}
_DATASET = "ElectricityLoad-sim"
_QUERY = {"dataset": _DATASET, "query": [0.1, 0.3, 0.2, 0.4], "k": 2}


def call(service, op, params, request_id=None):
    response = service.handle(Request(op, dict(params), request_id=request_id))
    assert response.ok, (op, response.error_type, response.error_message)
    return response.result


def make_service(data_dir, **kwargs):
    kwargs.setdefault("wal_sync", "never")  # tests simulate SIGKILL, not power loss
    manager = DurabilityManager(data_dir, **kwargs)
    return OnexService(durability=manager)


def seed_state(service, appends=6):
    """Load + monitor + a run of keyed mutating ops; returns pre-crash view."""
    call(service, "load_dataset", _LOAD)
    call(
        service,
        "register_monitor",
        {
            "dataset": _DATASET,
            "pattern": [0.1, 0.5, 0.2, 0.6],
            "epsilon": 50.0,
            "series": "live",
            "monitor": "m1",
        },
        request_id="req-mon",
    )
    rng = np.random.default_rng(99)
    for i in range(appends):
        call(
            service,
            "append_points",
            {
                "dataset": _DATASET,
                "series": "live",
                "values": [float(v) for v in rng.normal(size=3).cumsum()],
            },
            request_id=f"req-{i}",
        )
    call(
        service,
        "add_series",
        {
            "dataset": _DATASET,
            "name": "bulk",
            "values": [0.4, 0.1, 0.9, 0.3, 0.8],
        },
        request_id="req-add",
    )
    return {
        "fingerprint": call(service, "describe", {"dataset": _DATASET})[
            "structure_fingerprint"
        ],
        "matches": call(service, "k_best", _QUERY)["matches"],
        "events": call(service, "poll_events", {"dataset": _DATASET}),
    }


class TestServiceRecovery:
    def test_recovered_state_is_identical(self, tmp_path):
        # checkpoint_every high: only the load-time checkpoint commits, so
        # recovery replays the *entire* mutation history through the same
        # handlers — the strongest determinism exercise.
        service = make_service(tmp_path, checkpoint_every=100)
        before = seed_state(service)
        # Crash: no close(), no checkpoint — a second service recovers
        # purely from what already hit the data dir.
        revived = make_service(tmp_path, checkpoint_every=100)
        report = revived.recover()
        assert not report.errors
        assert _DATASET in report.datasets
        summary = report.datasets[_DATASET]
        assert summary["replayed"] == 8  # monitor + 6 appends + add_series
        assert summary["torn_bytes"] == 0
        assert summary["fingerprint"] == before["fingerprint"]
        after_fp = call(revived, "describe", {"dataset": _DATASET})[
            "structure_fingerprint"
        ]
        assert after_fp == before["fingerprint"]
        assert call(revived, "k_best", _QUERY)["matches"] == before["matches"]
        events = call(revived, "poll_events", {"dataset": _DATASET})
        assert events["last_seq"] == before["events"]["last_seq"]
        assert [m["monitor"] for m in events["monitors"]] == ["m1"]

    def test_recovery_with_mid_run_checkpoints(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=3)
        before = seed_state(service)
        handle = service.durability.get(_DATASET)
        assert handle.checkpoint_seq > 0  # cadence fired mid-run
        revived = make_service(tmp_path, checkpoint_every=3)
        report = revived.recover()
        assert not report.errors
        summary = report.datasets[_DATASET]
        assert summary["replayed"] < 8  # the checkpoint absorbed a prefix
        assert summary["fingerprint"] == before["fingerprint"]
        assert call(revived, "k_best", _QUERY)["matches"] == before["matches"]

    def test_a_checkpoint_with_stream_counters_still_recovers(self, tmp_path):
        """The previous writer also stored ``stream_counters`` under
        ``meta["stream"]`` (the same format 4, digest over them): such a
        ``base-<seq>/`` restores and recovers with its monitors and event
        seq intact, and the counters are not carried forward."""
        service = make_service(tmp_path, checkpoint_every=100)
        before = seed_state(service)
        handle = service.durability.get(_DATASET)
        seq = handle.wal.last_seq
        handle.checkpoint(
            service.engine.base(_DATASET), service.engine.stream_state(_DATASET)
        )
        counters = {"points_ingested": 18, "windows_indexed": 9}
        edit_meta(
            handle.directory / f"base-{seq}",
            lambda m: m["stream"].update(stream_counters=counters),
            reseal=True,
        )
        service.durability.detach(_DATASET)

        manager = DurabilityManager(tmp_path, wal_sync="never")
        restored, scan = manager.attach(_DATASET)
        _, meta, tail = restored.restore(scan.records)
        assert restored.checkpoint_seq == seq and tail == []
        assert meta["format"] == SNAPSHOT_FORMAT == 4
        assert meta["stream"]["stream_counters"] == counters
        assert meta["stream"]["event_seq"] == before["events"]["last_seq"]
        assert [m["name"] for m in meta["stream"]["monitors"]] == ["m1"]
        manager.detach(_DATASET)

        revived = make_service(tmp_path, checkpoint_every=100)
        report = revived.recover()
        assert not report.errors
        summary = report.datasets[_DATASET]
        assert (summary["checkpoint_seq"], summary["replayed"]) == (seq, 0)
        assert summary["fingerprint"] == before["fingerprint"]
        assert call(revived, "k_best", _QUERY)["matches"] == before["matches"]
        events = call(revived, "poll_events", {"dataset": _DATASET})
        assert events["last_seq"] == before["events"]["last_seq"]
        assert [m["monitor"] for m in events["monitors"]] == ["m1"]
        assert set(revived.engine.stream_state(_DATASET)) == {"event_seq", "monitors"}

    def test_cadence_bounds_the_wal_and_the_replay(self, tmp_path):
        """However long the stream, compaction keeps at most two cadence
        intervals of records (the tail behind the *previous* retained
        checkpoint) and recovery replays at most one."""
        every = 3
        service = make_service(tmp_path, checkpoint_every=every)
        before = seed_state(service, appends=12)  # 14 records in all
        retained = list(service.durability.get(_DATASET).wal.records())
        assert len(retained) <= 2 * every
        revived = make_service(tmp_path, checkpoint_every=every)
        report = revived.recover()
        assert not report.errors
        summary = report.datasets[_DATASET]
        assert summary["replayed"] <= every
        assert summary["fingerprint"] == before["fingerprint"]

    def test_event_seq_monotonic_across_restart(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=100)
        before = seed_state(service)
        pre_seqs = [e["seq"] for e in before["events"]["events"]]
        assert pre_seqs, "the wide-epsilon monitor must have fired"
        revived = make_service(tmp_path, checkpoint_every=100)
        revived.recover()
        result = call(
            revived,
            "append_points",
            {"dataset": _DATASET, "series": "live", "values": [9.0, 1.0, 8.0]},
            request_id="req-post",
        )
        fresh = [e["seq"] for e in result["events"]]
        assert fresh and min(fresh) > max(pre_seqs)
        polled = call(revived, "poll_events", {"dataset": _DATASET})
        seqs = [e["seq"] for e in polled["events"]]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_retry_of_replayed_request_dedupes(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=100)
        seed_state(service)
        length_before = len(
            call(service, "query_preview", {"dataset": _DATASET, "series": "live"})[
                "values"
            ]
        )
        revived = make_service(tmp_path, checkpoint_every=100)
        revived.recover()
        # The retry of a tail-replayed request returns the re-executed
        # response without mutating again.
        result = call(
            revived,
            "append_points",
            {"dataset": _DATASET, "series": "live", "values": [1.0, 2.0, 3.0]},
            request_id="req-3",
        )
        assert "windows" in result  # the real append summary, not a marker
        length_after = len(
            call(revived, "query_preview", {"dataset": _DATASET, "series": "live"})[
                "values"
            ]
        )
        assert length_after == length_before

    def test_retry_of_checkpoint_covered_request_dedupes(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=3)
        seed_state(service)
        handle = service.durability.get(_DATASET)
        covered = handle.checkpoint_seq
        revived = make_service(tmp_path, checkpoint_every=3)
        report = revived.recover()
        length_before = len(
            call(revived, "query_preview", {"dataset": _DATASET, "series": "live"})[
                "values"
            ]
        )
        # Pick a request whose record is checkpoint-covered but retained
        # by compaction (everything after the *previous* checkpoint).
        retained = {r.seq: r for r in revived.durability.get(_DATASET).wal.records()}
        candidates = [
            r for r in retained.values() if r.seq <= covered and r.request_id
        ]
        assert candidates, (covered, sorted(retained))
        record = candidates[-1]
        response = revived.handle(
            Request(record.op, dict(record.params), request_id=record.request_id)
        )
        assert response.ok
        assert response.result.get("deduplicated") is True
        assert response.result.get("recovered") is True
        length_after = len(
            call(revived, "query_preview", {"dataset": _DATASET, "series": "live"})[
                "values"
            ]
        )
        assert length_after == length_before
        assert report.datasets[_DATASET]["checkpoint_seq"] == covered

    def test_unacknowledged_write_is_not_resurrected(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=100)
        call(service, "load_dataset", _LOAD)
        call(
            service,
            "append_points",
            {"dataset": _DATASET, "series": "live", "values": [1.0, 2.0, 3.0, 4.0]},
            request_id="req-ok",
        )
        with faults.inject("wal.written", "torn-tail", cut_bytes=3):
            response = service.handle(
                Request(
                    "append_points",
                    {"dataset": _DATASET, "series": "live", "values": [9.0]},
                    request_id="req-torn",
                )
            )
        assert not response.ok  # never acknowledged
        revived = make_service(tmp_path, checkpoint_every=100)
        report = revived.recover()
        assert not report.errors
        assert report.datasets[_DATASET]["torn_bytes"] > 0
        values = call(
            revived, "query_preview", {"dataset": _DATASET, "series": "live"}
        )["values"]
        assert len(values) == 4  # only the acknowledged append
        # And the failed request was never recorded: its retry executes.
        result = call(
            revived,
            "append_points",
            {"dataset": _DATASET, "series": "live", "values": [9.0]},
            request_id="req-torn",
        )
        assert "deduplicated" not in result

    @pytest.mark.parametrize(
        "point, committed", [("persist.save", False), ("persist.rename", True)]
    )
    def test_crash_mid_checkpoint(self, tmp_path, point, committed):
        """``kill -9`` before the snapshot rename leaves the load-time
        checkpoint in force and a ``.tmp`` the next attach sweeps; after
        the rename, the new checkpoint is in force.  Either way the
        recovered state is the pre-crash state."""
        service = make_service(tmp_path, checkpoint_every=100)
        before = seed_state(service)
        handle = service.durability.get(_DATASET)
        seq = handle.wal.last_seq
        crash_at(
            point,
            lambda: handle.checkpoint(
                service.engine.base(_DATASET), service.engine.stream_state(_DATASET)
            ),
        )
        debris = handle.directory / f"base-{seq}.tmp"
        assert debris.exists() != committed

        revived = make_service(tmp_path, checkpoint_every=100)
        report = revived.recover()
        assert not report.errors
        summary = report.datasets[_DATASET]
        assert summary["checkpoint_seq"] == (seq if committed else 0)
        assert summary["replayed"] == (0 if committed else 8)
        assert summary["fingerprint"] == before["fingerprint"]
        assert not debris.exists()  # swept at attach
        assert call(revived, "k_best", _QUERY)["matches"] == before["matches"]
        events = call(revived, "poll_events", {"dataset": _DATASET})
        assert events["last_seq"] == before["events"]["last_seq"]

    def test_newest_checkpoint_damaged_twice_over_loses_nothing(self, tmp_path):
        """Recovery fell past a damaged ``base-1`` to ``base-0``, so the
        checkpoint at 2 keeps ``base-0`` and the WAL after it, and a damaged
        ``base-2`` falls back to them too."""
        reference, service = OnexService(), make_service(tmp_path, checkpoint_every=100)
        for target in (reference, service):
            call(target, "load_dataset", _LOAD)
        for seq in (1, 2):
            append = {"dataset": _DATASET, "series": "live", "values": [seq, 0.5, -seq]}
            for target in (reference, service):
                call(target, "append_points", append)
            service.durability.get(_DATASET).checkpoint(
                service.engine.base(_DATASET), service.engine.stream_state(_DATASET)
            )
            flip_byte(tmp_path / dataset_slug(_DATASET) / f"base-{seq}" / "arrays.bin", 100)
            service = make_service(tmp_path, checkpoint_every=100)
            report = service.recover()
            assert not report.errors
            summary = report.datasets[_DATASET]
            assert (summary["checkpoint_seq"], summary["replayed"]) == (0, seq)
        want = call(reference, "describe", {"dataset": _DATASET})["structure_fingerprint"]
        assert summary["fingerprint"] == want
        assert call(service, "k_best", _QUERY) == call(reference, "k_best", _QUERY)

    def test_recovery_fingerprints_the_base_once(self, tmp_path, monkeypatch):
        """The verified load's fingerprint is the one registered: with no
        tail to replay, recovery hashes the structure exactly once."""
        service = make_service(tmp_path, checkpoint_every=100)
        before = seed_state(service)
        service.durability.get(_DATASET).checkpoint(
            service.engine.base(_DATASET), service.engine.stream_state(_DATASET)
        )
        calls = []
        fingerprint = OnexBase.structure_fingerprint
        monkeypatch.setattr(
            OnexBase,
            "structure_fingerprint",
            lambda base: calls.append(base) or fingerprint(base),
        )
        report = make_service(tmp_path, checkpoint_every=100).recover()
        assert report.datasets[_DATASET]["replayed"] == 0
        assert report.datasets[_DATASET]["fingerprint"] == before["fingerprint"]
        assert len(calls) == 1

    def test_unreadable_checkpoints_register_nothing(self, tmp_path):
        """Both retained checkpoints verify their digests but hold a
        ``meta.json`` the reader refuses: a typed error in the report, no
        dataset half registered, no durability handle left attached."""
        service = make_service(tmp_path, checkpoint_every=3)
        seed_state(service)
        directory = service.durability.get(_DATASET).directory
        retained = list(directory.glob("base-*"))
        assert len(retained) == 2

        def past_the_end(meta):
            name = next(n for n in meta["arrays"] if n.endswith("_member_matrix"))
            meta["arrays"][name][2] = 1 << 40

        for path in retained:
            edit_meta(path, past_the_end, reseal=True)

        revived = make_service(tmp_path, checkpoint_every=3)
        report = revived.recover()
        assert report.datasets == {}
        assert [e["dataset"] for e in report.errors] == [_DATASET]
        assert "malformed" in report.errors[0]["error"]
        assert revived.engine.dataset_names == []
        assert revived.durability.get(_DATASET) is None

    def test_data_dir_of_the_previous_format_is_refused(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=100)
        call(service, "load_dataset", _LOAD)
        directory = service.durability.get(_DATASET).directory
        edit_meta(directory / "base-0", lambda m: m.update(format=3), reseal=False)
        (directory / "manifest.json").write_text('{"format": 2, "checkpoints": []}')
        names = sorted(p.name for p in directory.iterdir())
        report = make_service(tmp_path).recover()
        assert report.datasets == {}
        assert "format 3; only format 4" in report.errors[0]["error"]
        assert sorted(p.name for p in directory.iterdir()) == names

    def test_dataset_without_checkpoint_reports_error(self, tmp_path):
        slug_dir = tmp_path / "ghost"
        slug_dir.mkdir()
        (slug_dir / "dataset.json").write_text(json.dumps({"dataset": "ghost"}))
        service = make_service(tmp_path)
        report = service.recover()
        assert report.datasets == {}
        assert len(report.errors) == 1
        assert report.errors[0]["dataset"] == "ghost"
        assert "checkpoint" in report.errors[0]["error"]

    def test_unload_deletes_durable_state(self, tmp_path):
        service = make_service(tmp_path)
        call(service, "load_dataset", _LOAD)
        slug_dir = tmp_path / dataset_slug(_DATASET)
        assert slug_dir.is_dir()
        call(service, "unload_dataset", {"dataset": _DATASET})
        assert not slug_dir.exists()
        assert service.durability.stored_datasets() == []

    def test_durability_status_surface(self, tmp_path):
        service = make_service(tmp_path, checkpoint_every=100)
        seed_state(service)
        revived = make_service(tmp_path, checkpoint_every=100)
        revived.recover()
        status = revived.durability_status()
        assert status["data_dir"] == str(tmp_path)
        per_dataset = status["datasets"][_DATASET]
        assert per_dataset["wal_seq"] >= per_dataset["checkpoint_seq"]
        assert status["last_recovery"]["replayed_records"] == 8
        assert status["last_recovery"]["errors"] == []

    def test_dedup_within_one_lifetime(self, tmp_path):
        """The always-on idempotency window, no restart involved."""
        service = OnexService()  # no durability at all
        call(service, "load_dataset", _LOAD)
        first = call(
            service,
            "append_points",
            {"dataset": _DATASET, "series": "live", "values": [1.0, 2.0, 3.0, 4.0]},
            request_id="req-dup",
        )
        second = call(
            service,
            "append_points",
            {"dataset": _DATASET, "series": "live", "values": [1.0, 2.0, 3.0, 4.0]},
            request_id="req-dup",
        )
        assert second == first
        values = call(
            service, "query_preview", {"dataset": _DATASET, "series": "live"}
        )["values"]
        assert len(values) == 4
