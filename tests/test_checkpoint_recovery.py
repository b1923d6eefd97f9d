"""Checkpoint and recovery tests (repro.durability).

Covers checkpoints as snapshot directories (the writer's rename as the
commit point, two-deep retention, verified newest-first fallback), and
in-process crash/recover cycles through the service: every
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
from repro.core.mmap_layout import _meta_digest
from repro.data.dataset import TimeSeriesDataset
from repro.durability import DurabilityManager, dataset_slug
from repro.durability import checkpoint as cp
from repro.exceptions import PersistenceError
from repro.server.protocol import Request
from repro.server.service import OnexService
from repro.testing import faults


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm_all()
    yield
    faults.disarm_all()


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


def flip_byte(path, position=0):
    data = bytearray(path.read_bytes())
    data[position] ^= 0x01
    path.write_bytes(bytes(data))


def edit_meta(path, edit, *, reseal=False):
    """Edit a snapshot's ``meta.json`` in place; *reseal* recomputes its
    digest, as a writer of the edited value would have."""
    meta = json.loads((path / "meta.json").read_text())
    edit(meta)
    if reseal:
        meta["meta_sha256"] = _meta_digest(meta)
    (path / "meta.json").write_text(json.dumps(meta))


class TestCheckpointModule:
    def test_write_load_round_trip(self, tmp_path):
        base = make_base()
        stream_state = {
            "event_seq": 7,
            "monitors": [],
            "stream_counters": {"points_ingested": 3, "windows_indexed": 9},
        }
        record = cp.write_checkpoint(
            tmp_path, base, wal_seq=5, stream_state=stream_state
        )
        assert record == {
            "seq": 5,
            "base_file": "base-5/arrays.bin",
            "data_file": "base-5/meta.json",
        }
        assert all((tmp_path / record[k]).is_file() for k in ("base_file", "data_file"))
        seq, loaded, meta = cp.load_latest(tmp_path)
        assert seq == 5 and meta["stream"] == stream_state
        assert loaded.raw_dataset.name == base.raw_dataset.name
        assert loaded.structure_fingerprint() == base.structure_fingerprint()
        assert meta["structure_fingerprint"] == base.structure_fingerprint()

    def test_retention_keeps_two_and_deletes_older(self, tmp_path):
        base = make_base()
        for seq in (1, 2, 10):
            cp.write_checkpoint(tmp_path, base, wal_seq=seq)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-10", "base-2"]
        assert cp.checkpoint_seqs(tmp_path) == [2, 10]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda d: flip_byte(d / "arrays.bin", 100),
            lambda d: edit_meta(d, lambda m: m["stream"].update(event_seq=99)),
            lambda d: edit_meta(d, lambda m: m["stats"].update(build_seconds=0.5)),
            lambda d: (d / "meta.json").unlink(),
        ],
        ids=["arrays-flipped-byte", "meta-stream-value", "meta-stats-value", "no-meta"],
    )
    def test_falls_back_past_a_newest_that_does_not_load(self, tmp_path, damage):
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1, stream_state={"event_seq": 1})
        cp.write_checkpoint(tmp_path, base, wal_seq=2, stream_state={"event_seq": 2})
        damage(tmp_path / "base-2")
        seq, loaded, meta = cp.load_latest(tmp_path)
        assert seq == 1 and meta["stream"] == {"event_seq": 1}
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_none_loads(self, tmp_path):
        with pytest.raises(PersistenceError, match="no checkpoint"):
            cp.load_latest(tmp_path)
        cp.write_checkpoint(tmp_path, make_base(), wal_seq=1)
        flip_byte(tmp_path / "base-1" / "arrays.bin")
        with pytest.raises(PersistenceError, match="no checkpoint .* loads.*sha256"):
            cp.load_latest(tmp_path)

    def test_persist_save_failpoint_leaves_previous_checkpoint(self, tmp_path):
        """A failure before the rename leaves the previous checkpoint in
        force; a crash there leaves a ``.tmp`` that only the sweep removes."""
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1)
        with faults.inject("persist.save", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                cp.write_checkpoint(tmp_path, base, wal_seq=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-1"]
        crash_at("persist.save", lambda: cp.write_checkpoint(tmp_path, base, wal_seq=2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-1", "base-2.tmp"]
        assert cp.load_latest(tmp_path)[0] == 1
        (tmp_path / "dataset.json.tmp").write_text("{")
        assert cp.sweep_debris(tmp_path) == ["base-2.tmp", "dataset.json.tmp"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-1"]

    def test_persist_rename_failpoint_leaves_new_checkpoint(self, tmp_path):
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1)
        cp.write_checkpoint(tmp_path, base, wal_seq=2)
        crash_at("persist.rename", lambda: cp.write_checkpoint(tmp_path, base, wal_seq=3))
        # Committed, and the crash came before the older one was deleted.
        assert cp.checkpoint_seqs(tmp_path) == [1, 2, 3]
        assert cp.load_latest(tmp_path)[0] == 3
        cp.write_checkpoint(tmp_path, base, wal_seq=4)
        assert cp.checkpoint_seqs(tmp_path) == [3, 4]

    def test_recheckpoint_at_same_seq(self, tmp_path):
        """A directory that loads is left untouched; one that does not
        (recovery fell past it) is replaced."""
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=5)
        meta_path = tmp_path / "base-5" / "meta.json"
        before = meta_path.stat()
        cp.write_checkpoint(tmp_path, base, wal_seq=5)
        after = meta_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        flip_byte(tmp_path / "base-5" / "arrays.bin")
        cp.write_checkpoint(tmp_path, base, wal_seq=5)
        seq, loaded, _ = cp.load_latest(tmp_path)
        assert seq == 5
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_previous_format_is_refused_by_name(self, tmp_path):
        """A data dir the previous format wrote (``meta.json`` format 3
        and a ``manifest.json``) fails with the reader's format message
        and nothing in it is deleted."""
        cp.write_checkpoint(tmp_path, make_base(), wal_seq=3)
        edit_meta(tmp_path / "base-3", lambda m: m.update(format=3))
        (tmp_path / "manifest.json").write_text('{"format": 2, "checkpoints": []}')
        with pytest.raises(PersistenceError, match="format 3; only format 4"):
            cp.load_latest(tmp_path)
        assert cp.sweep_debris(tmp_path) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-3", "manifest.json"]


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
        seqs = cp.checkpoint_seqs(directory)
        assert len(seqs) == 2

        def past_the_end(meta):
            name = next(n for n in meta["arrays"] if n.endswith("_member_matrix"))
            meta["arrays"][name][2] = 1 << 40

        for seq in seqs:
            edit_meta(directory / f"base-{seq}", past_the_end, reseal=True)

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
        edit_meta(directory / "base-0", lambda m: m.update(format=3))
        (directory / "manifest.json").write_text('{"format": 2, "checkpoints": []}')
        names = sorted(p.name for p in directory.iterdir())
        report = make_service(tmp_path).recover()
        assert report.datasets == {}
        assert "format 3" in report.errors[0]["error"]
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
