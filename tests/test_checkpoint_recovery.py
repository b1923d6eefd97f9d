"""Checkpoint and recovery tests (repro.durability).

Covers the manifest commit protocol (atomic replace, two-deep retention,
sha-verified fallback), and in-process crash/recover cycles through the
service: every acknowledged mutating op survives, recovered state is
*identical* (structure fingerprint and query results) to the pre-crash
state, event sequence numbers stay monotonic, and the idempotency window
is reseeded so post-restart client retries still dedupe.  Subprocess
SIGKILL chaos lives in test_durability_chaos.py.
"""

import json

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.persist import sha256_file
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


class TestCheckpointModule:
    def test_write_load_round_trip(self, tmp_path):
        base = make_base()
        stream_state = {
            "event_seq": 7,
            "monitors": [],
            "stream_counters": {"points_ingested": 3, "windows_indexed": 9},
        }
        entry = cp.write_checkpoint(
            tmp_path, base, wal_seq=5, stream_state=stream_state
        )
        assert entry["seq"] == 5 and entry["event_seq"] == 7
        picked = cp.latest_valid_checkpoint(tmp_path)
        assert picked == entry
        loaded = cp.load_checkpoint(tmp_path, picked)
        assert loaded.raw_dataset.name == base.raw_dataset.name
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_retention_keeps_two_and_unlinks_older_artifacts(self, tmp_path):
        base = make_base()
        for seq in (1, 2, 3):
            cp.write_checkpoint(tmp_path, base, wal_seq=seq)
        manifest = cp.read_manifest(tmp_path)
        assert [c["seq"] for c in manifest["checkpoints"]] == [2, 3]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "base-2",
            "base-3",
            cp.MANIFEST_NAME,
        ]

    def test_entry_names_the_two_snapshot_files(self, tmp_path):
        entry = cp.write_checkpoint(tmp_path, make_base(), wal_seq=4)
        assert entry["base_file"] == "base-4/arrays.bin"
        assert entry["data_file"] == "base-4/meta.json"
        for key in ("base", "data"):
            path = tmp_path / entry[f"{key}_file"]
            assert path.is_file()
            assert sha256_file(path) == entry[f"{key}_sha256"]

    def test_falls_back_when_newest_artifact_is_corrupt(self, tmp_path):
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1)
        cp.write_checkpoint(tmp_path, base, wal_seq=2)
        (tmp_path / "base-2" / "arrays.bin").write_bytes(b"bitrot")
        picked = cp.latest_valid_checkpoint(tmp_path)
        assert picked["seq"] == 1
        loaded = cp.load_checkpoint(tmp_path, picked)
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_falls_back_when_newest_artifact_is_missing(self, tmp_path):
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1)
        cp.write_checkpoint(tmp_path, base, wal_seq=2)
        (tmp_path / "base-2" / "meta.json").unlink()
        assert cp.latest_valid_checkpoint(tmp_path)["seq"] == 1

    def test_manifest_failpoint_leaves_previous_commit(self, tmp_path):
        """A crash before the manifest replace keeps the old checkpoint
        authoritative — half-written artifacts are invisible garbage."""
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1)
        with faults.inject("checkpoint.manifest", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                cp.write_checkpoint(tmp_path, base, wal_seq=2)
        manifest = cp.read_manifest(tmp_path)
        assert [c["seq"] for c in manifest["checkpoints"]] == [1]
        assert cp.latest_valid_checkpoint(tmp_path)["seq"] == 1

    def test_uncommitted_directory_is_swept_not_collided_with(self, tmp_path):
        """The garbage of a crash before the commit is removed by the
        sweep (attach runs it; so does the next checkpoint), so a later
        checkpoint at the same seq does not collide with it."""
        base = make_base()
        cp.write_checkpoint(tmp_path, base, wal_seq=1)
        with faults.inject("checkpoint.manifest", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                cp.write_checkpoint(tmp_path, base, wal_seq=2)
        (tmp_path / "base-9.tmp").mkdir()
        (tmp_path / "manifest.json.tmp").write_text("{")
        assert (tmp_path / "base-2").is_dir()
        assert cp.sweep_debris(tmp_path) == ["base-2", "base-9.tmp", "manifest.json.tmp"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base-1", cp.MANIFEST_NAME]
        # ... and without an explicit sweep the next checkpoint does it.
        with faults.inject("checkpoint.manifest", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                cp.write_checkpoint(tmp_path, base, wal_seq=2)
        entry = cp.write_checkpoint(tmp_path, base, wal_seq=2)
        assert cp.latest_valid_checkpoint(tmp_path) == entry

    def test_recheckpoint_at_same_seq_never_touches_the_committed_one(self, tmp_path):
        base = make_base()
        first = cp.write_checkpoint(tmp_path, base, wal_seq=5)
        with faults.inject("checkpoint.manifest", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                cp.write_checkpoint(tmp_path, base, wal_seq=5)
        # The failed attempt wrote beside, not over, the committed one.
        assert cp.latest_valid_checkpoint(tmp_path) == first
        second = cp.write_checkpoint(tmp_path, base, wal_seq=5)
        assert second["base_file"] != first["base_file"]
        assert cp.read_manifest(tmp_path)["checkpoints"] == [second]
        assert not (tmp_path / first["base_file"]).exists()
        third = cp.write_checkpoint(tmp_path, base, wal_seq=5)
        assert third["base_file"] == first["base_file"]
        loaded = cp.load_checkpoint(tmp_path, cp.latest_valid_checkpoint(tmp_path))
        assert loaded.structure_fingerprint() == base.structure_fingerprint()

    def test_sweep_touches_nothing_under_an_unreadable_manifest(self, tmp_path):
        cp.write_checkpoint(tmp_path, make_base(), wal_seq=1)
        (tmp_path / cp.MANIFEST_NAME).write_text("{not json")
        assert cp.sweep_debris(tmp_path) == []
        assert (tmp_path / "base-1" / "arrays.bin").is_file()

    def test_old_manifest_format_is_refused_by_name(self, tmp_path):
        """A data dir from before checkpoints were snapshot directories
        fails with a message naming the format — not as a hash mismatch
        — and nothing in it is swept."""
        (tmp_path / "base-3.npz").write_bytes(b"PK")
        (tmp_path / "data-3.npz").write_bytes(b"PK")
        old = {
            "format": 1,
            "dataset": "ckpt-base",
            "checkpoints": [
                {"seq": 3, "base_file": "base-3.npz", "data_file": "data-3.npz"}
            ],
        }
        (tmp_path / cp.MANIFEST_NAME).write_text(json.dumps(old))
        for call in (
            cp.read_manifest,
            cp.latest_valid_checkpoint,
            cp.sweep_debris,
            lambda d: cp.write_checkpoint(d, make_base(), wal_seq=4),
        ):
            with pytest.raises(PersistenceError, match="format 1"):
                call(tmp_path)
        assert (tmp_path / "base-3.npz").exists()

    def test_garbled_manifest_reads_as_no_checkpoints(self, tmp_path):
        (tmp_path / cp.MANIFEST_NAME).write_text("{not json")
        assert cp.read_manifest(tmp_path) is None
        assert cp.latest_valid_checkpoint(tmp_path) is None
        (tmp_path / cp.MANIFEST_NAME).write_text(json.dumps({"no": "key"}))
        assert cp.read_manifest(tmp_path) is None


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

    def test_crash_before_manifest_commit_then_checkpoint_at_same_seq(self, tmp_path):
        """Crash between writing ``base-<seq>/`` and the manifest replace,
        recover, checkpoint again at the same seq, recover again."""
        service = make_service(tmp_path, checkpoint_every=100)
        before = seed_state(service)
        handle = service.durability.get(_DATASET)
        seq = handle.wal.last_seq
        with faults.inject("checkpoint.manifest", "raise"):
            with pytest.raises(faults.FaultInjectedError):
                handle.checkpoint(
                    service.engine.base(_DATASET),
                    service.engine.stream_state(_DATASET),
                )
        debris = handle.directory / f"base-{seq}"
        assert debris.is_dir()  # written, never committed

        revived = make_service(tmp_path, checkpoint_every=100)
        report = revived.recover()
        assert not report.errors
        assert report.datasets[_DATASET]["checkpoint_seq"] == 0
        assert report.datasets[_DATASET]["fingerprint"] == before["fingerprint"]
        assert not debris.exists()  # swept at attach
        handle = revived.durability.get(_DATASET)
        assert handle.wal.last_seq == seq
        entry = handle.checkpoint(
            revived.engine.base(_DATASET), revived.engine.stream_state(_DATASET)
        )
        assert entry["seq"] == seq and debris.is_dir()

        third = make_service(tmp_path, checkpoint_every=100)
        report = third.recover()
        assert not report.errors
        summary = report.datasets[_DATASET]
        assert summary["checkpoint_seq"] == seq and summary["replayed"] == 0
        assert summary["fingerprint"] == before["fingerprint"]
        assert call(third, "k_best", _QUERY)["matches"] == before["matches"]
        events = call(third, "poll_events", {"dataset": _DATASET})
        assert events["last_seq"] == before["events"]["last_seq"]

    def test_unreadable_checkpoints_register_nothing(self, tmp_path):
        """Both retained checkpoints hash-verify but hold a ``meta.json``
        the reader refuses: a typed error in the report, no dataset half
        registered, no durability handle left attached."""
        service = make_service(tmp_path, checkpoint_every=3)
        seed_state(service)
        directory = service.durability.get(_DATASET).directory
        manifest = cp.read_manifest(directory)
        assert len(manifest["checkpoints"]) == 2
        for entry in manifest["checkpoints"]:
            meta_path = directory / entry["data_file"]
            meta = json.loads(meta_path.read_text())
            name = next(n for n in meta["arrays"] if n.endswith("_member_matrix"))
            meta["arrays"][name][2] = 1 << 40  # offset far past the end
            meta_path.write_text(json.dumps(meta))
            entry["data_sha256"] = sha256_file(meta_path)
        (directory / cp.MANIFEST_NAME).write_text(json.dumps(manifest))

        revived = make_service(tmp_path, checkpoint_every=3)
        report = revived.recover()
        assert report.datasets == {}
        assert [e["dataset"] for e in report.errors] == [_DATASET]
        assert "malformed" in report.errors[0]["error"]
        assert revived.engine.dataset_names == []
        assert revived.durability.get(_DATASET) is None

    def test_data_dir_of_the_old_format_is_refused(self, tmp_path):
        slug_dir = tmp_path / "old"
        slug_dir.mkdir()
        (slug_dir / "dataset.json").write_text(json.dumps({"dataset": "old"}))
        (slug_dir / "base-0.npz").write_bytes(b"PK")
        (slug_dir / cp.MANIFEST_NAME).write_text(
            json.dumps({"format": 1, "dataset": "old", "checkpoints": []})
        )
        report = make_service(tmp_path).recover()
        assert report.datasets == {}
        assert "format 1" in report.errors[0]["error"]
        assert (slug_dir / "base-0.npz").exists()

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
