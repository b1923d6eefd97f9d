"""Failure-injection tests: corrupted artifacts, hostile inputs, edge data.

The demo runs as a long-lived server; these tests pin down how the
library behaves when the world misbehaves — corrupted persisted bases,
unparsable files, NaN-laden queries, and degenerate collections — always
a typed error or a clean error response, never a crash or silent wrong
answer.
"""

import hashlib
import json
import urllib.request

import numpy as np
import pytest

from repro.core.base import OnexBase
from repro.core.config import BuildConfig
from repro.core.mmap_layout import load_base_snapshot
from repro.core.query import QueryProcessor
from repro.data.dataset import TimeSeriesDataset
from repro.data.timeseries import TimeSeries
from repro.data.ucr_format import load_ucr_file
from repro.distances.envelope import keogh_envelope_batch
from repro.exceptions import (
    DatasetError,
    OnexError,
    PersistenceError,
    ValidationError,
)
from repro.server.http import OnexHttpServer
from repro.server.protocol import Request
from repro.server.service import OnexService


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(161)
    ds = TimeSeriesDataset.from_arrays(
        [rng.normal(size=14).cumsum() for _ in range(3)], name="fi"
    )
    b = OnexBase(ds, BuildConfig(similarity_threshold=0.1, min_length=4, max_length=6))
    b.build()
    return b


def _edit_meta(path, edit):
    meta = json.loads((path / "meta.json").read_text())
    edit(meta)
    (path / "meta.json").write_text(json.dumps(meta))


def _set_entry(name_suffix, position, value):
    """Edit: put *value* at *position* of the first array entry whose
    name ends with *name_suffix* (entries are [dtype, shape, offset])."""

    def edit(meta):
        name = next(n for n in sorted(meta["arrays"]) if n.endswith(name_suffix))
        meta["arrays"][name][position] = value

    return edit


def _drop(*keys):
    def edit(meta):
        target = meta
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]

    return edit


#: Hostile ``meta.json`` edits; every one must surface as PersistenceError.
_HOSTILE_META = {
    "offset-past-end": _set_entry("_centroids", 2, 1 << 40),
    "offset-negative": _set_entry("_centroids", 2, -64),
    "offset-not-a-number": _set_entry("_centroids", 2, "0"),
    "shape-negative": _set_entry("_members", 1, [-1, 2]),
    "shape-two-negatives": _set_entry("_members", 1, [-3, -2]),
    "shape-overflowing": _set_entry("_member_matrix", 1, [1 << 62, 1 << 62]),
    "shape-fractional": _set_entry("_offsets", 1, [2.5]),
    "shape-wrong": _set_entry("_ed_radii", 1, [1]),
    "shape-scalar": _set_entry("_offsets", 1, []),
    "dtype-unknown": _set_entry("_centroids", 0, "<q9"),
    "dtype-object": _set_entry("_centroids", 0, "|O"),
    "dtype-void": _set_entry("_centroids", 0, "|V8"),
    "entry-not-a-triple": _set_entry("_centroids", slice(None), ["<f8"]),
    "array-missing": lambda meta: meta["arrays"].pop(sorted(meta["arrays"])[0]),
    "no-arrays-key": _drop("arrays"),
    "no-config": _drop("config"),
    "no-stats-key": _drop("stats", "groups"),
    "no-dataset-name": _drop("dataset", "name"),
    "config-unknown-field": lambda meta: meta["config"].update(bogus=1),
    "config-invalid": lambda meta: meta["config"].update(min_length=-4),
    "lengths-not-numbers": lambda meta: meta.update(lengths=["four"]),
    "lengths-infinite": lambda meta: meta.update(lengths=[float("inf")]),
    "duplicate-series-names": lambda meta: [
        e.update(name="dup") for e in meta["dataset"]["series"]
    ],
    "channels-mismatch": lambda meta: meta.update(channels=2),
    "swapped-radius-arrays": lambda meta: meta["arrays"].update(
        len4_ed_radii=meta["arrays"]["len4_cheb_radii"],
        len4_cheb_radii=meta["arrays"]["len4_ed_radii"],
    ),
}


class TestCorruptedBaseFiles:
    """Hostile bytes for the one on-disk reader: always a
    ``PersistenceError`` — never another exception, never a base."""

    def test_truncated_npz(self, base, tmp_path):
        """Any regular file — here half of a real zip archive — is not a
        snapshot directory; the refusal names the removed format."""
        path = tmp_path / "base.npz"
        np.savez_compressed(path, centroids=np.arange(64.0))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistenceError, match=r"\.npz"):
            OnexBase.load(path)

    def test_not_an_npz(self, base, tmp_path):
        path = tmp_path / "base.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(PersistenceError, match="not a snapshot directory"):
            OnexBase.load(path)

    def test_missing_file(self, base, tmp_path):
        with pytest.raises(PersistenceError, match="missing or unreadable"):
            OnexBase.load(tmp_path / "ghost")

    def test_missing_arrays_file(self, base, tmp_path):
        base.save(tmp_path / "base")
        (tmp_path / "base" / "arrays.bin").unlink()
        with pytest.raises(PersistenceError, match="missing or unreadable"):
            OnexBase.load(tmp_path / "base")

    @pytest.mark.parametrize("kept", ["nothing", "one-byte", "half", "all-but-one"])
    def test_truncated_arrays(self, base, tmp_path, kept):
        path = tmp_path / "base"
        base.save(path)
        data = (path / "arrays.bin").read_bytes()
        cut = {"nothing": 0, "one-byte": 1, "half": len(data) // 2}.get(kept, len(data) - 1)
        (path / "arrays.bin").write_bytes(data[:cut])
        with pytest.raises(PersistenceError):
            OnexBase.load(path)
        # The unverified open (an attaching pool worker, a checkpoint
        # whose hash already passed) bounds-checks every directory entry.
        with pytest.raises(PersistenceError):
            load_base_snapshot(path, mmap_mode="r")

    def test_content_tampering_detected(self, base, tmp_path):
        """One flipped byte anywhere in ``arrays.bin`` trips the sha256."""
        path = tmp_path / "base"
        base.save(path)
        data = bytearray((path / "arrays.bin").read_bytes())
        for position in (0, len(data) // 2, len(data) - 1):
            flipped = bytearray(data)
            flipped[position] ^= 0x01
            (path / "arrays.bin").write_bytes(flipped)
            with pytest.raises(PersistenceError, match="sha256"):
                OnexBase.load(path)
        (path / "arrays.bin").write_bytes(data)
        assert (
            OnexBase.load(path).structure_fingerprint()
            == base.structure_fingerprint()
        )

    def test_meta_tampering_detected(self, base, tmp_path):
        """A ``meta.json`` re-pointed at the wrong (same-shaped) arrays
        passes every bounds check and the content hash; the structure
        fingerprint catches it."""
        path = tmp_path / "base"
        base.save(path)
        _edit_meta(path, _HOSTILE_META["swapped-radius-arrays"])
        with pytest.raises(PersistenceError, match="structure fingerprint"):
            OnexBase.load(path)

    @pytest.mark.parametrize("case", sorted(_HOSTILE_META))
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_hostile_meta_is_a_persistence_error(self, base, tmp_path, case, mmap_mode):
        path = tmp_path / "base"
        base.save(path)
        _edit_meta(path, _HOSTILE_META[case])
        with pytest.raises(PersistenceError):
            load_base_snapshot(path, mmap_mode=mmap_mode, verify=True)

    @pytest.mark.parametrize(
        "entry",
        [None, ["<f8", [4, 4], 1 << 40], ["|O", [1], 0]],
        ids=["as-written", "out-of-range", "non-numeric"],
    )
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_legacy_summary_entries_are_never_dereferenced(
        self, base, tmp_path, entry, mmap_mode
    ):
        """Format-2 snapshots written before the per-representative
        summary stacks were dropped carry four more arrays per length and
        a ``rep_radius`` key.  The reader never looks those names up, so
        such a directory loads, hash and fingerprint verified, and answers
        the same — whatever their entries say."""
        path = tmp_path / "base"
        base.save(path)
        blob = bytearray((path / "arrays.bin").read_bytes())
        meta = json.loads((path / "meta.json").read_text())
        for bucket in base.buckets():
            rows = bucket.centroids
            lo, hi = keogh_envelope_batch(rows, 1)
            legacy = {
                "rep_env_lo": lo,
                "rep_env_hi": hi,
                "rep_endpoints": rows[:, [0, 1, -2, -1]],
                "rep_minmax": np.column_stack((rows.min(axis=1), rows.max(axis=1))),
            }
            for name, array in legacy.items():
                blob.extend(bytes(-len(blob) % 64))
                meta["arrays"][f"len{bucket.length}_{name}"] = entry or [
                    array.dtype.str, list(array.shape), len(blob)
                ]
                blob.extend(array.tobytes())
        meta["rep_radius"] = {str(b.length): 1 for b in base.buckets()}
        meta["arrays_sha256"] = hashlib.sha256(blob).hexdigest()
        (path / "arrays.bin").write_bytes(blob)
        (path / "meta.json").write_text(json.dumps(meta))
        loaded, _ = load_base_snapshot(path, mmap_mode=mmap_mode, verify=True)
        assert loaded.structure_fingerprint() == base.structure_fingerprint()
        q = base.dataset[0].values[2:7]
        want = QueryProcessor(base).k_best_matches(q, 3, normalize=False)
        got = QueryProcessor(loaded).k_best_matches(q, 3, normalize=False)
        assert [(m.ref, m.distance) for m in got] == [(m.ref, m.distance) for m in want]

    @pytest.mark.parametrize(
        "text", ["", "{not json", "[]", "null", '"meta"', '{"format": 2}']
    )
    def test_garbled_meta(self, base, tmp_path, text):
        path = tmp_path / "base"
        base.save(path)
        (path / "meta.json").write_text(text)
        with pytest.raises(PersistenceError):
            OnexBase.load(path)

    def test_other_snapshot_format_refused_by_name(self, base, tmp_path):
        """A format-1 directory (one ``.npy`` per array) is not migrated."""
        path = tmp_path / "epoch-1"
        path.mkdir()
        np.save(path / "len4_centroids.npy", np.zeros((2, 4)))
        (path / "meta.json").write_text(json.dumps({"format": 1, "lengths": [4]}))
        with pytest.raises(PersistenceError, match="format 1"):
            OnexBase.load(path)
        with pytest.raises(PersistenceError, match="format 1"):
            load_base_snapshot(path)


class TestHostileQueries:
    def test_nan_query_rejected(self, base):
        processor = QueryProcessor(base)
        with pytest.raises(ValidationError, match="NaN"):
            processor.best_match([0.1, float("nan"), 0.3])

    def test_empty_query_rejected(self, base):
        with pytest.raises(ValidationError):
            QueryProcessor(base).best_match([])

    def test_2d_query_rejected(self, base):
        with pytest.raises(ValidationError):
            QueryProcessor(base).best_match([[0.1, 0.2], [0.3, 0.4]])

    def test_inf_threshold_rejected(self, base):
        with pytest.raises(ValidationError):
            QueryProcessor(base).matches_within([0.1, 0.2], float("-inf"))

    def test_extreme_values_still_answer(self, base):
        """Huge finite values normalise and answer without overflow."""
        match = QueryProcessor(base).best_match([1e12, 2e12, 3e12, 2e12])
        assert np.isfinite(match.distance)


class TestHostileFiles:
    def test_binary_garbage_ucr(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_bytes(bytes(range(256)))
        with pytest.raises((DatasetError, UnicodeDecodeError)):
            load_ucr_file(path)

    def test_all_nan_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("1,NaN,NaN,NaN\n")
        with pytest.raises(DatasetError):
            load_ucr_file(path)


class TestServiceRobustness:
    def test_wrong_param_types_become_errors(self):
        svc = OnexService()
        resp = svc.handle(
            Request(
                "load_dataset",
                {"source": "matters", "years": "twelve"},
            )
        )
        assert not resp.ok
        assert resp.error_type == "ValueError"

    def test_query_against_unloaded_dataset(self):
        svc = OnexService()
        resp = svc.handle(
            Request("best_match", {"dataset": "ghost", "query": [1.0, 2.0]})
        )
        assert not resp.ok
        assert resp.error_type == "DatasetError"

    def test_nan_query_over_protocol(self):
        svc = OnexService()
        svc.handle(
            Request(
                "load_dataset",
                {"source": "electricity", "households": 1,
                 "similarity_threshold": 0.1, "min_length": 4, "max_length": 4},
            )
        )
        resp = svc.handle(
            Request(
                "best_match",
                {"dataset": "ElectricityLoad-sim", "query": [1.0, float("nan")]},
            )
        )
        assert not resp.ok
        assert resp.error_type == "ValidationError"


class TestHttpRobustness:
    @pytest.fixture(scope="class")
    def server(self):
        with OnexHttpServer(OnexService()) as srv:
            yield srv

    def test_empty_body(self, server):
        req = urllib.request.Request(f"{server.url}/api", data=b"")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    def test_non_json_body(self, server):
        req = urllib.request.Request(f"{server.url}/api", data=b"\x00\xff binary")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    def test_json_array_body(self, server):
        req = urllib.request.Request(f"{server.url}/api", data=b"[1, 2, 3]")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["type"] == "ProtocolError"


class TestDegenerateCollections:
    def test_single_point_series_excluded_from_lengths(self):
        ds = TimeSeriesDataset(
            [TimeSeries("long", np.arange(10.0)), TimeSeries("dot", [1.0])]
        )
        base = OnexBase(
            ds, BuildConfig(similarity_threshold=0.1, min_length=4, max_length=5)
        )
        stats = base.build()  # the 1-point series simply contributes nothing
        assert stats.subsequences == (10 - 4 + 1) + (10 - 5 + 1)

    def test_constant_collection(self):
        ds = TimeSeriesDataset([TimeSeries("flat", np.full(12, 7.0))])
        base = OnexBase(
            ds, BuildConfig(similarity_threshold=0.1, min_length=4, max_length=5)
        )
        stats = base.build()
        assert stats.groups == 2  # one group per length; all windows equal
        match = QueryProcessor(base).best_match([7.0, 7.0, 7.0, 7.0])
        assert match.distance == pytest.approx(0.0)

    def test_two_point_series(self):
        ds = TimeSeriesDataset([TimeSeries("tiny", [1.0, 2.0])])
        base = OnexBase(
            ds, BuildConfig(similarity_threshold=0.5, min_length=2, max_length=2)
        )
        base.build()
        match = QueryProcessor(base).best_match([1.0, 2.0])
        assert match.length == 2
