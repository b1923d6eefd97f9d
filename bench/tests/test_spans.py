"""Span self-time arithmetic, and the recorder's nesting and tagging."""

import json

from bench import spans


def _span(key, name, start, end, parent=None, rid="r1", pid=1):
    return spans.Span((pid, key), (pid, parent) if parent else None, name, start, end, rid, {})


def _link(*all_spans):
    by_key = {s.key: s for s in all_spans}
    for s in all_spans:
        if s.parent:
            by_key[s.parent].children.append(s)
    return all_spans


def test_self_time_is_duration_minus_what_children_cover():
    root = _span(1, "http.request", 0.000, 0.100)
    parse = _span(2, "http.parse", 0.001, 0.003, parent=1)
    handle = _span(3, "service.handle", 0.010, 0.090, parent=1)
    kernel = _span(4, "dtw.kernel", 0.020, 0.070, parent=3)
    _link(root, parse, handle, kernel)
    assert round(root.self_ms, 6) == 18.0  # 100 - 2 - 80
    assert round(handle.self_ms, 6) == 30.0  # 80 - 50
    assert round(kernel.self_ms, 6) == 50.0
    # Self times of a properly nested tree add up to the root's duration.
    assert round(sum(s.self_ms for s in root.walk()), 6) == round(root.ms, 6)


def test_overlapping_children_are_covered_once_and_clipped_to_the_parent():
    parent = _span(1, "query.batch", 0.0, 0.100)
    a = _span(2, "dtw.kernel", 0.010, 0.060, parent=1)
    b = _span(3, "dtw.kernel", 0.040, 0.080, parent=1)  # overlaps a by 20 ms
    c = _span(4, "dtw.kernel", 0.090, 0.130, parent=1)  # runs past the parent
    d = _span(5, "dtw.kernel", 0.020, 0.030, parent=1)  # inside a
    _link(parent, a, b, c, d)
    assert round(parent.self_ms, 6) == 20.0  # 100 - (10..80) - (90..100)


def test_totals_sum_by_name_within_one_request():
    root = _span(1, "http.request", 0.0, 0.050)
    k1 = _span(2, "dtw.kernel", 0.010, 0.020, parent=1)
    k2 = _span(3, "dtw.kernel", 0.030, 0.045, parent=1)
    _link(root, k1, k2)
    totals = spans.totals(root)
    assert totals["dtw.kernel"]["count"] == 2
    assert round(totals["dtw.kernel"]["ms"], 6) == 25.0
    assert round(totals["http.request"]["self_ms"], 6) == 25.0


def test_worker_roots_hang_under_the_dispatch_that_carried_their_request():
    request = _span(1, "http.request", 0.0, 0.100)
    dispatch = _span(2, "pool.dispatch", 0.010, 0.090, parent=1)
    worker = _span(1, "service.handle", 0.020, 0.080, pid=2)
    other = _span(2, "service.handle", 0.020, 0.080, rid="r2", pid=2)
    everything = list(_link(request, dispatch)) + [worker, other]
    spans.link_workers(everything, "pool.dispatch", "service.handle")
    assert worker in dispatch.children and other not in dispatch.children
    assert round(dispatch.self_ms, 6) == 20.0  # the IPC share
    assert spans.request_trees(everything, "http.request") == {"r1": request}


def test_recorder_nests_tags_and_round_trips(tmp_path):
    rec = spans.Recorder()
    with rec.span("http.request"):
        with rec.span("http.parse"):
            rec.tag_request("abc")
        with rec.span("service.handle", {"k": 1}) as handle:
            rec.count_bytes(10)
            handle.add(extra=2)
    rec.count_bytes(7)  # no span open: held for the next taker
    assert rec.take_pending() == 7 and rec.take_pending() == 0
    loaded = spans.load([rec.dump(tmp_path)])
    by_name = {s.name: s for s in loaded}
    root = by_name["http.request"]
    assert {c.name for c in root.children} == {"http.parse", "service.handle"}
    assert all(s.request_id == "abc" for s in loaded)
    assert by_name["service.handle"].attrs == {"k": 1, "frame_bytes": 10, "extra": 2}
    assert json.loads((tmp_path / f"spans-{loaded[0].key[0]}.json").read_text())["pid"]
    rec.reset()
    assert rec.rows == []
