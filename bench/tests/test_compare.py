"""``bench.compare`` verdicts on synthetic result pairs."""

import json

from bench import compare, spec

QPS = spec.Metric("qps", "req/s", "higher", 0.15)
P50 = spec.Metric("similarity_p50_ms", "ms", "lower", 0.15)
ERR = spec.Metric("error_rate", "ratio", "lower")
GAP = spec.Metric("oracle_gap", "ratio", "lower")


def test_single_pair_uses_the_bound_alone():
    assert compare.verdict(P50, [100.0], [110.0])["verdict"] == "unchanged"
    assert compare.verdict(P50, [100.0], [120.0])["verdict"] == "regressed"
    assert compare.verdict(P50, [100.0], [80.0])["verdict"] == "improved"
    # higher-is-better metrics regress downwards
    assert compare.verdict(QPS, [20.0], [16.0])["verdict"] == "regressed"
    assert compare.verdict(QPS, [20.0], [25.0])["verdict"] == "improved"
    row = compare.verdict(QPS, [20.0], [21.0])
    assert row["verdict"] == "unchanged" and row["ratio"] == 1.05 and row["base"] == 20.0


def test_error_rate_and_oracle_gap_may_not_rise():
    assert compare.verdict(ERR, [0.0], [0.0])["verdict"] == "unchanged"
    assert compare.verdict(ERR, [0.0], [0.001])["verdict"] == "regressed"
    assert compare.verdict(GAP, [0.003], [0.003 + 1e-12])["verdict"] == "unchanged"
    assert compare.verdict(GAP, [0.003], [0.004])["verdict"] == "regressed"


def test_a_noisy_base_is_unresolved_not_unchanged():
    base = [100.0, 60.0, 140.0, 100.0, 75.0]
    new = [105.0, 100.0, 100.0, 100.0, 100.0]
    assert compare.verdict(P50, base, new)["verdict"] == "unresolved"


def test_ten_pairs_need_nine_wins_and_a_gap_beyond_the_base_iqr():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.0]
    wins = [b - 5.0 for b in base]
    assert compare.verdict(P50, base, wins)["verdict"] == "improved"
    eight_of_ten = wins[:8] + [b + 1.0 for b in base[8:]]
    assert compare.verdict(P50, base, eight_of_ten)["verdict"] == "unchanged"
    inside_iqr = [b - 0.1 for b in base]
    assert compare.verdict(P50, base, inside_iqr)["verdict"] == "unchanged"
    assert compare.verdict(P50, base, [b * 1.2 for b in base])["verdict"] == "regressed"


def test_a_metric_that_applies_to_neither_side_has_no_row():
    assert compare.verdict(P50, [None], [None])["verdict"] is None
    assert compare.verdict(P50, [100.0], [None])["verdict"] == "unresolved"


def _result(path, qps, error_rate=0.0):
    end_to_end = {m.name: None for m in spec.end_to_end()}
    end_to_end.update(qps=qps, error_rate=error_rate)
    path.write_text(json.dumps({"workloads": {"explore_fine": {"end_to_end": end_to_end}}}))
    return str(path)


def test_main_exits_non_zero_on_a_regression(tmp_path, capsys):
    base = _result(tmp_path / "a.json", 20.0)
    same = _result(tmp_path / "b.json", 19.5)
    slower = _result(tmp_path / "c.json", 10.0)
    failing = _result(tmp_path / "d.json", 20.0, error_rate=0.01)
    assert compare.main([base, same]) == 0
    out = capsys.readouterr().out
    assert "explore_fine" in out and "qps" in out and "0.975x of 20" in out
    assert compare.main([base, slower]) == 1
    assert compare.main([base, failing]) == 1
    assert compare.main([base]) == 2
