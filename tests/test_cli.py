"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = [
    "--source", "matters", "--indicators", "GrowthRate",
    "--st", "0.1", "--min-length", "4", "--max-length", "6",
    "--years", "10", "--min-years", "8",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_query_requires_series(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.source == "matters"
        assert args.st is None


class TestCommands:
    def test_describe_human(self, capsys):
        assert main(["describe", *FAST]) == 0
        out = capsys.readouterr().out
        assert "MATTERS-sim" in out
        assert "compaction" in out

    def test_describe_json(self, capsys):
        assert main(["--json", "describe", *FAST]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"] == 50

    def test_query(self, capsys):
        code = main(
            ["query", *FAST, "--series", "MA/GrowthRate", "--start", "0",
             "--length", "5", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top 3 matches" in out
        assert "dist=" in out

    def test_query_json(self, capsys):
        code = main(
            ["--json", "query", *FAST, "--series", "MA/GrowthRate",
             "--length", "5", "--k", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["matches"]) == 2

    def test_seasonal(self, capsys):
        code = main(
            ["seasonal", *FAST, "--series", "MA/GrowthRate", "--length", "4",
             "--threshold", "0.1"]
        )
        assert code == 0
        assert "recurring pattern" in capsys.readouterr().out

    def test_thresholds(self, capsys):
        assert main(["thresholds", *FAST, "--length", "5"]) == 0
        out = capsys.readouterr().out
        assert "default:" in out
        assert "5%" in out

    def test_sensitivity(self, capsys):
        code = main(
            ["sensitivity", *FAST, "--series", "MA/GrowthRate",
             "--length", "5", "--grid", "0.05", "0.1", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "certain=" in out
        assert "exact=" in out
        assert "knee" in out

    def test_thresholds_sampling_options(self, capsys):
        code = main(
            ["--json", "thresholds", *FAST, "--length", "5",
             "--samples", "500", "--sample-seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["length"] == 5
        assert payload["samples"] == 500
        assert "5%" in payload["suggestions"]

    def test_thresholds_sampling_defaults(self, capsys):
        assert main(["--json", "thresholds", *FAST, "--length", "5"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(
            ["--json", "thresholds", *FAST, "--length", "5",
             "--samples", "2000", "--sample-seed", "0"]
        ) == 0
        explicit = json.loads(capsys.readouterr().out)
        assert default["samples"] == 2000
        assert explicit["suggestions"] == default["suggestions"]

    def test_profile_default_grid(self, capsys):
        code = main(
            ["--json", "profile", *FAST, "--series", "MA/GrowthRate",
             "--length", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["view"] == "sensitivity"
        # Verified by default: every grid point carries an exact count
        # bracketed by the bounds.
        assert all(e is not None for e in payload["exact"])
        for certain, exact, possible in zip(
            payload["certain"], payload["exact"], payload["possible"]
        ):
            assert certain <= exact <= possible
        # The default grid is the recommender's quantiles plus 2x default.
        assert len(payload["thresholds"]) >= 4

    def test_profile_explicit_grid_no_verify(self, capsys):
        code = main(
            ["--json", "profile", *FAST, "--series", "MA/GrowthRate",
             "--length", "5", "--grid", "0.05", "0.1", "--no-verify"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["thresholds"] == [0.05, 0.1]
        assert payload["exact"] == [None, None]

    def test_error_is_exit_code_one(self, capsys):
        code = main(
            ["query", "--source", "nasdaq", "--series", "MA/GrowthRate"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_series_reports_error(self, capsys):
        code = main(["query", *FAST, "--series", "ZZ/Nothing"])
        assert code == 1
        assert "DatasetError" in capsys.readouterr().err

    def test_ucr_source(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(
            "1,0.1,0.5,0.9,0.7,0.3,0.2\n2,0.2,0.6,1.0,0.8,0.4,0.1\n"
        )
        code = main(
            ["describe", "--source", f"ucr:{path}", "--st", "0.2",
             "--min-length", "3", "--max-length", "4"]
        )
        assert code == 0
        assert "2 series" in capsys.readouterr().out


class TestStreamCommand:
    def test_stream_requires_pattern_length(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--series", "x"])

    def test_stream_replay_human(self, capsys):
        code = main(
            ["stream", *FAST, "--series", "MA/GrowthRate",
             "--pattern-length", "5", "--chunk", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "monitor" in out
        assert "event(s):" in out
        # Replaying the very series the pattern was brushed from must fire
        # at least one exact match event at distance ~0.
        assert "match" in out

    def test_stream_replay_json(self, capsys):
        code = main(
            ["--json", "stream", *FAST, "--series", "MA/GrowthRate",
             "--pattern-length", "5", "--epsilon", "0.4", "--chunk", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monitor"]["epsilon"] == 0.4
        assert payload["points_appended"] > 0
        kinds = {e["kind"] for e in payload["events"]}
        assert "match" in kinds
        seqs = [e["seq"] for e in payload["events"]]
        assert seqs == sorted(seqs)


class TestServerRouting:
    """`--server URL` routes every operation through OnexClient."""

    @pytest.fixture()
    def server(self):
        from repro.server.http import OnexHttpServer
        from repro.server.service import OnexService

        with OnexHttpServer(OnexService()) as srv:
            yield srv

    def test_query_over_http(self, server, capsys):
        code = main(
            ["query", "--server", server.url, *FAST,
             "--series", "MA/GrowthRate", "--start", "0",
             "--length", "5", "--k", "2"]
        )
        assert code == 0
        assert "top 2 matches" in capsys.readouterr().out

    def test_reuses_dataset_already_loaded_on_server(self, server, capsys):
        # Two CLI invocations against one shared server: the second must
        # reuse the loaded dataset instead of dying on "already loaded".
        argv = ["query", "--server", server.url, *FAST,
                "--series", "MA/GrowthRate", "--length", "5", "--k", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "top 2 matches" in capsys.readouterr().out

    def test_remote_errors_surface_with_type(self, server, capsys):
        code = main(
            ["query", "--server", server.url, *FAST,
             "--series", "no-such/Series", "--length", "5"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ValidationError" in err or "DatasetError" in err
