"""Contract tests for the public API surface.

A downstream user's view of the library is ``repro.__all__`` and the
``__all__`` of each module; these tests pin that surface: every
advertised name resolves, everything callable is documented, every
module has a consumer named in DESIGN.md §3, and the README's example
scripts run.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

import repro
from repro.baselines.brute_force import BruteForceSearcher
from repro.core.grouping import cluster_subsequence_rows, cluster_subsequences
from repro.core.mmap_layout import clean_stale_snapshots
from repro.server.pool import WorkerPool
from repro.server.service import OnexService
from repro.server.supervisor import Supervisor

ROOT = Path(repro.__file__).resolve().parents[2]

# ``repro.__main__`` runs the CLI when imported.
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
)

README_EXAMPLES = sorted(
    {
        line.split("examples/")[1].split()[0]
        for line in (ROOT / "README.md").read_text().splitlines()
        if "python examples/" in line
    }
)


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing {name}"

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_key_entry_points_exported(self):
        for name in (
            "OnexEngine",
            "OnexBase",
            "QueryProcessor",
            "BuildConfig",
            "QueryConfig",
            "TimeSeries",
            "TimeSeriesDataset",
            "UcrSuiteSearcher",
            "SpringMatcher",
            "StreamIngestor",
            "MonitorRegistry",
            "OnlineSpringMatcher",
            "KnnClassifier",
            "similarity_profile",
            "find_seasonal_patterns",
            "recommend_thresholds",
            "build_matters_collection",
            "build_electricity_collection",
        ):
            assert name in repro.__all__, f"{name} missing from repro.__all__"


#: Every parameter of the entry points that once took test-only settings.
SETTINGS = {
    repro.QueryProcessor.batch_matches:
        ["self", "queries", "k", "lengths", "normalize", "deadline"],
    repro.OnexEngine.load_dataset:
        ["self", "dataset", "similarity_threshold", "min_length", "max_length",
         "step", "normalize", "num_workers", "deadline"],
    WorkerPool.__init__: ["self", "size", "service_config", "on_capacity_change"],
    Supervisor.__init__:
        ["self", "service", "workers", "snapshot_root", "query_config_kwargs",
         "default_timeout_ms"],
    OnexService.__init__:
        ["self", "query_config", "default_build_workers", "default_timeout_ms",
         "durability"],
    repro.MonitorRegistry.__init__: ["self", "base"],
    BruteForceSearcher.__init__: ["self", "dataset"],
    clean_stale_snapshots: ["root"],
}  # fmt: skip


class TestNoExecutionSelectors:
    """DESIGN.md §1: production code has one path per operation, a
    correctness witness is a private same-signature function a test
    substitutes — never an argument or a config field — and a setting
    exists only while a non-test caller sets it (tests substitute module
    constants).  A new selector or setting has to edit this test, and say
    why one path or one value is not enough."""

    def test_config_fields_are_exactly_these(self):
        assert {f.name for f in dataclasses.fields(repro.QueryConfig)} == {
            "mode", "refine_groups", "window", "use_lower_bounds",
            "use_group_pruning", "deadline", "metric",
        }  # fmt: skip
        assert {f.name for f in dataclasses.fields(repro.BuildConfig)} == {
            "similarity_threshold", "min_length", "max_length", "step",
            "normalize", "num_workers",
        }  # fmt: skip

    @pytest.mark.parametrize(
        "function", list(SETTINGS), ids=lambda function: function.__qualname__
    )
    def test_settings_are_exactly_these(self, function):
        """The thread fan-out, the build backend, the pool, service and
        monitor timings, the brute-force scan modes and the snapshot
        sweep's keep count were settings only tests set; they are
        constants now, or gone with the path they selected."""
        assert list(inspect.signature(function).parameters) == SETTINGS[function]

    @pytest.mark.parametrize(
        "function",
        [
            repro.find_seasonal_patterns,
            repro.similarity_profile,
            repro.recommend_thresholds,
            cluster_subsequences,
            cluster_subsequence_rows,
        ],
    )
    def test_no_signature_selects_an_implementation(self, function):
        """The batched-or-scalar switches these five once took."""
        parameters = inspect.signature(function).parameters
        assert not [name for name in parameters if "batch" in name]


class TestModules:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_all_resolves_and_is_sorted(self, module_name):
        module = importlib.import_module(module_name)
        if not hasattr(module, "__all__"):
            # A package re-exports only what some file imports through it,
            # which may be nothing; a module always states its surface.
            assert hasattr(module, "__path__"), f"{module_name} lacks __all__"
            return
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"
        assert list(module.__all__) == sorted(module.__all__), (
            f"{module_name}.__all__ is not sorted"
        )

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_objects_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{module_name}.{name} lacks a docstring"

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()


class TestRepositoryLayout:
    @pytest.mark.parametrize("example", README_EXAMPLES)
    def test_readme_examples_run(self, example):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, str(ROOT / "examples" / example)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, f"{example} failed:\n{done.stderr[-2000:]}"

    def test_every_module_has_a_consumer_row(self):
        """DESIGN.md §3's consumer table names every module of
        ``src/repro`` and nothing else: a module no row can name goes."""
        package = ROOT / "src" / "repro"
        section = (ROOT / "DESIGN.md").read_text().split("\n## §3 ", 1)[1]
        section = section.split("\n## ", 1)[0]
        table = section.split("\n| module | consumer |\n", 1)[1].split("\n\n", 1)[0]
        listed = {
            path
            for row in table.splitlines()[1:]
            for path in re.findall(r"`([\w/]+\.py)`", row.split("|")[1])
        }
        modules = {
            path.relative_to(package).as_posix()
            for path in package.rglob("*.py")
            if path.name not in ("__init__.py", "__main__.py")
        }
        assert sorted(modules - listed) == [], "modules without a consumer row"
        assert sorted(listed - modules) == [], "rows naming no module"

    def test_design_and_experiments_present(self):
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
            text = (ROOT / doc).read_text()
            assert len(text) > 1000, f"{doc} looks unexpectedly thin"

    def test_every_benchmark_maps_to_design_index(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in design, (
                f"{bench.name} not referenced in DESIGN.md's experiment index"
            )

    def test_every_documented_path_resolves(self):
        """The converse: a backticked ``*.py``, ``BENCH_*.json`` or
        ``dir/file.ext`` in the three documents names a file of this tree
        (a bare name anywhere in it, a partial path by suffix), and the
        names after a ``file.py::`` are defined in that file.  Names a
        running server writes (``wal.log``, ``meta.json``) and templates
        (``<data-dir>/...``) are not repo paths and are not checked."""
        files = []
        for directory, subdirs, names in os.walk(ROOT):
            subdirs[:] = [d for d in subdirs if d not in (".git", ".bench_work")]
            files += [Path(directory, name).as_posix() for name in names]
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            text = (ROOT / doc).read_text()
            for path, names in set(re.findall(r"`([\w./-]+)(?:::([\w:]+))?`", text)):
                if not (
                    path.endswith(".py")
                    or fnmatch(path, "BENCH_*.json")
                    or ("/" in path and re.search(r"\.\w+$", path))
                ):
                    continue
                found = [f for f in files if f.endswith("/" + path)]
                assert found, f"{doc} names `{path}`, which is not in the tree"
                source = Path(found[0]).read_text() if names else ""
                for name in filter(None, names.split("::")):
                    assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), (
                        f"{doc} names `{path}::{names}`; {path} defines no {name}"
                    )
