"""The repo's one serving benchmark: five workloads driven over HTTP
against a real ``python -m repro serve`` subprocess, end-to-end metrics
from an untraced run and per-layer metrics from a separately traced run.

See ``bench/README.md`` for the metric and workload tables.
"""

import sys
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``bench/``).
ROOT = Path(__file__).resolve().parent.parent

#: The program under test lives in ``src/`` and is not installed; a
#: checkout without it cannot be benchmarked and the import below fails.
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
