"""A real server, a real load generator, and no process left behind."""

import time

import numpy as np

from bench import driver, hostspeed, plan, spec
from bench.server import session_pids


def test_explore_fine_smoke_leaves_no_process(tmp_path):
    from repro.data.ucr_format import load_ucr_file

    rng = np.random.default_rng(3)
    source = tmp_path / "toy.txt"
    rows = np.cumsum(rng.normal(size=(12, 30)), axis=1)
    source.write_text("\n".join(" ".join(["1", *map(repr, map(float, row))]) for row in rows))
    catalog = plan.catalog_of(load_ucr_file(source))
    workload = spec.WORKLOAD_BY_NAME["explore_fine"]

    deployment = driver.Deployment(
        workload,
        tmp_path / "work",
        load_params={
            "source": f"ucr:{source}",
            "similarity_threshold": workload.similarity_threshold,
            "min_length": 5,
            "max_length": 12,
        },
    )
    sid = deployment.server.sid
    try:
        assert deployment.loaded["series"] == 12
        assert session_pids(sid) == [sid], "--workers 0 is one process"
        client = driver.ClientThread(deployment.server.url, plan.stream(workload, catalog, 1))
        client.stop_at = time.perf_counter() + 0.5
        client.start()
        client.join(timeout=30)
        assert not client.is_alive()
    finally:
        deployment.close()
        hostspeed.release()  # the rest of the test session may use every core
    samples = client.samples
    assert samples and all(s.ok and s.probe > 0 for s in samples)
    assert {s.cls for s in samples} <= {"similarity", "range", "batch", "browse"}
    assert session_pids(sid) == [], "the server's session must be empty after close()"
