"""Count-based deadline expiry for tests.

A deadline under test must fire at a chosen chunk boundary, never from
sleeping or the wall clock: a loaded runner would otherwise move where
it fires.
"""

import math
from types import SimpleNamespace

from repro.core import deadline as deadline_module
from repro.testing import faults


def expire_at_refine_unit(monkeypatch, nth: int) -> None:
    """Make every deadline expire when ``query.refine_unit`` fires for the
    *nth* time (``0``: expired from the start).

    The deadline module reads a stand-in clock that stands still, so no
    budget runs out on its own, until that failpoint moves it past every
    budget: the checks before it pass and the one right after it fires.
    """
    now = [0.0 if nth else math.inf]
    fired = 0

    def fire(point, **ctx):
        nonlocal fired
        if point == "query.refine_unit":
            fired += 1
            if fired == nth:
                now[0] = math.inf

    monkeypatch.setattr(faults, "fire", fire)
    monkeypatch.setattr(
        deadline_module, "time", SimpleNamespace(monotonic=lambda: now[0])
    )
