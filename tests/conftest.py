import sys
from pathlib import Path

import pytest

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def fake_pool(monkeypatch):
    """A recording stand-in for ensemble's process pool on a 2-CPU host.

    No process starts: each executor maps in-process.  Yields the
    max_workers of every executor built.
    """
    from sshlab import ensemble

    made = []

    class FakeExecutor:
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, wait=True):
            pass

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)
    return made
