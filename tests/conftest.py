import sys
from pathlib import Path

import pytest
from hypothesis import settings

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run, so a pass count is repeatable
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def fake_pool(monkeypatch):
    """A recording stand-in for ensemble's fork-join in a process that may run on 2 CPUs.

    No process forks: each sweep that would fork maps its blocks
    in-process.  Yields the process count of every such sweep.
    """
    from sshlab import ensemble

    made = []

    def fork_map(worker, blocks, workers):
        made.append(workers)
        return [worker(b) for b in blocks]

    monkeypatch.setattr(ensemble, "_fork_map", fork_map)
    monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1})
    return made
