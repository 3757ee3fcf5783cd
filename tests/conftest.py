import concurrent.futures

import pytest
from hypothesis import settings

# one profile for every property test: derandomized, so tier-1 stays
# deterministic, and no example database is written
settings.register_profile("tier1", derandomize=True, deadline=None, database=None,
                          max_examples=150)
settings.load_profile("tier1")


@pytest.fixture
def pool_runs(monkeypatch):
    """A list that gets the worker count of every process pool started."""
    runs = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            runs.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return runs
