import concurrent.futures

import pytest


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
