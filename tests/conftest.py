import concurrent.futures

import pytest
from hypothesis import settings

from heisquat.counting import _c_list, _right_coset_representatives, _scan_c
from heisquat.heisenberg import FundamentalDomain

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


def assert_buckets_name_their_cells(order, s, scale=1):
    """Scan each right coset representative c in scale * O with n(c) <= s
    and recompute, in Fractions from the exact point, the dyadic cell of
    every kept triple: bits 0-3 halve cell4(alpha c^-1), bits 4-6 halve
    cell3(2 Im(a c^-1)).  Raises an AssertionError that names c for a
    point outside the domain or a bucket that names another cell; returns
    the number of triples checked."""
    fd = FundamentalDomain(order)
    checked = 0
    for c in _right_coset_representatives(order, _c_list(order, s, scale)):
        rec = _scan_c(fd, c, scale)
        cinv = order.to_quaternion(c).inv()
        for a, alpha, bucket in zip(rec.a.tolist(), rec.alpha.tolist(), rec.bucket.tolist()):
            x = (fd.cell4_coords(order.to_quaternion(alpha) * cinv)
                 + fd.cell3_coords(2 * (order.to_quaternion(a) * cinv).imag()))
            if not all(0 <= v < 1 for v in x):
                raise AssertionError(f"a representative of c = {rec.c} is outside the domain")
            if bucket != sum(1 << b for b, v in enumerate(x) if 2 * v >= 1):
                raise AssertionError(f"a bucket of c = {rec.c} names another cell")
            checked += 1
    return checked
