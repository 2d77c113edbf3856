from concurrent.futures import ThreadPoolExecutor

import pytest

from sfheat import fk


@pytest.fixture
def set_workers(monkeypatch):
    """Sets fk._WORKERS and gives each setting a pool of its own size, so
    that as many helper threads really run; the pools are shut down after
    the test."""
    pools = []

    def set_to(workers):
        pools.append(ThreadPoolExecutor(max_workers=max(1, workers - 1)))
        monkeypatch.setattr(fk, "_WORKERS", workers)
        monkeypatch.setattr(fk, "_POOL", pools[-1])

    yield set_to
    for pool in pools:
        pool.shutdown(wait=True)
