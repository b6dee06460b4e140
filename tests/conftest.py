import concurrent.futures
import pickle

import pytest


class InProcessPool:
    """Stands in for ProcessPoolExecutor: each submitted call runs at once
    in this process, and the call, its result and any exception it raises
    go through pickle, as they would between a worker and its parent.  A
    monkeypatch in the test therefore reaches the "workers" whatever start
    method a real pool would use."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        fn, args, kwargs = pickle.loads(pickle.dumps((fn, args, kwargs)))
        future = concurrent.futures.Future()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            future.set_exception(pickle.loads(pickle.dumps(exc)))
        else:
            future.set_result(pickle.loads(pickle.dumps(result)))
        return future


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace concurrent.futures.ProcessPoolExecutor by InProcessPool."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return InProcessPool
