"""The worker pool refuses a map from inside one of its own workers."""

import threading

import pytest

from hirisk import workers


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_block_that_maps_blocks_raises_instead_of_waiting(monkeypatch, n_workers):
    """A nested map would wait on a pool whose workers all wait on it."""
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    raised = []

    def outer():
        try:
            workers.map_blocks(lambda b: workers.map_blocks(abs, [b]), [-1, -2])
        except RuntimeError as err:
            raised.append(err)

    caller = threading.Thread(target=outer, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert len(raised) == 1 and "own workers" in str(raised[0])
