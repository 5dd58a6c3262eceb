"""The worker pool: each worker runs on one BLAS thread, and a map from
inside one of its own workers is refused."""

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


def test_every_block_of_a_fresh_pool_reads_one_blas_thread(monkeypatch):
    """The caller's count does not reach the workers: each sets one thread as
    it starts, before its first block."""
    setter = workers._SET_BLAS_THREADS
    if setter is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    monkeypatch.setattr(workers, "worker_count", lambda: 2)
    monkeypatch.setattr(workers, "_pool", None)
    monkeypatch.setattr(workers, "_pool_workers", 0)
    both = threading.Barrier(2, timeout=30)  # one block on each worker

    def block(_):
        both.wait()
        return setter(1)  # the setter returns the count it replaces

    prev = setter(2)
    try:
        assert workers.map_blocks(block, [0, 1]) == [1, 1]
    finally:
        setter(prev)
        workers._pool.shutdown()
