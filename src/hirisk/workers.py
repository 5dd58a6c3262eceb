"""The worker pool: one thread per CPU, each with one BLAS thread.

The model's per-sample work runs on independent blocks of samples: the scene
trunk (encoder blocks, ST adapters, HR CNN and incorporation sites) at
inference, and at training the whole forward pass of each block and then the
backward sweep of its graph. Besides its GEMMs, most of that work is
elementwise numpy (GELU, layer norm, softmax, finite checks, depthwise conv,
im2col and their gradients), which releases the GIL but runs on one core; a
block per CPU at a time keeps every core busy. Each block's GEMMs must then
run on one BLAS thread: two workers whose GEMMs each ask for both cores of a
2-CPU box ran slower than one worker alone.

Each worker sets the count to one as it starts, through numpy's bundled
OpenBLAS (the scipy-openblas build). Its `openblas_set_num_threads_local`
sets the count for the whole process, not per thread, so from the pool's
first use every GEMM of the process runs on one thread. That includes the
serial LM decode, which on 2 CPUs is no faster on two BLAS threads (about
100 ms per default-config 50-scene batch either way). Without that library
the pool has one worker: the same code path, the same bits.

Before it starts more than one worker, the pool asks glibc for a single
malloc arena. By default each thread allocates from an arena of its own,
and each arena keeps the high-water mark of the blocks it served: on 2 CPUs
that put decode's peak RSS 12 MB (9%) above a one-arena run, at the same
speed. The GIL serialises numpy's allocations anyway.

A block's backward sweep adds its leaf gradients to a sink of its own
(`map_sinks`, `grad_sink`) rather than to the leaves the blocks share; the
caller merges the sinks in block order, so no two threads write one buffer
and the sum does not depend on which worker ran which block.

This is the one module that uses threads, per-thread state or `ctypes`.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np


def _openblas_setter():
    """numpy's bundled `openblas_set_num_threads_local(int) -> int` (it returns
    the previous count), or None when numpy ships no scipy-openblas."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        fn = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = ctypes.c_int
            return fn
    return None


_SET_BLAS_THREADS = _openblas_setter()

# glibc's `mallopt` parameter for the most malloc arenas the process may use
_M_ARENA_MAX = -8

_pool: ThreadPoolExecutor | None = None
_pool_workers = 0

# per thread: `in_pool` on the pool's own workers, `sink` during a block sweep
_local = threading.local()


def worker_count() -> int:
    """One worker per CPU this process may run on, or one when the BLAS
    thread count cannot be set."""
    return len(os.sched_getaffinity(0)) if _SET_BLAS_THREADS is not None else 1


def _start_worker() -> None:
    _local.in_pool = True
    if _SET_BLAS_THREADS is not None:
        _SET_BLAS_THREADS(1)


def _one_malloc_arena() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def _get_pool() -> ThreadPoolExecutor:
    """The process-wide pool, made on first use and again if the count changes."""
    global _pool, _pool_workers
    n = worker_count()
    if n != _pool_workers:
        if _pool is not None:
            _pool.shutdown()
        if n > 1:
            _one_malloc_arena()
        _pool = ThreadPoolExecutor(n, thread_name_prefix="hirisk-worker",
                                   initializer=_start_worker)
        _pool_workers = n
    return _pool


def map_blocks(fn: Callable, blocks: Sequence) -> list:
    """`[fn(b) for b in blocks]`, the blocks spread over the pool's workers.

    Returns once every block has finished. A failing block raises its
    exception here, the first failure in block order. A call from one of the
    pool's own workers raises RuntimeError, since it would wait on a pool
    whose workers may all be busy waiting for it.
    """
    if getattr(_local, "in_pool", False):
        raise RuntimeError("map_blocks called from one of its own workers")
    futures = [_get_pool().submit(fn, b) for b in blocks]
    wait(futures)
    return [f.result() for f in futures]


def grad_sink() -> dict | None:
    """The gradient sink of the block sweep running on this thread, or None."""
    return getattr(_local, "sink", None)


def map_sinks(fn: Callable, blocks: Sequence) -> list[dict]:
    """Run `fn(b)` for each block as `map_blocks` does, each with a fresh
    gradient sink on its thread; return the sinks in block order."""

    def run(block) -> dict:
        _local.sink = sink = {}
        try:
            fn(block)
        finally:
            _local.sink = None
        return sink

    return map_blocks(run, blocks)
