"""Work spread over every core at one BLAS thread, on threads of the caller.

`workers()` counts them: the caller plus one helper thread per spare CPU
in the process's affinity set, at most MAX_HELPERS. `each` is the one
claim loop on them, which every strategy's global eval,
`runtime.evaluate_personalized` and `data`'s input check (row blocks in
memory, a container's pieces) share. It pins OpenBLAS to one thread, runs
the loop in the caller and the helper threads at once, joins them and
re-raises a helper's exception in the caller; the caller's count is
restored afterwards. A single unit starts no helper. Where numpy's bundled OpenBLAS is missing,
the caller works alone at its thread count.

Pinning parks OpenBLAS's pool (`blas_thread_shutdown_`, where exported),
whose idle worker spins 100-200 ms after a multi-thread call on the core a
helper needs; restoring the count re-creates it, same bits, in under 0.4 ms.

Each thread claims its next unit from one locked list, and the threads
share whatever the units reference without copying it. At one BLAS
thread, a unit's result depends neither on which thread computed it nor on
the host's thread count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections import deque

import numpy  # noqa: F401  maps the bundled OpenBLAS that _openblas looks for

# The count measured, on a 2-core box; more helpers are untested for speed.
MAX_HELPERS = 1


@functools.cache
def _openblas():
    """The get and set thread-count functions of numpy's bundled OpenBLAS and
    its thread-pool shutdown (None where not exported), or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "scipy_openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        park = getattr(lib, "blas_thread_shutdown_", None)
        if park is not None:
            park.argtypes, park.restype = [], ctypes.c_int
        return get, put, park
    return None


def blas_threads(n: int | None = None) -> int | None:
    """OpenBLAS's thread count before the call, which sets it to n if given.

    None, with nothing set, where numpy's bundled OpenBLAS cannot be found.
    """
    fns = _openblas()
    if fns is None:
        return None
    before = fns[0]()
    if n is not None:
        fns[1](n)
    return before


def workers() -> int:
    """The caller plus one helper thread per spare CPU, at most MAX_HELPERS:
    the threads worth running at once."""
    # Linux only, as is /proc/self/maps, without which no helper starts
    return 1 + min(len(os.sched_getaffinity(0)) - 1, MAX_HELPERS)


def each(units, compute, note, claim=None) -> list:
    """[compute(claim(u)) for u in units], computed by the caller and
    workers() - 1 helper threads, but no more threads than units (see the
    module docstring); without claim, compute(u).

    A thread takes the next unit, and runs claim on it, under one lock, so
    the claims run one at a time in unit order; it runs compute outside
    the lock and stores the result at the unit's index. An exception in
    either empties the list, so the other threads stop after the unit they
    hold, and is re-raised in the caller with the note note(u). Every
    helper is joined before this returns or raises; one that cannot start
    leaves its share to the others.
    """
    units = list(units)
    results = [None] * len(units)
    left = deque(range(len(units)))
    lock = threading.Lock()
    raised = []

    def work():
        i = None
        try:
            while True:
                with lock:
                    if not left:
                        return
                    i = left.popleft()
                    arg = units[i] if claim is None else claim(units[i])
                results[i] = compute(arg)
        except BaseException as e:
            with lock:
                left.clear()
            if i is not None:
                e.add_note(note(units[i]))
            raise

    def helper():
        try:
            work()
        except BaseException as e:
            raised.append(e)

    before = blas_threads(1)
    if before is not None and _openblas()[2] is not None:
        _openblas()[2]()  # park: no helper has started, so no other thread is in BLAS
    started = []
    try:
        for _ in range(min(workers(), len(units)) - 1 if before is not None else 0):
            t = threading.Thread(target=helper, name="fedsim-helper")
            try:
                t.start()
            except RuntimeError:  # no thread to be had: the others do the work
                break
            started.append(t)
        work()
    finally:
        for t in started:
            t.join()
        blas_threads(before)
    if raised:
        raise raised[0]
    return results
