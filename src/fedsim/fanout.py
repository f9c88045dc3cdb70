"""The personalization pass, spread over forked helper processes.

Every client's personalization is independent of the others, so the pass
runs them on every core. The whole pass runs with OpenBLAS at one thread,
in the calling process and in each helper, so a client's accuracy does not
depend on which process computed it or on the caller's thread count; the
caller's count is restored afterwards.

The caller personalizes the largest client first. From its time it
estimates the work left, and starts helpers only if that work outlasts a
helper's start-up and no other thread runs; small runs start none. There
is one helper per spare CPU, at most MAX_HELPERS, in a ProcessPoolExecutor
whose helpers are forks of the caller, made before the executor starts its
own threads. A helper shares the train set, strategy state and clients
copy-on-write (nothing writes the read-only train arrays, so they are not
copied), inherits the one-thread BLAS setting, and never re-runs the
caller's script as a spawned interpreter would.

The caller and the helpers then take the rest one client at a time from
the front, longest first: a helper is handed its next client only when its
last one is done, so no client waits queued behind a running one, a slow
helper's share falls to the caller, and the processes end within one client
of each other. A helper that dies or sends what cannot be read breaks the
pool and hands its unfinished client back to the caller. An exception
raised by a client's own personalization, in a helper or in the caller, is
re-raised in the caller with a note naming the client. No helper outlives
the pass; a fork that fails leaves every client to the caller and no
descriptor open. Where numpy's bundled OpenBLAS or /proc/self/maps is
missing, the pass runs every client in the caller at its thread count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from multiprocessing import context, popen_fork, util

from . import nn
from .rng import stream

# The count measured, on a 2-core box; more helpers are untested for speed.
MAX_HELPERS = 1
START_S = 0.05  # a fork and its first page faults take a few ms


@functools.cache
def _openblas():
    """The get and set thread-count functions of numpy's bundled OpenBLAS, or None."""
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
        return get, put
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


def client_accuracy(run, cl, epochs: int) -> float:
    """Fine-tune on cl's train split at config.lr; accuracy on its test split."""
    inputs = run.train_ds.inputs[cl.train_indices]
    labels = run.train_ds.labels[cl.train_indices]
    rng = stream(run.config.seed, "personalize", cl.client_id)
    m = run.strategy.personalize(
        run.strategy_state, inputs, labels, run.arch, run.config, epochs, rng
    )
    tx = run.train_ds.inputs[cl.test_indices]
    ty = run.train_ds.labels[cl.test_indices]
    pred = nn.forward(m, run.arch, tx).argmax(axis=1)
    return float((pred == ty).mean())


def _named(exc: BaseException, client_id: int, where: str = "") -> BaseException:
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(f"raised in the personalization of client {client_id}{where}")
    return exc


def _own_accuracy(run, cl, epochs: int) -> float:
    try:
        return client_accuracy(run, cl, epochs)
    except Exception as e:
        raise _named(e, cl.client_id)


def helper_count(remaining_s: float, start_s: float) -> int:
    """Helpers worth starting: none unless the work left outlasts one's
    start-up and no other thread runs (a fork would copy any lock it
    holds), else one per spare CPU up to MAX_HELPERS."""
    if remaining_s <= start_s or threading.active_count() > 1:
        return 0
    # Linux only, as is /proc/self/maps, without which no helper starts
    return min(len(os.sched_getaffinity(0)) - 1, MAX_HELPERS)


def _adopt(run) -> None:
    """A helper's initializer. Fork hands it the caller's run without
    pickling it; it keeps the run as _forked, a name the caller never has."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)  # ^C ends a helper quietly
    global _forked
    _forked = run


def _in_helper(cl, epochs: int) -> float:
    return client_accuracy(_forked, cl, epochs)


class _ForkPopen(popen_fork.Popen):
    """CPython's fork Popen, except that a fork that raises closes the two
    pipes made for the child: popen_fork.Popen._launch leaves them open
    (seen in 3.11), four descriptors lost per pass that cannot fork."""

    def _launch(self, process_obj):
        parent_r, child_w = os.pipe()
        child_r, parent_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            util.close_fds(parent_r, child_w, child_r, parent_w)
            raise
        if self.pid == 0:
            try:  # the helper never returns into the caller's code
                util.close_fds(parent_r, parent_w)
                os._exit(process_obj._bootstrap(parent_sentinel=child_r))
            finally:
                os._exit(1)
        util.close_fds(child_w, child_r)
        self.finalizer = util.Finalize(self, util.close_fds, (parent_r, parent_w))
        self.sentinel = parent_r


class _Fork(context.ForkContext):
    class Process(context.ForkProcess):
        _Popen = staticmethod(_ForkPopen)


def _shared(run, clients, epochs: int, n: int) -> dict[int, float]:
    """The accuracies that n helpers and the caller computed.

    The caller and the helpers take the clients one at a time from the
    front, longest first. A helper is handed its next client by a callback
    in the executor's thread when its last one is done, so none waits
    queued behind a running one and the processes end within one client of
    each other. After a broken pool the rest are left out, for the caller
    to finish.
    """
    pool = ProcessPoolExecutor(n, mp_context=_Fork(), initializer=_adopt, initargs=(run,))
    left, handed, accs = deque(clients), [], {}
    lock = threading.Lock()

    def hand_out(done=None):
        with lock:
            if done is not None and done.exception() is not None:
                left.clear()  # a broken pool or a client's error ends the hand-out
            if not left:
                return
            try:
                fut = pool.submit(_in_helper, left[0], epochs)
            except (OSError, RuntimeError):  # no helper to be had, or the pool broke or shut down
                return
            handed.append((left.popleft(), fut))
        fut.add_done_callback(hand_out)  # at once, in this thread, if already done

    try:
        for _ in range(n):
            hand_out()
        while True:
            with lock:  # once none is left, no helper is handed more
                if not left:
                    break
                cl = left.popleft()
            accs[cl.client_id] = _own_accuracy(run, cl, epochs)
        for cl, fut in handed:
            try:
                accs[cl.client_id] = fut.result()
            except BrokenProcessPool as e:  # a helper died or sent what cannot be read
                traceback.print_exception(e)  # once per helper: each held one client
            except Exception as e:  # the note carries the helper's traceback
                raise _named(e, cl.client_id, f", in a helper process:{e.__cause__}") from None
    finally:
        pool.shutdown()  # on an error, the helpers finish only what they hold
    return accs


def personalize(run, clients, epochs: int) -> dict[int, float]:
    """Each client's personalized accuracy, by client id.

    run supplies the strategy, its state, arch, config and train set.
    """
    before = blas_threads(1)
    first, *rest = sorted(clients, key=lambda c: (-c.train_indices.size, c.client_id))
    try:
        started = time.perf_counter()
        accs = {first.client_id: _own_accuracy(run, first, epochs)}
        if before is not None:  # helpers only where their BLAS threads can be pinned
            # the first client is the largest: scale its time by the rows left
            rows = sum(c.train_indices.size for c in rest)
            remaining_s = (time.perf_counter() - started) * rows / first.train_indices.size
            if n := min(helper_count(remaining_s, START_S), len(rest)):
                accs |= _shared(run, rest, epochs, n)
        accs |= {cl.client_id: _own_accuracy(run, cl, epochs)  # what no helper finished
                 for cl in rest if cl.client_id not in accs}
    finally:
        blas_threads(before)
    return accs
