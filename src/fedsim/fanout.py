"""The personalization pass, spread over forked helper processes.

Every client's personalization is independent of the others, so the pass
runs them on every core. The whole pass runs with OpenBLAS at one thread,
in the calling process and in each helper, so a client's accuracy does not
depend on which process computed it or on the caller's thread count; the
caller's count is restored afterwards.

The caller personalizes the clients longest first. After its first (the
largest) client it estimates the work left, and starts helpers only if
that work outlasts a helper's start-up and no other thread runs; small
runs start none. There is one helper per spare CPU, at most MAX_HELPERS.
A helper is a fork of the caller, made before the caller starts the
threads that feed the helpers:
it shares the train set, strategy state and clients copy-on-write (nothing
writes the read-only train arrays, so they are not copied), inherits the
one-thread BLAS setting, and never re-runs the caller's script as a spawned
interpreter would. It takes client ids one at a time over a pipe and
answers each with an accuracy over another.

A helper that dies or sends what cannot be read hands its unfinished
client back to the caller. An exception raised by a client's own
personalization, in a helper or in the caller, is re-raised in the caller
with its type and message and a note naming the client. No helper outlives
the pass. Where numpy's bundled OpenBLAS or /proc/self/maps is missing,
the pass runs every client in the caller at its thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys
import threading
import time
import traceback
from collections import deque

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
        _named(e, cl.client_id)
        raise


def helper_count(remaining_s: float, start_s: float) -> int:
    """Helpers worth starting: none unless the work left outlasts one's
    start-up and no other thread runs (a fork would copy any lock it
    holds), else one per spare CPU up to MAX_HELPERS."""
    if remaining_s <= start_s or threading.active_count() > 1:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus - 1, MAX_HELPERS)


def _send(f, obj) -> None:
    # pickled whole first, so an object that fails to pickle sends nothing
    f.write(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    f.flush()


class _Work:
    """The clients not yet taken, longest first, and what became of the rest."""

    def __init__(self, clients):
        self.todo = deque(
            sorted(clients, key=lambda c: (-c.train_indices.size, c.client_id))
        )
        self.accs: dict[int, float] = {}
        self.raised: tuple | None = None  # (client id, exception, helper traceback)
        self.lock = threading.Lock()

    def take(self):
        with self.lock:
            if self.todo and self.raised is None:
                return self.todo.popleft()
            return None

    def give_back(self, cl) -> None:
        with self.lock:
            self.todo.appendleft(cl)


def _answer(run, by_id: dict, epochs: int, requests, replies) -> None:
    """A helper's life: answer client ids until the requests end."""
    while True:
        try:
            cid = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = ("acc", client_accuracy(run, by_id[cid], epochs))
        except Exception as e:
            reply = ("raised", e, traceback.format_exc())
        _send(replies, reply)


class _Helper:
    """One forked helper process and the caller thread that feeds it clients."""

    def __init__(self, work: _Work, run, by_id: dict, epochs: int, others: list):
        self.work = work
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        sys.stdout.flush()  # or the helper could write the caller's buffer again
        sys.stderr.flush()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_DFL)  # ^C ends it quietly
                os.close(req_w)
                os.close(rep_r)
                for h in others:  # so each helper alone holds its own pipes
                    h.requests.close()
                    h.replies.close()
                with os.fdopen(req_r, "rb") as requests, os.fdopen(rep_w, "wb") as replies:
                    _answer(run, by_id, epochs, requests, replies)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)  # never back into the caller's stack
        os.close(req_r)
        os.close(rep_w)
        self.requests = os.fdopen(req_w, "wb")
        self.replies = os.fdopen(rep_r, "rb")
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        cl = None
        try:
            while (cl := self.work.take()) is not None:
                _send(self.requests, cl.client_id)
                kind, *value = pickle.load(self.replies)
                if kind == "acc":
                    self.work.accs[cl.client_id] = value[0]
                else:
                    with self.work.lock:
                        self.work.raised = (cl.client_id, *value)
                cl = None
        except (EOFError, OSError):
            pass  # it died; a helper reports its own failure on its stderr
        except Exception:  # a reply that does not unpickle
            traceback.print_exc()
        finally:
            if cl is not None:
                self.work.give_back(cl)
            with contextlib.suppress(OSError):
                self.requests.close()  # end of input: the helper exits

    def stop(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)  # a no-op on one that has exited
        with contextlib.suppress(ChildProcessError):  # reaped elsewhere
            os.waitpid(self.pid, 0)
        if self.thread.ident is not None:
            self.thread.join()
        with contextlib.suppress(OSError):
            self.requests.close()
        self.replies.close()


def personalize(run, clients, epochs: int) -> dict[int, float]:
    """Each client's personalized accuracy, by client id.

    run supplies the strategy, its state, arch, config and train set.
    """
    before = blas_threads(1)
    if before is None:
        return {cl.client_id: _own_accuracy(run, cl, epochs) for cl in clients}
    work = _Work(clients)
    helpers: list[_Helper] = []
    try:
        first = work.take()
        started = time.perf_counter()
        work.accs[first.client_id] = _own_accuracy(run, first, epochs)
        if work.todo:
            # the first client is the largest: scale its time by the rows left
            rows = sum(c.train_indices.size for c in work.todo)
            remaining_s = (time.perf_counter() - started) * rows / first.train_indices.size
            by_id = {cl.client_id: cl for cl in clients}
            with contextlib.suppress(OSError):  # no process to be had
                for _ in range(min(helper_count(remaining_s, START_S), len(work.todo))):
                    helpers.append(_Helper(work, run, by_id, epochs, helpers))
            for h in helpers:  # every fork is made before the first thread
                h.thread.start()
        while True:
            while (cl := work.take()) is not None:
                work.accs[cl.client_id] = _own_accuracy(run, cl, epochs)
            for h in helpers:  # a helper that fails hands its client back
                h.thread.join()
            if work.raised is not None or not work.todo:
                break
    finally:
        for h in helpers:
            h.stop()
        blas_threads(before)
    if work.raised is not None:
        cid, exc, tb = work.raised
        raise _named(exc, cid, f", in a helper process:\n{tb}")
    return work.accs
