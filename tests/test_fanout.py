"""The personalization pass on forked helper processes.

Helpers are forced on or off by replacing `fanout.helper_count`. A helper
is a fork of the test process, so it sees the test's monkeypatches; a
replaced `fanout.client_accuracy` tells the two apart by process id. Where
a test needs a helper to take a client, the calling process waits, after
its first client, until a helper has touched a file. The helper threads
of `on_threads` are tested through the NIW eval, in test_niw.py.
"""

import collections
import contextlib
import glob
import os
import pathlib
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest

from fedsim import experiment, fanout, runtime

needs_openblas = pytest.mark.skipif(
    fanout.blas_threads() is None, reason="numpy's bundled OpenBLAS not found"
)


def small_spec(tmp_path, strategy="fedavg"):
    return experiment.parse_spec_dict({
        "out": str(tmp_path / "out"),
        "dataset": {"kind": "synthetic", "clusters": 2, "classes": 3, "dims": 6,
                    "train_per_class": 40, "test_per_class": 10, "shift": 0.5,
                    "noise_sd": 0.3},
        "partition": {"kind": "dirichlet", "alpha": 1.0},
        "model": {"hidden": [8]},
        "federated": {"n_clients": 6, "participation": 0.5, "rounds": 2,
                      "strategy": strategy, "batch_size": 10},
        "evaluation": {"personalization_epochs": 2},
    })


def trained_run(spec):
    run = experiment.build_run(spec)
    runtime.run_round(run, evaluate=False)
    return run


def helpers(monkeypatch, n):
    monkeypatch.setattr(fanout, "helper_count", lambda *_: n)


def in_helpers(monkeypatch, tmp_path, body=None):
    """Clients computed in a helper write its BLAS thread count and whether
    ^C would end it quietly to the returned file, then run
    body(run, cl, epochs), by default the real computation; the caller's
    clients are left alone."""
    caller = os.getpid()
    took = tmp_path / "helper_took_a_client"
    real = fanout.client_accuracy

    def client_accuracy(run, cl, epochs):
        if os.getpid() == caller:
            return real(run, cl, epochs)
        quiet = signal.getsignal(signal.SIGINT) is signal.SIG_DFL
        took.write_text(f"{fanout.blas_threads()} {quiet}")
        return (body or real)(run, cl, epochs)

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    return took


def caller_waits_for(monkeypatch, took: pathlib.Path) -> list:
    """After its first client, the caller waits until a helper took one;
    returns the ids of the clients the caller computed."""
    real = fanout._own_accuracy
    own = []

    def wait_then_compute(run, cl, epochs):
        deadline = time.monotonic() + 60
        while own and not took.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        own.append(cl.client_id)
        return real(run, cl, epochs)

    monkeypatch.setattr(fanout, "_own_accuracy", wait_then_compute)
    return own


def report_without_helpers(spec, monkeypatch):
    helpers(monkeypatch, 0)
    return runtime.evaluate_personalized(trained_run(spec), 2)


def child_pids() -> list[str]:
    """The children of every thread of this process, zombies included."""
    pids = []
    for task in glob.glob("/proc/self/task/*/children"):
        # a thread that ended since the glob had its children moved to another
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            pids += pathlib.Path(task).read_text().split()
    return sorted(pids)


@contextlib.contextmanager
def thread_exceptions():
    """Yields the list of what escapes a thread inside the block, unprinted."""
    raised, hook = [], threading.excepthook
    threading.excepthook = lambda args: raised.append(type(args.exc_value))
    try:
        yield raised
    finally:
        threading.excepthook = hook


@contextlib.contextmanager
def within(seconds: int):
    """Raises TimeoutError in the block if it runs longer than seconds."""
    def hung(*_):
        raise TimeoutError(f"still running after {seconds} s")

    alarm = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)


def equal_clients(n: int):
    return [runtime.ClientState(i, np.arange(10), np.arange(1)) for i in range(n)]


@needs_openblas
class TestHelpers:
    def test_report_identical_with_and_without_a_helper(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path, "mixture")
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        took = in_helpers(monkeypatch, tmp_path)
        own = caller_waits_for(monkeypatch, took)
        run = trained_run(spec)
        shared = runtime.evaluate_personalized(run, 2)
        assert shared == alone
        assert 1 <= len(own) < len(alone.per_client)  # the helper did the rest
        assert took.read_text() == "1 True"
        # in client-id order, though the clients ran longest first
        sizes = [cl.train_indices.size for cl in run.clients]
        assert sizes != sorted(sizes, reverse=True)
        before = fanout.blas_threads(1)
        try:
            direct = [fanout.client_accuracy(run, cl, 2) for cl in run.clients
                      if cl.test_indices.size]
        finally:
            fanout.blas_threads(before)
        assert shared.per_client == tuple(direct)

    def test_helper_dying_mid_client_hands_it_back(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        took = in_helpers(monkeypatch, tmp_path, body=lambda *_: os._exit(3))
        own = caller_waits_for(monkeypatch, took)
        threads = threading.active_count()
        with thread_exceptions() as raised:
            assert runtime.evaluate_personalized(trained_run(spec), 2) == alone
        assert raised == []  # the executor's thread ended the pool itself
        assert len(own) == len(alone.per_client)  # the caller did the dead one's client
        assert threading.active_count() == threads
        assert child_pids() == []

    def test_reply_that_does_not_unpickle_hands_it_back(self, tmp_path, monkeypatch, capfd):
        spec = small_spec(tmp_path)
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        took = in_helpers(monkeypatch, tmp_path, body=lambda *_: Unreadable())
        own = caller_waits_for(monkeypatch, took)
        threads = threading.active_count()
        with thread_exceptions() as raised:
            assert runtime.evaluate_personalized(trained_run(spec), 2) == alone
        assert raised == []
        assert len(own) == len(alone.per_client)
        assert "unreadable reply" in capfd.readouterr().err
        assert threading.active_count() == threads
        assert child_pids() == []  # the helper that sent it lives on no longer

    def test_client_raising_in_a_helper_is_reraised_naming_it(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        helpers(monkeypatch, 1)

        def fail(run, cl, epochs):
            raise ValueError(f"no good: {cl.train_indices.size} rows")

        own = caller_waits_for(monkeypatch, in_helpers(monkeypatch, tmp_path, fail))
        with pytest.raises(ValueError) as info:
            runtime.evaluate_personalized(trained_run(spec), 2)
        assert re.fullmatch(r"no good: \d+ rows", str(info.value))
        (note,) = info.value.__notes__
        named = int(note.split("client ")[1].split(",")[0])
        assert named not in own
        assert f"client {named}, in a helper process" in note
        assert "in fail" in note  # the helper's traceback

    def test_client_raising_in_the_caller_is_named(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        helpers(monkeypatch, 0)

        def fail(run, cl, epochs):
            raise FloatingPointError(f"diverged on {cl.client_id}")

        monkeypatch.setattr(fanout, "client_accuracy", fail)
        with pytest.raises(FloatingPointError) as info:
            runtime.evaluate_personalized(trained_run(spec), 2)
        cid = re.fullmatch(r"diverged on (\d+)", str(info.value)).group(1)
        assert info.value.__notes__ == [f"raised in the personalization of client {cid}"]

    def test_blas_threads_restored_and_one_during_the_pass(self, tmp_path, monkeypatch):
        run = trained_run(small_spec(tmp_path))
        helpers(monkeypatch, 0)
        seen = []
        real = fanout.client_accuracy

        def record(run, cl, epochs):
            seen.append(fanout.blas_threads())
            return real(run, cl, epochs)

        monkeypatch.setattr(fanout, "client_accuracy", record)
        original = fanout.blas_threads(2)
        try:
            runtime.evaluate_personalized(run, 2)
            assert fanout.blas_threads() == 2
            assert set(seen) == {1}
            monkeypatch.setattr(fanout, "client_accuracy", lambda *_: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                runtime.evaluate_personalized(run, 2)
            assert fanout.blas_threads() == 2
        finally:
            fanout.blas_threads(original)

    def test_no_helper_outlives_run_experiment(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        helpers(monkeypatch, 0)
        alone = experiment.run_experiment(spec)["personalization"]
        helpers(monkeypatch, 1)
        caller_waits_for(monkeypatch, in_helpers(monkeypatch, tmp_path))
        forked = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        assert experiment.run_experiment(spec)["personalization"] == alone
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(forked[0], os.WNOHANG)
        assert child_pids() == []

    def test_failed_fork_leaves_the_work_to_the_caller(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        fds = len(os.listdir("/proc/self/fd"))

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert runtime.evaluate_personalized(trained_run(spec), 2) == alone
        assert len(os.listdir("/proc/self/fd")) == fds  # its pipes closed


def _refuse_to_unpickle():
    raise RuntimeError("unreadable reply")


class Unreadable:
    def __reduce__(self):
        return _refuse_to_unpickle, ()


@needs_openblas
@pytest.mark.parametrize("n", [1, 3])
def test_each_client_is_computed_once_by_the_caller_or_a_helper(tmp_path, monkeypatch, n):
    # n = 3 runs more helpers than a 2-core box has cores
    helpers(monkeypatch, n)
    caller = os.getpid()
    log = tmp_path / "computed"

    def client_accuracy(run, cl, epochs):
        time.sleep(0.005)
        with open(log, "a") as f:  # one short O_APPEND write per client
            f.write(f"{os.getpid()} {cl.client_id}\n")
        return cl.client_id / 100

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    clients = equal_clients(40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the caller and the executor's thread interleave often
    try:
        with within(60):
            accs = fanout.personalize(None, clients, 1)
    finally:
        sys.setswitchinterval(interval)
    assert accs == {cl.client_id: cl.client_id / 100 for cl in clients}
    computed = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(cid) for _, cid in computed) == list(range(40))
    by = collections.Counter(int(pid) for pid, _ in computed)
    assert caller in by and len(by) > 1  # the caller and a helper both took clients
    assert max(count for pid, count in by.items() if pid != caller) > 1  # handed more than one
    assert child_pids() == []


def wait_for(path: pathlib.Path) -> None:
    deadline = time.monotonic() + 60
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


@needs_openblas
def test_helper_dying_while_its_queue_is_full_hands_back_and_ends(tmp_path, monkeypatch):
    # Each client's indices outgrow a pipe's buffer, so the call queue's
    # feeder thread writes a client to the helper in many pieces; when the
    # helper dies mid-client, the pass must end, not wait on the feeder.
    helpers(monkeypatch, 1)
    caller = os.getpid()
    took, busy = tmp_path / "helper_took_a_client", tmp_path / "caller_took_another"
    own = []

    def client_accuracy(run, cl, epochs):
        if os.getpid() == caller:
            own.append(cl.client_id)
            if len(own) == 2:  # the first came before the pool
                wait_for(took)
                busy.touch()
            return 0.5
        took.touch()
        wait_for(busy)
        os._exit(3)

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    clients = [runtime.ClientState(i, np.arange(100_000), np.arange(1)) for i in range(12)]
    with within(60), thread_exceptions() as raised:
        accs = fanout.personalize(None, clients, 1)
    assert accs == {i: 0.5 for i in range(12)} and sorted(own) == list(range(12))
    assert raised == []
    assert child_pids() == []


@needs_openblas
def test_a_slow_helper_holds_one_client_and_the_caller_takes_the_rest(tmp_path, monkeypatch):
    # A helper is handed one client at a time: while its first runs, none
    # waits queued for it, so the caller computes every other client and
    # the pass ends one client after the caller's last.
    helpers(monkeypatch, 1)
    caller = os.getpid()
    done, log = tmp_path / "caller_done", tmp_path / "computed"

    def client_accuracy(run, cl, epochs):
        if os.getpid() != caller:
            wait_for(done)
        else:
            time.sleep(0.02)  # time enough to queue clients for the helper
            if cl.client_id == 9:  # the last of equal clients, in id order
                done.touch()
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {cl.client_id}\n")
        return cl.client_id / 100

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    accs = fanout.personalize(None, equal_clients(10), 1)
    assert accs == {i: i / 100 for i in range(10)}
    computed = [line.split() for line in log.read_text().splitlines()]
    assert [int(cid) for pid, cid in computed if int(pid) != caller] == [1]
    assert sorted(int(cid) for pid, cid in computed if int(pid) == caller) == [0, *range(2, 10)]


@needs_openblas
def test_an_error_in_a_helper_ends_the_hand_out(tmp_path, monkeypatch):
    helpers(monkeypatch, 1)
    caller = os.getpid()
    log, own = tmp_path / "helper_took", []

    def client_accuracy(run, cl, epochs):
        if os.getpid() != caller:
            with open(log, "a") as f:
                f.write(f"{cl.client_id}\n")
            raise ValueError(f"no good: {cl.client_id}")
        own.append(cl.client_id)
        time.sleep(0.02)
        return 0.5

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    with pytest.raises(ValueError, match="no good: 1"):
        fanout.personalize(None, equal_clients(40), 1)
    assert log.read_text().split() == ["1"]  # the helper was handed no more
    assert len(own) < 20  # nor did the caller take the 38 left


@needs_openblas
def test_an_error_in_the_caller_ends_the_hand_out(tmp_path, monkeypatch):
    # the error surfaces once the helper has finished the client it holds,
    # not after it has worked through the rest
    helpers(monkeypatch, 1)
    caller = os.getpid()
    log = tmp_path / "helper_computed"

    def client_accuracy(run, cl, epochs):
        if os.getpid() != caller:
            time.sleep(0.02)
            with open(log, "a") as f:
                f.write(f"{cl.client_id}\n")
            return 0.5
        if cl.client_id == 0:  # the first, before the pool
            return 0.5
        wait_for(log)
        raise FloatingPointError(f"diverged on {cl.client_id}")

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    with pytest.raises(FloatingPointError):
        fanout.personalize(None, equal_clients(20), 1)
    assert 1 <= len(log.read_text().split()) <= 2
    assert child_pids() == []


@needs_openblas
def test_two_passes_in_a_row_each_start_a_helper_and_leave_nothing(monkeypatch):
    # the real helper_count: a thread left over from the first pass would
    # quietly keep the second from starting a helper
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    caller = os.getpid()

    def client_accuracy(run, cl, epochs):
        time.sleep(0.01)
        return float(os.getpid() != caller)

    monkeypatch.setattr(fanout, "client_accuracy", client_accuracy)
    clients = equal_clients(20)
    for _ in range(2):
        threads, children = threading.active_count(), child_pids()
        accs = fanout.personalize(None, clients, 1)
        assert 1.0 in accs.values()  # a helper computed a client
        assert threading.active_count() == threads
        assert child_pids() == children


def test_without_openblas_the_caller_runs_every_client(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    alone = report_without_helpers(spec, monkeypatch)

    def never(*_):
        raise AssertionError("no helper may start without the BLAS thread control")

    monkeypatch.setattr(fanout, "_openblas", lambda: None)
    monkeypatch.setattr(fanout, "helper_count", never)
    assert fanout.blas_threads(1) is None
    assert runtime.evaluate_personalized(trained_run(spec), 2) == alone


def test_small_runs_start_no_helper(tmp_path, monkeypatch):
    run = trained_run(small_spec(tmp_path))

    def fork():
        raise AssertionError("a small run started a helper")

    monkeypatch.setattr(os, "fork", fork)
    runtime.evaluate_personalized(run, 2)


@pytest.mark.parametrize("remaining_s,start_s,cpus,expected", [
    (0.5, 1.0, 8, 0), (1.0, 1.0, 8, 0), (2.0, 1.0, 8, 1), (2.0, 1.0, 2, 1),
    (2.0, 1.0, 1, 0),
])
def test_helper_count(monkeypatch, remaining_s, start_s, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert fanout.helper_count(remaining_s, start_s) == expected


def test_no_helper_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert fanout.helper_count(2.0, 1.0) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert fanout.helper_count(2.0, 1.0) == 0
    finally:
        release.set()
        other.join()


def test_a_thread_that_cannot_start_leaves_the_work_to_the_caller(monkeypatch):
    monkeypatch.setattr(fanout, "workers", lambda: 2)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ran_in = []
    fanout.on_threads(lambda: ran_in.append(threading.get_ident()))
    assert ran_in == [threading.get_ident()]
