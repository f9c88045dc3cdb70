"""The personalization pass on forked helper processes.

Helpers are forced on or off by replacing `fanout.helper_count`. A helper
is a fork of the test process, so it sees the test's monkeypatches; a
replaced `fanout.client_accuracy` tells the two apart by process id. Where
a test needs a helper to take a client, the calling process waits, after
its first client, until a helper has touched a file.
"""

import os
import pathlib
import re
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
    """Clients computed in a helper write its BLAS thread count to the
    returned file, then run body(run, cl, epochs), by default the real
    computation; the caller's clients are left alone."""
    caller = os.getpid()
    took = tmp_path / "helper_took_a_client"
    real = fanout.client_accuracy

    def client_accuracy(run, cl, epochs):
        if os.getpid() == caller:
            return real(run, cl, epochs)
        took.write_text(str(fanout.blas_threads()))
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


def pipe_of(f) -> str:
    return os.readlink(f"/proc/self/fd/{f.fileno()}")


def child_pids() -> list[str]:
    children = pathlib.Path(f"/proc/self/task/{threading.get_native_id()}/children")
    return children.read_text().split() if children.exists() else []


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
        assert took.read_text() == "1"
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
        assert runtime.evaluate_personalized(trained_run(spec), 2) == alone
        assert len(own) == len(alone.per_client)  # the caller did the dead one's client

    def test_reply_that_does_not_unpickle_hands_it_back(self, tmp_path, monkeypatch, capfd):
        spec = small_spec(tmp_path)
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        took = in_helpers(monkeypatch, tmp_path, body=lambda *_: Unreadable())
        own = caller_waits_for(monkeypatch, took)
        assert runtime.evaluate_personalized(trained_run(spec), 2) == alone
        assert len(own) == len(alone.per_client)
        assert "unreadable reply" in capfd.readouterr().err

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

    def test_two_helpers_hold_only_their_own_pipes(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path, "niw")
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 2)
        own = caller_waits_for(monkeypatch, in_helpers(monkeypatch, tmp_path))
        caller = os.getpid()
        pipes = {}  # helper pid -> the caller's ends of its two pipes
        held = tmp_path / "held"
        held.mkdir()
        real_init, real_answer, real_stop = (
            fanout._Helper.__init__, fanout._answer, fanout._Helper.stop)

        def init(h, *args):
            real_init(h, *args)
            pipes[h.pid] = {pipe_of(h.requests), pipe_of(h.replies)}

        def answer(*args):
            fds = os.listdir("/proc/self/fd")
            named = {os.readlink(f"/proc/self/fd/{fd}") for fd in fds
                     if os.path.exists(f"/proc/self/fd/{fd}")}
            (held / str(os.getpid())).write_text("\n".join(sorted(named)))
            real_answer(*args)

        statuses = []

        def stop(h):
            # each exits on the end of its own input, and with code 0
            deadline = time.monotonic() + 30
            while (pid_status := os.waitpid(h.pid, os.WNOHANG))[0] == 0:
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            statuses.append(pid_status[1])
            real_stop(h)

        monkeypatch.setattr(fanout._Helper, "__init__", init)
        monkeypatch.setattr(fanout, "_answer", answer)
        monkeypatch.setattr(fanout._Helper, "stop", stop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = runtime.evaluate_personalized(trained_run(spec), 2)
        finally:
            sys.setswitchinterval(interval)
        assert os.getpid() == caller
        assert shared == alone
        assert len(own) < len(alone.per_client)
        assert statuses == [0, 0]
        assert len(pipes) == 2
        for pid, mine in pipes.items():
            named = set((held / str(pid)).read_text().split("\n"))
            assert mine <= named  # its own pipes, seen from its side
            for other, theirs in pipes.items():
                if other != pid:
                    assert not theirs & named, f"helper {pid} holds {other}'s pipes"

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


def test_work_hands_out_each_client_once_under_contention():
    clients = [runtime.ClientState(i, np.arange(1 + i % 7), np.arange(1))
               for i in range(2000)]
    work = fanout._Work(clients)
    done = [[] for _ in range(8)]

    def drain(mine):
        # every third client taken is handed back, as by a failed helper
        while (cl := work.take()) is not None:
            if len(mine) % 3 == 2 and cl.client_id not in work.accs:
                work.accs[cl.client_id] = "returned"
                work.give_back(cl)
                continue
            mine.append(cl.client_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drain, args=(d,)) for d in done]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(i for d in done for i in d) == list(range(2000))


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
