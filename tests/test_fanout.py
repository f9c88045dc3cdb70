"""`fanout.each`, the personalization pass and the FedAvg and mixture
global eval on the caller and its helper threads.

Helper threads are forced on or off by replacing `fanout.workers`. A
replaced `runtime.client_accuracy` tells the caller from a helper by
`threading.current_thread()`. The NIW eval's use of `each` is tested in
test_niw.py.
"""

import ast
import collections
import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from fedsim import data, experiment, fanout, mixture, nn, runtime
from fedsim.rng import stream
from fedsim.strategies import EVAL_BLOCK, STRATEGIES

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
    monkeypatch.setattr(fanout, "workers", lambda: 1 + n)


def personalize(clients):
    """The accuracies of a personalization pass over clients, by client id."""
    report = runtime.evaluate_personalized(types.SimpleNamespace(clients=clients), 1)
    return {cl.client_id: acc for cl, acc in zip(clients, report.per_client)}


def in_caller() -> bool:
    return threading.current_thread() is threading.main_thread()


def report_without_helpers(spec, monkeypatch):
    helpers(monkeypatch, 0)
    return runtime.evaluate_personalized(trained_run(spec), 2)


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


@contextlib.contextmanager
def switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads interleave often
    try:
        with within(60):
            yield
    finally:
        sys.setswitchinterval(interval)


def equal_clients(n: int):
    return [runtime.ClientState(i, np.arange(10), np.arange(1)) for i in range(n)]


def wait_until(done) -> None:
    deadline = time.monotonic() + 60
    while not done() and time.monotonic() < deadline:
        time.sleep(0.001)


@needs_openblas
class TestHelpers:
    def test_report_identical_with_and_without_a_helper(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path, "mixture")
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        real, ran_in = runtime.client_accuracy, []
        both = threading.Barrier(2, timeout=60)

        def client_accuracy(run, cl, epochs):
            if threading.get_ident() not in ran_in:  # each thread's first client
                ran_in.append(threading.get_ident())
                both.wait()  # the helper and the caller each take one
            return real(run, cl, epochs)

        monkeypatch.setattr(runtime, "client_accuracy", client_accuracy)
        run = trained_run(spec)
        shared = runtime.evaluate_personalized(run, 2)
        assert shared == alone
        assert len(ran_in) == 2
        # in client-id order, though the clients ran longest first
        sizes = [cl.train_indices.size for cl in run.clients]
        assert sizes != sorted(sizes, reverse=True)
        before = fanout.blas_threads(1)
        try:
            direct = [real(run, cl, 2) for cl in run.clients if cl.test_indices.size]
        finally:
            fanout.blas_threads(before)
        assert shared.per_client == tuple(direct)

    def test_client_raising_in_a_helper_is_reraised_naming_it(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        helpers(monkeypatch, 1)
        real, own = runtime.client_accuracy, []

        def fail_in_helper(run, cl, epochs):
            if not in_caller():
                wait_until(lambda: own)  # the caller holds a client
                raise ValueError(f"no good: {cl.train_indices.size} rows")
            own.append(cl.client_id)
            wait_until(lambda: threading.active_count() == threads)  # the helper ended
            return real(run, cl, epochs)

        monkeypatch.setattr(runtime, "client_accuracy", fail_in_helper)
        threads = threading.active_count()
        with pytest.raises(ValueError) as info:
            runtime.evaluate_personalized(trained_run(spec), 2)
        assert re.fullmatch(r"no good: \d+ rows", str(info.value))
        (note,) = info.value.__notes__
        named = int(re.fullmatch(r"raised in the personalization of client (\d+)", note).group(1))
        assert len(own) == 1 and named not in own  # the hand-out stopped
        assert threading.active_count() == threads

    def test_client_raising_in_the_caller_is_named(self, tmp_path, monkeypatch):
        spec = small_spec(tmp_path)
        helpers(monkeypatch, 0)

        def fail(run, cl, epochs):
            raise FloatingPointError(f"diverged on {cl.client_id}")

        monkeypatch.setattr(runtime, "client_accuracy", fail)
        with pytest.raises(FloatingPointError) as info:
            runtime.evaluate_personalized(trained_run(spec), 2)
        cid = re.fullmatch(r"diverged on (\d+)", str(info.value)).group(1)
        assert info.value.__notes__ == [f"raised in the personalization of client {cid}"]

    def test_blas_threads_restored_and_one_during_the_pass(self, tmp_path, monkeypatch):
        run = trained_run(small_spec(tmp_path))
        helpers(monkeypatch, 1)
        seen = []
        real = runtime.client_accuracy

        def record(run, cl, epochs):
            seen.append((in_caller(), fanout.blas_threads()))
            time.sleep(0.01)  # time enough for the helper to take a client
            return real(run, cl, epochs)

        monkeypatch.setattr(runtime, "client_accuracy", record)
        original = fanout.blas_threads(2)
        try:
            runtime.evaluate_personalized(run, 2)
            assert fanout.blas_threads() == 2
            assert set(seen) == {(True, 1), (False, 1)}
            monkeypatch.setattr(runtime, "client_accuracy", lambda *_: 1 / 0)
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
        threads = threading.active_count()
        assert experiment.run_experiment(spec)["personalization"] == alone
        assert threading.active_count() == threads

    def test_failed_fork_leaves_the_work_to_the_caller(self, tmp_path, monkeypatch):
        # the OS refuses the helper: every client in the caller, the same
        # report, and nothing of the refused start left behind
        spec = small_spec(tmp_path)
        alone = report_without_helpers(spec, monkeypatch)
        helpers(monkeypatch, 1)
        run = trained_run(spec)
        real = runtime.client_accuracy

        def caller_only(run, cl, epochs):
            assert in_caller()
            return real(run, cl, epochs)

        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(runtime, "client_accuracy", caller_only)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        threads, fds = threading.active_count(), len(os.listdir("/proc/self/fd"))
        assert runtime.evaluate_personalized(run, 2) == alone
        assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == fds


@needs_openblas
@pytest.mark.parametrize("n", [1, 3])
def test_each_client_is_computed_once_by_the_caller_or_a_helper(monkeypatch, n):
    # n = 3 runs more helpers than a 2-core box has cores
    helpers(monkeypatch, n)
    computed = []  # list.append is atomic: a lost update would drop a client

    def client_accuracy(run, cl, epochs):
        time.sleep(0.002)
        computed.append((threading.get_ident(), cl.client_id))
        return cl.client_id / 100

    monkeypatch.setattr(runtime, "client_accuracy", client_accuracy)
    clients = equal_clients(40)
    with switching_often():
        accs = personalize(clients)
    assert accs == {cl.client_id: cl.client_id / 100 for cl in clients}
    assert sorted(cid for _, cid in computed) == list(range(40))
    by = collections.Counter(ident for ident, _ in computed)
    assert threading.get_ident() in by and len(by) > 1  # the caller and a helper
    assert max(count for ident, count in by.items() if ident != threading.get_ident()) > 1


@needs_openblas
def test_a_slow_helper_holds_one_client_and_the_caller_takes_the_rest(monkeypatch):
    # A thread claims one client at a time: while the helper's first runs,
    # the caller computes every other client
    helpers(monkeypatch, 1)
    own, theirs = [], []

    def client_accuracy(run, cl, epochs):
        if in_caller():
            own.append(cl.client_id)
            time.sleep(0.005)
        else:
            theirs.append(cl.client_id)
            wait_until(lambda: len(own) == 9)
        return cl.client_id / 100

    monkeypatch.setattr(runtime, "client_accuracy", client_accuracy)
    with within(60):
        accs = personalize(equal_clients(10))
    assert accs == {i: i / 100 for i in range(10)}
    assert len(theirs) == 1 and sorted(own + theirs) == list(range(10))


@needs_openblas
def test_an_error_in_a_helper_ends_the_hand_out(monkeypatch):
    helpers(monkeypatch, 1)
    theirs, own = [], []

    def client_accuracy(run, cl, epochs):
        if not in_caller():
            theirs.append(cl.client_id)
            raise ValueError(f"no good: {cl.client_id}")
        own.append(cl.client_id)
        time.sleep(0.02)
        return 0.5

    monkeypatch.setattr(runtime, "client_accuracy", client_accuracy)
    with within(60), pytest.raises(ValueError, match=r"no good: \d+"):
        personalize(equal_clients(40))
    assert len(theirs) == 1  # the helper took no more
    assert len(own) < 20  # nor did the caller take the 38 left


@needs_openblas
def test_an_error_in_the_caller_ends_the_hand_out(monkeypatch):
    # the error surfaces once the helper has finished the client it holds,
    # not after it has worked through the rest
    helpers(monkeypatch, 1)
    theirs = []

    def client_accuracy(run, cl, epochs):
        if not in_caller():
            time.sleep(0.02)
            theirs.append(cl.client_id)
            return 0.5
        wait_until(lambda: theirs)
        raise FloatingPointError(f"diverged on {cl.client_id}")

    monkeypatch.setattr(runtime, "client_accuracy", client_accuracy)
    threads = threading.active_count()
    with within(60), pytest.raises(FloatingPointError):
        personalize(equal_clients(20))
    assert 1 <= len(theirs) <= 2
    assert threading.active_count() == threads


@needs_openblas
def test_two_passes_in_a_row_each_start_a_helper_and_leave_nothing(monkeypatch):
    # the real workers(): a thread left over from the first pass would
    # show in the second
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))

    def client_accuracy(run, cl, epochs):
        time.sleep(0.005)
        return float(not in_caller())

    monkeypatch.setattr(runtime, "client_accuracy", client_accuracy)
    clients = equal_clients(20)
    for _ in range(2):
        threads = threading.active_count()
        accs = personalize(clients)
        assert 1.0 in accs.values()  # a helper computed a client
        assert threading.active_count() == threads


@needs_openblas
def test_without_openblas_the_caller_runs_every_client(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    alone = report_without_helpers(spec, monkeypatch)
    helpers(monkeypatch, 1)
    get, put = fanout._openblas()[:2]
    real, seen = runtime.client_accuracy, set()

    def record(run, cl, epochs):
        seen.add((in_caller(), get()))
        return real(run, cl, epochs)

    monkeypatch.setattr(fanout, "_openblas", lambda: None)
    monkeypatch.setattr(runtime, "client_accuracy", record)
    assert fanout.blas_threads(1) is None
    original = get()
    put(2)
    try:
        # at these shapes OpenBLAS runs one thread at any count: the same bits
        assert runtime.evaluate_personalized(trained_run(spec), 2) == alone
        assert get() == 2
    finally:
        put(original)
    assert seen == {(True, 2)}  # the caller alone, at its own count


@needs_openblas
@pytest.mark.parametrize("n", [1, 3])
def test_each_returns_results_in_unit_order_and_claims_one_at_a_time(monkeypatch, n):
    helpers(monkeypatch, n)
    delays = random.Random(n)
    claimed, computed_in, inside = [], set(), []

    def claim(u):
        inside.append(u)  # a second claim in flight would show here
        assert len(inside) == 1
        claimed.append(u)
        time.sleep(delays.uniform(0, 0.001))
        inside.remove(u)
        return u * u

    def compute(v):
        computed_in.add(threading.get_ident())
        time.sleep(delays.uniform(0, 0.003))
        return -v

    with switching_often():
        got = fanout.each(range(60), compute, str, claim)
    assert got == [-u * u for u in range(60)]
    assert claimed == list(range(60))
    assert len(computed_in) > 1  # the caller and a helper
    with switching_often():
        assert fanout.each("abc", str.upper, str) == ["A", "B", "C"]


@needs_openblas
@pytest.mark.parametrize("raises_in", ["claim", "compute"])
def test_each_error_empties_the_list_with_its_note_and_leaves_nothing(monkeypatch, raises_in):
    helpers(monkeypatch, 1)
    seen = []  # units claimed, by either thread

    def claim(u):
        seen.append(u)
        if raises_in == "claim" and u == 5:
            raise ValueError(f"bad claim {u}")
        return u

    def compute(u):
        if raises_in == "compute" and u == 5:
            raise ValueError(f"bad compute {u}")
        time.sleep(0.002)
        return u

    original = fanout.blas_threads(2)
    try:
        threads = threading.active_count()
        with within(60), pytest.raises(ValueError, match=f"bad {raises_in} 5") as info:
            fanout.each(range(40), compute, lambda u: f"unit {u}", claim)
        assert info.value.__notes__ == ["unit 5"]
        assert threading.active_count() == threads
        assert fanout.blas_threads() == 2
    finally:
        fanout.blas_threads(original)
    assert max(seen) < 12  # the claims stopped short of the 40 units


@needs_openblas
def test_blas_threads_found_in_a_process_that_imports_fanout_first():
    # fanout imports no fedsim module, so no other import has loaded numpy
    src = os.path.dirname(os.path.dirname(fanout.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "from fedsim import fanout; print(fanout.blas_threads(1))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() != "None"


@needs_openblas
def test_each_parks_the_blas_pool_and_a_product_after_it_keeps_its_bits(monkeypatch):
    # after a 2-thread product OpenBLAS's idle worker spins for its thread
    # timeout; inside each, the caller and its helpers are the only threads
    helpers(monkeypatch, 1)
    rng = np.random.default_rng(0)
    a, w = rng.normal(size=(500, 784)), rng.normal(size=(784, 256))
    both = threading.Barrier(2, timeout=60)

    def threads(_):
        both.wait()  # the caller and the helper each hold a unit, alive
        seen = len(os.listdir("/proc/self/task")), threading.active_count()
        both.wait()  # neither ends before the other has counted
        return seen

    original = fanout.blas_threads(2)
    try:
        product = a @ w
        assert len(os.listdir("/proc/self/task")) > threading.active_count()
        seen = fanout.each(range(2), threads, str)
        assert fanout.blas_threads() == 2
        assert np.array_equal(a @ w, product)
    finally:
        fanout.blas_threads(original)
    assert [tasks for tasks, _ in seen] == [python for _, python in seen]


@needs_openblas
def test_without_the_pool_shutdown_each_pins_and_restores_as_before(monkeypatch):
    get, put, _ = fanout._openblas()
    monkeypatch.setattr(fanout, "_openblas", lambda: (get, put, None))
    helpers(monkeypatch, 1)
    original = fanout.blas_threads(2)
    try:
        with switching_often():
            got = fanout.each(range(6), lambda u: (u, fanout.blas_threads()), str)
        assert got == [(u, 1) for u in range(6)]
        assert fanout.blas_threads() == 2
    finally:
        fanout.blas_threads(original)


@pytest.mark.parametrize("cpus,expected", [(1, 1), (2, 2), (8, 2)])
def test_workers(monkeypatch, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert fanout.workers() == expected


def test_a_thread_that_cannot_start_leaves_the_work_to_the_caller(monkeypatch):
    monkeypatch.setattr(fanout, "workers", lambda: 2)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ran_in = fanout.each(range(4), lambda _: threading.get_ident(), str)
    assert ran_in == [threading.get_ident()] * 4


@needs_openblas
def test_one_unit_starts_no_helper(monkeypatch):
    helpers(monkeypatch, 1)
    starts = []
    real_start = threading.Thread.start

    def start(self):
        starts.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert fanout.each([7], lambda u: (u, in_caller(), fanout.blas_threads()), str) == [
        (7, True, 1)
    ]
    with pytest.raises(ZeroDivisionError) as info:
        fanout.each([7], lambda u: u / 0, lambda u: f"unit {u}")
    assert info.value.__notes__ == ["unit 7"]
    assert fanout.each([], str, str) == []
    assert starts == []
    assert fanout.each([7, 8], lambda u: u, str) == [7, 8]
    assert starts == ["fedsim-helper"]


def test_only_fanout_starts_threads_and_nothing_forks():
    """Work fans out through `fanout.each` alone: no module of fedsim
    imports a process pool or forks, and none but fanout.py imports
    `threading` or builds a thread."""
    src = os.path.dirname(fanout.__file__)

    def pool(module):
        return module.split(".")[0] == "multiprocessing" or module.startswith("concurrent.futures")

    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                modules = []
            if any(pool(m) for m in modules) or (
                name != "fanout.py" and any(m.split(".")[0] == "threading" for m in modules)
            ):
                found.append(f"{name}:{node.lineno} imports {modules[0]}")
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == "fork" or (called == "Thread" and name != "fanout.py"):
                    found.append(f"{name}:{node.lineno} calls {called}")
    assert found == []


def test_fanout_imports_no_fedsim_module():
    """fanout.py is the layer under every fedsim module that fans work out:
    it imports none of them."""
    with open(fanout.__file__) as f:
        tree = ast.parse(f.read(), "fanout.py")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [
            f"fanout.py:{node.lineno} imports {m}"
            for m in modules if m.startswith(".") or m.split(".")[0] == "fedsim"
        ]
    assert found == []


class TestBlockedEval:
    """The FedAvg and mixture eval in EVAL_BLOCK-row blocks on `fanout.each`.
    2500 test rows make four full blocks and a short last one; 300 rows
    make one short block, which starts no helper."""

    def built(self, strategy, rows=2500):
        """The eval's arch, config and state, the test rows x, and the
        in-memory test set of x."""
        arch = nn.MlpArch((784, 256, 10))
        config = runtime.FederatedConfig(n_clients=3, strategy=strategy)
        state = STRATEGIES[strategy].init_state(
            arch, nn.init_params(arch, stream(0, "eval params")), config, 300
        )
        x = stream(0, "eval rows").uniform(size=(rows, 784))
        return arch, config, state, x, data.LabeledDataset(x, np.zeros(rows, np.int64), 10)

    @needs_openblas
    @pytest.mark.parametrize(
        "strategy,rows",
        [("fedavg", 2500), ("mixture", 2500), ("fedavg", 300), ("mixture", 300)],
        ids=["fedavg", "mixture", "fedavg-one-short-block", "mixture-one-short-block"],
    )
    def test_blocks_keep_the_serial_loops_bits(self, strategy, rows, monkeypatch):
        # the serial loop over the blocks, not the whole test set: OpenBLAS
        # takes another path for products with M*N*K <= 1e6, so the
        # mixture's 2-output gating layer, or a block of 390 rows or fewer
        # at 256-10, gets other last bits than a larger product
        arch, config, state, x, test_ds = self.built(strategy, rows)

        def predict(x):
            if strategy == "mixture":
                return mixture.mix_global_predict(x, state, arch)
            return nn.softmax(nn.forward(state, arch, x))

        before = fanout.blas_threads(1)
        try:
            want = np.concatenate([predict(x[b : b + EVAL_BLOCK])
                                   for b in range(0, rows, EVAL_BLOCK)])
        finally:
            fanout.blas_threads(before)
        # a forward that waits a little lets the helpers take blocks while
        # the caller computes its own
        forward, ran_in = nn.forward, set()

        def slow_forward(*args):
            ran_in.add(threading.get_ident())
            time.sleep(0.002)
            return forward(*args)

        monkeypatch.setattr(nn, "forward", slow_forward)
        for n in (1, 2, 4):  # 4: more threads than cores
            monkeypatch.setattr(fanout, "workers", lambda n=n: n)
            ran_in.clear()
            with switching_often():
                got = STRATEGIES[strategy].global_predict(state, test_ds, arch, config, 0)
            assert got.shape == (rows, 10) and got.tobytes() == want.tobytes()
            assert (len(ran_in) > 1) == (n > 1 and rows > EVAL_BLOCK)

    @needs_openblas
    @pytest.mark.parametrize("strategy", ["fedavg", "mixture"])
    def test_an_error_names_its_block_and_leaves_nothing(self, strategy, monkeypatch):
        arch, config, state, x, test_ds = self.built(strategy)
        monkeypatch.setattr(fanout, "workers", lambda: 2)
        starts = {x[lo, 0]: lo for lo in range(0, len(x), EVAL_BLOCK)}
        forward, seen = nn.forward, []  # list.append is atomic

        def third_block_fails(params, arch, rows):
            seen.append(starts.get(rows[0, 0]))
            if seen[-1] == 2 * EVAL_BLOCK:
                raise FloatingPointError("diverged")
            return forward(params, arch, rows)

        monkeypatch.setattr(nn, "forward", third_block_fails)
        original = fanout.blas_threads(2)
        try:
            threads = threading.active_count()
            with pytest.raises(FloatingPointError) as err:
                STRATEGIES[strategy].global_predict(state, test_ds, arch, config, 0)
            assert threading.active_count() == threads
            assert fanout.blas_threads() == 2
        finally:
            fanout.blas_threads(original)
        assert err.value.__notes__ == [f"raised in the eval block at test row {2 * EVAL_BLOCK}"]
        # the failure empties the list, so the last block is not claimed
        assert 4 * EVAL_BLOCK not in seen
