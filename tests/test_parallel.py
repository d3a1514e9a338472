import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import relclass
from relclass import parallel

# whether this process's BLAS thread count can be set; without that,
# conv-LSTM training runs both shards in this process
OPENBLAS = parallel._openblas_thread_calls() is not None


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past 90 s, so that a driver that waits for a
    lost result fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past 90 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(90)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _scaled(state, x, delay):
    """state * x after ``delay`` seconds, with the process and the time it
    finished in."""
    time.sleep(delay)
    return state * x, os.getpid(), time.monotonic()


def _fails_on(state, x, bad):
    if x == bad:
        raise ValueError(f"task {x} failed")
    return x


def _exits_on(state, x, bad):
    if x == bad:
        os._exit(3)
    return x


def test_one_worker_runs_in_this_process():
    with parallel.forked(1, 10) as run:
        results = run(_scaled, [(1, 0.0), (2, 0.0)])
    assert [r[:2] for r in results] == [(10, os.getpid()), (20, os.getpid())]


def test_results_come_back_in_task_order():
    # the first task outlasts the four after it, which the other worker runs
    delays = [0.5, 0.0, 0.05, 0.0, 0.05]
    with parallel.forked(2, 10) as run:
        results = run(_scaled, [(x, delay) for x, delay in enumerate(delays)])
        again = run(_scaled, [(7, 0.0)])
    assert [value for value, _, _ in results] == [0, 10, 20, 30, 40]
    assert again[0][0] == 70
    pids = {pid for _, pid, _ in results}
    assert len(pids) == 2 and os.getpid() not in pids
    # the tasks finished out of order
    assert results[0][2] > max(finished for _, _, finished in results[1:])
    assert multiprocessing.active_children() == []


def test_worker_exception_is_raised_here():
    with pytest.raises(ValueError) as failed:
        with parallel.forked(2, None) as run:
            run(_fails_on, [(x, 2) for x in range(5)])
    # the worker's exception, with its type and message
    assert failed.type is ValueError
    assert str(failed.value) == "task 2 failed"
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_with_its_exit_code():
    with pytest.raises(RuntimeError, match="exited with code 3"):
        with parallel.forked(2, None) as run:
            run(_exits_on, [(x, 2) for x in range(5)])
    assert multiprocessing.active_children() == []


def test_worker_killed_between_runs_raises_with_its_exit_code():
    with pytest.raises(RuntimeError, match=f"exited with code -{signal.SIGKILL}"):
        with parallel.forked(2, 1) as run:
            pids = {pid for _, pid, _ in run(_scaled, [(1, 0.2), (2, 0.2)])}
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            run(_scaled, [(1, 0.0)])
    assert multiprocessing.active_children() == []


# A worker dies by os._exit(3) during training at 2 CPUs, in a child
# process, so that a driver which waits for the dead worker's result fails
# the test at the timeout instead of hanging the suite.
DIE_IN_WORKER = """
import multiprocessing, os, sys
from relclass import clstm, svm
from relclass.cli import fixture_path
from relclass.features import load_levin_table
from relclass.synthetic import make_corpus, make_embedding_table

os.sched_getaffinity = lambda pid: {0, 1}
parent = os.getpid()

def dies_in_worker(real):
    def fn(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)
    return fn

corpus, table = make_corpus(n_per_class=4, seed=0), make_embedding_table()
try:
    if sys.argv[1] == "svm":
        svm.smo_solve = dies_in_worker(svm.smo_solve)
        svm.train_multiclass(corpus, table, load_levin_table(fixture_path("levin_small.tsv")),
                             freq_threshold=1)
    else:
        clstm.backward_batch = dies_in_worker(clstm.backward_batch)
        hyper = clstm.Hyperparams(num_filters=4, filter_width=2, rnn_units=5, batch_size=7,
                                  epochs=1)
        clstm.train(corpus, table, hyper, freq_threshold=1)
except RuntimeError as exc:
    print(exc)
print(multiprocessing.active_children())
"""


@pytest.mark.parametrize("model", [
    "svm",
    pytest.param("clstm", marks=pytest.mark.skipif(
        not OPENBLAS, reason="the conv-LSTM shards run in this process without OpenBLAS")),
])
def test_dead_worker_fails_training(model):
    env = dict(os.environ, PYTHONPATH=str(Path(relclass.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", DIE_IN_WORKER, model], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["a worker process exited with code 3", "[]"]
