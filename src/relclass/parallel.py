"""Worker processes and BLAS threads for the two trainers.

``forked`` is the one driver of worker processes: SVM training fits its
class pairs through it, and conv-LSTM training runs both shards of every
batch, and both halves of its update, in it. ``worker_count`` is the rule
both use for how many processes to run. ``one_blas_thread`` holds OpenBLAS
at one thread while the conv-LSTM trains. Two processes then share the CPUs
without oversubscribing them, and the dgemm summation order, and so the
model file, does not depend on the CPU count.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

# (prefix, suffix) of the thread-count symbols of the OpenBLAS builds numpy
# links: its own wheels' scipy_openblas64_, and system builds with 32- or
# 64-bit integers
_OPENBLAS_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_"))
# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` independent tasks with: one per CPU this
    process may run on, at most one per task; 1 (run them in this process)
    where fork or the CPU affinity mask is unavailable, or in a daemonic
    worker."""
    # imported only to train: every CLI command imports the trainers, and
    # prediction would pay its start-up time for nothing
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(os, "sched_getaffinity")
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _openblas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS loaded in this
    process, or None where none is found (another BLAS, or no /proc)."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text())))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
    except OSError:  # mapped, but no longer loadable by that path
        return None
    for prefix, suffix in _OPENBLAS_SYMBOLS:
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get and set_:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def keep_freed_memory() -> None:
    """Make glibc's malloc in this process keep the memory it frees for
    reuse: it neither trims the heap nor maps large blocks (up to 32 MiB,
    its limit) one by one. A process that allocates and frees the same
    large arrays over and over then stops faulting their pages in anew each
    time. Process-wide and permanent: only for worker processes that exit
    when their job ends. Elsewhere than glibc, nothing changes."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


@contextmanager
def one_blas_thread() -> Iterator[int | None]:
    """Run the block with OpenBLAS at one thread, and restore the previous
    count when it ends or raises. Yields 1, or None where the count could
    not be set; the block then runs at the default count."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield None
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(before)


@contextmanager
def forked(workers: int, state: Any) -> Iterator[Callable]:
    """Yield ``run(fn, tasks)``, which returns ``[fn(state, *task) for task
    in tasks]``, in task order.

    With one worker, ``run`` calls ``fn`` in this process. Otherwise
    ``workers`` forked processes, alive for the whole block, inherit
    ``state`` instead of receiving a copy; each task goes, in order, to
    whichever worker is idle, with ``fn`` and the task's arguments pickled.
    A worker's exception is re-raised here with its type and message, and a
    worker that dies raises RuntimeError with its exit code; either ends
    the use of the block's workers. No worker outlives the block.
    """
    if workers == 1:
        yield lambda fn, tasks: [fn(state, *task) for task in tasks]
        return
    # imported only to train: every CLI command imports the trainers, and
    # prediction would pay its start-up time for nothing
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []

    def reply(w: int) -> Any:
        try:
            ok, value = conns[w].recv()
        except (EOFError, OSError):  # the worker is gone
            procs[w].join()
            raise RuntimeError(f"a worker process exited with code {procs[w].exitcode}") from None
        if not ok:
            raise value
        return value

    def run(fn: Callable[..., Any], tasks: Sequence[tuple]) -> list:
        results: list = [None] * len(tasks)
        idle, busy = list(range(workers)), {}  # busy: pipe -> (worker, task number)

        def collect() -> None:
            for conn in wait(list(busy)):
                w, n = busy.pop(conn)
                results[n] = reply(w)
                idle.append(w)

        for n, task in enumerate(tasks):
            if not idle:
                collect()
            w = idle.pop(0)
            try:
                conns[w].send((fn, task))
            except OSError:  # the worker is gone
                reply(w)
            busy[conns[w]] = (w, n)
        while busy:
            collect()
        return results

    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            conns.append(conn)
            try:
                proc = ctx.Process(target=_serve, args=(state, child_conn, conns), daemon=True)
                proc.start()
            finally:
                child_conn.close()
            procs.append(proc)
        yield run
    except BaseException:
        # a busy worker would finish its task first
        for proc in procs:
            proc.terminate()
        raise
    finally:
        # an idle worker reads end-of-file and exits
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def _serve(state: Any, conn, parent_conns: list) -> None:
    """A ``forked`` worker: answers each ``(fn, task)`` with ``(True,
    fn(state, *task))``, or ``(False, exception)``, until the parent closes
    its end. ``parent_conns`` are the parent's ends of every worker started
    so far, this one's included: closing the copies inherited here lets
    each worker read end-of-file once the parent closes its end. The
    process then exits by ``os._exit``, as every multiprocessing fork worker
    does, so no ``finally`` of its callers runs in it."""
    for end in parent_conns:
        end.close()
    # an interrupt is the parent's to handle: it ends the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    keep_freed_memory()
    try:
        while True:
            fn, task = conn.recv()
            try:
                result = (True, fn(state, *task))
            except Exception as exc:
                result = (False, exc)
            conn.send(result)
    except (EOFError, OSError):  # the parent closed its end: the block is over
        pass
