"""Worker processes and BLAS threads for the two trainers.

SVM training fits its class pairs in forked workers, and conv-LSTM training
runs the second shard of every batch in one. ``worker_count`` is the rule both
use for how many processes to run. ``one_blas_thread`` holds OpenBLAS at one
thread while the conv-LSTM trains. Two processes then share the CPUs without
oversubscribing them, and the dgemm summation order, and so the model file,
does not depend on the CPU count.
"""

from __future__ import annotations

import ctypes
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

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
