"""A reused pool of one-BLAS-thread worker processes, and one ordered map.

:func:`ordered_map` returns ``[fn(item) for item in items]``, each call made
in a worker process. The pool starts on first use, later calls reuse it,
and it closes at interpreter exit. A call starts workers until there is one
per item, up to one per CPU this process may run on (:func:`usable_cpus`:
its affinity mask, capped by its cgroup's CPU quota). Starting two costs
about 0.7 s on a 2-vCPU Xeon, and a worker's first imports of numpy and
scipy about as much again, so one pool serves every call in a process. A
task runs in one worker and starts no pool of its own: :func:`ordered_map`
called in a worker raises.

Each worker is ``python -c`` with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1 in its environment, so
numpy loads with one BLAS thread. A matrix product then rounds the same at
any thread count of the caller, and the workers do not oversubscribe the
cores: on two cores, two workers with two BLAS threads each took 1.8-7.3 s
per pass of the benchmark's ``grid-em``, against 0.7-1.1 s with one each.
A worker imports this package from where the caller did and never runs the
caller's ``__main__``. Tasks and results cross as pickles over a pair of
pipes. A worker exits when its task pipe closes, and within
:data:`_PARENT_POLL_S` of the death of the process that started it, even in
the middle of a task.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from pathlib import Path

_ONE_THREAD = {name: "1" for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# How often a worker checks that the process that started it is alive.
_PARENT_POLL_S = 0.5

# How long close() waits for a worker to exit on its own before killing it;
# an idle worker exits as soon as its task pipe closes.
_EXIT_WAIT_S = 1.0

# The caller's package directory goes first unless it is on the path already,
# as site-packages is, which must not come before the standard library.
_BOOT = ("import sys; "
         "sys.argv[1] in sys.path or sys.path.insert(0, sys.argv[1]); "
         "from spoofmeter.workers import serve; serve(*map(int, sys.argv[2:]))")

# The CPU quota and period of the cgroup mounted at /sys/fs/cgroup, as a
# container sees its own: cgroup v2's one file, else cgroup v1's two. A quota
# of "max" (v2) or -1 (v1) is none.
_CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                     "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))

_pool: list = []

# True in a worker process, where ordered_map refuses to start a pool.
_in_worker = False


class _Worker:
    def __init__(self):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        self.process = subprocess.Popen(
            [sys.executable, "-c", _BOOT, str(Path(__file__).parent.parent),
             str(task_r), str(result_w), str(os.getpid())],
            env={**os.environ, **_ONE_THREAD}, pass_fds=(task_r, result_w))
        os.close(task_r)
        os.close(result_w)
        self.tasks = Connection(task_w, readable=False)
        self.results = Connection(result_r, writable=False)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or fewer if the
    CPU quota of its cgroup (:data:`_CPU_QUOTA_FILES`) allows fewer."""
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        n_cpus = os.cpu_count() or 1
    for paths in _CPU_QUOTA_FILES:
        try:
            quota, period = " ".join(
                Path(path).read_text() for path in paths).split()
            if quota not in ("max", "-1"):
                n_cpus = min(n_cpus, max(1, -(-int(quota) // int(period))))
            break
        except (OSError, ValueError):
            continue
    return n_cpus


def _workers(n_items: int) -> list:
    """The pool, less any worker that died while idle, grown to one worker
    per item, at most one per usable CPU."""
    for worker in [w for w in _pool if w.process.poll() is not None]:
        worker.tasks.close()
        worker.results.close()
        _pool.remove(worker)
    while len(_pool) < min(usable_cpus(), n_items):
        _pool.append(_Worker())
    return _pool


def close() -> None:
    """Stop the workers; the next :func:`ordered_map` starts new ones."""
    for worker in _pool:
        worker.tasks.close()
        worker.results.close()
    for worker in _pool:
        try:
            worker.process.wait(timeout=_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:  # busy with a task
            worker.process.kill()
            worker.process.wait()
    _pool.clear()


atexit.register(close)


def ordered_map(fn, items) -> list:
    """``[fn(item) for item in items]``, each call made in a worker process.

    A call runs in the caller's working directory and environment, but for
    the BLAS thread counts, which stay at 1. ``fn``, the items and the
    results cross by pickle, so ``fn`` is a module-level function or a
    ``functools.partial`` of one. Call it from one thread at a time. After
    every call is done, the first exception that one raised, in item order,
    is raised here. A worker that dies raises :class:`ChildProcessError` and
    stops the pool. Called in a worker, it raises :class:`RuntimeError`
    rather than start workers of its own.
    """
    if _in_worker:
        raise RuntimeError("ordered_map called in a worker process: a pool "
                           "task may not start a pool of its own")
    pending = deque(enumerate(items))
    results = [None] * len(pending)
    errors = {}
    context = os.getcwd(), dict(os.environ)
    busy = {}

    def dispatch(worker):
        if pending:
            index, item = pending.popleft()
            worker.tasks.send_bytes(pickle.dumps((fn, item, *context)))
            busy[worker.results] = worker, index

    try:
        for worker in _workers(len(pending)):
            dispatch(worker)
        while busy:
            for results_pipe in wait(list(busy)):
                worker, index = busy.pop(results_pipe)
                try:
                    ok, value = pickle.loads(results_pipe.recv_bytes())
                except EOFError:
                    raise ChildProcessError(
                        f"worker process {worker.process.pid} exited with "
                        f"{worker.process.wait()}") from None
                if ok:
                    results[index] = value
                else:
                    errors[index] = value
                dispatch(worker)
    except BaseException:
        close()
        raise
    if errors:
        raise errors[min(errors)]
    return results


def serve(task_fd: int, result_fd: int, parent_pid: int) -> None:
    """A worker's loop: run each task that arrives, until its pipe closes."""
    global _in_worker
    _in_worker = True
    # Ctrl-C reaches the whole process group; the caller stops the pool.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(parent_pid,),
                     daemon=True).start()
    tasks = Connection(task_fd, writable=False)
    results = Connection(result_fd, readable=False)
    while True:
        try:
            task = tasks.recv_bytes()
        except EOFError:
            return
        try:
            fn, item, cwd, environ = pickle.loads(task)
            os.chdir(cwd)
            environ.update(_ONE_THREAD)
            if environ != os.environ:
                os.environ.clear()
                os.environ.update(environ)
            reply = True, fn(item)
        except Exception as exc:
            reply = False, exc
        try:
            reply = pickle.dumps(reply)
        except Exception as exc:  # a result or an error that does not pickle
            reply = pickle.dumps((False, TypeError(
                f"a worker's reply does not pickle: {exc}")))
        try:
            results.send_bytes(reply)
        except OSError:  # the caller closed the pool
            return


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)
