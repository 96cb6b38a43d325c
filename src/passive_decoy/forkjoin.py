"""Fork and join: one function called on each rank of a split, every rank
after the first in a forked worker process.

``simulate``, ``ingest`` and ``optimize`` each cut their work into one part
per process and hand ``fork_join`` a function of the part's rank.  Forked,
not spawned: a spawned worker imports numpy and the package again before it
does any work, which on a 2-vCPU host made an 8,192-point search slower
than one process (0.69 against 0.66 s, and 0.52 s forked).
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, NoReturn, TypeVar

T = TypeVar("T")


def _process_count(units: int, per_process: int) -> int:
    """Processes to share ``units`` units of work: one per usable CPU, but
    none with fewer than ``per_process`` units, and at least this one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = 1
    return max(1, min(cpus, units // per_process))


def _work(work: Callable[[int], object], rank: int, result: int) -> NoReturn:
    """A forked worker's whole life: it calls ``work(rank)``, writes
    ``(None, its result)``, or ``(what it raised, None)``, pickled to pipe
    end ``result``, and exits 0; or, if that cannot be pickled, exits 1."""
    code = 1
    try:
        try:
            outcome = None, work(rank)
        except BaseException as exc:  # raised again by the parent
            outcome = exc, None
        data = pickle.dumps(outcome)
        with open(result, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def fork_join(work: Callable[[int], T], processes: int) -> list[T]:
    """``[work(rank) for rank in range(processes)]``, with rank 0 called in
    this process and each other rank in a worker forked for it.

    Results are taken in rank order, and the first failure in rank order is
    raised: what that rank raised, or ``ChildProcessError`` for a worker
    that exited without its result.  Every worker is reaped, and killed
    first unless it finished, before this returns or raises.
    """
    held = []  # file descriptors this process has still to close
    workers = []  # (pid, read end of its result pipe), not yet reaped
    try:
        for rank in range(1, processes):
            read, write = os.pipe()
            held += read, write
            if (pid := os.fork()) == 0:
                _work(work, rank, write)
            workers.append((pid, read))
            held.remove(write)
            os.close(write)
        results = [work(0)]
        while workers:
            pid, read = workers[0]
            held.remove(read)
            with open(read, "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code or not data:
                raise ChildProcessError(f"a worker process exited with code {code}")
            error, result = pickle.loads(data)
            if error is not None:
                raise error
            results.append(result)
        return results
    finally:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in held:
            os.close(fd)
