"""Run work in forked processes: independent jobs, or one loop in lockstep.

``run_groups`` takes jobs in groups that must each run in one process, in
order (a group shares some set-up, such as a propagator, between its
jobs). It deals the groups round-robin over ``min(CPUs, groups)``
processes: the calling process is one, and each other is a child forked
from it, which sends its results back pickled through a pipe. One group,
one CPU or a platform without ``fork`` runs everything in the calling
process.

A ``Crew`` spends a CPU that leaves idle (``idle_cpus``) inside one job:
the calling process and one helper forked from it run the same loop, each
on its own part of the data, and meet at points marked by counters in
shared memory.

Every child goes through one lifecycle: ``_fork`` runs a body in it and
pipes back the body's value or exception, ``_collect`` reads that, reaps
the child and raises the exception here, and ``_stop`` kills and reaps a
child whose value an error made unwanted. Nothing is imported or started
at import time.
"""
from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence

# Processes that ``run_groups`` runs at once, which each of them sees.
_concurrent = 1

# Polls of a counter between two yields of the CPU, about 10 us, and
# between two checks that the awaited process lives, about a millisecond.
_POLLS_PER_YIELD = 64
_POLLS_PER_CHECK = 4096


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def idle_cpus() -> int:
    """CPUs this process would otherwise leave idle: its share of the
    available CPUs, which ``run_groups`` divides among the processes it
    runs at once, less the one it runs on."""
    return max(0, _available_cpus() // _concurrent - 1)


def run_groups(run: Callable, jobs: Sequence[tuple],
               groups: Sequence[list[int]]) -> list:
    """``run(*jobs[i])`` for every index ``i`` in ``groups``, at index
    ``i`` of the returned list (None at indices in no group).

    A job's error is raised here; a child that ends without its results
    raises ChildProcessError. Every child is reaped before this returns or
    raises: after an error, the children still running are killed.
    """
    global _concurrent
    processes = (max(1, min(_available_cpus(), len(groups)))
                 if hasattr(os, "fork") else 1)
    shares = [sum(groups[p::processes], []) for p in range(processes)]
    results: list = [None] * len(jobs)
    children = []
    saved, _concurrent = _concurrent, processes
    try:
        for share in shares[1:]:
            try:
                children.append(
                    (_fork(lambda: [run(*jobs[i]) for i in share]), share))
            except OSError:  # no process to spare: run the share here
                shares[0] += share
        for i in shares[0]:
            results[i] = run(*jobs[i])
        while children:
            (pid, fd), share = children.pop(0)
            for i, result in zip(share, _collect(pid, fd)):
                results[i] = result
    finally:
        _concurrent = saved
        for (pid, fd), _ in children:
            _stop(pid, fd)
    return results


def _fork(body: Callable[[], object]) -> tuple[int, int]:
    """Fork a child that runs ``body()``, writes ``(True, value)`` or
    ``(False, exception)``, pickled, to a pipe and exits; returns (pid,
    read end) for ``_collect`` or ``_stop``."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, body()))
            except BaseException as exc:  # sent to the parent, raised there
                try:
                    payload = pickle.dumps((False, exc))
                except Exception:
                    payload = pickle.dumps((False, RuntimeError(
                        f"{type(exc).__name__}: {exc}")))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _stop(pid: int, fd: int) -> None:
    """Kill and reap a child whose results an error made unwanted."""
    import signal  # only on this error path

    os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _collect(pid: int, fd: int):
    """Read a child's value to the end of its pipe and reap it; raise the
    child's exception, or ChildProcessError if it sent nothing."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(data)
    except Exception:
        raise ChildProcessError(
            f"child process {pid} ended (exit status "
            f"{os.waitstatus_to_exitcode(status)}) without sending results"
        ) from None
    if not ok:
        raise value
    return value


def _stores_in_order() -> bool:
    """Whether other CPUs see this process's stores in program order, as a
    ``Crew`` needs: a counter is posted after the results it announces.
    x86-64 guarantees that order; weaker memory models (ARM, POWER) would
    need fences that Python cannot emit."""
    return hasattr(os, "uname") and os.uname().machine.lower() in (
        "x86_64", "amd64")


class Crew:
    """The calling process (rank 0) and, given ``helper``, one process
    forked from it (rank 1), which run one body together, each on its own
    part of the data.

    At a ``sync`` each process counts its calls on a counter in shared
    memory and spins until the other's counter has caught up, so no step
    waits on the operating system. A spinning process watches the other:
    rank 0 raises the helper's error, or ChildProcessError, when the
    helper has ended short of the count, and the helper exits when its
    parent has. No helper is forked where ``fork`` is missing or stores
    may reach the other CPU out of order.
    """

    def __init__(self, helper: bool):
        self.size = 2 if (helper and hasattr(os, "fork")
                          and _stores_in_order()) else 1
        self.rank = 0
        self._parent = os.getpid()
        self._helper = None  # its (pid, pipe), until reaped
        self._syncs = 0
        # One counter per process, a cache line apart.
        self._counters = (memoryview(self.memory(128)).cast("q")
                          if self.size > 1 else None)

    def memory(self, nbytes: int):
        """A zeroed buffer that both processes read and write: a shared
        mapping when there is a helper, private memory otherwise. Take it
        before ``run``."""
        if self.size == 1:
            return bytearray(nbytes)
        import mmap  # only where a helper runs

        return mmap.mmap(-1, nbytes, flags=mmap.MAP_SHARED)

    def run(self, body: Callable[[], object]) -> None:
        """``body()`` in this process and in the helper, forked here, with
        ``rank`` set; raises the helper's error as rank 0's. A helper that
        cannot be forked leaves rank 0 to run alone (``size`` 1). The
        helper is reaped before this returns or raises: after an error, it
        is killed first."""
        def serve() -> None:  # the helper's life, until ``_fork`` exits
            self.rank = 1
            body()

        try:
            if self.size > 1:
                try:
                    self._helper = _fork(serve)
                except OSError:  # no process to spare: run alone
                    self.size, self._counters = 1, None
            body()
            if self._helper is not None:
                helper, self._helper = self._helper, None
                _collect(*helper)
        finally:
            if self._helper is not None:
                _stop(*self._helper)
                self._helper = None

    def sync(self) -> None:
        """Return once the other process has made as many ``sync`` calls
        as this one: a barrier. Call it only with a helper (``size`` 2)."""
        self._syncs += 1
        count, counters = self._syncs, self._counters
        counters[8 * self.rank] = count
        other = 8 - 8 * self.rank
        polls = 0
        while counters[other] < count:
            polls += 1
            if polls % _POLLS_PER_YIELD == 0:
                # Lets the other process run if it shares this CPU, as
                # when another job runs beside this one.
                os.sched_yield()
                if polls % _POLLS_PER_CHECK == 0:
                    self._check(count)

    def _check(self, count: int) -> None:
        """React to the other process being slow to post ``count``."""
        if self.rank:
            if os.getppid() != self._parent:
                os._exit(1)  # rank 0 is gone: nobody wants the results
            return
        import select  # only while rank 0 waits

        # The helper's pipe turns readable once its body has ended.
        pid, fd = self._helper
        if select.select([fd], [], [], 0)[0] and self._counters[8] < count:
            self._helper = None
            _collect(pid, fd)  # raises the helper's error
            raise ChildProcessError(
                f"helper process {pid} returned before sync {count}")
