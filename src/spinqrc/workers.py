"""Run independent jobs in forked worker processes.

``run_groups`` takes jobs in groups that must each run in one process, in
order (a group shares some set-up, such as a propagator, between its
jobs). It deals the groups round-robin over ``min(CPUs, groups)``
processes: the calling process is one, and each other is a child forked
from it, which sends its results back pickled through a pipe. Nothing is
imported or started at import time, and one group, one CPU or a platform
without ``fork`` runs everything in the calling process.
"""
from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_groups(run: Callable, jobs: Sequence[tuple],
               groups: Sequence[list[int]]) -> list:
    """``run(*jobs[i])`` for every index ``i`` in ``groups``, at index
    ``i`` of the returned list (None at indices in no group).

    A job's error is raised here; a child that ends without its results
    raises ChildProcessError. Every child is reaped before this returns or
    raises: after an error, the children still running are killed.
    """
    processes = (max(1, min(_available_cpus(), len(groups)))
                 if hasattr(os, "fork") else 1)
    shares = [sum(groups[p::processes], []) for p in range(processes)]
    results: list = [None] * len(jobs)
    children = []
    try:
        for share in shares[1:]:
            try:
                children.append((_fork(run, jobs, share), share))
            except OSError:  # no process to spare: run the share here
                shares[0] += share
        for i in shares[0]:
            results[i] = run(*jobs[i])
        while children:
            (pid, fd), share = children.pop(0)
            for i, result in zip(share, _collect(pid, fd)):
                results[i] = result
    finally:
        for (pid, fd), _ in children:
            _stop(pid, fd)
    return results


def _fork(run: Callable, jobs: Sequence[tuple],
          share: list[int]) -> tuple[int, int]:
    """Fork a child that runs ``share`` and writes ``(True, results)`` or
    ``(False, exception)``, pickled, to a pipe; returns (pid, read end)."""
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
                payload = pickle.dumps((True, [run(*jobs[i]) for i in share]))
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


def _collect(pid: int, fd: int) -> list:
    """Read a child's results to the end of its pipe and reap it."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(data)
    except Exception:
        raise ChildProcessError(
            f"worker process {pid} ended (exit status "
            f"{os.waitstatus_to_exitcode(status)}) without sending results"
        ) from None
    if not ok:
        raise value
    return value
