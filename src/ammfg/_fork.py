"""Forked processes: a map over worker processes, and a Picard session's twin.

fork_map maps a function over items on forked worker processes. The fee
sweep (certify.phi_sweep) and the N-trader simulator (nplayer._simulate_arms)
both use it. Fork, not spawn: their closures hold lambdas and policies that
cannot be pickled, and a forked worker inherits the parent's arrays
copy-on-write, so only the items go out and only the results come back.

twin opens a Picard session on two processes: a lone solve_mfg opens one for
its loop, a sandwich report one for its three solves. The with-body runs in
the calling process and in a forked twin, which runs the same HJB and replay
code on the same inputs and leaves at the end of the body. Every walked push
in the session (solver.propagate) is split at split(n): the parent walks
particles [0, n2), the twin [n2, n), and the two swap their per-step sums,
exit counts and switch brackets (twin.swap) and combine them in one order.
n2 is numpy's own top-level pairwise-summation split, so the parent's sum
over its half plus the twin's over theirs is bitwise the sum over all n:
the bits never depend on whether a twin runs.

A twin opens only where it can help and cannot nest: with at least two
usable cores (so ``taskset -c 0`` turns it off), more than 128 particles,
os.fork, one Python thread alive (threading.active_count: OpenBLAS's own
worker threads are not counted, and the fork leans on the fork handlers
OpenBLAS registers), no session already open, and a caller that is not
itself a forked process: fork_map's workers and the twin set _forked. Two
usable cores need not be two idle ones, so the parent keeps the twin only
while it pays (twin._pace): once the session's rounds, summed, have taken
longer on the clock than this process would have spent alone, it kills the
twin and walks every later push itself. A twin ignores warnings, so only
the parent warns, and leaves through os._exit alone: it flushes no inherited
buffer and runs no exit hook. If the parent raises, it kills and reaps the
twin; if the twin dies, the parent walks the twin's half itself and reaps
it at the end of the session.
"""
from __future__ import annotations

import os
import time

_fn = None  # the function a forked worker runs; set in the workers alone
_forked = False  # set in a fork_map worker and in a twin: neither opens a twin
_session = None  # the open twin, in the parent and in its twin
_BLOCK = 128  # numpy sums up to this many float64 terms in one unrolled loop, unsplit


def fork_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on min(workers, len(items)) forked processes.

    Results come back in the order of ``items``. With one item or one worker,
    or on a platform without fork, the items run in order here. An exception
    from ``fn`` reaches the caller with its type and message (pickled, so not
    the same object), after every worker has been joined.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        import multiprocessing  # here, not at the top: it would slow every `import ammfg`
        if "fork" in multiprocessing.get_all_start_methods():
            # the pool forks every worker at its first submit, before it
            # starts a thread of its own
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(min(workers, len(items)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_adopt, initargs=(fn,)) as pool:
                return list(pool.map(_run, items))
    return [fn(item) for item in items]


def _adopt(fn) -> None:
    global _fn, _forked
    _fn, _forked = fn, True


def _run(item):
    return _fn(item)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def split(n: int) -> int:
    """numpy's top-level pairwise split of n > _BLOCK terms: sum(a) == sum(a[:n2]) + sum(a[n2:])."""
    return n // 2 - (n // 2) % 8


def session(n: int) -> twin | None:
    """The twin a push of n particles shares its walk with, or None to walk them all here."""
    return _session if _session is not None and _session.alive and n > _BLOCK else None


class twin:
    """A Picard session over n particles: ``with twin(n): body`` runs body here and in a twin.

    Where no twin can open (see the module docstring) body runs here alone.
    Inside, first is True in the parent, which walks each push's first half.
    """

    def __init__(self, n: int):
        self.n, self.pid, self.alive, self.first, self._fds = n, None, False, True, ()

    def __enter__(self) -> twin:
        global _session, _forked
        import threading  # loaded at start-up already; here to keep `import ammfg` as it was
        if (_session is not None or _forked or self.n <= _BLOCK or not hasattr(os, "fork")
                or _usable_cores() < 2 or threading.active_count() > 1):
            return self  # no twin: every push walks here
        import warnings
        down, up = os.pipe(), os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns of any other OS thread (OpenBLAS's): raised as
            # an error, that warning would reach the parent after the fork
            # and leave the twin orphaned
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _forked, self.first = True, False
            os.close(down[1])
            os.close(up[0])
            self._fds = down[0], up[1]
            warnings.simplefilter("ignore")
        else:
            os.close(down[0])
            os.close(up[1])
            self._fds, self.pid = (up[0], down[1]), pid
            self._mark, self._wall, self._alone = _clocks(), 0.0, 0.0
        self.alive, _session = True, self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _session
        if _session is not self:
            return False
        _session = None
        if not self.first:
            os._exit(0 if exc_type is None else 1)
        if exc_type is not None:
            self._drop()
        self._close()
        os.waitpid(self.pid, 0)
        return False

    def swap(self, data: bytes, head: int, own: float) -> bytes | None:
        """Send this side's bytes, receive the other's, of the same length and first head bytes.

        The parent writes and then reads, the twin reads and then writes, so a
        message longer than a pipe's buffer cannot deadlock. The head names
        the message (its length and what it is about): a message whose head
        differs from this side's means the two sides have parted. The twin
        then raises, which ends it; the parent, like a parent whose twin has
        died, closes its ends and gets None: it walks the rest itself. own
        is the parent's CPU time on its half of this push (see _pace).
        """
        read, write = self._fds
        if not self.first:
            got = _read(read, head)
            if got != data[:head]:
                raise EOFError("the twin's pushes parted from its parent's")
            got += _read(read, len(data) - head)
            _write(write, data)
            return got
        try:
            _write(write, data)
            got = _read(read, head)
            if got == data[:head]:
                got += _read(read, len(data) - head)
                self._pace(own)
                return got
        except (OSError, EOFError):  # the twin died: its pipe ends closed with it
            pass
        self._close()
        return None

    def _pace(self, own: float) -> None:
        """Kill the twin once the session's rounds have taken longer than this process alone.

        A round runs from the fork or one swap to the end of the next. Alone,
        this process would have spent its CPU time of the round and, walking
        the twin's half as well, about own more. Its rounds took the clock's
        time instead: more than that, summed over the session, means the twin
        shares this process's core or lags on a busy one, and costs more than
        it saves. This push has joined already; every later one walks here.
        """
        mark = self._mark
        self._mark = _clocks()
        self._wall += self._mark[0] - mark[0]
        self._alone += self._mark[1] - mark[1] + own
        if self._wall > self._alone:
            self._drop()
            self._close()

    def _drop(self) -> None:
        import signal
        os.kill(self.pid, signal.SIGKILL)  # a dead twin stays a zombie until reaped

    def _close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds, self.alive = (), False


def _clocks() -> tuple[float, float]:
    """(the clock's time, this thread's CPU time), in seconds."""
    return time.perf_counter(), time.thread_time()


def _read(fd: int, size: int) -> bytes:
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        k = os.readv(fd, [view[got:]])
        if k == 0:
            raise EOFError("the other side of the twin pipe closed")
        got += k
    return bytes(buf)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
