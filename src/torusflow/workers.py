"""Forked worker processes that serve numbered tickets beside their caller.

Both ways this package uses more than one CPU run on this one layer: the
path-block helpers of an ensemble (``integrate``) and the criterion lanes of
the acceptance battery (``acceptance``).  :func:`plan` gives the CPUs for a
piece of work: one per usable CPU, at most one per independent part, and
only the first while other threads run, since a forked child gets only the
thread that forked it.  One CPU means the caller runs the work serially.

:class:`Workers` forks the other processes, each optionally pinned to its
CPU.  Every process, the caller first, has a claims pipe, and
:meth:`Workers.put` writes each one's tickets to its pipe.  A process claims
the tickets in its own pipe first, then what is left in the others'.  A
child waits on its own pipe alone: ``put`` writes the caller's pipe first,
and a child that woke to it would claim the caller's first ticket.  Only the
caller writes the pipes, so the children end with it.  A child serves a
ticket through the callable that it inherited at the fork, so what that
callable reads (a shared mapping, monkeypatched code) must exist before the
fork.  For each ticket a child sends two frames: a claim notice, then the
pickled result, or the pickled ``(exception, traceback)`` of what it raised.
The caller re-raises such an exception, with the child's traceback as a
:class:`ChildTraceback` for its cause.  A child whose pipe ends is a
:class:`HelperProcessError` naming it, how it ended and, from its last claim
notice, the work it held.  :meth:`Workers.close` kills and reaps every
child, whatever it is doing.

Both callers fork inside :func:`one_blas_thread`, which holds numpy's
OpenBLAS at one thread for the length of the work, so every process, the
caller included, rounds each matrix product the same way whatever CPUs it
may use.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import selectors
import signal
import struct
import threading
import traceback
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

#: a claims pipe holds tickets as native ints
_TICKET = struct.Struct("i")
#: every frame a child sends: its ticket and the length of the pickle that
#: follows, 0 for a claim notice
FRAME = struct.Struct("<iI")


class HelperProcessError(RuntimeError):
    """A forked worker process ended before its caller closed it: a helper
    stepping path blocks, or a lane of the acceptance battery."""


class ChildTraceback(Exception):
    """The traceback of what a forked worker process raised; the cause of
    the exception that its caller re-raises."""


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


def plan(work: int) -> list[int]:
    """The CPUs to spread ``work`` independent parts over; one means serially."""
    cpus = usable_cpus()[:work]
    return cpus if threading.active_count() == 1 else cpus[:1]


@lru_cache(maxsize=None)
def _blas_thread_count() -> tuple[Callable, Callable] | None:
    """The setter and getter of the thread count of the OpenBLAS that numpy
    calls, or None, with a warning the first time, where it has none.

    They are found by symbol through numpy's core extension, which links that
    library: ``scipy_openblas_..._num_threads64_`` in numpy's own wheels,
    ``openblas_..._num_threads64_`` in older ones and ``openblas_..._num_threads``
    in plain builds.
    """
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        lib = None
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        names = (f"{prefix}openblas_{verb}_num_threads{suffix}" for verb in ("set", "get"))
        try:
            setter, getter = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    warnings.warn(
        "found no OpenBLAS thread-count setter in numpy's BLAS: a run's bits may depend "
        "on the number of BLAS threads once a per-path product is large enough to thread",
        RuntimeWarning,
    )
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold numpy's OpenBLAS at one thread, then restore its count.

    OpenBLAS splits a product over its threads once the product is large
    enough, from n = 24 on for the per-path products of a step, and the sums
    then round by how the product was split: a run's bits would depend on the
    CPUs the process may use.  Its threads would also compete with the
    processes forked inside, which inherit the one thread.  Where numpy's BLAS
    has no setter, nothing changes (:func:`_blas_thread_count`).  Usable as a
    decorator.
    """
    count = _blas_thread_count()
    if count is None:
        yield
        return
    setter, getter = count
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def fork_child(serve: Callable[[], int]) -> int:
    """Fork a child that runs ``serve()``; its pid.  The child ignores SIGINT,
    which its caller handles, and leaves only by ``os._exit`` (with 1 and a
    traceback if ``serve`` raised), so it runs no exit handler and flushes no
    buffer that it shares with the caller."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork once BLAS has started its thread pool.
        # OpenBLAS quiesces that pool through pthread_atfork, and the child
        # runs only numpy kernels of its own.
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        code = serve()
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``, however many writes it takes."""
    rest = memoryview(data)
    while rest:
        rest = rest[os.write(fd, rest) :]


def read_upto(fd: int, size: int) -> bytes:
    """``size`` bytes from pipe ``fd``, or fewer at its end."""
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def reap_child(pid: int) -> str:
    """Wait for child ``pid`` to end; how it ended, as a phrase."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        return f"was killed by {signal.Signals(-code).name}"
    return f"exited with status {code}"


@dataclass
class _Child:
    index: int
    pid: int | None  # None once reaped
    replies: int  # the reader of its frames
    running: int | None = None  # the ticket it has claimed and not replied to


class Workers:
    """``processes - 1`` forked children serving tickets beside the caller.

    ``serve(me, ticket)`` runs ``ticket`` in process ``me``, the caller
    being 0.  Errors name a child as ``name`` and end with ``where(ticket)``,
    given the ticket that the child held or None.  With ``cpus``, child
    ``i`` pins itself to ``cpus[i]``.
    """

    def __init__(
        self,
        serve: Callable[[int, int], object],
        processes: int,
        name: str,
        where: Callable[[int | None], str],
        cpus: list[int] | None = None,
    ):
        self.serve, self.name, self.where = serve, name, where
        #: the tickets handed out that the caller has not claimed and no
        #: child has answered
        self.pending: set[int] = set()
        self.children: list[_Child] = []
        self.selector = selectors.DefaultSelector()
        self.claims = [os.pipe() for _ in range(processes)]
        for reader, _ in self.claims:
            os.set_blocking(reader, False)
        try:
            for me in range(1, processes):
                self._fork(me, None if cpus is None else cpus[me])
        except BaseException:
            self.close()
            raise

    def _fork(self, me: int, cpu: int | None) -> None:
        replies, sink = os.pipe()
        try:
            pid = fork_child(lambda: self._serve(me, cpu, replies, sink))
        except BaseException:
            os.close(replies)
            raise
        finally:
            os.close(sink)
        self.children.append(_Child(me, pid, replies))
        self.selector.register(replies, selectors.EVENT_READ, self.children[-1])

    def _serve(self, me: int, cpu: int | None, reader: int, replies: int) -> int:
        """Child ``me``: serve tickets until its caller goes.  ``reader`` is the
        caller's end of ``replies``."""
        # only the caller writes tickets, so the claims pipes end with it
        for fd in [reader, *(s for _, s in self.claims), *(c.replies for c in self.children)]:
            os.close(fd)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        own = [self.claims[me][0]]
        try:
            while True:
                select.select(own, [], [])
                while (ticket := self.claim(me)) is not None:
                    write_all(replies, FRAME.pack(ticket, 0))
                    try:
                        payload = pickle.dumps((self.serve(me, ticket), None))
                    except Exception as e:
                        payload = pickle.dumps((None, _portable(e)))
                    write_all(replies, FRAME.pack(ticket, len(payload)) + payload)
        except (BrokenPipeError, struct.error):  # the caller has gone: a pipe ended
            return 0

    def put(self, owned: list) -> None:
        """Hand out tickets, ``owned[i]`` to process ``i``.  A child wakes only
        to its own pipe, so every ``owned[i]`` of a child must hold a ticket;
        the helpers and the lanes give each process at least one."""
        for (_, sink), tickets in zip(self.claims, owned):
            os.write(sink, array(_TICKET.format, tickets).tobytes())
            self.pending.update(tickets)

    def claim(self, me: int = 0) -> int | None:
        """The next ticket in process ``me``'s pipe, else in the others', else None."""
        for reader, _ in self.claims[me:] + self.claims[:me]:
            try:
                (ticket,) = _TICKET.unpack(os.read(reader, _TICKET.size))
            except BlockingIOError:
                continue
            self.pending.discard(ticket)
            return ticket
        return None

    def receive(self, timeout: float | None = None) -> list[tuple[int, object]] | None:
        """Read a frame from every child that has one, waiting up to ``timeout``
        seconds (None: until one has); the results among them as ``(ticket,
        result)``, or None if no frame came."""
        ready = self.selector.select(timeout)
        results = []
        for key, _ in ready:
            child = key.data
            header = read_upto(child.replies, FRAME.size)
            ticket, size = FRAME.unpack(header) if len(header) == FRAME.size else (0, -1)
            payload = read_upto(child.replies, size)
            if len(payload) != size:
                self.selector.unregister(child.replies)
                pid, child.pid = child.pid, None
                how = f"{reap_child(pid)}{self.where(child.running)}"
                raise HelperProcessError(f"{self.name} process {pid} {how}")
            if not size:
                child.running = ticket
                continue
            child.running = None
            self.pending.discard(ticket)
            result, raised = pickle.loads(payload)
            if raised:
                where = f"{self.name} {child.index} (process {child.pid}){self.where(ticket)}"
                raise raised[0] from ChildTraceback(f"{where}:\n{raised[1]}")
            results.append((ticket, result))
        return results if ready else None

    def close(self) -> None:
        """Kill every child, whatever it is doing, and reap it."""
        self.selector.close()
        for child in self.children:
            if child.pid is not None:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            os.close(child.replies)
        for fd in (fd for pipe in self.claims for fd in pipe):
            os.close(fd)
        self.children, self.claims = [], []


def _portable(e: Exception) -> tuple[Exception, str]:
    """``e`` and its traceback, with ``e`` replaced by a ``RuntimeError`` of
    the same text if it does not survive pickling."""
    text = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(e))
    except Exception:
        e = RuntimeError(f"{type(e).__name__}: {e}")
    return e, text
