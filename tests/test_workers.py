"""The contract of the forked-worker layer, held by both of its users: the
path-block helpers of an ensemble and the criterion lanes of the battery."""

import os
import re
import signal
import time
from dataclasses import replace

import pytest
from processes import assert_no_child_left, deadline

from torusflow import acceptance, integrate, workers
from torusflow.integrate import SimConfig, StepKernel


def _in_helper(monkeypatch, act):
    """An ensemble whose helper calls ``act()`` in each block it steps.  Every
    block takes 0.05 s, so the helper claims one while the caller steps its
    own."""
    cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme="ito-em", paths=10, seed=5)
    kernel = StepKernel(cfg.basis, cfg.noise, cfg.scheme, cfg.dt)
    monkeypatch.setattr(integrate, "BLOCK_BYTES", 4 * kernel.path_bytes)
    caller, step_rows = os.getpid(), StepKernel._step_rows

    def acting_step_rows(self, u, w_coeffs, out, lo, hi):
        if os.getpid() != caller:
            act()
        time.sleep(0.05)
        return step_rows(self, u, w_coeffs, out, lo, hi)

    monkeypatch.setattr(StepKernel, "_step_rows", acting_step_rows)
    return lambda: integrate.run_ensemble(cfg), r"path-block helper process \d+ {how} at step \d+"


def _in_lane(monkeypatch, act):
    """A battery of A4 and A8, whose check calls ``act()`` in the lane that
    runs A8; the caller runs A4 for 0.5 s."""
    caller = os.getpid()

    def check(run):
        if os.getpid() == caller:
            time.sleep(0.5)
        else:
            act()
        return True, "", ""

    rows = tuple(replace(c, check=check) for c in acceptance.CRITERIA if c.key in ("a4", "a8"))
    monkeypatch.setattr(acceptance, "CRITERIA", rows)
    return acceptance.run_suite, r"criterion lane process \d+ {how} while running a8"


def _fail():
    raise KeyError("no such path")


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("act", [_fail, _die], ids=["raises", "killed"])
@pytest.mark.parametrize("work", [_in_helper, _in_lane], ids=["helpers", "lanes"])
def test_a_child_failure_reaches_the_caller(monkeypatch, work, act):
    # what a child raises comes back with its type and message, the child's
    # traceback its cause; a child that is killed is named, with how and
    # the work it held; either way no child is left and the caller keeps
    # its CPU affinity
    real = os.sched_getaffinity
    if len(real(0)) < 2:
        pytest.skip("needs two usable CPUs")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(sorted(real(pid))[:2]))
    before = os.sched_getaffinity(0)
    run, message = work(monkeypatch, act)
    if act is _fail:
        with deadline(60), pytest.raises(KeyError, match="no such path") as exc:
            run()
        assert isinstance(exc.value.__cause__, workers.ChildTraceback)
        assert "KeyError: 'no such path'" in str(exc.value.__cause__)
    else:
        with deadline(60), pytest.raises(workers.HelperProcessError) as exc:
            run()
        assert re.fullmatch(message.format(how="was killed by SIGKILL"), str(exc.value))
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_each_child_wakes_to_its_own_first_ticket(monkeypatch):
    # put writes the caller's pipe first; with 50 ms after each write, a
    # child that woke to any pipe would claim the caller's ticket before
    # its own was written and hold it for the 0.2 s it serves
    def serve(me, ticket):
        time.sleep(0.2)
        return me

    pool = workers.Workers(serve, 3, "test worker", lambda ticket: "")
    sinks = {sink for _, sink in pool.claims}
    write = os.write

    def slow_write(fd, data):
        n = write(fd, data)
        if fd in sinks:
            time.sleep(0.05)
        return n

    try:
        with deadline(10):
            with monkeypatch.context() as m:
                m.setattr(os, "write", slow_write)
                pool.put([[0], [1], [2]])
            assert pool.claim() == 0
            served = {}
            while pool.pending:
                served.update(pool.receive())
        assert served == {1: 1, 2: 2}
    finally:
        pool.close()
    assert_no_child_left()


@pytest.mark.parametrize("work", [_in_helper, _in_lane], ids=["helpers", "lanes"])
def test_work_holds_blas_at_one_thread_and_restores_it(monkeypatch, work):
    # an ensemble and the battery run with one BLAS thread in the caller and
    # in every child they fork, and leave the count as they found it
    real = os.sched_getaffinity
    if len(real(0)) < 2:
        pytest.skip("needs two usable CPUs")
    if workers._blas_thread_count() is None:
        pytest.skip("numpy's BLAS has no thread-count setter")
    setter, getter = workers._blas_thread_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(sorted(real(pid))[:2]))

    def one_thread():
        if getter() != 1:
            raise AssertionError(f"{getter()} BLAS threads in a child")

    run, _ = work(monkeypatch, one_thread)
    before = getter()
    setter(2)
    try:
        with deadline(60):
            run()
        assert getter() == 2
    finally:
        setter(before)
    assert_no_child_left()


def test_a_missing_blas_setter_warns_once(monkeypatch):
    # a BLAS with no thread-count setter changes nothing and says so once
    monkeypatch.setattr(workers.ctypes, "CDLL", lambda path: object())
    workers._blas_thread_count.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="no OpenBLAS thread-count setter") as record:
            for _ in range(2):
                with workers.one_blas_thread():
                    pass
        assert len(record) == 1
    finally:
        workers._blas_thread_count.cache_clear()
