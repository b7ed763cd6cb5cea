"""Acceptance battery at full desk scale: one test per row of
``acceptance.CRITERIA``, plus checks that the table, its readers and the run
context agree.

Each criterion test prints its one-line verdict; expect several minutes
total.  The configurations and tolerances live in ``torusflow.acceptance``.
"""

import ast
import gc
import os
import re
import signal
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from processes import assert_no_child_left, deadline

from torusflow import acceptance, workers
from torusflow.cli import main
from torusflow.integrate import MidpointConvergenceError, NonFiniteStateError
from torusflow.workers import HelperProcessError

ROOT = Path(__file__).resolve().parent.parent

# what each criterion's test is called, so the test ids stay put as the table
# changes; a row missing here is still tested, as test_<key>_criterion
_TEST_NAMES = {
    "a1a": "pathwise_l2_conservation_midpoint",
    "a1b": "heun_drift_order",
    "a2": "enstrophy_expectation_flat",
    "a3": "gronwall_envelope",
    "a4": "nonlinear_oracle_equivalence",
    "a5": "geodesic_correspondence",
    "a6": "martingale_functionals",
    "a7": "ito_strat_consistency",
    "a8": "structural_identities",
    "a9": "noise_constants",
}


def _criterion_test(key):
    def test():
        (result,) = acceptance.run_suite(key)
        print(result.line())
        assert result.passed, result.line()

    test.__name__ = f"test_{key}_{_TEST_NAMES.get(key, 'criterion')}"
    return test


for _criterion in acceptance.CRITERIA:
    _test = _criterion_test(_criterion.key)
    globals()[_test.__name__] = _test


def test_a9_quick_sees_small_cw_prime_error(monkeypatch):
    # the quick c'_W bracket is 2.4e-7 wide; the classical value at beta = 4
    # must catch an error far below that
    exact = acceptance.normalizer_cw_prime
    assert acceptance.run_suite("a9", quick=True)[0].passed
    monkeypatch.setattr(acceptance, "normalizer_cw_prime", lambda beta: exact(beta) * (1 - 1e-9))
    assert not acceptance.run_suite("a9", quick=True)[0].passed


def _record_ensembles(monkeypatch):
    """Route ``acceptance.run_ensemble`` through a recorder of ``(n, weakref)``."""
    built = []
    real = acceptance.run_ensemble

    def recording(cfg, *args, **kwargs):
        diag = real(cfg, *args, **kwargs)
        built.append((cfg.n, weakref.ref(diag)))
        return diag

    monkeypatch.setattr(acceptance, "run_ensemble", recording)
    return built


def test_a2_ensemble_is_built_once_per_run_and_dropped_after(monkeypatch):
    # A6 alone builds A2's ensemble (n=8), then its one-mode reference (n=1)
    built = _record_ensembles(monkeypatch)
    first = acceptance.run_suite("martingale", quick=True)
    second = acceptance.run_suite("martingale", quick=True)
    assert [n for n, _ in built] == [8, 1, 8, 1]
    assert [r.measured for r in first] == [r.measured for r in second]
    gc.collect()
    assert all(ref() is None for _, ref in built)


def test_a2_and_a6_share_one_ensemble_within_a_run(monkeypatch):
    built = _record_ensembles(monkeypatch)
    run = acceptance.RunContext(quick=True, seed=0)
    checks = {c.key: c.check for c in acceptance.CRITERIA}
    assert checks["a2"](run)[0] and checks["a6"](run)[0]
    assert [n for n, _ in built] == [8, 1]


def test_table_agrees_with_its_readers(capsys):
    keys = tuple(c.key for c in acceptance.CRITERIA)
    assert len(set(keys)) == len(keys)
    assert sorted(acceptance.CLAIM_ORDER) == sorted(keys)
    for c in acceptance.CRITERIA:
        # perfbench keys each result by its name's first word
        assert c.name.split()[0].lower() == c.key

    # the benchmark's per-criterion timings, read without importing it
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    (bench,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CRITERIA" for t in node.targets)
    )
    assert bench == keys

    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    words = set(re.findall(r"\w+", capsys.readouterr().out))
    assert set(keys) | set(acceptance.SUITES) | {"all"} <= words


# ---------------------------------------------------------------------------
# lanes: the criteria of one run_suite call side by side, one process per CPU
# ---------------------------------------------------------------------------


def _two_cpus(monkeypatch):
    """Make run_suite see two usable CPUs, and a lane pinned to one see one."""
    real = os.sched_getaffinity
    if len(real(0)) < 2:
        pytest.skip("needs two usable CPUs")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(sorted(real(pid))[:2]))


def _table(monkeypatch, in_lane, in_caller=lambda key: time.sleep(0.5)):
    """Cut the table to A4 and A8, whose checks call ``in_lane(key)`` in a
    forked lane and ``in_caller(key)`` in the caller, then pass.  The caller
    runs A4, first in the claim order, and the lane A8, second; the caller's
    default takes 0.5 s, so that the lane is running when the caller is done."""
    caller = os.getpid()

    def check_of(key):
        def check(run):
            (in_caller if os.getpid() == caller else in_lane)(key)
            return True, key, "none"

        return check

    rows = tuple(
        replace(c, check=check_of(c.key)) for c in acceptance.CRITERIA if c.key in ("a4", "a8")
    )
    monkeypatch.setattr(acceptance, "CRITERIA", rows)


def test_a2_and_a6_share_one_lane_and_one_ensemble(monkeypatch, tmp_path):
    # the lanes are forked, so a recorder appending to a list here would not
    # see their builds; it appends to a file instead
    _two_cpus(monkeypatch)
    log = tmp_path / "ensembles"
    real = acceptance.run_ensemble

    def recording(cfg, *args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{cfg.n} {cfg.scheme} {cfg.noise.is_constant_advection}\n")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(acceptance, "run_ensemble", recording)
    before = os.sched_getaffinity(0)
    results = acceptance.run_suite("all", quick=True)
    assert os.sched_getaffinity(0) == before
    assert [r.name for r in results] == [c.name for c in acceptance.CRITERIA]
    assert all(r.passed for r in results)
    process = {r.name.split()[0].lower(): r.process for r in results}
    assert set(process.values()) == {0, 1}
    assert process["a2"] == process["a6"]
    # the caller starts with A2's job and lane 1 with A5, the two largest
    # working sets
    assert process["a2"] == 0 and process["a5"] == 1
    # A4 runs in A5's job, beside the n=8 tensor that A5's structure tables
    # build, so the caller builds no coupling tensor
    assert process["a4"] == process["a5"] == 1
    assert log.read_text().splitlines().count("8 ito-em True") == 1
    assert_no_child_left()


def test_no_lane_outlives_the_battery(monkeypatch):
    _two_cpus(monkeypatch)
    _table(monkeypatch, in_lane=lambda key: None)
    before = os.sched_getaffinity(0)
    results = acceptance.run_suite()
    assert os.sched_getaffinity(0) == before
    assert [r.measured for r in results] == ["a4", "a8"]
    assert [r.process for r in results] == [0, 1]
    assert_no_child_left()


def test_check_raising_in_a_lane_is_reraised_naming_the_criterion(monkeypatch):
    _two_cpus(monkeypatch)

    def fail(key):
        raise RuntimeError(f"no {key} today")

    _table(monkeypatch, fail)
    before = os.sched_getaffinity(0)
    with pytest.raises(RuntimeError, match=r"^no a8 today$") as exc:
        acceptance.run_suite()
    cause = exc.value.__cause__
    assert isinstance(cause, workers.ChildTraceback)
    assert re.match(r"criterion lane 1 \(process \d+\) while running a8:\n", str(cause))
    assert "RuntimeError: no a8 today" in str(cause)
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_midpoint_failure_in_a_lane_keeps_its_message(monkeypatch, capsys):
    _two_cpus(monkeypatch)
    failure = MidpointConvergenceError(1.5e-3, 50, 7, [3, 4])

    def fail(key):
        raise failure

    _table(monkeypatch, fail)
    before = os.sched_getaffinity(0)
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == f"error: {failure}\n"
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_blown_up_state_in_a_lane_keeps_its_message(monkeypatch, capsys):
    _two_cpus(monkeypatch)
    failure = NonFiniteStateError(16, 1.6, [4, 7])

    def fail(key):
        raise failure

    _table(monkeypatch, fail)
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == f"error: {failure}\n"
    assert_no_child_left()


def test_killed_lane_is_an_error_naming_the_criterion(monkeypatch, capsys):
    # the lane kills itself once it has claimed its job; the caller finds
    # its pipe at end of file after its own job
    _two_cpus(monkeypatch)
    _table(monkeypatch, lambda key: os.kill(os.getpid(), signal.SIGKILL))
    before = os.sched_getaffinity(0)
    with deadline(60), pytest.raises(HelperProcessError) as exc:
        acceptance.run_suite()
    assert re.fullmatch(
        r"criterion lane process \d+ was killed by SIGKILL while running a8", str(exc.value)
    )
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()
    with deadline(60):
        assert main(["verify"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: criterion lane process ") and "Traceback" not in err
    assert_no_child_left()


def test_raising_caller_ends_its_lanes_at_once(monkeypatch):
    # an interrupt, or a check failing in the caller, must not wait for the
    # job a lane is running; the lane is killed and reaped
    _two_cpus(monkeypatch)

    def interrupt(key):
        time.sleep(0.5)
        raise KeyboardInterrupt

    _table(monkeypatch, in_lane=lambda key: time.sleep(60), in_caller=interrupt)
    start = time.perf_counter()
    with deadline(30), pytest.raises(KeyboardInterrupt):
        acceptance.run_suite()
    assert time.perf_counter() - start < 10
    assert_no_child_left()


def test_one_usable_cpu_runs_every_criterion_in_process(monkeypatch):
    # A2's ensemble would fork helpers too; nothing may fork
    real = os.sched_getaffinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(real(pid))})

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    rows = tuple(c for c in acceptance.CRITERIA if c.key in ("a2", "a4", "a6"))
    monkeypatch.setattr(acceptance, "CRITERIA", rows)
    results = acceptance.run_suite(quick=True)
    assert [r.name for r in results] == [c.name for c in rows]
    assert all(r.passed and r.process == 0 for r in results)
