"""Acceptance battery at full desk scale: one test per row of
``acceptance.CRITERIA``, plus checks that the table, its readers and the run
context agree.

Each criterion test prints its one-line verdict; expect several minutes
total.  The configurations and tolerances live in ``torusflow.acceptance``.
"""

import ast
import gc
import re
import weakref
from pathlib import Path

import pytest

from torusflow import acceptance
from torusflow.cli import main

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
