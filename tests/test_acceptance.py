"""Acceptance battery at full desk scale: one test per criterion.

Each test prints its one-line verdict; expect several minutes total.  The
configurations and tolerances live in ``torusflow.acceptance``.
"""

from torusflow import acceptance

# A2 and A6 share one ensemble run, as in acceptance.run_suite
_SHARED: dict = {}


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_a1a_pathwise_l2_conservation_midpoint():
    _check(acceptance.criterion_a1_midpoint())


def test_a1b_heun_drift_order():
    _check(acceptance.criterion_a1_heun_order())


def test_a2_enstrophy_expectation_flat():
    _check(acceptance.criterion_a2_h1_flat(_shared=_SHARED))


def test_a3_gronwall_envelope():
    _check(acceptance.criterion_a3_gronwall())


def test_a4_nonlinear_oracle_equivalence():
    _check(acceptance.criterion_a4_oracle_equivalence())


def test_a5_geodesic_correspondence():
    _check(acceptance.criterion_a5_geodesic())


def test_a6_martingale_functionals():
    _check(acceptance.criterion_a6_martingale(_shared=_SHARED))


def test_a7_ito_strat_consistency():
    _check(acceptance.criterion_a7_ito_strat())


def test_a8_structural_identities():
    _check(acceptance.criterion_a8_structural())


def test_a9_noise_constants():
    _check(acceptance.criterion_a9_constants())


def test_a9_quick_sees_small_cw_prime_error(monkeypatch):
    # the quick c'_W bracket is 2.4e-7 wide; the classical value at beta = 4
    # must catch an error far below that
    exact = acceptance.normalizer_cw_prime
    assert acceptance.criterion_a9_constants(quick=True).passed
    monkeypatch.setattr(acceptance, "normalizer_cw_prime", lambda beta: exact(beta) * (1 - 1e-9))
    assert not acceptance.criterion_a9_constants(quick=True).passed
