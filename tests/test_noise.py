import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import oracles

from torusflow.acceptance import _lattice_ladder, _tail_bound
from torusflow.basis import CHUNK_PATHS, SpectralField
from torusflow.noise import (
    ConfigurationError,
    NoiseModel,
    normalizer_cw,
    normalizer_cw_prime,
    path_stream,
    q_coeff,
    q_trace,
)


def test_q_coeff_values():
    assert q_coeff((0, 0), 4.0) == 1.0
    assert q_coeff((0, 0), 3.5) == 1.0
    assert q_coeff((1, 0), 4.0) == 1.0
    assert q_coeff((1, 1), 4.0) == pytest.approx(0.125, rel=1e-15)


def test_q_coeff_rejects_small_beta():
    with pytest.raises(ConfigurationError):
        q_coeff((1, 0), 3.0)
    with pytest.raises(ConfigurationError):
        q_coeff((1, 0), 2.5)


def _epstein_mp(s):
    """sum_{k != 0} |k|^{-2s} = 4 zeta(s) L(s, chi_-4), in mpmath at 40 digits."""
    with mp.workdps(40):
        s = mp.mpf(s)
        return 4 * mp.zeta(s) * 4**-s * (mp.zeta(s, 0.25) - mp.zeta(s, 0.75))


def test_cw_finite_enumeration():
    # cutoff 1: the eight nonzero points contribute 2*1 + 4/16 for beta=4
    assert 1.0 + _lattice_ladder(8.0, True, 1)[0][0] == pytest.approx(3.25, rel=1e-15)
    # c'_W at cutoff 1: (+-1, 0) give 1 each, (0, +-1) give 0, (+-1, +-1) give 1/8
    assert _lattice_ladder(6.0, True, 1)[0][0] == pytest.approx(2.5, rel=1e-15)


def test_cw_component_symmetry_exact():
    # sum (k1)^2 / |k|^{2s+2} = (1/2) sum |k|^{-2s}, the step the closed forms
    # rest on, is exact on every square partial sum; two real sums agree to
    # rounding
    for s2 in (8.0, 6.0, 7.0):
        weighted = _lattice_ladder(s2, True, 128)
        flat = _lattice_ladder(s2 - 2.0, False, 128)
        for (w, _), (f, _) in zip(weighted, flat):
            assert w == pytest.approx(0.5 * f, rel=1e-14)


def test_cw_against_exact_lattice_constants():
    # For beta = 4 the sums reduce (by the component symmetry) to
    # (1/2) sum |k|^-6 and (1/2) sum |k|^-4, whose values are classical:
    # sum_{k != 0} (k1^2+k2^2)^-s = 4 zeta(s) beta_dirichlet(s).
    with mp.workdps(40):
        cw_exact = float(1 + 2 * mp.zeta(3) * (mp.pi**3 / 32))
        cwp_exact = float(2 * mp.zeta(2) * mp.catalan)
    assert normalizer_cw(4.0) == pytest.approx(cw_exact, rel=1e-14)
    assert normalizer_cw_prime(4.0) == pytest.approx(cwp_exact, rel=1e-14)
    cw, cw_tail = _lattice_ladder(8.0, True, 2048)[-1]
    cwp, cwp_tail = _lattice_ladder(6.0, True, 2048)[-1]
    assert 1.0 + cw <= cw_exact <= 1.0 + cw + cw_tail
    assert cwp <= cwp_exact <= cwp + cwp_tail


@pytest.mark.parametrize("beta", [3.05, 3.5, 4.7, 7.3, 20.0])
def test_closed_forms_against_mpmath(beta):
    assert normalizer_cw(beta) == pytest.approx(float(1 + _epstein_mp(beta - 1) / 2), rel=1e-14)
    assert normalizer_cw_prime(beta) == pytest.approx(float(_epstein_mp(beta - 2) / 2), rel=1e-14)
    assert q_trace(beta) == pytest.approx(float(1 + _epstein_mp(beta - 1)), rel=1e-14)


def test_closed_forms_in_reference_brackets():
    # a beta off the integers, where the reference sums take powers, not products
    beta = 3.5
    for value, offset, ladder in (
        (normalizer_cw(beta), 1.0, _lattice_ladder(2 * beta, True, 512)),
        (normalizer_cw_prime(beta), 0.0, _lattice_ladder(2 * beta - 2, True, 512)),
        (q_trace(beta), 1.0, _lattice_ladder(2 * beta - 2, False, 512)),
    ):
        for s, tail in ladder:
            assert offset + s <= value <= offset + s + tail


def test_default_interval_widths():
    # the ladder tops A9 sums to bracket c_W and c'_W within 1e-8 at beta = 4
    assert _tail_bound(8.0, True, 2048) < 1e-8
    assert _tail_bound(6.0, True, 32768) < 1e-8


def test_doubling_stability():
    lad = _lattice_ladder(8.0, True, 2048)
    assert abs(lad[-1][0] - lad[-2][0]) < 1e-8
    ladp = _lattice_ladder(6.0, True, 32768)
    assert abs(ladp[-1][0] - ladp[-2][0]) < 1e-8
    # partial sums increase monotonically
    vals = [v for v, _ in ladp]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_trace_class_stability():
    lad = _lattice_ladder(6.0, False, 1024)
    assert abs(lad[-1][0] - lad[-2][0]) < 1e-8
    s, tail = lad[-1]
    assert 1.0 + s <= q_trace(4.0) <= 1.0 + s + tail


def test_ratio_finite():
    cw = normalizer_cw(4.0)
    cwp = normalizer_cw_prime(4.0)
    assert 0 < cwp / cw < np.inf


def test_space_independent_pairs():
    m = NoiseModel.space_independent()
    pairs = m.transport_pairs()
    assert [(c, str(md)) for c, md, _ in pairs] == [
        (1.0, "c(0,0)"),
        (1.0, "s(0,0)"),
    ]
    assert m.is_constant_advection


def test_qwiener_weights():
    m0 = NoiseModel.q_wiener(0, beta=4.0)
    pairs = m0.transport_pairs()
    assert len(pairs) == 2
    assert pairs[0][0] == pytest.approx(1.0 / np.sqrt(m0.cw), rel=1e-14)

    m1 = NoiseModel.q_wiener(1, beta=4.0)
    assert m1.n_components == 9
    by_mode = {str(md): c for c, md, _ in m1.transport_pairs()}
    assert by_mode["c(1,1)"] == pytest.approx(np.sqrt(0.125) / np.sqrt(m1.cw), rel=1e-14)
    # both members of a +-k pair are enumerated with the same weight
    assert by_mode["c(-1,-1)"] == by_mode["c(1,1)"]


def test_model_rejects_bad_beta():
    with pytest.raises(ConfigurationError):
        NoiseModel.q_wiener(2, beta=3.0)


def test_increment_assembly_matches_modewise_sum():
    m = NoiseModel.q_wiener(2, beta=4.0)
    incr = path_stream(3, 1).standard_normal((m.n_components, 2)) * np.sqrt(1e-2)
    assembled = SpectralField(m.field_basis, m.increments_to_field(incr))
    ref = SpectralField.zero(m.field_basis)
    for c, md, (j, comp) in m.transport_pairs():
        ref = ref + (c * incr[j, comp]) * SpectralField.from_modes(
            m.field_basis, [(md, 1.0)]
        )
    np.testing.assert_allclose(assembled.coeffs, ref.coeffs, atol=1e-15)
    assert assembled.divergence_max() < 1e-12


@pytest.mark.parametrize(
    "model",
    [
        NoiseModel.q_wiener(8),
        # (1, 0) and (0, 1) meet their -k; (2, 1), (0, 0) and (-1, 3) are alone
        NoiseModel.finite_modes([(1, 0), (2, 1), (0, -1), (0, 0), (-1, 0), (-1, 3), (0, 1)]),
        NoiseModel.space_independent(),
    ],
    ids=["qwiener:8", "finite", "space-independent"],
)
def test_fold_is_bit_equal_to_its_first_form(model):
    # a batch, one path and a single draw, with zeros of both signs: every
    # row holds the first fold's bits, the sign of a zero in a row of one
    # member included
    values = path_stream(5, 2).standard_normal((6, model.n_components, 2))
    values[0, :, 0] = -0.0
    values[1, :, 1] = 0.0
    for batch in (values, values[3], values[4:5]):
        got = model.increments_to_field(batch)
        want = oracles.fold_increments(model, batch)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # folded into an array that held something else: the rows that no
        # component reaches are zeroed
        into = np.full_like(want, np.nan)
        assert model.increments_to_field(batch, out=into) is into
        assert np.array_equal(np.signbit(into), np.signbit(want))
        assert np.array_equal(into, want)
    assert np.signbit(model.increments_to_field(values)[0, 0]).any()


def test_fold_over_path_chunks_is_bit_equal_to_the_whole_batch_fold():
    # 2048 paths at qwiener:8 fold 64 at a time into the bits of the fold
    # over the whole batch, and its temporaries hold one chunk: 4 chunks'
    # worth of increments beyond the field, where the whole batch's
    # increments are 9.5 MB each
    model = NoiseModel.q_wiener(8)
    values = path_stream(3, 1).standard_normal((2048, model.n_components, 2))
    values[5] = -0.0
    want = oracles.fold_increments_unchunked(model, values)
    got = model.increments_to_field(values)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    for batch in (values[:67], values[:3].reshape(3, 1, model.n_components, 2), values[0]):
        assert np.array_equal(
            model.increments_to_field(batch), oracles.fold_increments_unchunked(model, batch)
        )
    tracemalloc.start()
    try:
        out = model.increments_to_field(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = CHUNK_PATHS * model.n_components * 2 * 8
    assert peak - out.nbytes < 4 * chunk


def test_increment_moments():
    # mean within 4 sigma / sqrt(N), variance within 5% (approx 3 sigma bound)
    dt = 1e-2
    n = 100_000
    flat = path_stream(0, 7).standard_normal(2 * n) * np.sqrt(dt)
    assert abs(flat.mean()) <= 4 * np.sqrt(dt) / np.sqrt(flat.size)
    assert abs(flat.var() - dt) <= 0.05 * dt


def test_stream_independence_and_determinism():
    n = 50_000
    a = path_stream(9, 0).standard_normal(2 * n)
    b = path_stream(9, 1).standard_normal(2 * n)
    a2 = path_stream(9, 0).standard_normal(2 * n)
    assert np.array_equal(a, a2)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(a.size)


def test_brownian_quadratic_variation():
    # space-independent regime behaves like a plain 2D Brownian motion
    dt = 1e-3
    steps = 1000
    qv = []
    for pid in range(32):
        vals = path_stream(11, pid).standard_normal((steps, 1, 2)) * np.sqrt(dt)
        qv.append(np.sum(vals[:, 0, 0] ** 2))
    qv = np.array(qv)
    t = steps * dt
    # QV of a path is sum of squares: mean t, sd sqrt(2 dt t)
    assert abs(qv.mean() - t) <= 4 * np.sqrt(2 * dt * t / len(qv))


def test_discarded_trace_decreases_with_cutoff():
    t2 = NoiseModel.q_wiener(2, beta=4.0).discarded_trace()
    t4 = NoiseModel.q_wiener(4, beta=4.0).discarded_trace()
    assert t4 < t2
    assert t4 >= 0


def test_empty_mode_set_is_zero_noise():
    m = NoiseModel.finite_modes([])
    assert m.n_components == 0
    out = m.increments_to_field(np.zeros((0, 2)))
    assert out.shape == (2, 1)
    assert np.all(out == 0.0)
