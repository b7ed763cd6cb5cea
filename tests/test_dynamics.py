import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import basis as basis_module
from torusflow import dynamics
from torusflow.basis import (
    BasisMode,
    SpectralField,
    Workspace,
    get_basis,
    gradient,
    halfspectrum_to_grid,
    l2_inner,
    leray_project,
    place_halfspectrum,
    random_field,
)
from torusflow.dynamics import (
    ITO_VISCOSITY,
    TruncationMismatch,
    advect,
    build_advection_tensor,
    dealias_resolution,
    middle_slice,
    nonlinear_direct,
    nonlinear_pseudospectral,
    stokes_apply,
    transport_apply,
)
from torusflow.integrate import StepKernel
from torusflow.noise import NoiseModel

import oracles


def test_stokes_examples():
    b = get_basis(2)
    z = stokes_apply(SpectralField.from_modes(b, [(BasisMode("c", (0, 0)), 1.0)]))
    assert np.abs(z.coeffs).max() == 0.0
    f = stokes_apply(SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)]))
    assert f.coefficient(BasisMode("c", (1, 0))) == pytest.approx(1.0)
    g = stokes_apply(SpectralField.from_modes(b, [(BasisMode("c", (1, 1)), 2.0)]))
    assert g.coefficient(BasisMode("c", (1, 1))) == pytest.approx(4.0)


def test_viscosity_constant():
    assert ITO_VISCOSITY == 0.5


def test_single_mode_is_steady():
    # every individual c_k / s_k is orthogonal to its own wavevector
    b = get_basis(3)
    for kind, k in itertools.product("cs", [(1, 0), (2, 1), (0, 3)]):
        f = SpectralField.from_modes(b, [(BasisMode(kind, k), 1.7)])
        assert np.abs(nonlinear_direct(f).coeffs).max() <= 1e-13
        assert np.abs(nonlinear_pseudospectral(f).coeffs).max() <= 1e-12


def test_equal_eigenvalue_pair_annihilated_by_projection():
    # (f . grad) f for C(1,0) + C(0,1) is supported on (1,1) and (1,-1) but is
    # a pure gradient there, so the Galerkin projection vanishes.
    b = get_basis(2)
    f = SpectralField.from_modes(
        b, [(BasisMode("c", (1, 0)), 1.0), (BasisMode("c", (0, 1)), 1.0)]
    )
    m = 16
    raw = oracles.advect_grid(oracles.field_on_grid(f, m), f, m)
    # raw product equals (cos t1 sin t2, cos t2 sin t1) pointwise
    t = np.arange(m) * 2 * np.pi / m
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    np.testing.assert_allclose(raw[..., 0], np.cos(T1) * np.sin(T2), atol=1e-12)
    np.testing.assert_allclose(raw[..., 1], np.cos(T2) * np.sin(T1), atol=1e-12)
    assert np.abs(nonlinear_direct(f).coeffs).max() <= 1e-13


def test_interacting_pair_against_quadrature():
    b = get_basis(3)
    f = SpectralField.from_modes(
        b, [(BasisMode("c", (1, 0)), 1.0), (BasisMode("c", (1, 1)), 1.0)]
    )
    got = nonlinear_direct(f)
    m = 24
    ref = oracles.project_grid(
        oracles.advect_grid(oracles.field_on_grid(f, m), f, m), b
    )
    np.testing.assert_allclose(got.coeffs, ref.coeffs, atol=1e-12)
    assert np.abs(got.coeffs).max() > 0.01  # genuinely interacting


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    b = get_basis(6)
    f = random_field(b, rng, include_mean=True)
    d = nonlinear_direct(f)
    p = nonlinear_pseudospectral(f)
    assert np.abs(d.coeffs - p.coeffs).max() <= 1e-10


def test_truncation_mismatch_raises():
    t = build_advection_tensor(3)
    f = SpectralField.zero(get_basis(4))
    with pytest.raises(TruncationMismatch):
        nonlinear_direct(f, t)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_energy_orthogonality(seed):
    rng = np.random.default_rng(seed)
    b = get_basis(4)
    f = random_field(b, rng)
    for Bf in (nonlinear_direct(f), nonlinear_pseudospectral(f)):
        assert abs(l2_inner(Bf, f)) <= 1e-10 * f.l2_norm() ** 2


def test_enstrophy_identity():
    # <grad B(f), grad f> = <B(f), A f> = 0 in 2D
    rng = np.random.default_rng(123)
    b = get_basis(6)
    for _ in range(10):
        f = random_field(b, rng)
        Bf = nonlinear_pseudospectral(f)
        val = l2_inner(Bf, stokes_apply(f))
        assert abs(val) <= 1e-9 * (1.0 + f.h1_norm() ** 2)
    # independent quadrature confirmation on one draw
    m = 48
    fg = oracles.field_on_grid(f, m)
    Bg = oracles.advect_grid(fg, f, m)
    d1g = oracles.field_on_grid(gradient(f)[0], m)
    d2g = oracles.field_on_grid(gradient(f)[1], m)
    B1 = oracles.field_on_grid(gradient(Bf)[0], m)
    B2 = oracles.field_on_grid(gradient(Bf)[1], m)
    val_q = oracles.quad_inner(B1, d1g) + oracles.quad_inner(B2, d2g)
    assert abs(val_q) <= 1e-9 * (1.0 + f.h1_norm() ** 2)


def test_tensor_skew_symmetry():
    t = build_advection_tensor(2)
    b = get_basis(2)
    all_modes = [
        BasisMode(kind, (int(k1), int(k2))) for kind in "cs" for (k1, k2) in b.modes
    ]
    for adv in all_modes[:8]:
        for x, y in itertools.combinations_with_replacement(all_modes, 2):
            assert t.entry(adv, x, y) == pytest.approx(-t.entry(adv, y, x), abs=1e-13)
    # b_{ijj} = 0 follows
    for adv in all_modes[:8]:
        for x in all_modes:
            assert abs(t.entry(adv, x, x)) <= 1e-14


def test_tensor_entries_against_quadrature():
    b = get_basis(2)
    t = build_advection_tensor(2)
    m = 24
    rng = np.random.default_rng(5)
    modes = [
        BasisMode(kind, (int(k1), int(k2))) for kind in "cs" for (k1, k2) in b.modes
    ]
    sel = rng.choice(len(modes), size=(12, 3))
    for ia, ik, ij in sel:
        adv, tgt, out = modes[ia], modes[ik], modes[ij]
        advg = oracles.mode_grid(b, adv, m)
        tgt_f = SpectralField.from_modes(b, [(tgt, 1.0)])
        outg = oracles.mode_grid(b, out, m)
        ref = oracles.quad_inner(oracles.advect_grid(advg, tgt_f, m), outg)
        assert t.entry(adv, tgt, out) == pytest.approx(ref, abs=1e-12)


def _mode_field(mode: BasisMode) -> SpectralField:
    """One basis field over the smallest basis that holds it."""
    n = max(abs(mode.k[0]), abs(mode.k[1]))
    return SpectralField.from_modes(get_basis(n), [(mode, 1.0)])


def test_transport_constant_advectors():
    b = get_basis(2)
    e1 = _mode_field(BasisMode("c", (0, 0)))
    e2 = _mode_field(BasisMode("s", (0, 0)))
    f = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    t1 = transport_apply(f, e1)
    assert t1.coefficient(BasisMode("s", (1, 0))) == pytest.approx(-1.0)
    assert np.abs(transport_apply(f, e2).coeffs).max() == 0.0
    # constant advectors equal the exact gradient components
    rng = np.random.default_rng(2)
    g = random_field(b, rng)
    d1, d2 = gradient(g)
    np.testing.assert_allclose(transport_apply(g, e1).coeffs, d1.coeffs, atol=1e-14)
    np.testing.assert_allclose(transport_apply(g, e2).coeffs, d2.coeffs, atol=1e-14)


def test_transport_mode_advector_against_quadrature():
    b = get_basis(2)
    f = SpectralField.from_modes(b, [(BasisMode("c", (0, 1)), 1.0)])
    got = transport_apply(f, _mode_field(BasisMode("c", (1, 0))))
    m = 24
    advg = oracles.mode_grid(b, BasisMode("c", (1, 0)), m)
    ref = oracles.project_grid(oracles.advect_grid(advg, f, m), b)
    np.testing.assert_allclose(got.coeffs, ref.coeffs, atol=1e-12)
    support = {
        (kind, tuple(k))
        for r, kind in ((0, "c"), (1, "s"))
        for k, c in zip(b.modes, got.coeffs[r])
        if abs(c) > 1e-13
    }
    assert support == {("s", (1, 1)), ("s", (1, -1))}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transport_skewness_property(seed):
    rng = np.random.default_rng(seed)
    b = get_basis(4)
    f = random_field(b, rng)
    a = random_field(b, rng, include_mean=True)
    tf = transport_apply(f, a)
    bound = 1e-10 * f.l2_norm() * max(f.h1_norm(), 1.0) * max(a.l2_norm(), 1.0)
    assert abs(l2_inner(tf, f)) <= bound


def test_transport_bilinearity_in_advector():
    # applying the assembled advector equals summing per-mode transports
    rng = np.random.default_rng(7)
    b = get_basis(3)
    f = random_field(b, rng)
    wb = get_basis(1)
    w = random_field(wb, rng, include_mean=True, normalize=None)
    total = transport_apply(f, w)
    acc = SpectralField.zero(b)
    for kind, row in (("c", 0), ("s", 1)):
        for i, k in enumerate(wb.modes):
            c = w.coeffs[row, i]
            if c != 0.0:
                mode = BasisMode(kind, (int(k[0]), int(k[1])))
                acc = acc + c * transport_apply(f, _mode_field(mode))
    np.testing.assert_allclose(total.coeffs, acc.coeffs, atol=1e-12)


def test_drift_forms():
    b = get_basis(3)
    f = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    assert np.abs(oracles.strat_drift(f).coeffs).max() <= 1e-13
    np.testing.assert_allclose(oracles.ito_drift(f).coeffs, -0.5 * f.coeffs, atol=1e-13)
    z = SpectralField.zero(b)
    assert np.abs(oracles.strat_drift(z).coeffs).max() == 0.0
    assert np.abs(oracles.ito_drift(z).coeffs).max() == 0.0
    # <ito_drift(f) + (1/2) A f, f> = 0 reduces to energy orthogonality
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_field(b, rng)
        val = l2_inner(oracles.ito_drift(g) + 0.5 * stokes_apply(g), g)
        assert abs(val) <= 1e-10 * g.l2_norm() ** 2


def test_middle_slice_quadratic_form():
    # sum_ij Q_ij u_i u_j = <(u . grad) v, u>_0, checked by quadrature
    rng = np.random.default_rng(11)
    b = get_basis(3)
    v = SpectralField.from_modes(b, [(BasisMode("s", (1, 0)), 1.0)])
    ii, jj, vals = middle_slice(b, v)
    for _ in range(5):
        u = random_field(b, rng, include_mean=True)
        c = u.coeffs.reshape(-1)
        got = float(np.sum(vals * c[ii] * c[jj]))
        m = 32
        ug = oracles.field_on_grid(u, m)
        ref = oracles.quad_inner(oracles.advect_grid(ug, v, m), ug)
        assert got == pytest.approx(ref, abs=1e-11)


@pytest.mark.parametrize("n", range(1, 9))
def test_middle_slice_is_the_tensor_slice_bit_for_bit(n):
    # the closed form over the targets of v alone gives the tensor slice's
    # entries in the tensor's order, so the probe's merge keeps its bits;
    # the constant modes give no entries
    b = get_basis(n)
    waves = [(1, 0), (0, 1), (1, 1), (1, -1), (0, n), (n, -n), (0, 0)]
    vs = [SpectralField.from_modes(b, [(BasisMode(kind, k), 1.0)]) for k in waves for kind in "cs"]
    vs.append(
        SpectralField.from_modes(
            b,
            [
                (BasisMode("c", (1, 0)), 0.7),
                (BasisMode("s", (0, 1)), -1.1),
                (BasisMode("c", (1, 1)), 0.4),
            ],
        )
    )
    for v in vs:
        got = middle_slice(b, v)
        want = oracles.middle_slice_from_tensor(b, v)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.astype(w.dtype).tobytes() == w.tobytes()
        if not np.any(v.coeffs[:, 1:]):
            assert len(got[0]) == 0


# ---------------------------------------------------------------------------
# the batched core: a rotational pass for the quadratic term, a flux pass
# for the quadratic term with transport
# ---------------------------------------------------------------------------

#: the weight of the quadratic term in the fused checks, like a step's -dt
SCALE = -0.37


def _batch(basis, rng, paths, include_mean=False):
    draws = [random_field(basis, rng, include_mean=include_mean) for _ in range(paths)]
    return np.stack([f.coeffs for f in draws])


def _on_grid(basis, coeffs, m):
    return halfspectrum_to_grid(place_halfspectrum(basis, coeffs, m), m)


def _advector(basis, coeffs, m):
    return _on_grid(basis, coeffs, m)


def _tensor_transport(w: SpectralField, f: SpectralField, out) -> np.ndarray:
    """``P (w . grad) f`` over ``out`` by contracting the coupling tensor.

    The contraction runs over a truncation holding ``w``, ``f`` and ``out``,
    so an advector wider than the output still couples through its outer
    modes; the result is then projected onto ``out``.
    """
    full = get_basis(max(w.basis.n, f.basis.n, out.n))
    w, f = leray_project(w, full), leray_project(f, full)
    t = build_advection_tensor(full.n)
    contrib = t.vals * w.coeffs.reshape(-1)[t.i_idx] * f.coeffs.reshape(-1)[t.k_idx]
    res = np.bincount(t.j_idx, weights=contrib, minlength=2 * full.n_modes)
    res = SpectralField(full, res.reshape(2, full.n_modes) / full.norm_sq)
    return leray_project(res, out).coeffs


@pytest.mark.parametrize("n", [2, 5, 8])
def test_advect_self_and_transport_against_per_state_oracles(n):
    # the quadratic term alone, transport alone and the fused sum, per state,
    # for a noise field narrower and one wider than the state
    rng = np.random.default_rng(40 + n)
    b = get_basis(n)
    U = _batch(b, rng, 3, include_mean=True)
    only = advect(b, U, dealias_resolution(n, n, n))
    for wb in (get_basis(2), get_basis(n + 1)):
        W = _batch(wb, rng, 3, include_mean=True)
        m = dealias_resolution(n, max(n, wb.n), n)
        w_grid = _advector(wb, W, m)
        tr = advect(b, U, m, 0.0, w_grid)
        fused = advect(b, U, m, SCALE, w_grid)
        for p in range(3):
            f, w = SpectralField(b, U[p]), SpectralField(wb, W[p])
            conv = nonlinear_direct(f).coeffs
            ref = _tensor_transport(w, f, b)
            np.testing.assert_allclose(only[p], conv, rtol=0, atol=1e-13)
            np.testing.assert_allclose(tr[p], transport_apply(f, w).coeffs, rtol=0, atol=1e-13)
            np.testing.assert_allclose(tr[p], ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(fused[p], SCALE * conv + ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_advect_against_the_pocketfft_pass(n):
    # the DFT-matrix pass against the pocketfft pass it replaced: the
    # quadratic term, transport and their fused sum, into the input basis
    # and a larger one
    rng = np.random.default_rng(70 + n)
    b, wb = get_basis(n), get_basis(2)
    U = _batch(b, rng, 3, include_mean=True)
    W = _batch(wb, rng, 3, include_mean=True)
    for out in (b, get_basis(n + 3)):
        m = dealias_resolution(n, n, out.n)
        w_grid = _advector(wb, W, m)
        conv, tr = oracles.advect_fft(b, U, m, (None, _on_grid(wb, W, m)), out)
        for scale, advector, want in (
            (1.0, None, conv), (0.0, w_grid, tr), (SCALE, w_grid, SCALE * conv + tr)
        ):
            got = advect(b, U, m, scale, advector, out)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_advect_into_a_larger_output_basis():
    # A5's path: the output truncation exceeds the input's
    rng = np.random.default_rng(9)
    b, wb, big = get_basis(3), get_basis(2), get_basis(7)
    U = _batch(b, rng, 2, include_mean=True)
    W = _batch(wb, rng, 2, include_mean=True)
    m = dealias_resolution(b.n, max(b.n, wb.n), big.n)
    w_grid = _advector(wb, W, m)
    only = advect(b, U, m, out_basis=big)
    tr = advect(b, U, m, 0.0, w_grid, big)
    fused = advect(b, U, m, SCALE, w_grid, big)
    beyond = np.abs(big.modes).max(axis=1) > b.n
    for p in range(2):
        f, w = SpectralField(b, U[p]), SpectralField(wb, W[p])
        ref = nonlinear_direct(leray_project(f, big)).coeffs
        assert np.abs(ref[:, beyond]).max() > 1e-4  # content the input basis cannot hold
        ref_tr = _tensor_transport(w, f, big)
        np.testing.assert_allclose(only[p], ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(tr[p], ref_tr, rtol=0, atol=1e-13)
        np.testing.assert_allclose(fused[p], SCALE * ref + ref_tr, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ["self", "fused", "transport"])
def test_advect_transform_counts(monkeypatch, kind):
    # fields per state through each transform: every pass places u; the
    # quadratic term alone sends its 2 flux products forward, and with a
    # field advector, whose 2 grids come in ready-made, the pass sends 3
    paths = 3
    seen = {"inverse": 0, "forward": 0}

    def counting(key, fn):
        def wrapped(x, *args, **kwargs):
            seen[key] += int(np.prod(x.shape[:-2]))
            return fn(x, *args, **kwargs)

        return wrapped

    rng = np.random.default_rng(1)
    b = get_basis(4)
    m = dealias_resolution(b.n, b.n, b.n)
    U = _batch(b, rng, paths)
    w_grid = _advector(b, _batch(b, rng, paths), m)
    for attr, key in (("halfspectrum_to_grid", "inverse"), ("grid_to_halfspectrum", "forward")):
        monkeypatch.setattr(dynamics, attr, counting(key, getattr(dynamics, attr)))
    calls = {"self": (1.0, None), "fused": (SCALE, w_grid), "transport": (0.0, w_grid)}
    advect(b, U, m, *calls[kind])
    fields_in, fields_out = (2, 2) if kind == "self" else (2, 3)
    assert seen == {"inverse": fields_in * paths, "forward": fields_out * paths}


def test_advect_workspaces_never_alias_or_go_stale(monkeypatch):
    # call kinds, batch sizes and output bases interleave on the shared pass
    # arrays; each result is bit-equal to the same call on fresh ones, no
    # result handed out earlier changes, and a pass never writes into the
    # step's noise grids
    rng = np.random.default_rng(12)
    b, big = get_basis(8), get_basis(11)
    noise = NoiseModel.q_wiener(2, beta=4.0)
    kernel = StepKernel(b, noise, "strat-midpoint", 1e-3)
    m_big = dealias_resolution(b.n, b.n, big.n)

    def fresh(*args):
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "_PASS", Workspace())
            mp.setattr(basis_module, "_STAGES", Workspace())
            return advect(*args)

    handed_out = []
    for paths in (16, 3, 1, 16):
        U = _batch(b, rng, paths, include_mean=True)
        W = noise.increments_to_field(0.03 * rng.standard_normal((paths, noise.n_components, 2)))
        w_grid = kernel._prepare_noise(W)
        w_step = w_grid.copy()
        w_big = _advector(noise.field_basis, W, m_big)
        handed_out.append((w_big, w_big.copy()))
        for out, m, w in ((b, kernel.m, w_grid), (big, m_big, w_big)):
            for scale, advector in ((1.0, None), (0.0, w), (SCALE, w)):
                got = advect(b, U, m, scale, advector, out)
                assert np.array_equal(got, fresh(b, U, m, scale, advector, out))
                handed_out.append((got, got.copy()))
        assert np.array_equal(w_grid, w_step)
    for arr, copy in handed_out:
        assert np.array_equal(arr, copy)


def test_advect_stages_share_one_slot(monkeypatch):
    # the transform stages are never live at once, nor are the placed block
    # and the flux spectra: a fused pass keeps the largest of each, not the sum
    monkeypatch.setattr(dynamics, "_PASS", Workspace())
    monkeypatch.setattr(basis_module, "_STAGES", Workspace())
    rng = np.random.default_rng(3)
    b = get_basis(8)
    m = dealias_resolution(b.n, b.n, b.n)
    paths, rows, cols = 16, b.n + 1, 2 * (2 * b.n + 1)
    U = _batch(b, rng, paths)
    advect(b, U, m, SCALE, _advector(b, _batch(b, rng, paths), m))
    stages = {
        "inverse": paths * 2 * rows * 2 * m,
        "forward": paths * 3 * 2 * rows * m,
        "gather": paths * 3 * 2 * b.n_modes,
    }
    assert {k: a.size for k, a in basis_module._STAGES._slots.items()} == {"stage": max(stages.values())}
    assert dynamics._PASS._slots["spec"].size == paths * 3 * rows * cols


def test_advect_pass_allocates_nothing_large():
    # after a warm-up pass every stage array is reused: a 16-path pass at n=8
    # allocates little beyond its own result, with or without a field
    # advector
    rng = np.random.default_rng(2)
    b = get_basis(8)
    m = dealias_resolution(b.n, b.n, b.n)
    U = _batch(b, rng, 16)
    w_grid = _advector(b, _batch(b, rng, 16), m)
    for args in ((), (SCALE, w_grid)):
        advect(b, U, m, *args)
        tracemalloc.start()
        try:
            out = advect(b, U, m, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (16, 2, b.n_modes)
        assert peak < 4 * out.nbytes
