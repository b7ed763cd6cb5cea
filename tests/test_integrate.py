import numpy as np
import pytest

import oracles
from torusflow import integrate
from torusflow.basis import BasisMode, SpectralField, get_basis, random_field
from torusflow.noise import (
    ConfigurationError,
    NoiseModel,
    WienerIncrement,
    path_stream,
)
from torusflow.integrate import (
    SCHEMES,
    MidpointConvergenceError,
    SimConfig,
    StepKernel,
    run_ensemble,
    run_path,
    step,
)

SI = NoiseModel.space_independent()


def _increment(model, dt, seed, path_id):
    """One step's increments from the path's stream, drawn as the runners do."""
    vals = path_stream(seed, path_id).standard_normal((model.n_components, 2))
    return WienerIncrement(dt, vals * np.sqrt(dt))


def test_zero_state_stays_zero():
    b = get_basis(3)
    z = SpectralField.zero(b)
    dw = _increment(SI, 1e-3, 0, 0)
    for scheme in ("ito-em", "strat-heun", "strat-midpoint"):
        out = step(scheme, z, dw, SI)
        assert np.all(out.coeffs == 0.0)


def test_em_one_step_closed_form():
    # drift decays the cosine mode by (1 - dt/2); transport adds -dB1 * sine
    b = get_basis(2)
    f = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    dt = 1e-3
    dw = WienerIncrement(dt, np.array([[0.02, -0.05]]))
    out = step("ito-em", f, dw, SI)
    assert out.coefficient(BasisMode("c", (1, 0))) == pytest.approx(1 - dt / 2, rel=1e-14)
    assert out.coefficient(BasisMode("s", (1, 0))) == pytest.approx(-0.02, rel=1e-14)
    rest = out.coeffs.copy()
    i, _, _ = b.mode_id((1, 0))
    rest[:, i] = 0.0
    assert np.abs(rest).max() <= 1e-15


def test_midpoint_conserves_energy_per_step():
    rng = np.random.default_rng(4)
    for model in (SI, NoiseModel.q_wiener(3, beta=4.0)):
        f = random_field(get_basis(3), rng)
        dw = _increment(model, 1e-3, 1, 0)
        out = step("strat-midpoint", f, dw, model)
        rel = abs(out.l2_norm() ** 2 - f.l2_norm() ** 2) / f.l2_norm() ** 2
        assert rel <= 1e-10


def _desk_batch(noise, paths=16, seed=0):
    """``paths`` random:3 states at n=8 and one dt=1e-3 noise field each."""
    cfg = SimConfig(n=8, dt=1e-3, noise=noise, paths=paths, seed=seed)
    rng = np.random.default_rng(seed)
    u = np.stack([random_field(cfg.basis, rng, decay=3.0).coeffs for _ in range(paths)])
    draws = np.stack(
        [path_stream(seed, p).standard_normal((noise.n_components, 2)) for p in range(paths)]
    )
    return cfg, u, noise.increments_to_field(draws * np.sqrt(cfg.dt))


def test_midpoint_cayley_start_takes_three_passes(monkeypatch):
    # starting from the exact noise-only step leaves only the dt-small
    # quadratic term to the iteration: at n=8, dt=1e-3 every path reaches
    # 1e-12 in 3 passes (a start at v = u needs 4), each over the whole block
    cfg, u, w = _desk_batch(SI)
    kernel = StepKernel(cfg.basis, SI, "strat-midpoint", cfg.dt)
    assert kernel.block_paths >= len(u)
    rows = []
    advect = integrate.advect

    def counted(basis, coeffs, *args, **kwargs):
        rows.append(len(coeffs))
        return advect(basis, coeffs, *args, **kwargs)

    monkeypatch.setattr(integrate, "advect", counted)
    kernel.step(u, w)
    assert rows == [16, 16, 16]


@pytest.mark.parametrize("noise", ["space-independent", "none"])
def test_midpoint_step_matches_plain_iteration(noise):
    # the kernel's tolerance-exit solve from the Cayley start lands on the
    # fixed point that 30 blind passes from v = u reach
    model = SI if noise == "space-independent" else NoiseModel.finite_modes([])
    cfg, u, w = _desk_batch(model)
    got = StepKernel(cfg.basis, model, "strat-midpoint", cfg.dt).step(u, w)
    want = oracles.midpoint_step_plain(cfg.basis, u, w, cfg.dt)
    assert np.abs(got - want).max() <= 1e-13


def test_midpoint_conserves_enstrophy_heun_does_not():
    # with constant noise ||u||_1^2 is a quadratic invariant of the midpoint
    # scheme, conserved to solver tolerance; Heun's drift is far above that
    drift = {}
    for scheme in ("strat-midpoint", "strat-heun"):
        cfg = SimConfig(n=8, dt=1e-3, t_final=0.05, scheme=scheme, noise=SI, paths=16, seed=4)
        h1 = run_ensemble(cfg).h1_sq
        drift[scheme] = np.abs((h1 - h1[:, :1]) / h1[:, :1]).max()
    assert drift["strat-midpoint"] <= 1e-10 < drift["strat-heun"]


def test_midpoint_nonconvergence_reports_residual(monkeypatch):
    # a huge step makes the fixed point repel; the error carries the residual
    monkeypatch.setattr(integrate, "MIDPOINT_MAX_ITER", 5)
    rng = np.random.default_rng(9)
    f = random_field(get_basis(3), rng)
    dw = WienerIncrement(4.0, np.array([[3.0, -2.0]]))
    with pytest.raises(MidpointConvergenceError) as exc:
        step("strat-midpoint", f, dw, SI)
    assert exc.value.residual > 0
    assert exc.value.iterations == 5


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverging_midpoint_solve_raises():
    # at dt = 0.1 the Picard iteration overflows to a NaN residual, which
    # must count as unconverged rather than pass the tolerance test
    cfg = SimConfig(n=8, dt=0.1, t_final=0.1, noise=NoiseModel.q_wiener(4))
    with pytest.raises(MidpointConvergenceError) as exc:
        run_path(cfg)
    assert exc.value.step_index == 0
    assert exc.value.paths == (0,)
    assert np.isnan(exc.value.residual)


def test_run_path_single_step_and_times():
    cfg = SimConfig(
        n=2, dt=1e-2, t_final=1e-2, scheme="strat-heun", noise=SI, paths=1, seed=3
    )
    r = run_path(cfg, 0)
    assert len(r.step_times) == 2
    assert r.times[0] == 0.0 and r.times[-1] == pytest.approx(1e-2)
    assert len(r.states) == 2


def test_run_path_deterministic():
    cfg = SimConfig(
        n=3, dt=1e-3, t_final=0.02, scheme="strat-midpoint", noise=SI, paths=1, seed=11
    )
    a = run_path(cfg, 5)
    b = run_path(cfg, 5)
    assert np.array_equal(a.l2_sq, b.l2_sq)
    assert np.array_equal(a.states[-1].coeffs, b.states[-1].coeffs)


def test_no_noise_steady_mode_constant_path():
    # empty mode set = zero noise; a single mode is a steady flow of the
    # inviscid form, so the Stratonovich path is constant
    none = NoiseModel.finite_modes([])
    cfg = SimConfig(
        n=1,
        dt=1e-2,
        t_final=0.2,
        scheme="strat-midpoint",
        noise=none,
        paths=1,
        seed=0,
        initial="mode:1,0",
    )
    r = run_path(cfg, 0)
    assert np.abs(r.l2_sq - r.l2_sq[0]).max() <= 1e-12 * r.l2_sq[0]
    np.testing.assert_allclose(r.states[-1].coeffs, r.states[0].coeffs, atol=1e-12)


def test_ensemble_order_invariance_and_degenerate_hook():
    cfg = SimConfig(
        n=2, dt=1e-3, t_final=0.01, scheme="ito-em", noise=SI, paths=4, seed=2
    )
    e1 = run_ensemble(cfg, path_ids=[0, 1, 2])
    e2 = run_ensemble(cfg, path_ids=[2, 0, 1])
    assert np.array_equal(e1.l2_sq[0], e2.l2_sq[1])
    assert np.array_equal(e1.l2_sq[2], e2.l2_sq[0])
    solo = run_path(cfg, 1)
    assert np.array_equal(e1.l2_sq[1], solo.l2_sq)

    dup = run_ensemble(cfg, path_ids=[3, 3])
    assert np.array_equal(dup.l2_sq[0], dup.l2_sq[1])
    _, se = dup.l2_stats()
    assert np.all(se == 0.0)


def _shrink_blocks(monkeypatch, cfg, paths):
    """Make every ``StepKernel`` for ``cfg`` step ``paths`` paths per block."""
    kernel = StepKernel(cfg.basis, cfg.noise, cfg.scheme, cfg.dt)
    monkeypatch.setattr(integrate, "BLOCK_BYTES", paths * kernel.path_bytes)
    assert StepKernel(cfg.basis, cfg.noise, cfg.scheme, cfg.dt).block_paths == paths


@pytest.mark.parametrize("noise", ["space-independent", "qwiener:2"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_blocked_ensemble_matches_single_paths(monkeypatch, scheme, noise):
    # 10 paths in blocks of 4, 4 and 2: the paths on both sides of each block
    # boundary, and the first and last, are bit-equal to the path run alone
    # (one path is never split), also with the ids shuffled across blocks
    model = SI if noise == "space-independent" else NoiseModel.q_wiener(2, beta=4.0)
    cfg = SimConfig(
        n=3, dt=1e-3, t_final=5e-3, scheme=scheme, noise=model, paths=10, seed=5
    )
    _shrink_blocks(monkeypatch, cfg, 4)
    ens = run_ensemble(cfg)
    for pid in (0, 3, 4, 7, 8, 9):
        solo = run_path(cfg, pid)
        assert np.array_equal(ens.l2_sq[pid], solo.l2_sq)
        assert np.array_equal(ens.h1_sq[pid], solo.h1_sq)
    ids = [int(i) for i in np.random.default_rng(3).permutation(10)]
    shuffled = run_ensemble(cfg, path_ids=ids)
    assert np.array_equal(shuffled.l2_sq, ens.l2_sq[ids])
    assert np.array_equal(shuffled.h1_sq, ens.h1_sq[ids])


def test_midpoint_failure_collects_every_block(monkeypatch):
    # unconverged paths in two blocks of 4 give one error naming all of them
    # with the largest residual, not the first failing block's
    monkeypatch.setattr(integrate, "MIDPOINT_MAX_ITER", 20)
    cfg = SimConfig(
        n=3, dt=0.02, t_final=0.02, scheme="strat-midpoint",
        noise=NoiseModel.q_wiener(2, beta=4.0), paths=10, seed=1,
    )
    ids = [1, 0, 3, 2, 6, 9, 13, 17, 4, 5]
    solo = {}
    for pid in ids:
        try:
            run_path(cfg, pid)
        except MidpointConvergenceError as e:
            solo[pid] = e.residual
    _shrink_blocks(monkeypatch, cfg, 4)
    with pytest.raises(MidpointConvergenceError) as exc:
        run_ensemble(cfg, path_ids=ids)
    failing = [pid for pid in ids if pid in solo]
    assert {ids.index(pid) // 4 for pid in failing} == {0, 2}
    assert exc.value.paths == tuple(failing)
    assert exc.value.residual == max(solo.values())
    assert exc.value.step_index == 0


def test_strong_accuracy_against_rotation_oracle():
    # For space-independent noise and a single k = (1, 0) mode the
    # Stratonovich solution is an exact rotation by the Brownian angle:
    # u(t) = cos(B1) c - sin(B1) s.  The midpoint map is the Cayley
    # transform, with per-step angle defect dB^3 / 12, so the terminal state
    # must match the rotation to a few times sqrt(15 dt^3 T) / 12.
    dt, t_final, seed, pid = 1e-3, 0.5, 21, 2
    cfg = SimConfig(
        n=1,
        dt=dt,
        t_final=t_final,
        scheme="strat-midpoint",
        noise=SI,
        paths=1,
        seed=seed,
        initial="mode:1,0",
    )
    r = run_path(cfg, pid)
    steps = cfg.n_steps
    draws = path_stream(seed, pid).standard_normal((steps, 1, 2)) * np.sqrt(dt)
    angle = draws[:, 0, 0].sum()
    amp = cfg.initial_field().coefficient(BasisMode("c", (1, 0)))
    expect_c = amp * np.cos(angle)
    expect_s = -amp * np.sin(angle)
    got_c = r.states[-1].coefficient(BasisMode("c", (1, 0)))
    got_s = r.states[-1].coefficient(BasisMode("s", (1, 0)))
    tol = 20 * np.sqrt(15 * dt**3 * steps) / 12 + 1e-9
    assert abs(got_c - expect_c) <= tol
    assert abs(got_s - expect_s) <= tol


def test_heun_positive_energy_drift_scaling():
    # Heun's per-step energy gain is exactly (1/4)||F(u) - F(pred)||^2, so the
    # pathwise drift is positive and O(dt) over a fixed horizon
    drifts = []
    for dt in (4e-3, 2e-3):
        cfg = SimConfig(
            n=2,
            dt=dt,
            t_final=0.4,
            scheme="strat-heun",
            noise=SI,
            paths=8,
            seed=5,
            initial="mode:1,0",
        )
        e = run_ensemble(cfg)
        d = (e.l2_sq[:, -1] - e.l2_sq[:, 0]) / e.l2_sq[:, 0]
        assert np.all(d >= -1e-15)
        drifts.append(d.mean())
    assert drifts[0] > drifts[1]  # shrinks with dt


def test_config_validation_lists_all_violations():
    cfg = SimConfig(n=0, dt=-1.0, scheme="nope", paths=0, noise=SI)
    msgs = cfg.violations()
    joined = " | ".join(msgs)
    for frag in ("truncation", "dt", "scheme", "paths"):
        assert frag in joined
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_config_rejects_partial_steps():
    cfg = SimConfig(n=2, dt=3e-3, t_final=1.0, noise=SI)
    assert any("whole number" in m for m in cfg.violations())


def test_initial_presets():
    cfg = SimConfig(n=3, noise=SI, initial="pair", seed=1)
    f = cfg.initial_field()
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
    cfg2 = SimConfig(n=3, noise=SI, initial="random:4", seed=1)
    g = cfg2.initial_field()
    assert g.l2_norm() == pytest.approx(1.0, rel=1e-12)
    assert not np.array_equal(f.coeffs, g.coeffs)
    # same seed reproduces the draw
    g2 = SimConfig(n=3, noise=SI, initial="random:4", seed=1).initial_field()
    assert np.array_equal(g.coeffs, g2.coeffs)
    explicit = SimConfig(
        n=3, noise=SI, initial=((BasisMode("c", (1, 0)), 2.0),)
    ).initial_field()
    assert explicit.coefficient(BasisMode("c", (1, 0))) == 2.0


def test_em_step_matches_manual_assembly_qwiener():
    # one EM step == state + dt * ito_drift + sum over noise pairs of
    # coefficient * dB * transport, tying sampler, assembly and kernel
    # together; one Heun step == the trapezoid of two such increments with
    # strat_drift, which pins the fused kernel against the public operators
    from oracles import ito_drift, strat_drift
    from torusflow.dynamics import transport_apply

    model = NoiseModel.q_wiener(2, beta=4.0)
    b = get_basis(3)
    rng = np.random.default_rng(12)
    f = random_field(b, rng)
    dt = 1e-3
    dw = _increment(model, dt, 2, 4)

    def increment(g, drift):
        incr = dt * drift(g)
        for coeff, mode, (j, comp) in model.transport_pairs():
            amp = coeff * dw.values[j, comp]
            if amp != 0.0:
                w = SpectralField.from_modes(model.field_basis, [(mode, 1.0)])
                incr = incr + amp * transport_apply(g, w, out_basis=b)
        return incr

    em = f + increment(f, ito_drift)
    np.testing.assert_allclose(step("ito-em", f, dw, model).coeffs, em.coeffs, atol=1e-13)
    incr0 = increment(f, strat_drift)
    heun = f + 0.5 * (incr0 + increment(f + incr0, strat_drift))
    np.testing.assert_allclose(step("strat-heun", f, dw, model).coeffs, heun.coeffs, atol=1e-13)


def test_qwiener_em_runs_and_is_deterministic():
    model = NoiseModel.q_wiener(2, beta=4.0)
    cfg = SimConfig(
        n=2, dt=1e-3, t_final=0.02, scheme="ito-em", noise=model, paths=3, seed=8
    )
    e1 = run_ensemble(cfg)
    e2 = run_ensemble(cfg)
    assert np.array_equal(e1.l2_sq, e2.l2_sq)
    assert np.all(np.isfinite(e1.h1_sq))
