import dataclasses
import fcntl
import hashlib
import inspect
import os
import pickle
import re
import signal
import struct
import subprocess
import sys
import termios
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from processes import assert_no_child_left, deadline
from torusflow import basis as basis_module
from torusflow import integrate, workers
from torusflow.basis import (
    BasisMode,
    SpectralField,
    Workspace,
    batch_h1_sq,
    batch_l2_sq,
    get_basis,
    random_field,
)
from torusflow.diagnostics import MartingaleProbe, energy_report
from torusflow.noise import (
    ConfigurationError,
    NoiseModel,
    WienerIncrement,
    path_stream,
)
from torusflow.integrate import (
    SCHEMES,
    MidpointConvergenceError,
    NonFiniteStateError,
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


def test_midpoint_active_set_paths_match_solo_runs(monkeypatch):
    # a path scaled x30 needs more passes than the rest: the passes after the
    # others converge run on it alone, and every path is bit-equal to the
    # same path stepped alone; the lean update matches the first form of the
    # solve, a 2x2 solve of base - dt B(mid) in every pass
    cfg, u, w = _desk_batch(SI, paths=6)
    u[2] *= 30.0
    kernel = StepKernel(cfg.basis, SI, "strat-midpoint", cfg.dt)
    rows = []
    advect = integrate.advect

    def counted(basis, coeffs, *args, **kwargs):
        rows.append(len(coeffs))
        return advect(basis, coeffs, *args, **kwargs)

    monkeypatch.setattr(integrate, "advect", counted)
    got = kernel.step(u, w)
    assert rows[:3] == [6, 6, 6] and len(rows) > 4 and set(rows[3:]) == {1}
    for p in range(6):
        assert np.array_equal(got[p], kernel.step(u[p : p + 1], w[p : p + 1])[0])
    want = oracles.midpoint_step_solve(cfg.basis, u, w, cfg.dt)
    for p in range(6):
        assert np.abs(got[p] - want[p]).max() <= 1e-14 * np.abs(want[p]).max()


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


def test_midpoint_failure_survives_pickling():
    # a lane of the acceptance battery sends its checks' failures back pickled
    for step_index, paths in ((7, [3, 4]), (None, [])):
        e = MidpointConvergenceError(1.5e-3, 50, step_index, paths)
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is MidpointConvergenceError
        assert (back.residual, back.iterations, back.step_index, back.paths) == (
            1.5e-3, 50, step_index, tuple(paths)
        )
        assert str(back) == str(e)


def test_non_finite_state_error_survives_pickling():
    e = NonFiniteStateError(16, 1.6, [4, 7])
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is NonFiniteStateError
    assert (back.step_index, back.time, back.paths) == (16, 1.6, (4, 7))
    assert str(back) == str(e)


@pytest.mark.parametrize("cpus", [1, 2])
def test_blown_up_state_names_its_step_and_paths(monkeypatch, cpus):
    # Heun at dt = 0.1 blows up in paths 4 and 7 of seed 1, whose norms turn
    # non-finite after step 16; in blocks of 3, stepped by 1 and 2
    # processes, with the ids shuffled, the error names the same step and
    # paths by id, without a numpy warning, and no helper is left
    cfg = SimConfig(n=4, dt=0.1, t_final=5.0, scheme="strat-heun", paths=8, seed=1)
    _shrink_blocks(monkeypatch, cfg, 3)
    _use_cpus(monkeypatch, cpus)
    seen = _Times()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as exc:
            run_ensemble(cfg, path_ids=[7, 1, 2, 3, 4, 5, 6, 0], observers=[seen])
    assert exc.value.step_index == 16
    assert exc.value.paths == (7, 4)
    assert str(exc.value) == "state is not finite after step 16 (t = 1.6) (paths 7, 4)"
    assert seen.times == [i * cfg.dt for i in range(1, 16)]
    assert_no_child_left()


def test_diverging_midpoint_solve_raises():
    # at dt = 0.1 the Picard iteration overflows to a NaN residual, which
    # ends the solve in that pass, before the iteration cap and without a
    # numpy warning
    cfg = SimConfig(n=8, dt=0.1, t_final=0.1, noise=NoiseModel.q_wiener(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MidpointConvergenceError) as exc:
            run_path(cfg)
    assert exc.value.step_index == 0
    assert exc.value.paths == (0,)
    assert np.isnan(exc.value.residual)
    assert exc.value.iterations < integrate.MIDPOINT_MAX_ITER


def test_diverging_blocks_report_their_iterations(monkeypatch):
    # one path per block: the merged error names every diverging path and
    # the largest pass count at which a block stopped, not the cap
    cfg = SimConfig(n=8, dt=0.1, t_final=0.1, noise=NoiseModel.q_wiener(4), paths=3)
    solo = {}
    for pid in range(3):
        with pytest.raises(MidpointConvergenceError) as exc:
            run_path(cfg, pid)
        solo[pid] = exc.value.iterations
    _shrink_blocks(monkeypatch, cfg, 1)
    with pytest.raises(MidpointConvergenceError) as exc:
        run_ensemble(cfg)
    assert exc.value.paths == (0, 1, 2)
    assert exc.value.iterations == max(solo.values()) < integrate.MIDPOINT_MAX_ITER


def test_run_path_single_step_and_times():
    cfg = SimConfig(
        n=2, dt=1e-2, t_final=1e-2, scheme="strat-heun", noise=SI, paths=1, seed=3
    )
    r = run_path(cfg, 0)
    assert r.path_ids == (0,)
    assert len(r.times) == 2
    assert r.times[0] == 0.0 and r.times[-1] == pytest.approx(1e-2)
    assert r.l2_sq.shape == r.h1_sq.shape == (1, 2)
    assert r.final.shape == (1, 2, cfg.basis.n_modes)


def test_run_path_deterministic():
    cfg = SimConfig(
        n=3, dt=1e-3, t_final=0.02, scheme="strat-midpoint", noise=SI, paths=1, seed=11
    )
    a = run_path(cfg, 5)
    b = run_path(cfg, 5)
    assert np.array_equal(a.l2_sq, b.l2_sq)
    assert np.array_equal(a.final, b.final)


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
    l2 = r.l2_sq[0]
    assert np.abs(l2 - l2[0]).max() <= 1e-12 * l2[0]
    np.testing.assert_allclose(r.final[0], cfg.initial_field().coeffs, atol=1e-12)


def test_ensemble_order_invariance_and_degenerate_hook():
    cfg = SimConfig(
        n=2, dt=1e-3, t_final=0.01, scheme="ito-em", noise=SI, paths=4, seed=2
    )
    e1 = run_ensemble(cfg, path_ids=[0, 1, 2])
    e2 = run_ensemble(cfg, path_ids=[2, 0, 1])
    assert np.array_equal(e1.l2_sq[0], e2.l2_sq[1])
    assert np.array_equal(e1.l2_sq[2], e2.l2_sq[0])
    solo = run_path(cfg, 1)
    assert np.array_equal(e1.l2_sq[1], solo.l2_sq[0])

    dup = run_ensemble(cfg, path_ids=[3, 3])
    assert np.array_equal(dup.l2_sq[0], dup.l2_sq[1])
    se = energy_report(dup).se_l2
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
        assert np.array_equal(ens.l2_sq[pid], solo.l2_sq[0])
        assert np.array_equal(ens.h1_sq[pid], solo.h1_sq[0])
    ids = [int(i) for i in np.random.default_rng(3).permutation(10)]
    shuffled = run_ensemble(cfg, path_ids=ids)
    assert np.array_equal(shuffled.l2_sq, ens.l2_sq[ids])
    assert np.array_equal(shuffled.h1_sq, ens.h1_sq[ids])


def _blas_fingerprints() -> list[str]:
    """sha256 of the energy series of two short n=8 midpoint ensembles."""
    out = []
    for noise in (SI, NoiseModel.q_wiener(2, beta=4.0)):
        cfg = SimConfig(
            n=8, dt=1e-3, t_final=5e-3, scheme="strat-midpoint", noise=noise, paths=32, seed=7
        )
        ens = run_ensemble(cfg)
        out.append(hashlib.sha256(ens.l2_sq.tobytes() + ens.h1_sq.tobytes()).hexdigest())
    return out


def test_results_do_not_depend_on_blas_threads():
    # every matrix stage is one small product per path, so a path rounds the
    # same with one BLAS thread as with the default count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here), str(Path(integrate.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    code = "import test_integrate as t; print(' '.join(t._blas_fingerprints()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == _blas_fingerprints()


def _n24_bits(monkeypatch, cpus, blas_threads=None):
    """The bits of a few ito-em steps at n=24 under ``qwiener:4``, 16 paths
    in blocks of 3, seen by ``cpus`` usable CPUs and started with
    ``blas_threads`` BLAS threads (None: as they are)."""
    _use_cpus(monkeypatch, cpus)
    cfg = SimConfig(
        n=24, dt=1e-3, t_final=5e-3, scheme="ito-em", noise=NoiseModel.q_wiener(4),
        paths=16, seed=7, initial="pair",
    )
    setter, getter = workers._blas_thread_count() or (None, None)
    before = getter() if getter else None
    if blas_threads is not None:
        setter(blas_threads)
    try:
        ens = run_ensemble(cfg)
    finally:
        if setter:
            setter(before)
    return ens.processes, ens.l2_sq.tobytes() + ens.h1_sq.tobytes() + ens.final.tobytes()


def test_n24_bits_do_not_depend_on_cpus_or_blas_threads(monkeypatch):
    # from n = 24 a per-path product is large enough for OpenBLAS to split
    # over its threads, which rounds it by the split; the runner holds BLAS
    # at one thread, so a serial run, one on 2 CPUs and a serial run begun
    # under 2 BLAS threads write the same bits
    processes, serial = _n24_bits(monkeypatch, 1)
    assert processes == 1
    processes, shared = _n24_bits(monkeypatch, 2)
    assert processes == 2 and shared == serial
    if workers._blas_thread_count() is None:
        pytest.skip("numpy's BLAS has no thread-count setter")
    assert _n24_bits(monkeypatch, 1, blas_threads=2) == (1, serial)
    assert_no_child_left()


def test_many_mode_probe_does_not_depend_on_blas_threads(monkeypatch):
    # a probe whose test function has every mode at n=8 takes a quadratic
    # form of 35k entries per 65-path chunk, which OpenBLAS threads; inside
    # the runner it rounds the same under 1 and 2 BLAS threads
    if workers._blas_thread_count() is None:
        pytest.skip("numpy's BLAS has no thread-count setter")
    setter, getter = workers._blas_thread_count()
    _use_cpus(monkeypatch, 1)
    cfg = SimConfig(n=8, dt=1e-3, t_final=3e-3, scheme="ito-em", paths=65, seed=4)
    v = random_field(cfg.basis, np.random.default_rng(6))
    before = getter()
    series = []
    try:
        for threads in (1, 2):
            setter(threads)
            probe = MartingaleProbe(v)
            series.append(run_ensemble(cfg, observers=[probe]).observers["probe"])
    finally:
        setter(before)
    for name in ("uv", "drift", "qv_density"):
        assert np.array_equal(getattr(series[0], name), getattr(series[1], name))


@pytest.mark.parametrize("paths", [1, 32, 33])
@pytest.mark.parametrize("noise", ["space-independent", "qwiener:2"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_steps_are_bit_equal_to_the_fresh_array_updates(monkeypatch, scheme, noise, paths):
    # every update writes into the kernel's kept arrays and only the step's
    # result is new: three steps hold the bits of the updates as first
    # written in fresh arrays, at one path, a block and a block and a path;
    # the states' sizes span 3.5 decades, so the midpoint paths converge at
    # different passes and the solve gathers its active rows
    model = SI if noise == "space-independent" else NoiseModel.q_wiener(2)
    cfg, u, w = _desk_batch(model, paths=paths)
    u *= np.geomspace(3.0, 1e-3, paths)[:, None, None]
    kernel = StepKernel(cfg.basis, model, scheme, cfg.dt)
    gathered = []
    rows_of = StepKernel._rows

    def gathering(self, a, rows, name):
        gathered.append(rows is not None)
        return rows_of(self, a, rows, name)

    monkeypatch.setattr(StepKernel, "_rows", gathering)
    got = want = u
    for _ in range(3):
        got = kernel.step(got, w)
        want = oracles.step_fresh(kernel, want, w)
        assert np.array_equal(got, want)
    assert any(gathered) == (scheme == "strat-midpoint" and paths > 1)


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


def _use_cpus(monkeypatch, cpus):
    """Make the runners see ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _probes(basis):
    """The three martingale probes of the em-probes benchmark workload."""
    return [
        MartingaleProbe(SpectralField.from_modes(basis, [(BasisMode(kind, k), 1.0)]), name)
        for kind, k, name in (("c", (1, 0), "v1"), ("s", (0, 1), "v2"), ("c", (1, 1), "v3"))
    ]


def _lockstep_run(cfg, observers):
    """Energies and final states of an ensemble stepped by the plain loop:
    draw, fold, step, observe, with the first draw schedule and fold."""
    kernel = StepKernel(cfg.basis, cfg.noise, cfg.scheme, cfg.dt)
    u = np.broadcast_to(cfg.initial_field().coeffs, (cfg.paths, 2, cfg.basis.n_modes)).copy()
    norms = [batch_l2_sq(cfg.basis, u), batch_h1_sq(cfg.basis, u)]
    for obs in observers:
        obs.start(0.0, u)
    gens = [path_stream(cfg.seed, pid) for pid in range(cfg.paths)]
    draws = oracles.block_increments(cfg.noise, gens, cfg.n_steps, cfg.dt)
    for s, dw in enumerate(draws):
        u = kernel.step(u, oracles.fold_increments(cfg.noise, dw))
        norms += [batch_l2_sq(cfg.basis, u), batch_h1_sq(cfg.basis, u)]
        for obs in observers:
            obs.after_step((s + 1) * cfg.dt, u)
    return np.stack(norms[::2], axis=1), np.stack(norms[1::2], axis=1), u


def _series(probe):
    r = probe.result()
    return [r.times, r.uv, r.phi, r.L, r.mart, r.qv]


@pytest.mark.parametrize("noise", ["space-independent", "qwiener:2"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_sharded_ensemble_matches_serial(monkeypatch, scheme, noise):
    # 10 paths in blocks of 4, 4 and 2, stepped by 1, 2 and 3 processes,
    # each observing step k while step k + 1 runs: every split of the blocks
    # gives the bits of the plain loop that observes between steps, in the
    # energies, the final states and the probe series, and one path run
    # alone gives its row
    model = SI if noise == "space-independent" else NoiseModel.q_wiener(2, beta=4.0)
    cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme=scheme, noise=model, paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    probes = _probes(cfg.basis)
    l2, h1, final = _lockstep_run(cfg, probes)
    want = [_series(p) for p in probes]
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        probes = _probes(cfg.basis)
        ens = run_ensemble(cfg, observers=probes)
        assert ens.processes == cpus
        assert np.array_equal(ens.l2_sq, l2)
        assert np.array_equal(ens.h1_sq, h1)
        assert np.array_equal(ens.final, final)
        for got, series in zip(probes, want):
            assert all(np.array_equal(a, b) for a, b in zip(_series(got), series))
        path = run_path(cfg, 7)
        assert np.array_equal(path.l2_sq, l2[7:8]) and np.array_equal(path.h1_sq, h1[7:8])
        assert np.array_equal(path.final, final[7:8])
    assert_no_child_left()


@pytest.mark.parametrize("noise", ["space-independent", "qwiener:2"])
def test_ensemble_final_states_are_the_single_paths(monkeypatch, noise):
    # 10 shuffled ids in blocks of 3, 3, 3 and 1, stepped by 1, 2 and 3
    # processes: each row of the ensemble's final states is bit for bit the
    # final state of its path run alone
    model = SI if noise == "space-independent" else NoiseModel.q_wiener(2, beta=4.0)
    cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme="ito-em", noise=model, paths=10, seed=9)
    ids = [4, 9, 0, 7, 2, 11, 5, 1, 8, 3]
    solo = [run_path(cfg, pid).final[0] for pid in ids]
    _shrink_blocks(monkeypatch, cfg, 3)
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        ens = run_ensemble(cfg, path_ids=ids)
        assert ens.processes == cpus
        assert ens.final.shape == (len(ids), 2, cfg.basis.n_modes)
        for i, want in enumerate(solo):
            assert np.array_equal(ens.final[i], want), ids[i]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_probe_series_equal_the_running_trapezoids(monkeypatch, cpus):
    # a probe records the pairings and integrates L, M and the QV ledger
    # when they are read: every series has the bits of the running
    # trapezoids that first accumulated them step by step, also while
    # helpers step the paths
    cfg = SimConfig(
        n=8, dt=1e-3, t_final=0.05, scheme="ito-em", noise=SI, paths=64, seed=8,
        initial="random:3",
    )
    _shrink_blocks(monkeypatch, cfg, 16)
    _use_cpus(monkeypatch, cpus)
    probes = _probes(cfg.basis)
    running = [oracles.RunningTrapezoids(p) for p in probes]
    ens = run_ensemble(cfg, observers=probes + running)
    assert ens.processes == cpus
    for probe, oracle in zip(probes, running):
        got = ens.observers[probe.name]
        for name, want in oracle.series().items():
            assert np.array_equal(getattr(got, name), want), name
    assert_no_child_left()


class _Times:
    def start(self, t, u):
        self.times = []

    def after_step(self, t, u):
        self.times.append(t)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_midpoint_failure_follows_the_states_before_it(monkeypatch, cpus):
    # path 5 (rows 4-7, the helper's block at 2 CPUs) fails in the third
    # step, step 2; the observers have seen the states after steps 0 and 1,
    # as in the plain loop, although a state is observed while the next
    # step runs; run_path observes the same
    cfg = SimConfig(
        n=3, dt=0.02, t_final=0.2, scheme="strat-midpoint",
        noise=NoiseModel.q_wiener(2, beta=4.0), paths=10, seed=1,
    )
    _shrink_blocks(monkeypatch, cfg, 4)
    _use_cpus(monkeypatch, cpus)
    for run in (run_ensemble, lambda cfg, observers: run_path(cfg, 5, observers)):
        seen = _Times()
        with pytest.raises(MidpointConvergenceError) as exc:
            run(cfg, observers=[seen])
        assert exc.value.step_index == 2 and exc.value.paths == (5,)
        assert seen.times == [1 * cfg.dt, 2 * cfg.dt]
    assert_no_child_left()


@pytest.mark.parametrize("hook", ["start", "after_step"])
def test_observer_that_writes_the_state_raises(monkeypatch, hook):
    # an observer runs while this process's own blocks of the next step
    # still read the state, so it gets a read-only view
    class Writer:
        def start(self, t, u):
            if hook == "start":
                u[0, 0, 0] = 1.0

        def after_step(self, t, u):
            u[0, 0, 0] = 1.0

    _use_cpus(monkeypatch, 2)
    cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme="ito-em", paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    with pytest.raises(ValueError, match="read-only"):
        run_ensemble(cfg, observers=[Writer()])
    assert_no_child_left()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_warm_partial_block_allocates_no_stage_array(scheme):
    # 64 paths at qwiener:8 are blocks of 27, 27 and 10: once warm, the
    # last block's stage arrays are views of the full blocks' arrays, so a
    # step takes none from the allocator; each one a step took would stay
    # alive in its Workspace slot after the step
    noise = NoiseModel.q_wiener(8)
    cfg, u, w = _desk_batch(noise, paths=64)
    kernel = StepKernel(cfg.basis, noise, scheme, cfg.dt)
    assert kernel.block_paths == 27
    kernel.step(u, w)
    tracemalloc.start()
    try:
        kernel.step(u, w)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    lines, first = inspect.getsourcelines(Workspace.take)
    taken = [
        stat
        for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == basis_module.__file__
        and first <= stat.traceback[0].lineno < first + len(lines)
    ]
    assert taken == []


class _RaiseAtStep:
    def start(self, t, u):
        self.steps = 0

    def after_step(self, t, u):
        self.steps += 1
        if self.steps == 3:
            raise RuntimeError("observer failed at step 3")


@pytest.mark.parametrize("case", ["clean", "helper-midpoint-failure", "observer-raises"])
def test_no_helper_outlives_its_ensemble(monkeypatch, tmp_path, case):
    _use_cpus(monkeypatch, 2)
    if case == "helper-midpoint-failure":
        # the failing paths of test_midpoint_failure_collects_every_block lie
        # in blocks 0 and 2 (rows 0-3 and 8-9); the helper owns blocks 1-2,
        # and the caller dawdles on every block it claims, so it steals none
        monkeypatch.setattr(integrate, "MIDPOINT_MAX_ITER", 20)
        cfg = SimConfig(
            n=3, dt=0.02, t_final=0.02, scheme="strat-midpoint",
            noise=NoiseModel.q_wiener(2, beta=4.0), paths=10, seed=1,
        )
        _shrink_blocks(monkeypatch, cfg, 4)
        caller, log, step_rows = os.getpid(), tmp_path / "blocks", StepKernel._step_rows

        def logged_step_rows(self, u, w_coeffs, out, lo, hi):
            if os.getpid() == caller:
                time.sleep(0.3)
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {lo}\n")
            return step_rows(self, u, w_coeffs, out, lo, hi)

        monkeypatch.setattr(StepKernel, "_step_rows", logged_step_rows)
        ids = [1, 0, 3, 2, 6, 9, 13, 17, 4, 5]
        with pytest.raises(MidpointConvergenceError) as exc:
            run_ensemble(cfg, path_ids=ids)
        assert {ids.index(pid) // 4 for pid in exc.value.paths} == {0, 2}
        stepped = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(lo) for _, lo in stepped) == [0, 4, 8]
        assert [int(pid) != caller for pid, lo in stepped if lo == "8"] == [True]
    else:
        cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme="strat-midpoint", paths=10, seed=5)
        _shrink_blocks(monkeypatch, cfg, 4)
        if case == "clean":
            assert run_ensemble(cfg).processes == 2
        else:
            with pytest.raises(RuntimeError, match="observer failed at step 3"):
                run_ensemble(cfg, observers=[_RaiseAtStep()])
    assert_no_child_left()


def test_killed_helper_is_an_error_naming_the_step(monkeypatch):
    # the observer of the state after step 0 runs while step 1 is under way
    # and before this process claims a ticket, so the helper steps all 3
    # tickets of step 1; once it has sent both frames of each, the observer
    # kills it and waits until it has exited.  Step 1 ends on those replies,
    # and step 2 finds the helper's pipe at end of file before it hands out a
    # ticket: it reports it, no hang
    _use_cpus(monkeypatch, 2)
    forked = []

    class Recorded(workers.Workers):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            forked.append(self)

    monkeypatch.setattr(workers, "Workers", Recorded)
    # a ticket's claim notice, then its result: no midpoint failure
    frames = 2 * workers.FRAME.size + len(pickle.dumps(([], None)))

    class KillHelper:
        def start(self, t, u):
            self.steps = 0

        def after_step(self, t, u):
            self.steps += 1
            if self.steps == 1:
                [helper] = forked[0].children
                self.pid = helper.pid
                while _unread_bytes(helper.replies) < 3 * frames:
                    time.sleep(0.001)
                os.kill(self.pid, signal.SIGKILL)
                # exited, and left for the runner to reap
                os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)

    cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme="ito-em", paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    killer = KillHelper()
    with deadline(60), pytest.raises(workers.HelperProcessError) as exc:
        run_ensemble(cfg, observers=[killer])
    assert str(exc.value) == (
        f"path-block helper process {killer.pid} was killed by SIGKILL at step 2"
    )
    assert_no_child_left()


def _unread_bytes(fd):
    """The bytes waiting in pipe ``fd``."""
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]


def test_late_helper_does_not_hold_up_the_steps(monkeypatch):
    # the helper sleeps 2 s in the first block it claims, as if its CPU were
    # taken away; the runner steps that block itself, steps serially while
    # the sleeping block's inputs must stay, and ends all 5 steps long before
    # the helper wakes, with the serial run's bits; nor does the run wait for
    # the helper on its way out
    cfg = SimConfig(n=3, dt=1e-3, t_final=5e-3, scheme="strat-midpoint", paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    _use_cpus(monkeypatch, 1)
    serial = run_ensemble(cfg)
    _use_cpus(monkeypatch, 2)
    caller, step_rows, slept = os.getpid(), StepKernel._step_rows, []

    def sleepy_step_rows(self, u, w_coeffs, out, lo, hi):
        if os.getpid() != caller and not slept:
            slept.append(lo)
            time.sleep(2.0)
        return step_rows(self, u, w_coeffs, out, lo, hi)

    monkeypatch.setattr(StepKernel, "_step_rows", sleepy_step_rows)

    class Stamps:
        def start(self, t, u):
            self.times = [time.perf_counter()]

        def after_step(self, t, u):
            self.times.append(time.perf_counter())

    stamps = Stamps()
    with deadline(60):
        sharded = run_ensemble(cfg, observers=[stamps])
    returned = time.perf_counter()
    assert sharded.processes == 2
    assert stamps.times[-1] - stamps.times[0] < 1.0
    assert returned - stamps.times[0] < 1.0
    assert np.array_equal(sharded.l2_sq, serial.l2_sq)
    assert np.array_equal(sharded.h1_sq, serial.h1_sq)
    assert_no_child_left()


def test_raising_runner_ends_its_helpers_at_once(monkeypatch):
    # an observer that raises while a helper sleeps 5 s in a ticket must not
    # wait for that ticket; the helper is killed and reaped
    _use_cpus(monkeypatch, 2)
    cfg = SimConfig(n=3, dt=1e-3, t_final=0.02, scheme="strat-midpoint", paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    caller, step_rows = os.getpid(), StepKernel._step_rows

    def sleepy_step_rows(self, u, w_coeffs, out, lo, hi):
        if os.getpid() != caller:
            time.sleep(5.0)
        return step_rows(self, u, w_coeffs, out, lo, hi)

    monkeypatch.setattr(StepKernel, "_step_rows", sleepy_step_rows)
    start = time.perf_counter()
    with deadline(30), pytest.raises(RuntimeError, match="observer failed at step 3"):
        run_ensemble(cfg, observers=[_RaiseAtStep()])
    assert time.perf_counter() - start < 1.0
    assert_no_child_left()


def test_helper_exception_keeps_its_type(monkeypatch):
    # the helper raises in the first block it claims, after the runner has
    # stepped that block itself and gone on; the runner re-raises the
    # helper's exception at a later step, the helper's traceback its cause
    _use_cpus(monkeypatch, 2)
    cfg = SimConfig(n=3, dt=1e-3, t_final=0.1, scheme="ito-em", paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    caller, step_rows = os.getpid(), StepKernel._step_rows

    def failing_step_rows(self, u, w_coeffs, out, lo, hi):
        if os.getpid() != caller:
            time.sleep(0.2)
            raise ValueError(f"rows {lo}:{hi} failed")
        return step_rows(self, u, w_coeffs, out, lo, hi)

    class Slow(_Times):
        def after_step(self, t, u):
            super().after_step(t, u)
            time.sleep(0.01)

    monkeypatch.setattr(StepKernel, "_step_rows", failing_step_rows)
    seen = Slow()
    with deadline(60), pytest.raises(ValueError, match=r"^rows \d+:\d+ failed$") as exc:
        run_ensemble(cfg, observers=[seen])
    assert len(seen.times) > 2
    cause = exc.value.__cause__
    assert isinstance(cause, workers.ChildTraceback)
    assert re.match(r"path-block helper 1 \(process \d+\) at step \d+:\n", str(cause))
    assert "ValueError: rows" in str(cause)
    assert_no_child_left()


def test_sleepy_helpers_give_the_serial_bits(monkeypatch):
    # 3 processes on 5 blocks, the helpers sleeping at random in their
    # blocks: duplicated blocks, serial steps and late replies to old slots
    # all leave the serial run's bits
    cfg = SimConfig(
        n=3, dt=1e-3, t_final=0.04, scheme="strat-heun",
        noise=NoiseModel.q_wiener(2, beta=4.0), paths=10, seed=7,
    )
    _shrink_blocks(monkeypatch, cfg, 2)
    _use_cpus(monkeypatch, 1)
    serial = run_ensemble(cfg)
    _use_cpus(monkeypatch, 3)
    caller, step_rows, rngs = os.getpid(), StepKernel._step_rows, {}

    def sleepy_step_rows(self, u, w_coeffs, out, lo, hi):
        if os.getpid() != caller:
            rng = rngs.setdefault(os.getpid(), np.random.default_rng(os.getpid()))
            time.sleep(rng.choice([0.0, 0.0, 0.002, 0.01]))
        return step_rows(self, u, w_coeffs, out, lo, hi)

    monkeypatch.setattr(StepKernel, "_step_rows", sleepy_step_rows)
    with deadline(60):
        sharded = run_ensemble(cfg)
    assert sharded.processes == 3
    assert np.array_equal(sharded.l2_sq, serial.l2_sq)
    assert np.array_equal(sharded.h1_sq, serial.h1_sq)
    assert_no_child_left()


@pytest.mark.parametrize("release", [None, 5])
def test_late_ticket_steps_give_the_serial_bits(monkeypatch, tmp_path, release):
    # once the observer has seen the state after step 2, the helper holds
    # the next ticket it steps until the observer has seen ``release`` more
    # states (never: it is killed on the way out), so the runner steps
    # that ticket itself, into a third state.  The helper reads its rows of
    # one state and writes them in another until it answers, so until then no
    # process writes either of them, and only the runner's step of the late
    # ticket reads them; then the run goes back to the first two states.  The
    # energies and the final states keep the serial run's bits
    cfg = SimConfig(n=3, dt=1e-3, t_final=0.03, scheme="strat-midpoint", paths=10, seed=5)
    _shrink_blocks(monkeypatch, cfg, 4)
    _use_cpus(monkeypatch, 1)
    serial = run_ensemble(cfg)
    _use_cpus(monkeypatch, 2)
    step_rows, log = StepKernel._step_rows, tmp_path / "log"
    hold, answered = tmp_path / "hold", tmp_path / "answered"
    caller, shared, mapped = os.getpid(), integrate._shared, []

    def recorded_shared(shape):
        # the ring's four states, then its four fields, mapped before the fork
        mapped.append(shared(shape))
        return mapped[-1]

    def write(line):
        with open(log, "a") as f:
            f.write(line + "\n")

    def held_step_rows(self, u, w_coeffs, out, lo, hi):
        if not mapped:
            return step_rows(self, u, w_coeffs, out, lo, hi)
        # every process logs the states that it reads and writes
        states = tuple(mapped[:4])
        write(f"{integrate._slot(states, u)} {integrate._slot(states, out)} {lo} {hi}")
        if os.getpid() == caller or not hold.exists():
            return step_rows(self, u, w_coeffs, out, lo, hi)
        hold.unlink()
        write(f"held {integrate._slot(states, u)} {integrate._slot(states, out)} {lo} {hi}")
        while not (tmp_path / "go").exists():
            time.sleep(0.001)
        failed = step_rows(self, u, w_coeffs, out, lo, hi)
        write("answered")
        answered.touch()
        return failed

    class Hold:
        def start(self, t, u):
            self.seen = None

        def after_step(self, t, u):
            if round(t / cfg.dt) == 2:
                hold.touch()
                self.seen = 0
            elif self.seen is not None and not hold.exists():
                # the helper holds its ticket
                self.seen += 1
                if self.seen == release:
                    (tmp_path / "go").touch()
                    while not answered.exists():
                        time.sleep(0.001)

    monkeypatch.setattr(StepKernel, "_step_rows", held_step_rows)
    monkeypatch.setattr(integrate, "_shared", recorded_shared)
    with deadline(60):
        sharded = run_ensemble(cfg, observers=[Hold()])
    assert sharded.processes == 2
    lines = log.read_text().split("\n")[:-1]
    at = next(i for i, line in enumerate(lines) if line.startswith("held"))
    _, read, written, lo, hi = lines[at].split()
    pair = {read, written}
    end = lines.index("answered") if "answered" in lines else len(lines)
    steps = [line.split() for line in lines[at + 1 : end]]
    rows = [(a, b) for a, b, c, d in steps if int(c) < int(hi) and int(d) > int(lo)]
    assert all(b not in pair and (a == read or a not in pair) for a, b in rows), lines
    # the runner's step of the late ticket, and the steps after it, in
    # neither state
    again = next(i for i, (a, b, c, d) in enumerate(steps) if a == read and c == lo)
    after = steps[again + 1 :]
    assert after and all(pair.isdisjoint(step[:2]) for step in after), lines
    if release is not None:
        assert any(line.split()[1] in ("0", "1") for line in lines[end + 1 :]), lines
    assert np.array_equal(sharded.l2_sq, serial.l2_sq)
    assert np.array_equal(sharded.h1_sq, serial.h1_sq)
    assert np.array_equal(sharded.final, serial.final)
    assert_no_child_left()


def test_two_process_runner_holds_no_state(monkeypatch):
    # with helpers the states and fields live in shared mappings, which
    # tracemalloc does not see, and a step allocates no state-sized array:
    # the runner's traced peak does not grow with the steps beyond the
    # energies and draws of the horizon, and lies at least a state below
    # the serial run's, which holds its two states
    def peak(cpus, steps):
        _use_cpus(monkeypatch, cpus)
        cfg = SimConfig(n=8, dt=1e-3, t_final=steps * 1e-3, scheme="ito-em", paths=128, seed=3)
        run_ensemble(cfg)
        tracemalloc.start()
        try:
            ens = run_ensemble(cfg)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.processes == cpus
        horizon = ens.l2_sq.nbytes + ens.h1_sq.nbytes + 128 * min(steps, 128) * 2 * 8
        return top - horizon, ens.final.nbytes

    state = peak(2, 3)[1]
    short, long, alone = peak(2, 3)[0], peak(2, 30)[0], peak(1, 3)[0]
    assert long < short + state / 4, (short, long)
    assert short < alone - state, (short, alone)
    assert_no_child_left()


def test_final_states_outlive_later_runs(monkeypatch):
    # the final states of a run stepped with helpers are its own: a second
    # run, stepped in the same way, leaves them as they were
    _use_cpus(monkeypatch, 2)
    cfg = SimConfig(n=8, dt=1e-3, t_final=3e-3, scheme="ito-em", paths=64, seed=2)
    first = run_ensemble(cfg)
    kept = first.final.copy()
    second = run_ensemble(dataclasses.replace(cfg, seed=3))
    assert second.processes == first.processes == 2
    assert not np.shares_memory(first.final, second.final)
    assert np.array_equal(first.final, kept)
    assert not np.array_equal(second.final, kept)
    assert_no_child_left()


def test_stepped_state_is_the_callers(monkeypatch):
    # a caller other than the runner passes its own arrays: what a step
    # returns stays as it was through two more steps and after the helpers
    # exit, and every step gives the serial bits
    _use_cpus(monkeypatch, 2)
    cfg, u, w = _desk_batch(SI, paths=64)
    kernel = StepKernel(cfg.basis, SI, "strat-heun", cfg.dt)
    want = [u]
    for _ in range(3):
        want.append(kernel.step(want[-1], w))
    with integrate.helper_processes(kernel, len(u)) as processes:
        assert processes == 2
        first = kernel.step(u, w)
        kept = first.copy()
        second = kernel.step(first, w)
        third = kernel.step(second, w, out=np.empty_like(u))
        assert np.array_equal(first, kept)
    assert np.array_equal(first, kept)
    for got, expected in zip((first, second, third), want[1:]):
        assert np.array_equal(got, expected)
    assert_no_child_left()


def test_forking_ensemble_warns_nothing(monkeypatch):
    # Python >= 3.12 warns when a process with BLAS threads forks; the
    # runner filters exactly that warning around its fork
    _use_cpus(monkeypatch, 2)
    cfg = SimConfig(n=8, dt=1e-3, t_final=2e-3, scheme="ito-em", paths=64, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_ensemble(cfg).processes == 2


def test_threads_step_serially(monkeypatch):
    # a forked child would get only the forking thread, so a process with
    # threads running forks no helpers
    _use_cpus(monkeypatch, 2)
    cfg = SimConfig(n=8, dt=1e-3, t_final=2e-3, scheme="ito-em", paths=64, seed=2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert run_ensemble(cfg).processes == 1
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


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
    final = SpectralField(cfg.basis, r.final[0])
    got_c = final.coefficient(BasisMode("c", (1, 0)))
    got_s = final.coefficient(BasisMode("s", (1, 0)))
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


@pytest.mark.parametrize(
    "initial",
    [
        "random:nan",
        "random:-inf",
        ((BasisMode("c", (1, 0)), 1.0), (BasisMode("s", (1, 1)), np.nan)),
    ],
    ids=["random:nan", "random:-inf", "mode-list-with-nan"],
)
def test_config_rejects_non_finite_initial_field(initial):
    # a non-finite start is bad input, not a blow-up of the scheme, and is
    # named without a numpy warning
    cfg = SimConfig(n=4, dt=1e-2, t_final=1e-2, scheme="ito-em", noise=SI, initial=initial)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cfg.violations() == [f"initial condition {initial!r} is not finite"]
    with pytest.raises(ConfigurationError, match="initial condition"):
        run_path(cfg)
    zero = SimConfig(n=4, noise=SI, initial=((BasisMode("c", (1, 0)), 0.0),))
    assert zero.violations() == []


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


def test_streamed_draws_replay_the_block_schedule():
    # 3 paths at qwiener:8 draw 18 steps at a time; over 70 steps the
    # ensemble is bit-equal to the plain loop that draws blocks of 64 steps
    # and folds them as first written
    cfg = SimConfig(
        n=4, dt=1e-3, t_final=0.07, scheme="ito-em",
        noise=NoiseModel.q_wiener(8), paths=3, seed=4,
    )
    per_draw = integrate.DRAW_BYTES // (8 * cfg.paths * cfg.noise.n_components * 2)
    assert per_draw == 18
    # 256 paths under constant noise still draw 64 steps at a time
    assert integrate.DRAW_BYTES // (8 * 256 * 1 * 2) == 64
    ens = run_ensemble(cfg)
    l2, h1, final = _lockstep_run(cfg, [])
    assert np.array_equal(ens.l2_sq, l2)
    assert np.array_equal(ens.h1_sq, h1)
    assert np.array_equal(ens.final, final)


def test_draws_take_no_more_memory_over_a_longer_horizon(monkeypatch):
    # 16 paths at qwiener:8 over 20 and over 200 steps: the traced peak
    # grows by the longer energy series alone, not by the draws of the
    # extra steps (a 64-step block of them is 4.7 MB)
    _use_cpus(monkeypatch, 1)
    peaks = {}
    for t_final in (0.02, 0.2):
        cfg = SimConfig(
            n=4, dt=1e-3, t_final=t_final, scheme="ito-em",
            noise=NoiseModel.q_wiener(8), paths=16, seed=2,
        )
        run_ensemble(cfg)
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            _, peaks[t_final] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    series = 2 * 16 * 180 * 8
    assert peaks[0.2] - peaks[0.02] <= series + 16_384, peaks


def test_qwiener_em_runs_and_is_deterministic():
    model = NoiseModel.q_wiener(2, beta=4.0)
    cfg = SimConfig(
        n=2, dt=1e-3, t_final=0.02, scheme="ito-em", noise=model, paths=3, seed=8
    )
    e1 = run_ensemble(cfg)
    e2 = run_ensemble(cfg)
    assert np.array_equal(e1.l2_sq, e2.l2_sq)
    assert np.all(np.isfinite(e1.h1_sq))
