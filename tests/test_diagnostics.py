import io
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from torusflow import diagnostics
from torusflow.basis import (
    CHUNK_PATHS,
    BasisMode,
    SpectralField,
    Workspace,
    get_basis,
    random_field,
)
from torusflow.diagnostics import (
    ENSEMBLE_CSV_COLUMNS,
    MartingaleProbe,
    energy_report,
    gronwall_rate,
    qv_check,
    write_ensemble_csv,
    write_path_csv,
    write_state_csv,
)
from torusflow.dynamics import build_advection_tensor
from torusflow.integrate import SimConfig, run_ensemble, run_path
from torusflow.noise import ConfigurationError, NoiseModel

import oracles

PI = np.pi
SI = NoiseModel.space_independent()


def _phi_v(states: list[SpectralField], v: SpectralField) -> np.ndarray:
    """The generator functional ``phi_v`` at each state, as a probe records it."""
    probe = MartingaleProbe(v)
    probe.start(0.0, np.stack([u.coeffs for u in states]))
    return probe.result().phi[:, 0]


def test_phi_v_trivial_and_reference_values():
    b = get_basis(2)
    v = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    zero, same = _phi_v([SpectralField.zero(b), v], v)
    assert zero == 0.0
    # u = v = c(1,0): quadratic term vanishes, Stokes pairing gives -i pi^2
    assert same == pytest.approx(-1j * PI**2, abs=1e-12)


def test_phi_v_real_part_nonpositive():
    rng = np.random.default_rng(3)
    b = get_basis(3)
    v = SpectralField.from_modes(b, [(BasisMode("s", (1, 1)), 0.7)])
    phi = _phi_v([random_field(b, rng) for _ in range(20)], v)
    assert np.all(phi.real <= 1e-13)


@pytest.mark.parametrize(
    "v",
    [BasisMode("c", (1, 0)), BasisMode("c", (1, 1)), BasisMode("s", (0, 1)), "random"],
    ids=str,
)
def test_probe_pairings_match_their_first_form(v):
    # one product for the four linear pairings and the merged quadratic form
    # against the four einsums and the unmerged (i, j) / (j, i) entries
    rng = np.random.default_rng(6)
    b = get_basis(8)
    v = random_field(b, rng) if v == "random" else SpectralField.from_modes(b, [(v, 1.0)])
    u = np.stack([random_field(b, rng, include_mean=True).coeffs for _ in range(64)])
    probe = MartingaleProbe(v)
    probe.start(0.0, u)
    got = probe.pairings(u)
    for g, w in zip(got, oracles.probe_pairings(v, u)):
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


@pytest.mark.parametrize("paths", [1, 32, 256])
@pytest.mark.parametrize(
    "mode", [BasisMode("c", (1, 0)), BasisMode("s", (0, 1)), BasisMode("c", (1, 1))], ids=str
)
def test_probe_quadratic_form_keeps_its_bits(mode, paths):
    # the em-probes workload's probes: the quadratic form gathered into the
    # probe's arrays gives the bits of the product it replaced, also when a
    # larger batch came first and the arrays are views of larger ones
    rng = np.random.default_rng(paths)
    b = get_basis(8)
    probe = MartingaleProbe(SpectralField.from_modes(b, [(mode, 1.0)]))
    probe.pairings(rng.standard_normal((300, 2, b.n_modes)))
    u = np.stack([random_field(b, rng, include_mean=True).coeffs for _ in range(paths)])
    flat = u.reshape(paths, -1)
    quad = (flat[..., probe.q_i] * flat[..., probe.q_j]) @ probe.q_v
    want = -0.5 * (flat @ probe.w)[:, 1] + quad
    assert np.array_equal(probe.pairings(u)[1], want)


@pytest.mark.parametrize("paths", [1, 100, 131, 300])
@pytest.mark.parametrize(
    "mode", [BasisMode("c", (1, 0)), BasisMode("s", (0, 1)), BasisMode("c", (1, 1))], ids=str
)
def test_chunked_probe_pairings_match_the_unchunked_form(mode, paths):
    # no batch is a whole number of chunks, and 131 ends in 3 paths that join
    # the chunk before them; each path rounds as in one gemv over the batch
    assert paths % CHUNK_PATHS
    rng = np.random.default_rng(paths)
    b = get_basis(8)
    probe = MartingaleProbe(SpectralField.from_modes(b, [(mode, 1.0)]))
    u = np.stack([random_field(b, rng, include_mean=True).coeffs for _ in range(paths)])
    for got, want in zip(probe.pairings(u), oracles.probe_pairings_unchunked(probe, u)):
        assert np.array_equal(got, want)


def test_quadratic_form_holds_one_chunk(monkeypatch):
    # after 1024 paths the probes' arrays hold one chunk: cols (2N, chunk),
    # left and right (nnz, chunk); over the batch they would be 6.6 MB
    monkeypatch.setattr(diagnostics, "_QUADRATIC_FORM", Workspace())
    rng = np.random.default_rng(4)
    b = get_basis(8)
    probe = MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 1)), 1.0)]))
    probe.pairings(rng.standard_normal((1024, 2, b.n_modes)))
    held = sum(a.nbytes for a in diagnostics._QUADRATIC_FORM._slots.values())
    assert held == (2 * b.n_modes + 2 * len(probe.q_v)) * CHUNK_PATHS * 8


def test_probe_keeps_three_numbers_per_path_and_step():
    # after_step records uv, the drift pairing and the QV density, and no
    # more: 3 float64 per path and step where running trapezoids kept 7
    rng = np.random.default_rng(2)
    b = get_basis(8)
    u = np.stack([random_field(b, rng).coeffs for _ in range(256)])
    probe = MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 1)), 1.0)]))
    probe.start(0.0, u)
    probe.after_step(1e-3, u)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in range(100):
            probe.after_step((s + 2) * 1e-3, u)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per = kept / (100 * 256 * 8)
    assert 3.0 <= per <= 3.5, per


def test_probe_result_holds_its_records_once_and_a_third():
    # a 256-path, 200-step probe stacks one series at a time and drops its
    # records before the next, so building the series peaks at about 4/3 of
    # the records, where stacking all three while every record was alive
    # held twice them; the series are the records' bits, and a second read
    # returns them again
    rng = np.random.default_rng(6)
    b = get_basis(4)
    states = rng.standard_normal((200, 256, 2, b.n_modes))
    probe = MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)]))
    want = [probe.pairings(u) for u in states]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probe.start(0.0, states[0])
        for s, u in enumerate(states[1:], 1):
            probe.after_step(s * 1e-3, u)
        records = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        series = probe.result()
        after, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * records, peak / records
    assert after < 1.05 * records, after / records
    for name, column in zip(("uv", "drift", "qv_density"), zip(*want)):
        assert np.array_equal(getattr(series, name), np.stack(column, axis=1)), name
    assert probe.result() is series


def test_probe_at_n16_builds_no_tensor():
    # the probe's couplings come from the closed form over its targets: the
    # whole tensor has 1.32M entries at n=16 and would be built and cached
    b = get_basis(16)
    v = SpectralField.from_modes(b, [(BasisMode("c", (1, 1)), 1.0)])
    before = build_advection_tensor.cache_info()
    tracemalloc.start()
    try:
        MartingaleProbe(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_advection_tensor.cache_info() == before
    assert peak < 4e6, peak


def _exact_decay_path(dt: float, t_final: float) -> tuple[np.ndarray, list[SpectralField]]:
    """Exactly sampled viscous decay of one mode, u(t) = exp(-t/2) c(1,0):
    the step times and the states at them."""
    b = get_basis(1)
    times = np.arange(int(round(t_final / dt)) + 1) * dt
    states = [
        SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), float(np.exp(-t / 2)))])
        for t in times
    ]
    return times, states


def test_L_series_initial_value_and_chain_rule_cancellation():
    # Along the exact drift path with the quadratic term dead (v has no
    # overlap with d_l u), L_t is constant; the trapezoid leaves O(dt^2).
    v = SpectralField.from_modes(get_basis(1), [(BasisMode("c", (1, 0)), 1.0)])
    devs = []
    for dt in (2e-2, 1e-2):
        times, states = _exact_decay_path(dt, 1.0)
        probe = MartingaleProbe(v)
        probe.start(times[0], states[0].coeffs[None])
        for t, s in zip(times[1:], states[1:]):
            probe.after_step(t, s.coeffs[None])
        L = probe.result().L[0]
        uv0 = 2 * PI**2
        assert L[0] == pytest.approx(np.exp(1j * uv0), abs=1e-14)
        devs.append(np.abs(L - L[0]).max())
    order = np.log2(devs[0] / devs[1])
    assert order >= 1.8  # second-order quadrature
    assert devs[1] <= 3e-3  # measured 1.4e-3 at dt = 1e-2


def _one_mode_reference(paths=128, dt=1e-3, seed=1):
    cfg = SimConfig(
        n=1,
        dt=dt,
        t_final=1.0,
        scheme="ito-em",
        noise=SI,
        paths=paths,
        seed=seed,
        initial=((BasisMode("c", (1, 0)), 1.0),),
        save_every=100,
    )
    v = SpectralField.from_modes(get_basis(1), [(BasisMode("s", (1, 0)), 1.0)])
    probe = MartingaleProbe(v, "sv")
    diag = run_ensemble(cfg, observers=[probe])
    return cfg, diag


def test_qv_check_one_mode_reference():
    # u0 = c(1,0), v = s(1,0): M has the nonzero bracket (2 pi^2)^2 int a^2 ds
    cfg, diag = _one_mode_reference()
    rep = qv_check(diag, "sv")
    assert abs(rep.mean_m[-1]) <= 3 * rep.se_m[-1]
    assert abs(rep.gap[-1]) <= 3 * rep.se_gap[-1] + 2 * cfg.dt
    # the QV ledger itself approaches the analytic second moment
    qv_mean = diag.observers["sv"].qv[:, -1].mean()
    theory = (2 * PI**2) ** 2 * (0.5 + (1 - np.exp(-2)) / 4)
    se = diag.observers["sv"].qv[:, -1].std(ddof=1) / np.sqrt(rep.n_paths)
    assert abs(qv_mean - theory) <= 4 * se + 10 * cfg.dt * theory


def test_qv_check_zero_noise():
    cfg = SimConfig(
        n=1,
        dt=1e-3,
        t_final=0.1,
        scheme="ito-em",
        noise=NoiseModel.finite_modes([]),
        paths=64,
        initial=((BasisMode("c", (1, 0)), 1.0),),
    )
    v = SpectralField.from_modes(get_basis(1), [(BasisMode("s", (1, 0)), 1.0)])
    probe = MartingaleProbe(v, "sv")
    diag = run_ensemble(cfg, observers=[probe])
    rep = qv_check(diag, "sv")
    # with no noise M is pure integrator error
    assert np.abs(rep.mean_m).max() <= 1e-6
    # the ledger integrates the would-be bracket density along the
    # deterministic decay: int (2 pi^2)^2 exp(-s) ds
    theory = (2 * PI**2) ** 2 * (1 - np.exp(-0.1))
    assert diag.observers["sv"].qv[0, -1] == pytest.approx(theory, rel=1e-4)


def test_qv_check_requires_paths():
    _, diag = _one_mode_reference(paths=8)
    with pytest.raises(ConfigurationError):
        qv_check(diag, "sv")


def test_probe_reports_refuse_field_noise():
    # the probe's generator is the constant-noise one; a Q-Wiener ensemble's
    # probe series is no martingale, so neither report publishes it
    cfg = SimConfig(
        n=2, dt=1e-2, t_final=0.05, scheme="ito-em",
        noise=NoiseModel.q_wiener(1, beta=4.0), paths=2,
    )
    v = SpectralField.from_modes(cfg.basis, [(BasisMode("s", (1, 0)), 1.0)])
    diag = run_ensemble(cfg, observers=[MartingaleProbe(v, "sv")])
    with pytest.raises(ConfigurationError, match="'qwiener' regime"):
        qv_check(diag, "sv")
    with pytest.raises(ConfigurationError, match="'qwiener' regime"):
        write_ensemble_csv(diag, io.StringIO(), probe="sv")


def test_se_scaling_with_paths():
    _, d128 = _one_mode_reference(paths=128, seed=3)
    _, d256 = _one_mode_reference(paths=256, seed=3)
    se128 = qv_check(d128, "sv").se_m[-1]
    se256 = qv_check(d256, "sv").se_m[-1]
    assert se256 / se128 == pytest.approx(1 / np.sqrt(2), rel=0.25)


def test_martingale_mean_L_within_3se():
    _, diag = _one_mode_reference(paths=256, seed=5)
    s = diag.observers["sv"]
    dL = s.L[:, -1] - s.L[:, 0]
    for part in (dL.real, dL.imag):
        se = part.std(ddof=1) / np.sqrt(len(part))
        assert abs(part.mean()) <= 3 * se + 2e-3


def test_L_bounded_by_phi_envelope():
    # |L_t| <= 1 + int |phi| ds pathwise, and |phi(s)| is controlled by the
    # energy ledger: |phi| <= (1/2)||u||_1 ||v||_1 + sup|grad v| ||u||_0^2
    #                          + (1/2)||u||_0^2 ||v||_1^2
    cfg, diag = _one_mode_reference(paths=64, seed=13)
    s = diag.observers["sv"]
    dt = cfg.dt
    phi_abs = np.abs(s.phi)
    int_phi = np.concatenate(
        [np.zeros((phi_abs.shape[0], 1)),
         np.cumsum(0.5 * dt * (phi_abs[:, :-1] + phi_abs[:, 1:]), axis=1)],
        axis=1,
    )
    assert np.all(np.abs(s.L) <= 1.0 + int_phi + 1e-9)
    v_h1_sq = 2 * PI**2       # ||s_(1,0)||_1^2
    sup_grad_v = 1.0          # |grad s_(1,0)| <= 1 pointwise
    # the ensemble runner tracks the energy ledger at the same resolution
    # as the probe series (save_every affects only file output)
    ledger_bound = (
        0.5 * np.sqrt(diag.h1_sq) * np.sqrt(v_h1_sq)
        + sup_grad_v * diag.l2_sq
        + 0.5 * diag.l2_sq * v_h1_sq
    )
    assert np.all(phi_abs <= ledger_bound + 1e-9)


def test_increment_means_vanish_between_saved_times():
    # unconditional mean of L_t - L_s within 3 SE + O(dt) for saved s < t
    cfg, diag = _one_mode_reference(paths=256, seed=17)
    s = diag.observers["sv"]
    n_steps = s.L.shape[1] - 1
    idx = [0, n_steps // 2, n_steps]
    for a_i in range(len(idx)):
        for b_i in range(a_i + 1, len(idx)):
            d = s.L[:, idx[b_i]] - s.L[:, idx[a_i]]
            for part in (d.real, d.imag):
                se = part.std(ddof=1) / np.sqrt(len(part))
                assert abs(part.mean()) <= 3 * se + 2 * cfg.dt


def test_energy_report_zero_field():
    cfg = SimConfig(
        n=2,
        dt=1e-2,
        t_final=0.1,
        noise=SI,
        paths=1,
        initial=((BasisMode("c", (1, 0)), 0.0),),
    )
    r = run_path(cfg, 0)
    rep = energy_report(r)
    assert np.all(rep.mean_l2 == 0.0)
    assert np.all(rep.mean_h1 == 0.0)
    assert rep.max_rel_l2_drift == 0.0


def test_energy_report_midpoint_conservation():
    cfg = SimConfig(
        n=4,
        dt=1e-3,
        t_final=0.1,
        scheme="strat-midpoint",
        noise=SI,
        paths=4,
        seed=2,
        initial="random:3",
    )
    rep = energy_report(run_ensemble(cfg))
    assert rep.max_rel_l2_drift <= 1e-8


def test_energy_report_envelope_starts_at_the_mean():
    # A3's start at 256 paths: summed down the path axis, the shared initial
    # enstrophy comes out 11 ulp above a plain mean of the first column
    cfg = SimConfig(
        n=8,
        dt=1e-3,
        t_final=2e-3,
        scheme="ito-em",
        noise=NoiseModel.q_wiener(8, beta=4.0),
        paths=256,
        initial="random:4",
    )
    rep = energy_report(run_ensemble(cfg))
    assert rep.envelope_h1[0] == rep.mean_h1[0]
    assert np.all(rep.envelope_h1[1:] > rep.envelope_h1[0])


def test_gronwall_rate():
    assert gronwall_rate(SI) == 0.0
    q = NoiseModel.q_wiener(2, beta=4.0)
    rate = gronwall_rate(q)
    # c'_W / c_W at beta = 4: 2 zeta(2) G / (1 + 2 zeta(3) pi^3 / 32)
    with mp.workdps(40):
        exact = 2 * mp.zeta(2) * mp.catalan / (1 + 2 * mp.zeta(3) * mp.pi**3 / 32)
    assert rate == pytest.approx(float(exact), rel=1e-14)


def test_ensemble_csv_format():
    _, diag = _one_mode_reference(paths=64, seed=7)
    buf = io.StringIO()
    write_ensemble_csv(diag, buf, probe="sv")
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(ENSEMBLE_CSV_COLUMNS)
    # save_every=100 on 1000 steps -> 11 rows + header
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(2 * PI**2, rel=1e-12)


def test_path_and_state_csv(tmp_path):
    cfg = SimConfig(
        n=2, dt=1e-2, t_final=0.1, noise=SI, paths=1, seed=0, initial="mode:1,0"
    )
    r = run_path(cfg, 0)
    p = tmp_path / "path.csv"
    write_path_csv(r, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,l2_sq,h1_sq,rel_l2_drift"
    assert len(lines) == len(r.times) + 1
    s = tmp_path / "state.csv"
    write_state_csv(SpectralField(cfg.basis, r.final[0]), s)
    rows = s.read_text().strip().splitlines()
    assert rows[0] == "kind,k1,k2,coeff"
    assert len(rows) == 2 * get_basis(2).n_modes + 1
