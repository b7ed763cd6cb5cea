"""The acceptance battery: every quantitative identity the simulator claims,
run end to end at desk scale with pinned tolerances.

Each criterion function returns one :class:`CriterionResult`; the CLI
``verify`` command and the acceptance test module both drive these.  The
statistical criteria run at a fixed seed, so a given build either passes or
fails reproducibly; tolerances follow the "3 standard errors plus stated
discretization allowance" pattern throughout.

Per-criterion configurations (all with beta = 4 where noise is
space-dependent):

* A1a  pathwise L2 conservation, implicit midpoint, space-independent noise;
       the enstrophy ``||u||_1^2`` is a quadratic invariant of the same
       scheme for this noise and is held to the same bound.
* A1b  Heun L2 drift decays with empirical order >= 1 across a dt ladder,
       measured on refinement-coupled Brownian paths; the order estimate is
       accepted at ``mean + 3 SE >= 1`` because its asymptotic value sits
       exactly at first order.  (At desk truncations the coarsest steps also
       carry the explicit scheme's high-mode amplification, which steepens
       the measured decay well above 1.)
* A2   expected enstrophy constancy under Euler-Maruyama (the midpoint
       scheme conserves enstrophy pathwise for this noise, which would
       degenerate the standard-error denominator).
* A3   expected enstrophy under the truncated Q-Wiener envelope, with the
       growth constant taken from the closed-form lattice constants.  (The envelope
       bounds the unprojected transport production; the Galerkin projection
       discards whatever the noise shifts outside the index square, so the
       measured growth sits well below it at desk truncations.)
* A4   tensor vs pseudo-spectral evaluation of the quadratic term.
* A5   geodesic form at n=4: the drift ``-Gamma(u, u)`` vs the projected
       ``-(u.grad)u`` on random interior fields, and the covariant derivative
       ``Gamma(w, u)`` vs the transport ``P(w.grad)u`` for every Q-Wiener
       (n_w = 2) noise field.
* A6   exponential martingale means and the quadratic-variation second-moment
       match on the one-mode reference configuration.
* A7   Ito Euler-Maruyama vs Stratonovich Heun one-point statistics.
* A8   structural identities on random fields.
* A9   the closed-form lattice constants against their classical values at
       beta = 4 and against direct partial sums: the ``k1 <-> k2`` symmetry
       step, every rung's rigorous bracket, and the doubling convergence of
       the sums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisMode,
    SpectralField,
    batch_l2_sq,
    divergence_max,
    get_basis,
    l2_inner,
    random_field,
)
from .diagnostics import MartingaleProbe, gronwall_rate, qv_check
from .dynamics import (
    build_advection_tensor,
    nonlinear_direct,
    nonlinear_pseudospectral,
    stokes_apply,
    transport_apply,
)
from .geometry import build_structure_tables, christoffel_contract, geodesic_drift
from .integrate import (
    SimConfig,
    StepKernel,
    _saved_indices,
    helper_processes,
    mean_se,
    run_ensemble,
)
from .noise import NoiseModel, normalizer_cw, normalizer_cw_prime, path_stream, q_trace


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: str
    bound: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name:<22} {status}  {self.measured}  [bound: {self.bound}]  ({self.seconds:.1f}s)"


@dataclass
class Scale:
    """Desk-scale knobs; ``quick`` shrinks horizons and ensembles only."""

    paths: int = 256
    t_final: float = 1.0
    heun_paths: int = 64
    heun_dts: tuple = (1e-3, 5e-4, 2.5e-4)

    @classmethod
    def pick(cls, quick: bool) -> "Scale":
        if quick:
            return cls(paths=64, t_final=0.25, heun_paths=16, heun_dts=(2e-3, 1e-3, 5e-4))
        return cls()


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# A1: pathwise L2 conservation
# ---------------------------------------------------------------------------


def criterion_a1_midpoint(quick: bool = False, seed: int = 0) -> CriterionResult:
    sc = Scale.pick(quick)

    def body():
        cfg = SimConfig(
            n=8,
            dt=1e-3,
            t_final=sc.t_final,
            scheme="strat-midpoint",
            noise=NoiseModel.space_independent(),
            paths=sc.paths,
            seed=seed,
            initial="random:3",
        )
        diag = run_ensemble(cfg)
        return tuple(
            float(np.abs((sq - sq[:, :1]) / sq[:, :1]).max())
            for sq in (diag.l2_sq, diag.h1_sq)
        )

    (drift, h1_drift), secs = _timed(body)
    return CriterionResult(
        "A1a midpoint L2",
        drift <= 1e-8 and h1_drift <= 1e-8,
        f"max rel drift {drift:.2e}, H1 {h1_drift:.2e}",
        "<= 1e-8 over all paths and times, for ||u||_0^2 and ||u||_1^2",
        secs,
    )


def criterion_a1_heun_order(quick: bool = False, seed: int = 0) -> CriterionResult:
    sc = Scale.pick(quick)

    def body():
        n = 8
        basis = get_basis(n)
        noise = NoiseModel.space_independent()
        t_final = sc.t_final
        dts = sc.heun_dts
        fine_dt = dts[-1]
        fine_steps = int(round(t_final / fine_dt))
        factors = [int(round(dt / fine_dt)) for dt in dts]
        cfg0 = SimConfig(n=n, dt=fine_dt, t_final=t_final, noise=noise, seed=seed,
                         initial="random:3")
        u0 = cfg0.initial_field().coeffs
        p = sc.heun_paths
        k = noise.n_components

        # refinement-coupled increments: coarse steps sum consecutive fine ones
        drifts = np.empty((p, len(dts)))
        fine = np.empty((p, fine_steps, k, 2))
        for j in range(p):
            fine[j] = path_stream(seed, j).standard_normal((fine_steps, k, 2))
        fine *= np.sqrt(fine_dt)
        for d_i, (dt, fac) in enumerate(zip(dts, factors)):
            steps = fine_steps // fac
            incr = fine[:, : steps * fac].reshape(p, steps, fac, k, 2).sum(axis=2)
            kern = StepKernel(basis, noise, "strat-heun", dt)
            u = np.broadcast_to(u0, (p,) + u0.shape).copy()
            with helper_processes(kern, p):
                for s_i in range(steps):
                    u = kern.step(u, noise.increments_to_field(incr[:, s_i]))
            l2 = batch_l2_sq(basis, u)
            l2_0 = batch_l2_sq(basis, u0[None])[0]
            drifts[:, d_i] = np.abs(l2 - l2_0) / l2_0
        # per-path least-squares order in log2-log2
        x = np.log2(np.array(dts))
        x = x - x.mean()
        slopes = (np.log2(drifts) * x).sum(axis=1) / (x * x).sum()
        mean, se = mean_se(slopes)
        return float(mean), float(se)

    (mean, se), secs = _timed(body)
    return CriterionResult(
        "A1b Heun order",
        mean + 3 * se >= 1.0,
        f"order {mean:.3f} +- {se:.3f}",
        "mean + 3 SE >= 1.0",
        secs,
    )


# ---------------------------------------------------------------------------
# A2 / A3: enstrophy expectation
# ---------------------------------------------------------------------------


#: check-time decimation of A2/A3, the default output decimation (save_every)
CHECK_EVERY = 10


def criterion_a2_h1_flat(
    quick: bool = False, seed: int = 0, _shared: dict | None = None
) -> CriterionResult:
    sc = Scale.pick(quick)

    def body():
        diag = _a2_run(sc, seed, _shared)
        mean, se = diag.h1_stats()
        idx = _saved_indices(len(diag.times) - 1, CHECK_EVERY)
        ref = mean[0]
        dev = np.abs(mean[idx] - ref)
        ok = bool(np.all(dev <= 3 * se[idx] + 1e-12))
        worst = float((dev / np.maximum(3 * se[idx], 1e-300)).max())
        return ok, worst

    (ok, worst), secs = _timed(body)
    return CriterionResult(
        "A2 enstrophy mean",
        ok,
        f"worst |dev|/3SE = {worst:.2f}",
        "within 3 SE at every check time",
        secs,
    )


def _a2_run(sc: Scale, seed: int, shared: dict | None):
    if shared is not None and "a2" in shared:
        return shared["a2"]
    cfg = SimConfig(
        n=8,
        dt=1e-3,
        t_final=sc.t_final,
        scheme="ito-em",
        noise=NoiseModel.space_independent(),
        paths=sc.paths,
        seed=seed,
        initial="random:3",
    )
    b = get_basis(8)
    probes = [
        MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)]), "v1"),
        MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("s", (0, 1)), 1.0)]), "v2"),
        MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 1)), 1.0)]), "v3"),
    ]
    diag = run_ensemble(cfg, observers=probes)
    if shared is not None:
        shared["a2"] = diag
    return diag


def criterion_a3_gronwall(quick: bool = False, seed: int = 0) -> CriterionResult:
    sc = Scale.pick(quick)

    def body():
        noise = NoiseModel.q_wiener(8, beta=4.0)
        cfg = SimConfig(
            n=8,
            dt=1e-3,
            t_final=sc.t_final,
            scheme="ito-em",
            noise=noise,
            paths=sc.paths,
            seed=seed,
            initial="random:4",
        )
        diag = run_ensemble(cfg)
        mean, se = diag.h1_stats()
        rate = gronwall_rate(noise)
        env = mean[0] * np.exp(rate * diag.times)
        idx = _saved_indices(len(diag.times) - 1, CHECK_EVERY)
        excess = mean[idx] - (env[idx] + 3 * se[idx])
        ok = bool(np.all(excess <= 0))
        later = idx[idx > 0]
        ratio = float((mean[later] / env[later]).max())
        growth = float(mean[-1] / mean[0])
        return ok, ratio, growth, rate

    (ok, ratio, growth, rate), secs = _timed(body)
    return CriterionResult(
        "A3 Gronwall envelope",
        ok,
        f"growth x{growth:.3f}, max mean/envelope = {ratio:.4f} (rate {rate:.4f})",
        "mean <= envelope + 3 SE at every check time",
        secs,
    )


# ---------------------------------------------------------------------------
# A4 / A8: operator identities
# ---------------------------------------------------------------------------


def criterion_a4_oracle_equivalence(quick: bool = False, seed: int = 0) -> CriterionResult:
    def body():
        rng = np.random.default_rng(seed + 4)
        worst = 0.0
        per_n = 25 if not quick else 10
        for n in (2, 4, 6, 8):
            b = get_basis(n)
            tensor = build_advection_tensor(n)
            for _ in range(per_n):
                f = random_field(b, rng, include_mean=True)
                d = nonlinear_direct(f, tensor)
                p = nonlinear_pseudospectral(f)
                worst = max(worst, float(np.abs(d.coeffs - p.coeffs).max()))
        return worst

    worst, secs = _timed(body)
    return CriterionResult(
        "A4 nonlinear oracle",
        worst <= 1e-10,
        f"max |direct - pseudospectral| = {worst:.2e}",
        "<= 1e-10 entrywise, 100 fields, n in {2,4,6,8}",
        secs,
    )


def criterion_a8_structural(quick: bool = False, seed: int = 0) -> CriterionResult:
    def body():
        rng = np.random.default_rng(seed + 8)
        b = get_basis(6)
        count = 100 if not quick else 30
        worst = {"energy": 0.0, "enstrophy": 0.0, "transport": 0.0, "div": 0.0}
        for i in range(count):
            u = random_field(b, rng)
            bu = nonlinear_pseudospectral(u)
            worst["energy"] = max(worst["energy"], abs(l2_inner(bu, u)) / u.l2_norm() ** 2)
            worst["enstrophy"] = max(
                worst["enstrophy"],
                abs(l2_inner(bu, stokes_apply(u))) / (1.0 + u.h1_norm() ** 2),
            )
            if i % 2 == 0:
                a = random_field(b, rng, include_mean=True)
            else:
                a = SpectralField.from_modes(
                    b, [(BasisMode("c" if i % 4 else "s", (1, (i % 3) - 1)), 1.0)]
                )
            tu = transport_apply(u, a)
            worst["transport"] = max(
                worst["transport"],
                abs(l2_inner(tu, u))
                / (u.l2_norm() * max(u.h1_norm(), 1.0) * max(a.l2_norm(), 1.0)),
            )
            worst["div"] = max(worst["div"], divergence_max(u))
        return worst

    worst, secs = _timed(body)
    ok = all(v <= 1e-10 for v in worst.values())
    measured = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    return CriterionResult(
        "A8 structural ids", ok, measured, "each <= 1e-10 (normalized)", secs
    )


# ---------------------------------------------------------------------------
# A5: geodesic correspondence
# ---------------------------------------------------------------------------


def criterion_a5_geodesic(quick: bool = False, seed: int = 0) -> CriterionResult:
    def body():
        tables = build_structure_tables(4)
        b = get_basis(4)
        rng = np.random.default_rng(seed + 5)
        drift = 0.0
        for _ in range(12):
            u = random_field(b, rng, include_mean=True)
            gd = geodesic_drift(u, tables)
            ref = -1.0 * nonlinear_pseudospectral(u, out_basis=tables.out_basis)
            drift = max(drift, float(np.abs(gd.coeffs - ref.coeffs).max()))
        noise = NoiseModel.q_wiener(2)
        transport = 0.0
        for weight, mode, _ in noise.transport_pairs():
            w = SpectralField.from_modes(noise.field_basis, [(mode, weight)])
            u = random_field(b, rng, include_mean=True)
            got = christoffel_contract(w, u, tables)
            ref = transport_apply(u, w, tables.out_basis)
            transport = max(transport, float(np.abs(got.coeffs - ref.coeffs).max()))
        return drift, transport

    (drift, transport), secs = _timed(body)
    return CriterionResult(
        "A5 geodesic drift",
        max(drift, transport) <= 1e-10,
        f"max |geodesic + P(u.grad)u| = {drift:.2e}, "
        f"max |Gamma(w, u) - P(w.grad)u| = {transport:.2e}",
        "each <= 1e-10 entrywise at n=4: 12 random interior fields; "
        "the 50 qwiener:2 transport fields",
        secs,
    )


# ---------------------------------------------------------------------------
# A6: martingale functionals
# ---------------------------------------------------------------------------


def criterion_a6_martingale(
    quick: bool = False, seed: int = 0, _shared: dict | None = None
) -> CriterionResult:
    sc = Scale.pick(quick)

    def body():
        diag = _a2_run(sc, seed, _shared)
        worst_ratio = 0.0
        for name in ("v1", "v2", "v3"):
            s = diag.observers[name]
            dl = s.L[:, -1] - s.L[:, 0]
            for part in (dl.real, dl.imag):
                mean, se = mean_se(part)
                worst_ratio = max(worst_ratio, abs(mean) / max(3 * se, 1e-300))
        ok_l = worst_ratio <= 1.0

        # one-mode reference configuration for the second-moment identity
        cfg = SimConfig(
            n=1,
            dt=1e-3,
            t_final=sc.t_final,
            scheme="ito-em",
            noise=NoiseModel.space_independent(),
            paths=max(sc.paths, 64),
            seed=seed,
            initial=((BasisMode("c", (1, 0)), 1.0),),
        )
        v = SpectralField.from_modes(get_basis(1), [(BasisMode("s", (1, 0)), 1.0)])
        probe = MartingaleProbe(v, "ref")
        ref_diag = run_ensemble(cfg, observers=[probe])
        rep = qv_check(ref_diag, "ref")
        m_ratio = abs(rep.mean_m[-1]) / max(3 * rep.se_m[-1], 1e-300)
        gap_allow = 3 * rep.se_gap[-1] + 2 * cfg.dt
        gap_ratio = abs(rep.gap[-1]) / gap_allow
        ok_qv = (m_ratio <= 1.0) and (gap_ratio <= 1.0)
        return ok_l and ok_qv, worst_ratio, m_ratio, gap_ratio

    (ok, wl, wm, wg), secs = _timed(body)
    return CriterionResult(
        "A6 martingale probes",
        ok,
        f"|mean dL|/3SE = {wl:.2f}, |mean M|/3SE = {wm:.2f}, |gap|/allow = {wg:.2f}",
        "L and M means within 3 SE; QV gap within 3 SE + 2 dt",
        secs,
    )


# ---------------------------------------------------------------------------
# A7: Ito / Stratonovich consistency
# ---------------------------------------------------------------------------


def criterion_a7_ito_strat(quick: bool = False, seed: int = 0) -> CriterionResult:
    sc = Scale.pick(quick)

    def body():
        common = dict(
            n=2,
            dt=1e-3,
            t_final=sc.t_final,
            noise=NoiseModel.space_independent(),
            paths=sc.paths,
            seed=seed,
            initial="mode:1,0",
        )
        em = run_ensemble(SimConfig(scheme="ito-em", **common))
        heun = run_ensemble(SimConfig(scheme="strat-heun", **common))
        m1, s1 = em.l2_stats()
        m2, s2 = heun.l2_stats()
        diff = abs(float(m1[-1] - m2[-1]))
        allow = 3 * float(np.hypot(s1[-1], s2[-1])) + 5 * 1e-3
        return diff, allow

    (diff, allow), secs = _timed(body)
    return CriterionResult(
        "A7 Ito vs Strat",
        diff <= allow,
        f"|mean L2(T) gap| = {diff:.2e}",
        f"<= 3 combined SE + 5 dt = {allow:.2e}",
        secs,
    )


# ---------------------------------------------------------------------------
# A9: noise constants
# ---------------------------------------------------------------------------


def _tail_bound(s2: float, weighted: bool, cutoff: int) -> float:
    """Integral-comparison bound on ``sum_{|k|_inf > cutoff} num(k) / |k|^{s2}``.

    Each term is at most ``r^{p - s2}`` on the shell ``|k|_inf = r``
    (``p = 2`` for the ``(k1)^2`` numerator, else 0), a shell has ``8r``
    points, and the shell series is compared with the integral of
    ``8 x^{1 + p - s2}``.
    """
    decay = s2 - (4.0 if weighted else 2.0)
    return 8.0 * cutoff ** (-decay) / decay


def _lattice_ladder(s2: float, weighted: bool, max_cutoff: int) -> list[tuple[float, float]]:
    """Reference partial sums of ``sum_{k != 0} num(k) / |k|^{s2}``, ``num = (k1)^2``
    if ``weighted`` else 1, over ``|k|_inf <= R`` at ``R = 1, 2, 4, .. max_cutoff``.

    Each rung is ``(S_R, tail_R)``; the full sum lies in ``[S_R, S_R + tail_R]``.
    The sum grows ring by ring (``R/2 < |k|_inf <= R``), so each rung adds one
    small number; a ring runs over the quadrant ``k1, k2 >= 0`` by rows,
    weighting each point by its count of sign images.
    """
    half = s2 / 2.0
    out, total, lo, hi = [], 0.0, 0, 1
    while hi <= max_cutoff:
        sq = np.arange(hi + 1, dtype=np.float64) ** 2
        ring = 0.0
        for k1 in range(hi + 1):
            ksq = sq[k1] + sq[0 if k1 > lo else lo + 1 :]
            if half % 1:
                den = ksq**half
            else:  # repeated products: several times faster than pow
                den = ksq.copy()
                for _ in range(int(half) - 1):
                    den *= ksq
            terms = (sq[k1] if weighted else 1.0) / den
            if k1 == 0:
                ring += 2.0 * terms.sum()
            elif k1 > lo:  # the row starts on the axis k2 = 0
                ring += 2.0 * terms[0] + 4.0 * terms[1:].sum()
            else:
                ring += 4.0 * terms.sum()
        total += ring
        out.append((total, _tail_bound(s2, weighted, hi)))
        lo, hi = hi, 2 * hi
    return out


# Apery's constant zeta(3) and Catalan's constant G = Dirichlet beta(2)
_APERY = 1.2020569031595942854
_CATALAN = 0.91596559417721901505


def criterion_a9_constants(quick: bool = False, seed: int = 0) -> CriterionResult:
    def body():
        beta = 4.0
        cw, cwp, trace = normalizer_cw(beta), normalizer_cw_prime(beta), q_trace(beta)
        # classical values at beta = 4, from Dirichlet beta(3) = pi^3 / 32 and
        # beta(2) = G: the partial sums below cannot resolve c'_W this finely
        # in quick mode (bracket 2.4e-7 wide at 4096)
        classical = max(
            abs(value - exact) / exact
            for value, exact in (
                (cw, 1.0 + _APERY * np.pi**3 / 16),
                (cwp, np.pi**2 * _CATALAN / 3),
                (trace, 1.0 + _APERY * np.pi**3 / 8),
            )
        )
        lad = _lattice_ladder(2 * beta, True, 2048)
        lad_p = _lattice_ladder(2 * beta - 2, True, 4096 if quick else 32768)
        # the unweighted sums: tr Q, and the other side of the symmetry step
        # sum (k1)^2 / |k|^{2s+2} = (1/2) sum |k|^{-2s} the closed forms rest on
        flat = _lattice_ladder(2 * beta - 2, False, 2048)
        flat_p = _lattice_ladder(2 * beta - 4, False, 2048)
        sym_ok = all(
            abs(w - 0.5 * f) <= 1e-14 * w
            for pairs in (zip(lad, flat), zip(lad_p, flat_p))
            for (w, _), (f, _) in pairs
        )
        in_bracket = all(
            offset + s <= value <= offset + s + tail
            for value, offset, ladder in ((cw, 1.0, lad), (cwp, 0.0, lad_p), (trace, 1.0, flat))
            for s, tail in ladder
        )
        d_cw = abs(lad[-1][0] - lad[-2][0])
        d_cwp = abs(lad_p[-1][0] - lad_p[-2][0])
        # the widths the full ladders reach; the c'_W sum converges like R^-2
        width = max(_tail_bound(2 * beta, True, 2048), _tail_bound(2 * beta - 2, True, 32768))
        stable = (d_cw < 1e-8) and (quick or d_cwp < 1e-8)
        ok = classical <= 1e-14 and sym_ok and in_bracket and stable and width < 1e-8
        return ok, classical, d_cw, d_cwp, width

    (ok, classical, d_cw, d_cwp, width), secs = _timed(body)
    return CriterionResult(
        "A9 noise constants",
        ok,
        f"classical values rel {classical:.1e}, doubling deltas {d_cw:.1e} / {d_cwp:.1e}, "
        f"interval width {width:.1e}",
        "classical values to 1e-14; symmetry to 1e-14 at rungs <= 2048; closed forms "
        "in every bracket; deltas and widths < 1e-8",
        secs,
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "energy": ("a1a", "a1b", "a2", "a3"),
    "oracle": ("a4", "a8"),
    "geometry": ("a5",),
    "martingale": ("a6",),
    "consistency": ("a7",),
    "noise": ("a9",),
}

_CRITERIA = {
    "a1a": criterion_a1_midpoint,
    "a1b": criterion_a1_heun_order,
    "a2": criterion_a2_h1_flat,
    "a3": criterion_a3_gronwall,
    "a4": criterion_a4_oracle_equivalence,
    "a5": criterion_a5_geodesic,
    "a6": criterion_a6_martingale,
    "a7": criterion_a7_ito_strat,
    "a8": criterion_a8_structural,
    "a9": criterion_a9_constants,
}


def run_suite(
    suite: str = "all", quick: bool = False, seed: int = 0
) -> list[CriterionResult]:
    """Run one named suite (or everything) and return per-criterion results."""
    if suite == "all":
        names = tuple(_CRITERIA)
    elif suite in SUITES:
        names = SUITES[suite]
    elif suite in _CRITERIA:
        names = (suite,)
    else:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {('all',) + tuple(SUITES) + tuple(_CRITERIA)}"
        )
    shared: dict = {}
    out = []
    for name in names:
        fn = _CRITERIA[name]
        if name in ("a2", "a6"):
            out.append(fn(quick=quick, seed=seed, _shared=shared))
        else:
            out.append(fn(quick=quick, seed=seed))
    return out
