"""The acceptance battery: every quantitative identity the simulator claims,
run end to end at desk scale with pinned tolerances.

A criterion is declared once, as a row of :data:`CRITERIA`: its key
(``a1a`` .. ``a9``), its display name (whose first word is the key), its
suite and its check.  A check takes the :class:`RunContext` of its job and
returns ``(passed, measured, bound)``; ``run_suite`` times it and builds the
:class:`CriterionResult`.  The CLI ``verify`` command and the acceptance
test module both drive ``run_suite``.  The statistical criteria run at a
fixed seed, so a given build either passes or fails reproducibly; tolerances
follow the "3 standard errors plus stated discretization allowance" pattern
throughout.

``run_suite`` runs the picked criteria as jobs, one criterion each except
that A6 joins A2's job, because it reads A2's ensemble, and A4 joins A5's,
because both read the coupling tensor at n=8.  On a host with more than one
usable CPU the jobs run side by side in lanes, on the layer of
:mod:`torusflow.workers`: the caller and forked processes, one per CPU, each
pinned to its CPU, so that the ensembles inside a lane step serially.  Each
lane starts with its own job of :data:`CLAIM_ORDER`; the caller's is A2 with
A6 and lane 1's is A5 with A4, the jobs with the largest working sets.  No
other job builds a coupling tensor (A6's probes take their couplings from
the closed form), so the caller's peak memory is the same on every run.  Every check computes the
same in any lane; the results come back in table order and record which
lane ran them (``CriterionResult.process``, 0 for the caller).  ``taskset -c
0`` runs every criterion in the one process, one after another.

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
       degenerate the standard-error denominator).  A6 reads the same
       ensemble; the run context builds it for whichever comes first.
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

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import workers
from .basis import (
    BasisMode,
    SpectralField,
    batch_l2_sq,
    divergence_max,
    get_basis,
    l2_inner,
    random_field,
)
from .diagnostics import MartingaleProbe, energy_report, gronwall_rate, qv_check
from .dynamics import (
    build_advection_tensor,
    nonlinear_direct,
    nonlinear_pseudospectral,
    stokes_apply,
    transport_apply,
)
from .geometry import build_structure_tables, christoffel_contract, geodesic_drift
from .integrate import (
    EnsembleDiagnostics,
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
    #: the lane that ran the check: 0 for the caller of :func:`run_suite`
    process: int = 0

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


class RunContext:
    """What the criteria of one job of :func:`run_suite` share.

    ``a2_ensemble`` is built on first use, by A2 or by A6 alone, and goes
    with the context when the job ends.
    """

    def __init__(self, quick: bool, seed: int):
        self.quick, self.seed, self.scale = quick, seed, Scale.pick(quick)

    def config(self, **changes) -> SimConfig:
        """The desk ``SimConfig`` at this job's horizon, paths and seed, with ``changes``."""
        desk = SimConfig(t_final=self.scale.t_final, paths=self.scale.paths, seed=self.seed)
        return replace(desk, **changes)

    @cached_property
    def a2_ensemble(self) -> EnsembleDiagnostics:
        """A2's Euler-Maruyama ensemble, carrying the three probes A6 reads."""
        cfg = self.config(scheme="ito-em")
        b = cfg.basis
        probes = [
            MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)]), "v1"),
            MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("s", (0, 1)), 1.0)]), "v2"),
            MartingaleProbe(SpectralField.from_modes(b, [(BasisMode("c", (1, 1)), 1.0)]), "v3"),
        ]
        return run_ensemble(cfg, observers=probes)


# ---------------------------------------------------------------------------
# A1: pathwise L2 conservation
# ---------------------------------------------------------------------------


def _a1a_midpoint(run: RunContext):
    diag = run_ensemble(run.config(scheme="strat-midpoint"))
    drift, h1_drift = (
        float(np.abs((sq - sq[:, :1]) / sq[:, :1]).max()) for sq in (diag.l2_sq, diag.h1_sq)
    )
    return (
        drift <= 1e-8 and h1_drift <= 1e-8,
        f"max rel drift {drift:.2e}, H1 {h1_drift:.2e}",
        "<= 1e-8 over all paths and times, for ||u||_0^2 and ||u||_1^2",
    )


def _a1b_heun_order(run: RunContext):
    sc, seed = run.scale, run.seed
    dts = sc.heun_dts
    cfg = run.config(dt=dts[-1])
    basis, noise, fine_dt, fine_steps = cfg.basis, cfg.noise, cfg.dt, cfg.n_steps
    factors = [int(round(dt / fine_dt)) for dt in dts]
    u0 = cfg.initial_field().coeffs
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
    mean, se = (float(v) for v in mean_se(slopes))
    return mean + 3 * se >= 1.0, f"order {mean:.3f} +- {se:.3f}", "mean + 3 SE >= 1.0"


# ---------------------------------------------------------------------------
# A2 / A3: enstrophy expectation
# ---------------------------------------------------------------------------


#: check-time decimation of A2/A3, the default output decimation (save_every)
CHECK_EVERY = 10


def _a2_h1_flat(run: RunContext):
    diag = run.a2_ensemble
    rep = energy_report(diag)
    mean, se = rep.mean_h1, rep.se_h1
    idx = _saved_indices(len(diag.times) - 1, CHECK_EVERY)
    dev = np.abs(mean[idx] - mean[0])
    worst = float((dev / np.maximum(3 * se[idx], 1e-300)).max())
    return (
        bool(np.all(dev <= 3 * se[idx] + 1e-12)),
        f"worst |dev|/3SE = {worst:.2f}",
        "within 3 SE at every check time",
    )


def _a3_gronwall(run: RunContext):
    noise = NoiseModel.q_wiener(8, beta=4.0)
    cfg = run.config(scheme="ito-em", noise=noise, initial="random:4")
    rep = energy_report(run_ensemble(cfg))
    mean, se, env = rep.mean_h1, rep.se_h1, rep.envelope_h1
    idx = _saved_indices(len(rep.times) - 1, CHECK_EVERY)
    later = idx[idx > 0]
    ratio = float((mean[later] / env[later]).max())
    growth = float(mean[-1] / mean[0])
    return (
        bool(np.all(mean[idx] <= env[idx] + 3 * se[idx])),
        f"growth x{growth:.3f}, max mean/envelope = {ratio:.4f} "
        f"(rate {gronwall_rate(noise):.4f})",
        "mean <= envelope + 3 SE at every check time",
    )


# ---------------------------------------------------------------------------
# A4 / A8: operator identities
# ---------------------------------------------------------------------------


def _a4_oracle(run: RunContext):
    rng = np.random.default_rng(run.seed + 4)
    worst = 0.0
    per_n = 10 if run.quick else 25
    for n in (2, 4, 6, 8):
        b = get_basis(n)
        tensor = build_advection_tensor(n)
        for _ in range(per_n):
            f = random_field(b, rng, include_mean=True)
            d = nonlinear_direct(f, tensor)
            p = nonlinear_pseudospectral(f)
            worst = max(worst, float(np.abs(d.coeffs - p.coeffs).max()))
    return (
        worst <= 1e-10,
        f"max |direct - pseudospectral| = {worst:.2e}",
        "<= 1e-10 entrywise, 100 fields, n in {2,4,6,8}",
    )


def _a8_structural(run: RunContext):
    rng = np.random.default_rng(run.seed + 8)
    b = get_basis(6)
    count = 30 if run.quick else 100
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
    return (
        all(v <= 1e-10 for v in worst.values()),
        ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
        "each <= 1e-10 (normalized)",
    )


# ---------------------------------------------------------------------------
# A5: geodesic correspondence
# ---------------------------------------------------------------------------


def _a5_geodesic(run: RunContext):
    tables = build_structure_tables(4)
    b = get_basis(4)
    rng = np.random.default_rng(run.seed + 5)
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
    return (
        max(drift, transport) <= 1e-10,
        f"max |geodesic + P(u.grad)u| = {drift:.2e}, "
        f"max |Gamma(w, u) - P(w.grad)u| = {transport:.2e}",
        "each <= 1e-10 entrywise at n=4: 12 random interior fields; "
        "the 50 qwiener:2 transport fields",
    )


# ---------------------------------------------------------------------------
# A6: martingale functionals
# ---------------------------------------------------------------------------


def _a6_martingale(run: RunContext):
    diag = run.a2_ensemble
    wl = 0.0
    for name in ("v1", "v2", "v3"):
        L = diag.observers[name].L
        dl = L[:, -1] - L[:, 0]
        for part in (dl.real, dl.imag):
            mean, se = mean_se(part)
            wl = max(wl, abs(mean) / max(3 * se, 1e-300))

    # one-mode reference configuration for the second-moment identity
    cfg = run.config(
        n=1,
        scheme="ito-em",
        paths=max(run.scale.paths, 64),
        initial=((BasisMode("c", (1, 0)), 1.0),),
    )
    v = SpectralField.from_modes(cfg.basis, [(BasisMode("s", (1, 0)), 1.0)])
    rep = qv_check(run_ensemble(cfg, observers=[MartingaleProbe(v, "ref")]), "ref")
    wm = abs(rep.mean_m[-1]) / max(3 * rep.se_m[-1], 1e-300)
    wg = abs(rep.gap[-1]) / (3 * rep.se_gap[-1] + 2 * cfg.dt)
    return (
        wl <= 1.0 and wm <= 1.0 and wg <= 1.0,
        f"|mean dL|/3SE = {wl:.2f}, |mean M|/3SE = {wm:.2f}, |gap|/allow = {wg:.2f}",
        "L and M means within 3 SE; QV gap within 3 SE + 2 dt",
    )


# ---------------------------------------------------------------------------
# A7: Ito / Stratonovich consistency
# ---------------------------------------------------------------------------


def _a7_ito_strat(run: RunContext):
    cfg = run.config(n=2, initial="mode:1,0")
    em = energy_report(run_ensemble(replace(cfg, scheme="ito-em")))
    heun = energy_report(run_ensemble(replace(cfg, scheme="strat-heun")))
    diff = abs(float(em.mean_l2[-1] - heun.mean_l2[-1]))
    allow = 3 * float(np.hypot(em.se_l2[-1], heun.se_l2[-1])) + 5 * cfg.dt
    return (
        diff <= allow,
        f"|mean L2(T) gap| = {diff:.2e}",
        f"<= 3 combined SE + 5 dt = {allow:.2e}",
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


def _a9_constants(run: RunContext):
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
    lad_p = _lattice_ladder(2 * beta - 2, True, 4096 if run.quick else 32768)
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
    stable = (d_cw < 1e-8) and (run.quick or d_cwp < 1e-8)
    return (
        classical <= 1e-14 and sym_ok and in_bracket and stable and width < 1e-8,
        f"classical values rel {classical:.1e}, doubling deltas {d_cw:.1e} / {d_cwp:.1e}, "
        f"interval width {width:.1e}",
        "classical values to 1e-14; symmetry to 1e-14 at rungs <= 2048; closed forms "
        "in every bracket; deltas and widths < 1e-8",
    )


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """One row of the battery; ``check`` returns ``(passed, measured, bound)``."""

    key: str
    name: str
    suite: str
    check: Callable[[RunContext], tuple[bool, str, str]]


#: every criterion, in the order ``run_suite`` runs and prints them
CRITERIA = (
    Criterion("a1a", "A1a midpoint L2", "energy", _a1a_midpoint),
    Criterion("a1b", "A1b Heun order", "energy", _a1b_heun_order),
    Criterion("a2", "A2 enstrophy mean", "energy", _a2_h1_flat),
    Criterion("a3", "A3 Gronwall envelope", "energy", _a3_gronwall),
    Criterion("a4", "A4 nonlinear oracle", "oracle", _a4_oracle),
    Criterion("a5", "A5 geodesic drift", "geometry", _a5_geodesic),
    Criterion("a6", "A6 martingale probes", "martingale", _a6_martingale),
    Criterion("a7", "A7 Ito vs Strat", "consistency", _a7_ito_strat),
    Criterion("a8", "A8 structural ids", "oracle", _a8_structural),
    Criterion("a9", "A9 noise constants", "noise", _a9_constants),
)

#: suite name -> the keys of its criteria
SUITES = {
    suite: tuple(c.key for c in CRITERIA if c.suite == suite)
    for suite in dict.fromkeys(c.suite for c in CRITERIA)
}


#: a criterion that reads another's state runs in that one's job when both
#: are picked: A6 reads A2's ensemble, and A4 the cached n=8 coupling tensor
#: that A5's structure tables build, so no job of the caller builds a tensor
JOINS = {"a6": "a2", "a4": "a5"}

#: every key, in the order in which lanes take up the jobs they lead: lane i
#: starts with job i, and the lanes claim the rest in order.  The caller is
#: lane 0 and starts with A2 and A6, whose ensemble and probe series are the
#: battery's largest working set at full scale and the second largest in
#: quick mode; lane 1 starts with A5 and A4, whose structure tables and
#: coupling tensors are the largest in quick mode.  So the caller's peak
#: memory does not depend on which jobs it claims later.  The rest go
#: longest first at full scale, so that no long job starts last.
CLAIM_ORDER = ("a2", "a6", "a5", "a1a", "a1b", "a3", "a9", "a7", "a4", "a8")


def run_suite(
    suite: str = "all", quick: bool = False, seed: int = 0
) -> list[CriterionResult]:
    """Run everything, one suite or one criterion by key; the results in table order.

    The picked criteria run in jobs, one criterion each except that a
    criterion joins the job of the one it reads (:data:`JOINS`).  Each job
    has its own :class:`RunContext`, and nothing of it outlives the job.
    The jobs run in lanes (:func:`_run_in_lanes`) on the CPUs of
    ``workers.plan(jobs)``, or in this process when that is one CPU.  Each
    check computes the same either way; only the lane in
    ``CriterionResult.process`` and the timings differ.
    """
    picked = [c for c in CRITERIA if suite in ("all", c.suite, c.key)]
    if not picked:
        choices = ("all",) + tuple(SUITES) + tuple(c.key for c in CRITERIA)
        raise ValueError(f"unknown suite {suite!r}; choose from {choices}")
    keys = {c.key for c in picked}
    jobs: dict[str, list[Criterion]] = {}
    for c in picked:
        lead = JOINS.get(c.key)
        jobs.setdefault(lead if lead in keys else c.key, []).append(c)
    cpus = workers.plan(len(jobs))
    if len(cpus) < 2:
        results = [r for job in jobs.values() for r in _run_job(job, quick, seed, 0)]
    else:
        claimed = sorted(jobs, key=CLAIM_ORDER.index)
        results = _run_in_lanes([jobs[k] for k in claimed], quick, seed, cpus)
    order = [c.name for c in CRITERIA]
    return sorted(results, key=lambda r: order.index(r.name))


def _run_job(job: list[Criterion], quick: bool, seed: int, process: int) -> list[CriterionResult]:
    run = RunContext(quick, seed)
    out = []
    for c in job:
        t0 = time.perf_counter()
        passed, measured, bound = c.check(run)
        seconds = time.perf_counter() - t0
        out.append(CriterionResult(c.name, passed, measured, bound, seconds, process))
    return out


def _run_in_lanes(
    jobs: list[list[Criterion]], quick: bool, seed: int, cpus: list[int]
) -> list[CriterionResult]:
    """Run ``jobs`` in one lane per CPU of ``cpus``; their results, in no set order.

    The caller is lane 0 and forks the others, each pinned to its CPU, and
    pins itself to the first, so the ensembles of every check step serially.
    Lane i owns job i and the caller also the rest, which the lanes claim in
    order once through their own.  The caller reads its lanes' results
    between its jobs and once it has run out, and gets back its own CPU
    affinity on the way out.
    """

    def where(job: int | None) -> str:
        return "" if job is None else f" while running {', '.join(c.key for c in jobs[job])}"

    def run(lane: int, job: int) -> list[CriterionResult]:
        return _run_job(jobs[job], quick, seed, lane)

    affinity = os.sched_getaffinity(0)
    lanes = workers.Workers(run, len(cpus), "criterion lane", where, cpus)
    try:
        lanes.put([[0, *range(len(cpus), len(jobs))]] + [[i] for i in range(1, len(cpus))])
        os.sched_setaffinity(0, {cpus[0]})
        done: dict[int, list[CriterionResult]] = {}
        while (job := lanes.claim()) is not None:
            done[job] = run(0, job)
            done.update(lanes.receive(0) or ())
        while lanes.pending:
            done.update(lanes.receive())
        return [r for results in done.values() for r in results]
    finally:
        lanes.close()
        os.sched_setaffinity(0, affinity)
