"""The three benchmark workloads: inputs from the seed, one timed unit of work,
the correctness gate and the result fingerprint.

The ensembles use n=8, dt=1e-3, ``initial="random:3"``, space-independent
noise and the benchmark seed as ``SimConfig.seed``; ``verify`` runs at its
default seed (see ``VERIFY_SEED``).  One unit is one ensemble plus its
post-processing, or one ``verify --quick`` suite.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import os
import signal
import tempfile
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
import scipy.fft as _fft

N = 8
DT = 1e-3
INITIAL = "random:3"
#: the A1a bound on pathwise relative L2 drift of the midpoint scheme
DRIFT_BOUND = 1e-8
#: seconds between speed-probe samples; the host's speed can change within
#: 0.2 s, too fast for ticks that far apart to follow (em-probes p95 step
#: latency spread 0.15 over ten seeds, against 0.03 at 0.05 s)
TICK_S = 0.05
#: the seed of the verify-quick suite: ``torusflow verify``'s default.  The
#: suite's statistical criteria (A1b, A2, A3, A6, A7) are 3-SE tests that the
#: program specifies at a fixed seed; at other seeds they fail now and then by
#: chance (A2 quick reads 4.1 SE at seed 1805469305), so the benchmark seed
#: does not reach them.
VERIFY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scheme: str = ""
    paths: int = 0
    steps: int = 0
    probes: bool = False
    suite: str = ""               # acceptance suite, run once per cold process
    tail_pct: float = 90.0        # fixed tail percentile of the op latency

    @property
    def is_suite(self) -> bool:
        return bool(self.suite)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "midpoint-const",
            "A1a / `torusflow run` default: ~4 Picard passes per step over 256 paths; "
            "transforms dominate, so basis.halfspectrum_to_grid moves it most (open item 2)",
            scheme="strat-midpoint",
            paths=256,
            steps=20,
        ),
        Workload(
            "em-probes",
            "ito-em, 256 paths, three martingale probes, reports and CSV: one transform pass per "
            "step, observers and post-processing matter (open item 5)",
            scheme="ito-em",
            paths=256,
            steps=100,
            probes=True,
            tail_pct=95.0,
        ),
        Workload(
            "verify-quick",
            "`torusflow verify --quick` at its default seed, each suite in a cold process: the only "
            "workload reaching geometry, the dynamics oracle path and acceptance",
            suite="all",
            tail_pct=100.0,
        ),
    )
}


def shortened(w: Workload) -> Workload:
    """One short step of the workload, for the harness smoke test."""
    if w.is_suite:
        return replace(w, suite="a5")
    return replace(w, steps=1, paths=min(w.paths, 64) if w.probes else 4)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Context:
    workload: Workload
    seed: int
    scratch: str
    config: object = None
    probes: list = field(default_factory=list)
    shapes: dict = field(default_factory=dict)


def setup(w: Workload, seed: int, scratch: str) -> Context:
    """Everything before the first timed unit.

    For an ensemble: the noise model, a validated ``SimConfig``, the initial
    field, the probes, and one warm-up step through the public ``step`` that
    fills the grid-map and FFT plan caches.  ``verify`` users pay its lazy
    set-up on every run, so the suite gets no warm-up.
    """
    ctx = Context(w, seed, scratch)
    if w.is_suite:
        import torusflow.acceptance  # noqa: F401

        return ctx

    from torusflow import BasisMode, MartingaleProbe, SpectralField, WienerIncrement
    from torusflow import integrate
    from torusflow.dynamics import dealias_resolution
    from torusflow.noise import NoiseModel

    noise = NoiseModel.space_independent()
    ctx.config = integrate.SimConfig(
        n=N,
        dt=DT,
        t_final=w.steps * DT,
        scheme=w.scheme,
        noise=noise,
        paths=w.paths,
        seed=seed,
        initial=INITIAL,
    ).validate()
    u0 = ctx.config.initial_field()
    if w.probes:
        b = u0.basis
        ctx.probes = [
            MartingaleProbe(SpectralField.from_modes(b, [(BasisMode(kind, k), 1.0)]), name)
            for kind, k, name in (("c", (1, 0), "v1"), ("s", (0, 1), "v2"), ("c", (1, 1), "v3"))
        ]
    dw = WienerIncrement(DT, np.zeros((noise.n_components, 2)))
    integrate.step(w.scheme, u0, dw, noise)

    m = dealias_resolution(N, max(noise.field_basis.n, N), N)
    mh = m // 2 + 1
    p = w.paths
    ctx.shapes = {
        "m": m,
        "modes": u0.basis.n_modes,
        # the three placed spectra (u, d1 u, d2 u) of one pass over the full batch
        "spectrum_stack_bytes": 3 * p * 2 * m * mh * 16,
        # inverse transform in + out, forward transform in + out, for that pass
        "pass_transform_bytes": 3 * p * 2 * m * mh * 16
        + 3 * p * 2 * m * m * 8
        + p * 2 * m * m * 8
        + p * 2 * m * mh * 16,
        "bytes_note": "computed from array shapes",
    }
    return ctx


# ---------------------------------------------------------------------------
# one timed unit
# ---------------------------------------------------------------------------


class SpeedProbe:
    """A fixed numpy/scipy kernel, independent of torusflow, timed beside the workload.

    The host's speed can drift by 1.7x over seconds to minutes, slowing every
    kind of work alike; a span's time divided by this kernel's time, taken at
    the same moment, does not drift with it.  The kernel is pinned to one
    worker and the default scipy.fft backend, so no ``set_workers`` or
    ``set_backend`` context in the measured program changes its speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (3, 16, 2, 25, 13)
        self._spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def time_once(self) -> float:
        with _fft.set_backend("scipy", only=True):
            start = perf_counter()
            g = _fft.irfft2(self._spec, s=(25, 25), axes=(-2, -1), workers=1)
            _fft.rfft2(g[0] * g[1] + g[2] * g[0], axes=(-2, -1), workers=1)
            return perf_counter() - start


class SpeedClock:
    """Times spans of the main thread with the host's speed sampled beside them.

    Every ``TICK_S`` seconds a timer signal runs the probe kernel in the
    main thread, between bytecodes (no thread is started).  The ticks cut the
    run into segments, each measured against the probe time taken at its
    end; the probe's own time belongs to no segment.  Without a probe (the
    traced run) it only keeps time.
    """

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe

    def __enter__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._kernel: list[float] = []
        self._resume = perf_counter()
        if self.probe is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum=None, frame=None):
        done = perf_counter()
        self._kernel.append(self.probe.time_once())
        self._starts.append(self._resume)
        self._ends.append(done)
        self._resume = perf_counter()

    def __exit__(self, *exc):
        if self.probe is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._tick()
        return False

    def span(self, a: float, b: float) -> tuple[float, float]:
        """Seconds in ``[a, b]`` outside the probe, and the same in probe-kernel units."""
        if self.probe is None:
            return b - a, 0.0
        seconds = units = 0.0
        i = bisect.bisect_right(self._ends, a)
        while i < len(self._ends) and self._starts[i] < b:
            piece = min(b, self._ends[i]) - max(a, self._starts[i])
            if piece > 0:
                seconds += piece
                units += piece / self._kernel[i]
            i += 1
        return seconds, units


class StepClock:
    """Step observer that timestamps the start and every completed step."""

    name = "step_clock"

    def start(self, t, u):
        self.stamps = [perf_counter()]

    def after_step(self, t, u):
        self.stamps.append(perf_counter())


@dataclass
class UnitResult:
    wall_s: float                 # the whole unit, post-processing and CSV included
    wall_units: float             # the same in probe-kernel units
    ops: int                      # path-steps, or criteria
    attempted: int
    failed: int
    op_s: list                    # each batched step's latency, or the suite's
    op_units: list                # the same in probe-kernel units
    fingerprint: str
    finals: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def run_unit(ctx: Context, speed: SpeedProbe | None) -> UnitResult:
    """One unit; ``speed=None`` (the traced run) takes no latencies or probe times."""
    if ctx.workload.is_suite:
        return _run_suite(ctx, speed)
    return _run_ensemble(ctx, speed)


def _run_suite(ctx: Context, speed: SpeedProbe | None) -> UnitResult:
    from torusflow import acceptance

    with SpeedClock(speed) as clock:
        t0 = perf_counter()
        results = acceptance.run_suite(ctx.workload.suite, quick=True, seed=VERIFY_SEED)
        t1 = perf_counter()
    wall, units = clock.span(t0, t1)
    failed = sum(not r.passed for r in results)
    text = "\n".join(f"{r.name}|{bool(r.passed)}|{r.measured}" for r in results)
    return UnitResult(
        wall_s=wall,
        wall_units=units,
        ops=len(results),
        attempted=len(results),
        failed=failed,
        op_s=[wall] if speed else [],
        op_units=[units] if speed else [],
        fingerprint=hashlib.sha256(text.encode()).hexdigest()[:16],
        detail={
            "criteria": {
                r.name.split()[0].lower(): {
                    "passed": bool(r.passed),
                    "s": r.seconds,
                    "measured": r.measured,
                }
                for r in results
            }
        },
    )


def _expected_rows(steps: int, save_every: int) -> int:
    return len(range(0, steps + 1, save_every)) + (1 if steps % save_every else 0)


def _run_ensemble(ctx: Context, speed: SpeedProbe | None) -> UnitResult:
    from torusflow import diagnostics, integrate

    w = ctx.workload
    cfg = ctx.config
    p, s = cfg.paths, cfg.n_steps
    steps = StepClock() if speed else None
    observers = ([steps] if steps else []) + ctx.probes
    error = None
    reports = {}

    with tempfile.TemporaryDirectory(dir=ctx.scratch) as tmp, SpeedClock(speed) as clock:
        csv_path = os.path.join(tmp, "ensemble.csv")
        t0 = perf_counter()
        try:
            diag = integrate.run_ensemble(cfg, observers=observers)
        except integrate.MidpointConvergenceError as e:
            error = e
        if error is None and w.probes:
            reports["energy"] = diagnostics.energy_report(diag)
            for probe in ctx.probes:
                reports[probe.name] = diagnostics.qv_check(diag, probe.name)
            diagnostics.write_ensemble_csv(diag, csv_path, probe=ctx.probes[0].name)
        t1 = perf_counter()
        csv_check = _check_csv(csv_path, s, cfg.save_every) if error is None and w.probes else {}

    wall, wall_units = clock.span(t0, t1)
    stamps = steps.stamps if steps else []
    op = [clock.span(a, b) for a, b in zip(stamps, stamps[1:])]
    timing = dict(
        wall_s=wall,
        wall_units=wall_units,
        op_s=[x for x, _ in op],
        op_units=[x for _, x in op],
    )
    if error is not None:
        done = error.step_index or 0
        return UnitResult(
            ops=p * done, attempted=p * s, failed=p * (s - done),
            fingerprint="solver-error", detail={"error": str(error)}, **timing,
        )

    failed, detail = _gate(diag, w, reports, csv_check)
    l2_final = np.ascontiguousarray(diag.l2_sq[:, -1])
    h1_final = np.ascontiguousarray(diag.h1_sq[:, -1])
    digest = hashlib.sha256(l2_final.tobytes() + h1_final.tobytes()).hexdigest()[:16]
    return UnitResult(
        ops=p * s,
        attempted=p * s,
        failed=failed,
        fingerprint=digest,
        finals={"l2": l2_final, "h1": h1_final},
        detail=detail,
        **timing,
    )


def _check_csv(path: str, steps: int, save_every: int) -> dict:
    from torusflow.diagnostics import ENSEMBLE_CSV_COLUMNS

    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    want = _expected_rows(steps, save_every)
    return {
        "header_ok": bool(rows) and tuple(rows[0]) == tuple(ENSEMBLE_CSV_COLUMNS),
        "rows": len(rows) - 1,
        "rows_expected": want,
        "bytes": os.path.getsize(path),
    }


def _gate(diag, w: Workload, reports: dict, csv_check: dict) -> tuple[int, dict]:
    """Count failed path-steps; never skipped."""
    l2 = diag.l2_sq
    h1 = diag.h1_sq
    bad = ~(np.isfinite(l2) & np.isfinite(h1))[:, 1:]
    detail = {}
    if w.scheme == "strat-midpoint":
        drift = np.abs(l2[:, 1:] - l2[:, :1]) / l2[:, :1]
        bad |= ~(drift <= DRIFT_BOUND)
        detail["max_rel_l2_drift"] = float(np.nanmax(drift))
    failed = int(bad.sum())
    if w.probes:
        ok = (
            csv_check["header_ok"]
            and csv_check["rows"] == csv_check["rows_expected"]
            and np.isfinite(reports["energy"].max_rel_l2_drift)
            and all(
                np.isfinite(r.mean_m).all() and np.isfinite(r.gap).all()
                for k, r in reports.items()
                if k != "energy"
            )
        )
        detail["csv"] = csv_check
        if not ok:
            failed = l2.shape[0] * (l2.shape[1] - 1)
    return failed, detail


def deviation_from_reference(reference: dict, w: Workload, seed: int, unit: UnitResult) -> dict:
    """Compare a unit's fingerprint and final energies with the stored reference."""
    ref = reference.get(w.name, {}).get(str(VERIFY_SEED if w.is_suite else seed))
    if ref is None or w != WORKLOADS[w.name]:
        return {"reference": None}
    out = {"reference": ref["fingerprint"], "match": ref["fingerprint"] == unit.fingerprint}
    if "l2" in ref and unit.finals:
        dev = 0.0
        for key in ("l2", "h1"):
            r = np.asarray(ref[key])
            dev = max(dev, float(np.max(np.abs(unit.finals[key] - r) / np.abs(r))))
        out["max_rel_dev"] = dev
    return out
