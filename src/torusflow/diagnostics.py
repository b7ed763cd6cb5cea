"""Statistical probes of the exact identities: energy ledgers, the complex
exponential functionals, and the quadratic-variation bookkeeping.

For a divergence-free test function ``v`` the generator functional is

    phi_v(u) = i < -(1/2) A u - B(u), v >_0  -  (1/2) sum_l < d_l u, v >_0^2,

with the quadratic term written for the two-component constant-advector
noise; the probes therefore target the space-independent regime.  Along a
path, ``L_t = exp{i <u(t), v>} - int_0^t exp{i <u(s), v>} phi_v(u(s)) ds``
and ``M_t = <u(t), v> - <u(0), v> + int_0^t <(1/2) A u + B(u), v> ds`` are
(local) martingales of the weak formulation, and ``M_t^2`` compensates
against ``int_0^t sum_l <d_l u, v>^2 ds``.  All pairings reduce to exact
coefficient contractions: ``<B(u), v> = -<(u . grad) v, u>`` is a sparse
quadratic form and ``<d_l u, v> = -<u, d_l v>``, so observing every step
costs no transforms.  A probe records only the three pairings per path and
step, ``<u, v>``, the drift pairing and the QV density; ``L``, ``M`` and the
QV ledger are integrated by the trapezoid rule when they are read.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .basis import SpectralField, Workspace, gradient, path_chunks
from .dynamics import middle_slice
from .integrate import EnsembleDiagnostics, _saved_indices, mean_se
from .noise import (
    ConfigurationError,
    NoiseModel,
    normalizer_cw,
    normalizer_cw_prime,
)

ENSEMBLE_CSV_COLUMNS = (
    "t",
    "mean_L2",
    "se_L2",
    "mean_H1",
    "se_H1",
    "envelope_H1",
    "mean_M",
    "se_M",
    "qv_gap",
    "se_qv",
)


#: the arrays of the probes' quadratic form, one set for every probe (the
#: observers of a run take their turns), sized for one chunk of
#: ``CHUNK_PATHS`` paths: ~0.45 MB at n=8 however many paths the batch has
_QUADRATIC_FORM = Workspace()


def _running_trapezoid(times: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``int_0^t f ds`` at every step time, by the trapezoid rule along the
    last axis; ``np.cumsum`` adds the steps in order, as a running sum would."""
    out = np.zeros_like(f)
    np.cumsum(0.5 * np.diff(times) * (f[..., :-1] + f[..., 1:]), axis=-1, out=out[..., 1:])
    return out


@dataclass
class ProbeSeries:
    """Per-path series a martingale probe recorded along an ensemble; the
    functionals are integrated when they are read, so read each once."""

    name: str
    times: np.ndarray       # (S,)
    uv: np.ndarray          # (P, S)   <u(t), v>
    drift: np.ndarray       # (P, S)   < -(1/2) A u - B(u), v >
    qv_density: np.ndarray  # (P, S)   sum_l <d_l u, v>^2

    @property
    def phi(self) -> np.ndarray:
        """(P, S) complex ``phi_v(u(t))``."""
        return 1j * self.drift - 0.5 * self.qv_density

    @property
    def L(self) -> np.ndarray:
        """(P, S) complex ``L_t``."""
        e = np.exp(1j * self.uv)
        return e - _running_trapezoid(self.times, e * self.phi)

    @property
    def mart(self) -> np.ndarray:
        """(P, S) ``M_t``."""
        return self.uv - self.uv[:, :1] - _running_trapezoid(self.times, self.drift)

    @property
    def qv(self) -> np.ndarray:
        """(P, S) ``int_0^t sum_l <d_l u, v>^2 ds``."""
        return _running_trapezoid(self.times, self.qv_density)


class MartingaleProbe:
    """Step observer recording the three pairings of one test function ``v``.

    Attach to :func:`torusflow.integrate.run_ensemble`; the result is a
    :class:`ProbeSeries` at full step resolution.
    """

    def __init__(self, v: SpectralField, name: str = "probe"):
        self.name = name
        b = v.basis
        d1v, d2v = gradient(v)
        # one column per linear pairing: <u, v>_0, <u, A v>_0 and
        # <d_l u, v>_0 = -<u, d_l v>_0
        self.w = np.stack(
            [
                b.norm_sq * v.coeffs,
                b.norm_sq * b.ksq * v.coeffs,
                -b.norm_sq * d1v.coeffs,
                -b.norm_sq * d2v.coeffs,
            ],
            axis=-1,
        ).reshape(2 * b.n_modes, 4)
        # <(u.grad)v, u>_0 = sum_ij Q_ij u_i u_j with each (i, j)/(j, i) pair
        # merged onto i <= j; pairs that cancel exactly are dropped
        q_i, q_j, q_v = middle_slice(b, v)
        size = 2 * b.n_modes
        pair = np.minimum(q_i, q_j).astype(np.int64) * size + np.maximum(q_i, q_j)
        keys, inv = np.unique(pair, return_inverse=True)
        vals = np.bincount(inv, weights=q_v, minlength=len(keys))
        keep = vals != 0.0
        self.q_i, self.q_j = np.divmod(keys[keep], size)
        self.q_v = vals[keep]

    def pairings(self, u: np.ndarray):
        """Return ``(uv, drift, qv_density)`` for batched coefficients.

        ``drift = < -(1/2) A u - B(u), v >`` and ``qv_density`` is the
        summed square of the transport pairings.
        """
        flat = u.reshape(u.shape[:-2] + (-1,))
        pairs = flat @ self.w
        # the quadratic form runs over chunks of CHUNK_PATHS paths, gathering
        # rows of a transposed copy of each into arrays kept for the next
        # chunk; the product is the transpose of the F-ordered one that
        # flat[..., q_i] * flat[..., q_j] makes, so the gemv with q_v rounds
        # each path as it did on that
        rows = flat.reshape(-1, flat.shape[-1])
        b_quad = np.empty(len(rows))
        for chunk in path_chunks(len(rows)):
            cols = _QUADRATIC_FORM.take("cols", rows[chunk].shape[::-1])
            cols[...] = rows[chunk].T
            shape = (len(self.q_v), cols.shape[1])
            left, right = (_QUADRATIC_FORM.take(name, shape) for name in ("left", "right"))
            np.take(cols, self.q_i, axis=0, out=left, mode="clip")
            np.take(cols, self.q_j, axis=0, out=right, mode="clip")
            b_quad[chunk] = np.multiply(left, right, out=left).T @ self.q_v
        b_quad = b_quad.reshape(flat.shape[:-1])
        t1, t2 = pairs[..., 2], pairs[..., 3]
        # a probe keeps uv for every step: a copy, not a view that would keep
        # all four columns alive
        return pairs[..., 0].copy(), -0.5 * pairs[..., 1] + b_quad, t1 * t1 + t2 * t2

    def start(self, t: float, u: np.ndarray) -> None:
        self._t, self._series = [], None
        #: each series' step records, one list each, so that ``result`` can
        #: stack one series and drop its records before the next
        self._records = ([], [], [])
        self.after_step(t, u)

    def after_step(self, t: float, u: np.ndarray) -> None:
        self._t.append(t)
        for record, value in zip(self._records, self.pairings(u)):
            record.append(value)

    def result(self) -> ProbeSeries:
        """The series, stacked once: each series is stacked while the others
        are still records, and its records are dropped at once, so the
        probe holds about 4/3 of its records at the peak, not twice them."""
        if self._series is None:
            stacked = []
            for record in self._records:
                stacked.append(np.stack(record, axis=1))
                record.clear()
            self._series = ProbeSeries(self.name, np.array(self._t), *stacked)
        return self._series


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def gronwall_rate(noise: NoiseModel) -> float:
    """Exponential growth rate of the enstrophy envelope for this noise.

    The spatially constant regimes grow at rate zero (the expected enstrophy
    is conserved); the space-dependent noise grows at most like the ratio of
    the two lattice constants.
    """
    if noise.is_constant_advection:
        return 0.0
    return normalizer_cw_prime(noise.beta) / normalizer_cw(noise.beta)


@dataclass
class QvReport:
    """Martingale mean and second-moment/QV comparison for one probe."""

    times: np.ndarray
    mean_m: np.ndarray
    se_m: np.ndarray
    gap: np.ndarray        # mean of M^2 - int QV ds
    se_gap: np.ndarray
    n_paths: int


def _probe_series(diag: EnsembleDiagnostics, probe: str | ProbeSeries) -> ProbeSeries:
    """The named probe of an ensemble, or ``probe`` itself; refuses field noise,
    under which the probe's constant-noise generator (module docstring) is wrong."""
    noise = diag.config.noise
    if not noise.is_constant_advection:
        raise ConfigurationError(
            f"the martingale probe assumes constant noise, not the {noise.regime!r} regime"
        )
    return diag.observers[probe] if isinstance(probe, str) else probe


def qv_check(diag: EnsembleDiagnostics, probe: str | ProbeSeries) -> QvReport:
    """Compare the martingale estimate and its quadratic-variation ledger."""
    series = _probe_series(diag, probe)
    return _qv_report(series, series.mart)


def _qv_report(series: ProbeSeries, mart: np.ndarray) -> QvReport:
    """:func:`qv_check` on the series' ``M_t``, integrated once by the caller."""
    p = series.uv.shape[0]
    if p < 64:
        raise ConfigurationError(f"qv_check needs >= 64 paths (got {p})")
    mean_m, se_m = mean_se(mart)
    gap, se_gap = mean_se(mart**2 - series.qv)
    return QvReport(series.times, mean_m, se_m, gap, se_gap, p)


@dataclass
class EnergyReport:
    """Energy ledger: per-time norms, drifts and the enstrophy envelope."""

    times: np.ndarray
    mean_l2: np.ndarray
    se_l2: np.ndarray
    mean_h1: np.ndarray
    se_h1: np.ndarray
    envelope_h1: np.ndarray
    max_rel_l2_drift: float
    n_paths: int


def energy_report(source: EnsembleDiagnostics) -> EnergyReport:
    """Summarize L2/H1 series against the initial values and the envelope."""
    times, l2, h1 = source.times, source.l2_sq, source.h1_sq
    mean_l2, se_l2 = mean_se(l2)
    mean_h1, se_h1 = mean_se(h1)
    # from mean_h1[0] itself: the column mean and h1[:, 0].mean() sum in
    # different orders, and the envelope must start at the reported mean
    env = mean_h1[0] * np.exp(gronwall_rate(source.config.noise) * times)
    ref = l2[:, :1]
    scale = np.where(ref > 0, ref, 1.0)
    drift = float(np.abs((l2 - ref) / scale).max()) if l2.size else 0.0
    return EnergyReport(times, mean_l2, se_l2, mean_h1, se_h1, env, drift, l2.shape[0])


@contextmanager
def csv_writer(out):
    """A ``csv.writer`` on ``out``: a path, opened and closed here, or an open text stream."""
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w", newline="") as fh:
            yield csv.writer(fh)
    else:
        yield csv.writer(out)


def write_ensemble_csv(
    diag: EnsembleDiagnostics, out, probe: str | ProbeSeries | None = None
) -> None:
    """Write the per-time diagnostics table with the canonical column set.

    Rows follow the configured save decimation.  The probe columns come from
    the named martingale probe; without one they are written as ``nan``.
    """
    report = energy_report(diag)
    series = None if probe is None else _probe_series(diag, probe)
    # M_t is a fresh (P, S) integral on each read: read it once for the
    # QV columns and the rows alike
    mart = None if series is None else series.mart
    qv = _qv_report(series, mart) if mart is not None and diag.n_paths >= 64 else None

    keep = _saved_indices(len(diag.times) - 1, diag.config.save_every)
    with csv_writer(out) as w:
        w.writerow(ENSEMBLE_CSV_COLUMNS)
        for i in keep:
            if mart is not None:
                # per column: a reduction over the whole table sums in another order
                mean_m, se_m = mean_se(mart[:, i])
            else:
                mean_m, se_m = np.nan, np.nan
            if qv is not None:
                gap, se_gap = qv.gap[i], qv.se_gap[i]
            else:
                gap, se_gap = np.nan, np.nan
            w.writerow(
                [
                    f"{diag.times[i]:.10g}",
                    f"{report.mean_l2[i]:.17g}",
                    f"{report.se_l2[i]:.17g}",
                    f"{report.mean_h1[i]:.17g}",
                    f"{report.se_h1[i]:.17g}",
                    f"{report.envelope_h1[i]:.17g}",
                    f"{mean_m:.17g}",
                    f"{se_m:.17g}",
                    f"{gap:.17g}",
                    f"{se_gap:.17g}",
                ]
            )


def write_path_csv(run: EnsembleDiagnostics, out) -> None:
    """Per-step scalar ledger of the first path of a run."""
    l2, h1 = run.l2_sq[0], run.h1_sq[0]
    with csv_writer(out) as w:
        w.writerow(["t", "l2_sq", "h1_sq", "rel_l2_drift"])
        ref = l2[0] if l2[0] > 0 else 1.0
        for i, t in enumerate(run.times):
            w.writerow(
                [
                    f"{t:.10g}",
                    f"{l2[i]:.17g}",
                    f"{h1[i]:.17g}",
                    f"{(l2[i] - l2[0]) / ref:.17g}",
                ]
            )


def write_state_csv(state: SpectralField, out) -> None:
    """Dump a spectral state as ``(kind, k1, k2, coeff)`` rows."""
    with csv_writer(out) as w:
        w.writerow(["kind", "k1", "k2", "coeff"])
        b = state.basis
        for row, kind in ((0, "c"), (1, "s")):
            for i, (k1, k2) in enumerate(b.modes):
                w.writerow([kind, int(k1), int(k2), f"{state.coeffs[row, i]:.17g}"])
