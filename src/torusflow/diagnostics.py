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
costs no transforms.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .basis import SpectralField, gradient
from .dynamics import middle_slice
from .integrate import EnsembleDiagnostics, PathResult, _saved_indices, mean_se
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


class _ProbeContractions:
    """Precomputed contraction tables for one test function."""

    def __init__(self, v: SpectralField):
        self.v = v
        b = v.basis
        self.w_l2 = b.norm_sq * v.coeffs                      # <u, v>_0
        self.w_a = b.norm_sq * b.ksq * v.coeffs               # <u, A v>_0
        d1v, d2v = gradient(v)
        self.w_d1 = b.norm_sq * d1v.coeffs                    # <u, d1 v>_0
        self.w_d2 = b.norm_sq * d2v.coeffs
        self.q_i, self.q_j, self.q_v = middle_slice(b, v)     # <(u.grad)v, u>_0

    def pairings(self, u: np.ndarray):
        """Return ``(uv, drift_pair, qv_density)`` for batched coefficients.

        ``drift_pair = < -(1/2) A u - B(u), v >`` and ``qv_density`` is the
        summed square of the transport pairings.
        """
        uv = np.einsum("...cn,cn->...", u, self.w_l2)
        a_pair = np.einsum("...cn,cn->...", u, self.w_a)
        flat = u.reshape(u.shape[:-2] + (-1,))
        b_quad = (flat[..., self.q_i] * flat[..., self.q_j]) @ self.q_v
        drift_pair = -0.5 * a_pair + b_quad
        t1 = -np.einsum("...cn,cn->...", u, self.w_d1)
        t2 = -np.einsum("...cn,cn->...", u, self.w_d2)
        return uv, drift_pair, t1 * t1 + t2 * t2


@dataclass
class ProbeSeries:
    """Per-path series a martingale probe accumulated along an ensemble."""

    name: str
    v: SpectralField
    times: np.ndarray      # (S,)
    uv: np.ndarray         # (P, S)   <u(t), v>
    phi: np.ndarray        # (P, S)   complex phi_v(u(t))
    L: np.ndarray          # (P, S)   complex L_t
    mart: np.ndarray       # (P, S)   M_t
    qv: np.ndarray         # (P, S)   int_0^t sum_l <d_l u, v>^2 ds


class MartingaleProbe:
    """Step observer accumulating the functionals by running trapezoids.

    Attach to :func:`torusflow.integrate.run_ensemble`; the result is a
    :class:`ProbeSeries` at full step resolution.
    """

    def __init__(self, v: SpectralField, name: str = "probe"):
        self.name = name
        self._pc = _ProbeContractions(v)
        self._v = v

    def start(self, t: float, u: np.ndarray) -> None:
        p = u.shape[0]
        uv, drift, qv = self._pc.pairings(u)
        phi = 1j * drift - 0.5 * qv
        self._t = [t]
        self._uv = [uv]
        self._phi = [phi]
        self._int_L = np.zeros(p, dtype=np.complex128)
        self._int_drift = np.zeros(p)
        self._int_qv = np.zeros(p)
        self._L = [np.exp(1j * uv) - self._int_L.copy()]
        self._mart = [np.zeros(p)]
        self._qv = [np.zeros(p)]
        self._prev = (uv, phi, drift, qv, t)

    def after_step(self, t: float, u: np.ndarray) -> None:
        uv, drift, qv = self._pc.pairings(u)
        phi = 1j * drift - 0.5 * qv
        uv0, phi0, drift0, qv0, t0 = self._prev
        dt = t - t0
        self._int_L += 0.5 * dt * (np.exp(1j * uv0) * phi0 + np.exp(1j * uv) * phi)
        self._int_drift += 0.5 * dt * (-(drift0 + drift))
        self._int_qv += 0.5 * dt * (qv0 + qv)
        self._t.append(t)
        self._uv.append(uv)
        self._phi.append(phi)
        self._L.append(np.exp(1j * uv) - self._int_L.copy())
        self._mart.append(uv - self._uv[0] + self._int_drift)
        self._qv.append(self._int_qv.copy())
        self._prev = (uv, phi, drift, qv, t)

    def result(self) -> ProbeSeries:
        return ProbeSeries(
            name=self.name,
            v=self._v,
            times=np.array(self._t),
            uv=np.stack(self._uv, axis=1),
            phi=np.stack(self._phi, axis=1),
            L=np.stack(self._L, axis=1),
            mart=np.stack(self._mart, axis=1),
            qv=np.stack(self._qv, axis=1),
        )


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


def qv_check(diag: EnsembleDiagnostics, probe: str | ProbeSeries) -> QvReport:
    """Compare the martingale estimate and its quadratic-variation ledger."""
    series = diag.observers[probe] if isinstance(probe, str) else probe
    p = series.mart.shape[0]
    if p < 64:
        raise ConfigurationError(f"qv_check needs >= 64 paths (got {p})")
    mean_m, se_m = mean_se(series.mart)
    gap, se_gap = mean_se(series.mart**2 - series.qv)
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


def energy_report(source: PathResult | EnsembleDiagnostics) -> EnergyReport:
    """Summarize L2/H1 series against the initial values and the envelope."""
    if isinstance(source, PathResult):
        times = source.step_times
        l2 = source.l2_sq[None, :]
        h1 = source.h1_sq[None, :]
    else:
        times = source.times
        l2 = source.l2_sq
        h1 = source.h1_sq
    rate = gronwall_rate(source.config.noise)
    env = h1[:, 0].mean() * np.exp(rate * times)
    mean_l2, se_l2 = mean_se(l2)
    mean_h1, se_h1 = mean_se(h1)
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
    series = None
    if probe is not None:
        series = diag.observers[probe] if isinstance(probe, str) else probe
    qv = qv_check(diag, series) if series is not None and diag.n_paths >= 64 else None

    keep = _saved_indices(len(diag.times) - 1, diag.config.save_every)
    with csv_writer(out) as w:
        w.writerow(ENSEMBLE_CSV_COLUMNS)
        for i in keep:
            if series is not None:
                # per column: a reduction over the whole table sums in another order
                mean_m, se_m = mean_se(series.mart[:, i])
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


def write_path_csv(path: PathResult, out) -> None:
    """Per-step scalar ledger of a single path."""
    with csv_writer(out) as w:
        w.writerow(["t", "l2_sq", "h1_sq", "rel_l2_drift"])
        ref = path.l2_sq[0] if path.l2_sq[0] > 0 else 1.0
        for i, t in enumerate(path.step_times):
            w.writerow(
                [
                    f"{t:.10g}",
                    f"{path.l2_sq[i]:.17g}",
                    f"{path.h1_sq[i]:.17g}",
                    f"{(path.l2_sq[i] - path.l2_sq[0]) / ref:.17g}",
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
