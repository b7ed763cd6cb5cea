"""Independent slow-path oracles used by the test suite.

Everything here is deliberately naive: pointwise mode evaluation with mpmath,
trapezoid quadrature on the periodic grid (exact for trigonometric
polynomials), and mode-by-mode projection.  None of it shares code with the
package's transform path, except the assemblies at the end: the two drifts
and a plain midpoint step, built from the package's public operators, which
only tests use.
"""

import mpmath as mp
import numpy as np

from torusflow.basis import Basis, BasisMode, SpectralField
from torusflow.dynamics import ITO_VISCOSITY, advect, dealias_resolution, nonlinear_pseudospectral

TWO_PI = 2.0 * np.pi


def eval_mode_mp(mode: BasisMode, t1, t2, dps: int = 40):
    """High-precision pointwise evaluation of a basis field."""
    with mp.workdps(dps):
        k1, k2 = mode.k
        if (k1, k2) == (0, 0):
            return (mp.mpf(1), mp.mpf(0)) if mode.kind == "c" else (mp.mpf(0), mp.mpf(1))
        kabs = mp.sqrt(k1 * k1 + k2 * k2)
        phase = k1 * mp.mpf(t1) + k2 * mp.mpf(t2)
        osc = mp.cos(phase) if mode.kind == "c" else mp.sin(phase)
        return (k2 / kabs * osc, -k1 / kabs * osc)


def field_on_grid(f: SpectralField, m: int) -> np.ndarray:
    """Evaluate a spectral field pointwise, mode by mode (no FFT)."""
    t = np.arange(m) * TWO_PI / m
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    out = np.zeros((m, m, 2))
    for i, (k1, k2) in enumerate(f.basis.modes):
        if (k1, k2) == (0, 0):
            out[..., 0] += f.coeffs[0, i]
            out[..., 1] += f.coeffs[1, i]
            continue
        kabs = np.hypot(k1, k2)
        d = np.array([k2 / kabs, -k1 / kabs])
        phase = k1 * T1 + k2 * T2
        out += (f.coeffs[0, i] * np.cos(phase))[..., None] * d
        out += (f.coeffs[1, i] * np.sin(phase))[..., None] * d
    return out


def quad_inner(ga: np.ndarray, gb: np.ndarray) -> float:
    """Torus L2 inner product of two (m, m, 2) grids by the periodic trapezoid rule."""
    m = ga.shape[0]
    return float((TWO_PI / m) ** 2 * np.sum(ga * gb))


def mode_grid(basis: Basis, mode: BasisMode, m: int) -> np.ndarray:
    f = SpectralField.from_modes(basis, [(mode, 1.0)])
    return field_on_grid(f, m)


def project_grid(grid: np.ndarray, basis: Basis) -> SpectralField:
    """Galerkin projection of grid samples by explicit quadrature per mode."""
    m = grid.shape[0]
    out = SpectralField.zero(basis)
    for i, (k1, k2) in enumerate(basis.modes):
        for row, kind in ((0, "c"), (1, "s")):
            mg = mode_grid(basis, BasisMode(kind, (int(k1), int(k2))), m)
            out.coeffs[row, i] = quad_inner(grid, mg) / basis.norm_sq[i]
    return out


def advect_grid(adv: np.ndarray, target_f: SpectralField, m: int) -> np.ndarray:
    """Pointwise (adv . grad) target on the grid, derivatives taken mode-wise."""
    t = np.arange(m) * TWO_PI / m
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    d1 = np.zeros((m, m, 2))
    d2 = np.zeros((m, m, 2))
    f = target_f
    for i, (k1, k2) in enumerate(f.basis.modes):
        if (k1, k2) == (0, 0):
            continue
        kabs = np.hypot(k1, k2)
        d = np.array([k2 / kabs, -k1 / kabs])
        phase = k1 * T1 + k2 * T2
        # d_l of cos(k.theta) = -k_l sin, of sin = k_l cos
        dc = -np.sin(phase)
        ds = np.cos(phase)
        amp1 = k1 * (f.coeffs[0, i] * dc + f.coeffs[1, i] * ds)
        amp2 = k2 * (f.coeffs[0, i] * dc + f.coeffs[1, i] * ds)
        d1 += amp1[..., None] * d
        d2 += amp2[..., None] * d
    return adv[..., :1] * d1 + adv[..., 1:] * d2


# ---------------------------------------------------------------------------
# assemblies of the package's operators
# ---------------------------------------------------------------------------


def strat_drift(f: SpectralField) -> SpectralField:
    """Stratonovich-form drift: the inviscid ``-B(f)``."""
    return -1.0 * nonlinear_pseudospectral(f)


def ito_drift(f: SpectralField) -> SpectralField:
    """Ito-form drift ``-(1/2) A f - B(f)`` (fixed half-Laplacian correction)."""
    conv = nonlinear_pseudospectral(f).coeffs
    return SpectralField(f.basis, -ITO_VISCOSITY * f.basis.ksq * f.coeffs - conv)


def midpoint_step_plain(
    basis: Basis, u: np.ndarray, w_coeffs: np.ndarray, dt: float, iters: int = 30
) -> np.ndarray:
    """Implicit midpoint step for spatially constant noise, iterated blindly.

    Solves ``v = u - dt B(mid) + T(mid)``, ``mid = (u + v) / 2``, for a batch
    ``u`` of shape ``(P, 2, N)``, where ``T`` moves each mode ``(a, b)`` to
    ``(kappa b, -kappa a)`` with ``kappa = w . k``.  Each pass solves the
    per-mode 2x2 system ``(I - T/2) v = u + T(u)/2 - dt B(mid)`` with
    ``np.linalg.solve``; the iteration starts from ``v = u`` and runs
    ``iters`` passes with no tolerance exit.
    """
    k = basis.modes.astype(np.float64)
    kappa = w_coeffs[:, 0, :1] * k[:, 0] + w_coeffs[:, 1, :1] * k[:, 1]  # (P, N)
    lhs = np.empty(kappa.shape + (2, 2))
    lhs[..., 0, 0] = lhs[..., 1, 1] = 1.0
    lhs[..., 0, 1] = -0.5 * kappa
    lhs[..., 1, 0] = 0.5 * kappa
    a, b = u[:, 0], u[:, 1]
    base = np.stack([a + 0.5 * kappa * b, b - 0.5 * kappa * a], axis=-1)  # (P, N, 2)
    m = dealias_resolution(basis.n, basis.n, basis.n)
    v = u.copy()
    for _ in range(iters):
        conv = advect(basis, 0.5 * (u + v), m)[0]
        rhs = base - dt * np.moveaxis(conv, 1, -1)
        v = np.moveaxis(np.linalg.solve(lhs, rhs[..., None])[..., 0], -1, 1)
    return v
