"""Independent slow-path oracles used by the test suite.

Everything here is deliberately naive: pointwise mode evaluation with mpmath,
trapezoid quadrature on the periodic grid (exact for trigonometric
polynomials), and mode-by-mode projection.  None of it shares code with the
package's transform path, except the assemblies at the end: the two drifts
and a plain midpoint step, built from the package's public operators, which
only tests use.  The pocketfft section keeps the operator pass as it stood
before the transforms became dense DFT-matrix products: the full rfft2
half-spectrum, ``scipy.fft.irfft2``/``rfft2``, and its own index maps, plus
the conversions between the package's real cos/sin block and the complex
half-spectrum cells.  The
probe section keeps the probe's quadratic form as first sliced from the
whole coupling tensor, the first form of its pairings, their form before
the quadratic form ran over path chunks and the running trapezoids that
first integrated its series, and the noise section the
first increment fold and draw schedule.
"""

import mpmath as mp
import numpy as np
import scipy.fft as sfft

from torusflow.basis import Basis, BasisMode, SpectralField, gradient
from torusflow.dynamics import (
    ITO_VISCOSITY,
    advect,
    build_advection_tensor,
    dealias_resolution,
    nonlinear_pseudospectral,
)

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


def grid_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Collocation nodes ``theta = (2 pi a / m, 2 pi b / m)``, indexed ``[a, b]``."""
    t = np.arange(m) * TWO_PI / m
    return np.meshgrid(t, t, indexing="ij")


def field_on_grid(f: SpectralField, m: int) -> np.ndarray:
    """Evaluate a spectral field pointwise, mode by mode (no FFT)."""
    T1, T2 = grid_nodes(m)
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
    T1, T2 = grid_nodes(m)
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
        conv = advect(basis, 0.5 * (u + v), m)
        rhs = base - dt * np.moveaxis(conv, 1, -1)
        v = np.moveaxis(np.linalg.solve(lhs, rhs[..., None])[..., 0], -1, 1)
    return v


def midpoint_step_solve(
    basis: Basis, u: np.ndarray, w_coeffs: np.ndarray, dt: float, tol: float = 1e-12
) -> np.ndarray:
    """The constant-noise midpoint step with a 2x2 solve in every pass.

    The kernel's first form of the solve: from the Cayley start, each pass
    gathers the paths still active, rebuilds ``base - dt B(mid)`` with
    ``base = u + T(u)/2`` and solves ``(I - T/2) v = base - dt B(mid)`` per
    mode; a path stops once its update moves no coefficient by more than
    ``tol``.
    """
    k = basis.modes.astype(np.float64)
    kappa = w_coeffs[:, 0, :1] * k[:, 0] + w_coeffs[:, 1, :1] * k[:, 1]
    half_k = 0.5 * kappa
    denom = 1.0 + half_k * half_k
    base = u + 0.5 * np.stack([kappa * u[:, 1], -kappa * u[:, 0]], axis=1)
    m = dealias_resolution(basis.n, basis.n, basis.n)

    def solve(x, hk, d):
        va = (x[:, 0] + hk * x[:, 1]) / d
        return np.stack([va, x[:, 1] - hk * va], axis=1)

    v = solve(base, half_k, denom)
    active = np.ones(len(u), dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        x = base[idx] - dt * advect(basis, 0.5 * (u[idx] + v[idx]), m)
        v_new = solve(x, half_k[idx], denom[idx])
        active[idx] = np.abs(v_new - v[idx]).max(axis=(1, 2)) > tol
        v[idx] = v_new
    return v


# ---------------------------------------------------------------------------
# the pocketfft operator pass over the full rfft2 half-spectrum
# ---------------------------------------------------------------------------


def _half_spectrum_maps(basis: Basis, m: int):
    """Cells of the ``(m, m//2 + 1)`` half-spectrum each canonical mode fills.

    Returns ``(sign, cells, col0_src, col0_cells, k1, k2)``: the member of
    ``{+k, -k}`` whose ``k2`` lands in columns ``0 .. m//2`` (``sign = -1``:
    the ``-k`` cell, conjugated), the conjugate partners the ``k2 == 0``
    column needs, and the signed wavenumbers of every cell.
    """
    mh = m // 2 + 1
    k = basis.modes[1:]
    k1, k2 = k[:, 0], k[:, 1]
    take_pos = k2 >= 0
    sign = np.where(take_pos, 1, -1)
    cells = (np.where(take_pos, k1, -k1) % m) * mh + np.where(take_pos, k2, -k2)
    col0 = k2 == 0
    col0_cells = ((-k1[col0]) % m) * mh
    w1 = np.rint(np.fft.fftfreq(m) * m)
    kk1 = np.repeat(w1, mh).reshape(m, mh)
    kk2 = np.tile(np.arange(mh, dtype=np.float64), m).reshape(m, mh)
    return sign, cells, np.nonzero(col0)[0], col0_cells, kk1, kk2


def block_to_halfspectrum(block: np.ndarray) -> np.ndarray:
    """The rfft2 half-spectrum cells ``(..., 2n+1, n+1)`` of a real cos/sin block.

    ``block`` is ``(..., n+1, 2(2n+1))``: rows ``k1 = 0..n``, columns
    ``[alpha | beta]`` for ``k2 = -n..n``.  A cell pair adds
    ``Z(k) = (alpha - i beta) / 2`` at ``k`` and the conjugate at ``-k``;
    only the wavevectors with ``k2 >= 0`` are stored, rows ``k1 = -n..n``.
    """
    n = block.shape[-2] - 1
    width = 2 * n + 1
    out = np.zeros(block.shape[:-2] + (width, n + 1), dtype=np.complex128)
    for k1 in range(n + 1):
        for j, k2 in enumerate(range(-n, n + 1)):
            z = 0.5 * (block[..., k1, j] - 1j * block[..., k1, width + j])
            if k2 >= 0:
                out[..., n + k1, k2] += z
            if k2 <= 0:
                out[..., n - k1, -k2] += np.conj(z)
    return out


def halfspectrum_to_block(z: np.ndarray) -> np.ndarray:
    """The real block ``(..., n+1, 2(2n+1))`` holding ``(Re Z(k), -Im Z(k))`` per cell pair.

    ``z`` holds the half-spectrum cells ``(..., 2n+1, n+1)`` with rows
    ``k1 = -n..n`` and ``k2 >= 0``; ``Z(k)`` at ``k2 < 0`` is the conjugate
    of ``Z(-k)``.
    """
    n = z.shape[-1] - 1
    width = 2 * n + 1
    out = np.empty(z.shape[:-2] + (n + 1, 2 * width))
    for k1 in range(n + 1):
        for j, k2 in enumerate(range(-n, n + 1)):
            zk = z[..., n + k1, k2] if k2 >= 0 else np.conj(z[..., n - k1, -k2])
            out[..., k1, j] = zk.real
            out[..., k1, width + j] = -zk.imag
    return out


def block_to_grid(spec: np.ndarray, m: int) -> np.ndarray:
    """``irfft2`` of the full half-spectrum holding a Fourier block ``(..., 2n+1, n+1)``."""
    n = spec.shape[-1] - 1
    full = np.zeros(spec.shape[:-2] + (m, m // 2 + 1), dtype=np.complex128)
    full[..., np.arange(-n, n + 1) % m, : n + 1] = m * m * spec
    return sfft.irfft2(full, s=(m, m), axes=(-2, -1))


def grid_to_block(grid: np.ndarray, n: int) -> np.ndarray:
    """The ``|k1|, k2 <= n`` block of ``rfft2(grid) / m^2``."""
    m = grid.shape[-1]
    return (sfft.rfft2(grid, axes=(-2, -1)) / (m * m))[..., np.arange(-n, n + 1) % m, : n + 1]


def place_full(basis: Basis, coeffs: np.ndarray, m: int) -> np.ndarray:
    """Full half-spectrum ``(..., 2, m, m//2 + 1)`` of ``u``, scaled for ``irfft2``."""
    sign, cells, col0_src, col0_cells, _, _ = _half_spectrum_maps(basis, m)
    mh = m // 2 + 1
    lead = coeffs.shape[:-2]
    out = np.zeros(lead + (2, m * mh), dtype=np.complex128)
    z = 0.5 * (coeffs[..., 0, 1:] - 1j * (sign * coeffs[..., 1, 1:]))
    vals = basis.dvec[1:, :].T * z[..., None, :]
    out[..., :, cells] = m * m * vals
    out[..., :, col0_cells] = m * m * np.conj(vals[..., :, col0_src])
    out[..., 0, 0] = m * m * coeffs[..., 0, 0]
    out[..., 1, 0] = m * m * coeffs[..., 1, 0]
    return out.reshape(lead + (2, m, mh))


def gather_full(basis: Basis, spec: np.ndarray, m: int) -> np.ndarray:
    """Divergence-free projection of an unnormalized full half-spectrum ``(..., 2, m, mh)``."""
    sign, cells, _, _, _, _ = _half_spectrum_maps(basis, m)
    lead = spec.shape[:-3]
    flat = spec.reshape(lead + (2, -1))
    cv = flat[..., :, cells]
    z = (cv[..., 0, :] * basis.dvec[1:, 0] + cv[..., 1, :] * basis.dvec[1:, 1]) / (m * m)
    z = np.where(sign < 0, np.conj(z), z)
    out = np.empty(lead + (2, basis.n_modes))
    out[..., 0, 1:] = 2.0 * z.real
    out[..., 1, 1:] = -2.0 * z.imag
    out[..., :, 0] = flat[..., :, 0].real / (m * m)
    return out


def full_to_grid(spec: np.ndarray, m: int) -> np.ndarray:
    return sfft.irfft2(spec, s=(m, m), axes=(-2, -1))


def advect_fft(basis: Basis, coeffs, m: int, advectors=(None,), out_basis=None) -> np.ndarray:
    """``P (a . grad) u`` per advector by the pocketfft pass, stacked on a leading axis.

    Each entry of ``advectors`` is ``None`` (the quadratic term) or an
    advecting field's ``(..., 2, m, m)`` grid of ``(w1, w2)``, transported
    as ``w1 d1 u + w2 d2 u``; the quadratic term is taken in rotational form,
    with ``omega`` placed as ``i (k1 u2 - k2 u1)`` or read off the gradient
    grids when a field advector is present.  ``advect``'s fused result is
    ``scale`` times the first plus the second.
    """
    _, _, _, _, k1, k2 = _half_spectrum_maps(basis, m)
    spec = place_full(basis, coeffs, m)
    if all(a is None for a in advectors):
        omega = full_to_grid(1j * (k1 * spec[..., 1:2, :, :] - k2 * spec[..., 0:1, :, :]), m)
        u = full_to_grid(spec, m)
        prods = [_rot(omega, u)] * len(advectors)
    else:
        g1 = full_to_grid(1j * k1 * spec, m)
        g2 = full_to_grid(1j * k2 * spec, m)
        self_term = _rot(g1[..., 1:2, :, :] - g2[..., 0:1, :, :], full_to_grid(spec, m))
        prods = [
            self_term if a is None else a[..., 0:1, :, :] * g1 + a[..., 1:2, :, :] * g2
            for a in advectors
        ]
    spec_out = sfft.rfft2(np.stack(prods), axes=(-2, -1))
    return gather_full(out_basis or basis, spec_out, m)


def _rot(omega: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.concatenate([-omega * u[..., 1:2, :, :], omega * u[..., 0:1, :, :]], axis=-3)


# ---------------------------------------------------------------------------
# the martingale probe's pairings in their first form
# ---------------------------------------------------------------------------


def middle_slice_from_tensor(basis: Basis, v: SpectralField):
    """``dynamics.middle_slice`` as first taken: the entries of the whole cached
    coupling tensor whose target is a nonzero component of ``v``, weighted by it."""
    t = build_advection_tensor(basis.n)
    w = v.coeffs.reshape(-1)[t.k_idx]
    nz = w != 0.0
    return t.i_idx[nz], t.j_idx[nz], t.vals[nz] * w[nz]


def probe_pairings(v: SpectralField, u: np.ndarray):
    """``(uv, drift_pair, qv_density)`` by four einsums and the unmerged
    quadratic form, sliced from the coupling tensor."""
    b = v.basis
    d1v, d2v = gradient(v)
    q_i, q_j, q_v = middle_slice_from_tensor(b, v)
    uv = np.einsum("...cn,cn->...", u, b.norm_sq * v.coeffs)
    a_pair = np.einsum("...cn,cn->...", u, b.norm_sq * b.ksq * v.coeffs)
    flat = u.reshape(u.shape[:-2] + (-1,))
    b_quad = (flat[..., q_i] * flat[..., q_j]) @ q_v
    t1 = -np.einsum("...cn,cn->...", u, b.norm_sq * d1v.coeffs)
    t2 = -np.einsum("...cn,cn->...", u, b.norm_sq * d2v.coeffs)
    return uv, -0.5 * a_pair + b_quad, t1 * t1 + t2 * t2


def probe_pairings_unchunked(probe, u: np.ndarray):
    """``probe.pairings`` as it was before the quadratic form ran over path
    chunks: one gather and one gemv over the whole batch, into fresh arrays."""
    flat = u.reshape(u.shape[:-2] + (-1,))
    pairs = flat @ probe.w
    rows = flat.reshape(-1, flat.shape[-1])
    cols = np.ascontiguousarray(rows.T)
    left = np.take(cols, probe.q_i, axis=0)
    right = np.take(cols, probe.q_j, axis=0)
    b_quad = (np.multiply(left, right, out=left).T @ probe.q_v).reshape(flat.shape[:-1])
    t1, t2 = pairs[..., 2], pairs[..., 3]
    return pairs[..., 0].copy(), -0.5 * pairs[..., 1] + b_quad, t1 * t1 + t2 * t2


class RunningTrapezoids:
    """The martingale probe's series as first accumulated: a step observer
    that integrates ``L``, ``M`` and the QV ledger by running trapezoids over
    the pairings of ``probe``, and keeps every step's values."""

    def __init__(self, probe):
        self.pairings = probe.pairings

    def start(self, t, u):
        p = u.shape[0]
        uv, drift, qv = self.pairings(u)
        phi = 1j * drift - 0.5 * qv
        self._t, self._uv, self._phi = [t], [uv], [phi]
        self._int_L = np.zeros(p, dtype=np.complex128)
        self._int_drift = np.zeros(p)
        self._int_qv = np.zeros(p)
        e = np.exp(1j * uv)
        self._L = [e - self._int_L.copy()]
        self._mart = [np.zeros(p)]
        self._qv = [np.zeros(p)]
        self._prev = (e, phi, drift, qv, t)

    def after_step(self, t, u):
        uv, drift, qv = self.pairings(u)
        phi = 1j * drift - 0.5 * qv
        e = np.exp(1j * uv)
        e0, phi0, drift0, qv0, t0 = self._prev
        dt = t - t0
        self._int_L += 0.5 * dt * (e0 * phi0 + e * phi)
        self._int_drift += 0.5 * dt * (-(drift0 + drift))
        self._int_qv += 0.5 * dt * (qv0 + qv)
        self._t.append(t)
        self._uv.append(uv)
        self._phi.append(phi)
        self._L.append(e - self._int_L.copy())
        self._mart.append(uv - self._uv[0] + self._int_drift)
        self._qv.append(self._int_qv.copy())
        self._prev = (e, phi, drift, qv, t)

    def series(self) -> dict:
        """``times``, then each ``(P, S)`` series by its ``ProbeSeries`` name."""
        out = {"times": np.array(self._t)}
        for name in ("uv", "phi", "L", "mart", "qv"):
            out[name] = np.stack(getattr(self, "_" + name), axis=1)
        return out


# ---------------------------------------------------------------------------
# the increments in their first form
# ---------------------------------------------------------------------------

#: the runners first drew each path's increments in blocks of this many steps
DRAW_BLOCK_STEPS = 64


def fold_increments(model, values: np.ndarray) -> np.ndarray:
    """``model.increments_to_field`` as first written: the components put in
    row order by a stable sort, then one ``np.add.reduceat`` per row of the
    cosine and of the sine coefficients."""
    fb = model.field_basis
    ids = [fb.mode_id(k) for k in model.active_modes]
    target = np.array([i for i, _, _ in ids], dtype=np.int64)
    order = np.argsort(target, kind="stable")
    rows, starts = np.unique(target[order], return_index=True)
    wc = (np.array([cs for _, cs, _ in ids]) * model.weights)[order]
    ws = (np.array([ss for _, _, ss in ids]) * model.weights)[order]
    v = values[..., order, :]
    out = np.zeros(values.shape[:-2] + (2, fb.n_modes))
    out[..., 0, rows] = np.add.reduceat(v[..., 0] * wc, starts, axis=-1)
    out[..., 1, rows] = np.add.reduceat(v[..., 1] * ws, starts, axis=-1)
    return out


def block_increments(model, gens, steps: int, dt: float):
    """Each step's raw increments ``(paths, K, 2)``, drawn from the path
    streams ``gens`` in blocks of ``DRAW_BLOCK_STEPS`` steps."""
    shape = (model.n_components, 2)
    for s in range(steps):
        if s % DRAW_BLOCK_STEPS == 0:
            block = min(DRAW_BLOCK_STEPS, steps - s)
            draws = np.stack([g.standard_normal((block,) + shape) for g in gens])
            draws *= np.sqrt(dt)
        yield draws[:, s % DRAW_BLOCK_STEPS]
