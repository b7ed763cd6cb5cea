"""Divergence-free trigonometric vector basis on the 2-torus ``[0, 2*pi]^2``.

The basis consists of the vector fields

    c_k(theta) = (k2, -k1)/|k| * cos(k . theta)
    s_k(theta) = (k2, -k1)/|k| * sin(k . theta)      for k != (0, 0),

together with the two constant fields ``c_0 = (1, 0)`` and ``s_0 = (0, 1)``.
Every field in the span is real, 2*pi-periodic and pointwise divergence-free
by construction, and each mode is an eigenvector of ``-laplace`` with
eigenvalue ``|k|^2``.

Redundancy and enumeration
--------------------------
The modes at ``k`` and ``-k`` are linearly dependent:

    c_{-k} = -c_k,        s_{-k} = +s_k.

A field is therefore represented by coefficients over the *canonical
half-lattice*: the origin plus all ``k`` with ``k1 > 0`` or
(``k1 == 0 and k2 > 0``), restricted to the square ``{-n, ..., n}^2``.
For truncation ``n`` that is ``1 + ((2n+1)^2 - 1) / 2`` wavevectors carrying
two real coefficients each (one for the cosine mode, one for the sine mode).

The basis is orthogonal but not normalized: ``||c_k||_0^2 = 2*pi^2`` for
``k != 0`` and ``4*pi^2`` for the constant modes.  All inner products carry
these weights explicitly so that coefficients remain directly comparable to
the unnormalized mode convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy.fft as _fft

TWO_PI = 2.0 * np.pi

#: squared L2 norm of cos/sin modes (k != 0) and of the constant modes
MODE_NORMSQ = 2.0 * np.pi**2
CONST_NORMSQ = 4.0 * np.pi**2

ModeIndex = tuple[int, int]


class ResolutionError(ValueError):
    """Grid too coarse to represent the requested spectral content."""


@dataclass(frozen=True)
class BasisMode:
    """A single basis element: ``kind`` is ``"c"`` (cosine) or ``"s"`` (sine)."""

    kind: str
    k: ModeIndex

    def __post_init__(self):
        if self.kind not in ("c", "s"):
            raise ValueError(f"mode kind must be 'c' or 's', got {self.kind!r}")

    def __str__(self):
        return f"{self.kind}({self.k[0]},{self.k[1]})"


def is_canonical(k: ModeIndex) -> bool:
    """True if ``k`` is the representative of its ``{k, -k}`` pair (or the origin)."""
    k1, k2 = k
    return (k1 > 0) or (k1 == 0 and k2 >= 0)


def canonicalize(k: ModeIndex) -> tuple[ModeIndex, int, int]:
    """Fold ``k`` onto its canonical representative.

    Returns ``(kc, csign, ssign)`` with ``c_k = csign * c_kc`` and
    ``s_k = ssign * s_kc``.
    """
    if is_canonical(k):
        return k, 1, 1
    return (-k[0], -k[1]), -1, 1


class Basis:
    """Canonical enumeration of the truncated basis over ``{-n, ..., n}^2``.

    The instance precomputes per-mode wavevectors, eigenvalues, norms and
    direction vectors, plus the index maps used by the grid transforms.
    Instances are immutable and cached; use :func:`get_basis`.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("truncation n must be >= 0")
        self.n = int(n)
        modes = [(0, 0)]
        for k1 in range(0, n + 1):
            for k2 in range(-n, n + 1):
                if (k1, k2) != (0, 0) and is_canonical((k1, k2)):
                    modes.append((k1, k2))
        modes[1:] = sorted(modes[1:], key=lambda k: (k[0] ** 2 + k[1] ** 2, k))
        self.modes = np.array(modes, dtype=np.int64)  # (N, 2), row 0 = origin
        self.n_modes = len(modes)
        self.index = {tuple(k): i for i, k in enumerate(modes)}
        k1 = self.modes[:, 0].astype(np.float64)
        k2 = self.modes[:, 1].astype(np.float64)
        self.ksq = k1 * k1 + k2 * k2
        self.norm_sq = np.where(self.ksq > 0, MODE_NORMSQ, CONST_NORMSQ)
        # direction vectors d_k = (k2, -k1)/|k|; the origin row is unused
        kabs = np.sqrt(np.where(self.ksq > 0, self.ksq, 1.0))
        self.dvec = np.stack([k2 / kabs, -k1 / kabs], axis=1)
        self.dvec[0] = 0.0

    # -- truncation-set view -------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of lattice points in the full square ``{-n, ..., n}^2``."""
        return (2 * self.n + 1) ** 2

    def lattice(self) -> Iterable[ModeIndex]:
        """Iterate the full (unfolded) index square in row-major order."""
        for k1 in range(-self.n, self.n + 1):
            for k2 in range(-self.n, self.n + 1):
                yield (k1, k2)

    def mode_id(self, k: ModeIndex) -> tuple[int, int, int]:
        """Canonical row and fold signs for an arbitrary in-range wavevector."""
        kc, cs, ss = canonicalize((int(k[0]), int(k[1])))
        try:
            return self.index[kc], cs, ss
        except KeyError:
            raise KeyError(f"wavevector {k} outside truncation n={self.n}") from None

    def __repr__(self):
        return f"Basis(n={self.n})"

    # -- grid transform maps ---------------------------------------------

    @lru_cache(maxsize=8)
    def _grid_map(self, m: int) -> "_GridMap":
        return _GridMap(self, m)


@lru_cache(maxsize=64)
def get_basis(n: int) -> Basis:
    return Basis(n)


class _GridMap:
    """Index arrays mapping canonical coefficients to the rfft2 half-spectrum.

    For each nonzero canonical mode we pick the member of the ``{+k, -k}``
    pair whose second component lands inside the half-spectrum columns
    ``0 .. m//2``.  ``sign = +1`` means the cell holds the ``+k`` Fourier
    coefficient, ``-1`` the ``-k`` one (stored conjugated).  Modes on the
    ``k2 == 0`` column need their conjugate partner placed explicitly for
    ``irfft2`` to see a Hermitian column.
    """

    def __init__(self, basis: Basis, m: int):
        if m < 2 * basis.n + 1:
            raise ResolutionError(
                f"grid m={m} cannot carry truncation n={basis.n} (need m >= {2 * basis.n + 1})"
            )
        self.m = m
        self.mh = m // 2 + 1
        k = basis.modes[1:]
        k1, k2 = k[:, 0], k[:, 1]
        take_pos = k2 >= 0  # +k lands in the half spectrum iff k2 >= 0
        self.sign = np.where(take_pos, 1, -1).astype(np.int64)
        r1 = np.where(take_pos, k1, -k1) % m
        r2 = np.where(take_pos, k2, -k2)
        self.cells = r1 * self.mh + r2
        # conjugate partners for the k2 == 0 column (k1 > 0 there)
        col0 = k2 == 0
        self.col0_src = np.nonzero(col0)[0]
        self.col0_cells = ((-k1[col0]) % m) * self.mh + 0
        # signed wavenumbers of every half-spectrum cell, for derivatives
        w1 = np.rint(np.fft.fftfreq(m) * m).astype(np.int64)
        self.kgrid1 = np.repeat(w1, self.mh).astype(np.float64)
        self.kgrid2 = np.tile(np.arange(self.mh), m).astype(np.float64)


# ---------------------------------------------------------------------------
# batched low-level transforms (leading axes pass through untouched)
# ---------------------------------------------------------------------------


def place_halfspectrum(basis: Basis, coeffs: np.ndarray, m: int) -> np.ndarray:
    """Build the rfft2 half-spectrum of a coefficient array.

    ``coeffs`` has shape ``(..., 2, N)``; the result has shape
    ``(..., 2, m, m//2 + 1)`` and is scaled so that ``irfft2`` of it evaluates
    the field on the ``m x m`` collocation grid exactly.
    """
    gm = basis._grid_map(m)
    lead = coeffs.shape[:-2]
    out = np.zeros(lead + (2, m * gm.mh), dtype=np.complex128)
    a = coeffs[..., 0, 1:]
    b = coeffs[..., 1, 1:]
    z = 0.5 * (a - 1j * (gm.sign * b))  # conjugated automatically when sign=-1
    vals = basis.dvec[1:, :].T * z[..., None, :]  # (..., 2, N-1)
    out[..., :, gm.cells] = m * m * vals
    if gm.col0_src.size:
        out[..., :, gm.col0_cells] = m * m * np.conj(vals[..., :, gm.col0_src])
    out[..., 0, 0] = m * m * coeffs[..., 0, 0]
    out[..., 1, 0] = m * m * coeffs[..., 1, 0]
    return out.reshape(lead + (2, m, gm.mh))


def halfspectrum_to_grid(spec: np.ndarray, m: int) -> np.ndarray:
    """Inverse transform of the half-spectrum; returns ``(..., 2, m, m)`` real."""
    return _fft.irfft2(spec, s=(m, m), axes=(-2, -1))


def grid_to_halfspectrum(grid: np.ndarray) -> np.ndarray:
    """Forward rfft2 over the trailing grid axes: ``(..., m, m//2 + 1)``, unnormalized."""
    return _fft.rfft2(grid, axes=(-2, -1))


def gather_coeffs(basis: Basis, spec: np.ndarray, m: int) -> np.ndarray:
    """Project an (unnormalized) half-spectrum onto the canonical basis.

    Performs the orthogonal projection of each Fourier vector coefficient onto
    the divergence-free direction ``d_k`` (the mean vector passes through), so
    gradient content is discarded.  Returns ``(..., 2, N)``.
    """
    gm = basis._grid_map(m)
    lead = spec.shape[:-3]
    flat = spec.reshape(lead + (2, m * gm.mh))
    cellvals = flat[..., :, gm.cells]  # (..., 2, N-1)
    z = (
        cellvals[..., 0, :] * basis.dvec[1:, 0]
        + cellvals[..., 1, :] * basis.dvec[1:, 1]
    ) / (m * m)
    z = np.where(gm.sign < 0, np.conj(z), z)
    out = np.empty(lead + (2, basis.n_modes), dtype=np.float64)
    out[..., 0, 1:] = 2.0 * z.real
    out[..., 1, 1:] = -2.0 * z.imag
    out[..., 0, 0] = flat[..., 0, 0].real / (m * m)
    out[..., 1, 0] = flat[..., 1, 0].real / (m * m)
    return out


def derivative_spectra(basis: Basis, spec: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectra of ``d/d theta1`` and ``d/d theta2`` of a placed field."""
    gm = basis._grid_map(m)
    k1 = gm.kgrid1.reshape(m, gm.mh)
    k2 = gm.kgrid2.reshape(m, gm.mh)
    return (1j * k1) * spec, (1j * k2) * spec


def curl_spectrum(basis: Basis, spec: np.ndarray, m: int) -> np.ndarray:
    """Half-spectrum ``(..., m, m//2 + 1)`` of the vorticity ``d1 u2 - d2 u1``."""
    gm = basis._grid_map(m)
    k1 = gm.kgrid1.reshape(m, gm.mh)
    k2 = gm.kgrid2.reshape(m, gm.mh)
    return 1j * (k1 * spec[..., 1, :, :] - k2 * spec[..., 0, :, :])


# ---------------------------------------------------------------------------
# user-facing field types and operations
# ---------------------------------------------------------------------------


@dataclass
class SpectralField:
    """A real divergence-free field as canonical basis coefficients.

    ``coeffs[0, i]`` multiplies the cosine mode of wavevector ``basis.modes[i]``
    and ``coeffs[1, i]`` the sine mode; row 0 holds the two mean components.
    """

    basis: Basis
    coeffs: np.ndarray  # (2, N) float64

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (2, self.basis.n_modes):
            raise ValueError(
                f"coefficient array must have shape (2, {self.basis.n_modes})"
            )

    @classmethod
    def zero(cls, basis: Basis) -> "SpectralField":
        return cls(basis, np.zeros((2, basis.n_modes)))

    @classmethod
    def from_modes(
        cls, basis: Basis, entries: Iterable[tuple[BasisMode, float]]
    ) -> "SpectralField":
        f = cls.zero(basis)
        for mode, c in entries:
            i, cs, ss = basis.mode_id(mode.k)
            if mode.kind == "c":
                f.coeffs[0, i] += cs * c
            else:
                f.coeffs[1, i] += ss * c
        return f

    def coefficient(self, mode: BasisMode) -> float:
        i, cs, ss = self.basis.mode_id(mode.k)
        return (cs * self.coeffs[0, i]) if mode.kind == "c" else (ss * self.coeffs[1, i])

    def copy(self) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        return float(np.sqrt(l2_inner(self, self)))

    def h1_norm(self) -> float:
        return float(np.sqrt(h1_inner(self, self)))

    def divergence_max(self, m: int | None = None) -> float:
        return divergence_max(self, m)


@dataclass
class GridField:
    """Collocation values ``values[a, b]`` at ``theta = (2*pi*a/m, 2*pi*b/m)``."""

    values: np.ndarray  # (m, m, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[2] != 2 or (
            self.values.shape[0] != self.values.shape[1]
        ):
            raise ValueError("grid values must have shape (m, m, 2)")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @classmethod
    def nodes(cls, m: int) -> tuple[np.ndarray, np.ndarray]:
        t = np.arange(m) * (TWO_PI / m)
        return np.meshgrid(t, t, indexing="ij")


def _check_same_basis(f: SpectralField, g: SpectralField) -> None:
    if f.basis.n != g.basis.n:
        raise ValueError(f"truncation mismatch: n={f.basis.n} vs n={g.basis.n}")


def eval_mode(mode: BasisMode, theta: Sequence[float]) -> np.ndarray:
    """Evaluate one basis field at a point of the torus."""
    k1, k2 = mode.k
    t1, t2 = float(theta[0]), float(theta[1])
    if (k1, k2) == (0, 0):
        return np.array([1.0, 0.0]) if mode.kind == "c" else np.array([0.0, 1.0])
    kabs = np.hypot(k1, k2)
    phase = k1 * t1 + k2 * t2
    osc = np.cos(phase) if mode.kind == "c" else np.sin(phase)
    return np.array([k2 / kabs, -k1 / kabs]) * osc


def min_resolution(n: int) -> int:
    """Smallest grid that represents a degree-``n`` field alias-free."""
    return 2 * n + 2


def synthesize(f: SpectralField, m: int) -> GridField:
    """Evaluate the field on the ``m x m`` collocation grid (exact)."""
    if m < min_resolution(f.basis.n):
        raise ResolutionError(
            f"m={m} too small for truncation n={f.basis.n}; need m >= {min_resolution(f.basis.n)}"
        )
    spec = place_halfspectrum(f.basis, f.coeffs, m)
    grid = halfspectrum_to_grid(spec, m)
    return GridField(np.moveaxis(grid, 0, -1))


def analyze(g: GridField, basis: Basis | int) -> SpectralField:
    """Project grid samples onto the truncated divergence-free basis.

    The grid must be alias-free for degree ``n`` content (caller's
    responsibility); the gradient part of the sampled field is discarded by
    the per-wavevector projection, so ``analyze`` realizes the composition of
    the forward transform with the divergence-free projection.
    """
    if isinstance(basis, int):
        basis = get_basis(basis)
    if g.m < min_resolution(basis.n):
        raise ResolutionError(
            f"grid m={g.m} below the alias-free minimum {min_resolution(basis.n)} for n={basis.n}"
        )
    spec = grid_to_halfspectrum(np.moveaxis(g.values, -1, 0))
    return SpectralField(basis, gather_coeffs(basis, spec, g.m))


def leray_project(g: GridField | SpectralField, basis: Basis | int) -> SpectralField:
    """Divergence-free (Leray) projection onto the truncated basis.

    Removes the gradient part of each Fourier coefficient; the mean passes
    through.  Idempotent: spectral fields are returned unchanged (up to
    truncation), since the basis spans only divergence-free fields.
    """
    if isinstance(basis, int):
        basis = get_basis(basis)
    if isinstance(g, SpectralField):
        if g.basis.n == basis.n:
            return g.copy()
        out = SpectralField.zero(basis)
        nshared = min(g.basis.n, basis.n)
        for i, k in enumerate(g.basis.modes):
            if abs(k[0]) <= nshared and abs(k[1]) <= nshared:
                j = basis.index[tuple(k)]
                out.coeffs[:, j] = g.coeffs[:, i]
        return out
    return analyze(g, basis)


def constant_advection(kappa: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Exact ``(a . grad) u`` for a spatially constant advector ``a``.

    ``kappa = a . k`` is the per-mode symbol (leading axes broadcast against
    ``coeffs`` of shape ``(..., 2, N)``); transport rotates each cosine/sine
    pair, ``(a, b) -> (kappa b, -kappa a)``, and never leaves the mode set.
    """
    return np.stack([kappa * coeffs[..., 1, :], -kappa * coeffs[..., 0, :]], axis=-2)


def gradient(f: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Componentwise partial derivatives ``(d1 f, d2 f)``.

    ``d_l`` is transport by the constant unit advector ``e_l``, i.e. the
    rotation with ``kappa = k_l``; the results are divergence-free since
    ``div d_l f = d_l div f = 0``.
    """
    k1 = f.basis.modes[:, 0].astype(np.float64)
    k2 = f.basis.modes[:, 1].astype(np.float64)
    return (
        SpectralField(f.basis, constant_advection(k1, f.coeffs)),
        SpectralField(f.basis, constant_advection(k2, f.coeffs)),
    )


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    _check_same_basis(f, g)
    return float(np.sum(f.basis.norm_sq * (f.coeffs * g.coeffs).sum(axis=0)))


def h1_inner(f: SpectralField, g: SpectralField) -> float:
    """Seminorm pairing ``sum_l <d_l f, d_l g>_0`` (mean modes contribute 0)."""
    _check_same_basis(f, g)
    w = f.basis.norm_sq * f.basis.ksq
    return float(np.sum(w * (f.coeffs * g.coeffs).sum(axis=0)))


def l2_norm(f: SpectralField) -> float:
    return f.l2_norm()


def h1_norm(f: SpectralField) -> float:
    return f.h1_norm()


def divergence_max(f: SpectralField, m: int | None = None) -> float:
    """Max of ``|div f|`` on a collocation grid, via spectral differentiation."""
    if m is None:
        m = max(min_resolution(f.basis.n), 8)
    d1, d2 = gradient(f)
    spec1 = place_halfspectrum(f.basis, d1.coeffs, m)
    spec2 = place_halfspectrum(f.basis, d2.coeffs, m)
    # div f = d1 f^1 + d2 f^2: component 0 of d1 plus component 1 of d2
    div_spec = spec1[..., 0, :, :] + spec2[..., 1, :, :]
    div = _fft.irfft2(div_spec, s=(m, m), axes=(-2, -1))
    return float(np.abs(div).max())


def batch_l2_sq(basis: Basis, coeffs: np.ndarray) -> np.ndarray:
    """Squared L2 norms for a batched coefficient array ``(..., 2, N)``."""
    return np.sum(basis.norm_sq * (coeffs**2).sum(axis=-2), axis=-1)


def batch_h1_sq(basis: Basis, coeffs: np.ndarray) -> np.ndarray:
    return np.sum(basis.norm_sq * basis.ksq * (coeffs**2).sum(axis=-2), axis=-1)


def random_field(
    basis: Basis,
    rng: np.random.Generator,
    decay: float = 3.0,
    normalize: float | None = 1.0,
    include_mean: bool = False,
) -> SpectralField:
    """Random draw with per-mode standard deviation ``|k|^(-decay)``.

    The draw is supported on the nonzero modes (optionally also the means) and
    rescaled to the requested L2 norm, giving a generic initial condition with
    bounded enstrophy.
    """
    coeffs = rng.standard_normal((2, basis.n_modes))
    amp = np.zeros(basis.n_modes)
    nz = basis.ksq > 0
    amp[nz] = basis.ksq[nz] ** (-decay / 2.0)
    if include_mean:
        amp[0] = 1.0
    coeffs *= amp
    f = SpectralField(basis, coeffs)
    if normalize is not None:
        norm = f.l2_norm()
        if norm == 0.0:
            raise ValueError("cannot normalize the zero draw")
        f.coeffs *= normalize / norm
    return f
