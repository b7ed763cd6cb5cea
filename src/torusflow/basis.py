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

Grid transforms
---------------
A field of truncation ``n`` occupies only the ``(2n+1) x (n+1)`` block of
the rfft2 half-spectrum with ``|k1| <= n`` and ``0 <= k2 <= n``, while the
dealiased grid is ``m x m`` with ``m >= 3n + 1``.  For transforms this short
and this sparse, partial summation by dense matrix products beats an FFT
(Boyd, *Chebyshev and Fourier Spectral Methods*, 2001, ch. 10), so every
transform is two matrix stages over the block.  ``place_halfspectrum``
writes the fields a pass needs (``u``, ``omega``, ``d1 u``, ``d2 u``)
straight from the coefficients into the block; ``halfspectrum_to_grid``
applies the complex ``k1 -> theta1`` stage to the narrow block, then the
real c2r stage ``k2 -> theta2``; ``grid_to_halfspectrum`` applies the real
stage first, then the complex one, computing only the output block; and
``gather_coeffs`` projects the block onto the basis.

Each stage is a stacked ``@`` with one small product per path (fields may
share a product, since their number is fixed by the pass).  Paths are never
folded into the rows or columns of one GEMM: BLAS rounds a row differently
for different row counts, and would switch to a matrix-vector kernel for a
single path, so a path would not give the same bits alone and in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

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
    """The occupied spectral block of a basis and its DFT matrices on an ``m x m`` grid.

    A field of truncation ``n`` occupies only the cells with rows
    ``k1 = -n..n`` and columns ``k2 = 0..n`` of the rfft2 half-spectrum.  A
    canonical mode ``k`` fills the cell of ``+k`` when ``k2 >= 0`` and of
    ``-k`` (conjugated) otherwise; a mode on the ``k2 == 0`` column also fills
    the cell of its conjugate partner ``-k``, so that column is Hermitian.
    These cells cover the block exactly once: ``src`` names the source mode
    of every cell, and ``amp_imag = -s/2`` carries the sign ``s`` of the
    cell's wavevector ``s k`` into the amplitude ``z = (a - i s b) / 2``.

    The inverse runs in two stages: the complex ``k1 -> theta1`` matrix
    ``inv_rows`` (m x 2n+1) on the narrow block, then the real c2r matrix
    ``inv_cols`` (2(n+1) x m) on the interleaved real and imaginary parts,
    weighted 1 at ``k2 = 0`` and 2 elsewhere.  The forward runs real first
    (``fwd_cols``, m x 2(n+1)), then complex (``fwd_rows``, 2n+1 x m, scaled
    by ``1/m^2``), so it computes only the block's rows and columns.
    """

    def __init__(self, basis: Basis, m: int):
        n = basis.n
        if m < 2 * n + 1:
            raise ResolutionError(
                f"grid m={m} cannot carry truncation n={n} (need m >= {2 * n + 1})"
            )
        self.shape = (2 * n + 1, n + 1)
        cols = n + 1
        k1, k2 = basis.modes[:, 0], basis.modes[:, 1]
        self.sign = np.where(k2 >= 0, 1, -1)
        self.cells = (self.sign * k1 + n) * cols + self.sign * k2
        partner = np.flatnonzero((k2 == 0) & (k1 > 0))
        partner_cells = (n - k1[partner]) * cols
        self.src = np.empty(self.shape[0] * cols, dtype=np.int64)
        self.src[self.cells] = np.arange(basis.n_modes)
        self.src[partner_cells] = partner
        cell_sign = np.empty(self.src.size)
        cell_sign[self.cells] = self.sign
        cell_sign[partner_cells] = -1.0
        self.dvec = basis.dvec[self.src]
        self.q1 = np.repeat(np.arange(-n, n + 1.0), cols).reshape(self.shape)
        self.q2 = np.tile(np.arange(cols, dtype=np.float64), 2 * n + 1).reshape(self.shape)
        self.amp_imag = -0.5 * cell_sign
        self.proj = 2.0 * basis.dvec.T
        self.proj_imag = -self.sign.astype(np.float64)
        self._symbols: dict[tuple[str, ...], tuple[np.ndarray, list[int]]] = {}

        root = np.exp(2j * np.pi * np.arange(m) / m)
        nodes = np.arange(m)
        self.inv_rows = root[np.outer(nodes, np.arange(-n, n + 1)) % m]
        twiddle = root[np.outer(np.arange(cols), nodes) % m]
        weight = np.where(np.arange(cols) == 0, 1.0, 2.0)[:, None]
        self.inv_cols = np.empty((2 * cols, m))
        self.inv_cols[0::2] = weight * twiddle.real
        self.inv_cols[1::2] = -weight * twiddle.imag
        self.fwd_cols = np.empty((m, 2 * cols))
        self.fwd_cols[:, 0::2] = twiddle.real.T
        self.fwd_cols[:, 1::2] = -twiddle.imag.T
        self.fwd_rows = self.inv_rows.conj().T / (m * m)

    def symbols(self, fields: tuple[str, ...]) -> tuple[np.ndarray, list[int]]:
        """Per-cell factors ``(F, cells)`` of a placement of ``fields``, and where ``u`` starts.

        A cell with wavevector ``q = s k`` holds the vector amplitude
        ``z = (a - i s b) / 2`` of its source mode ``(a, b)``, and scalar
        field ``f`` the product ``phi[f] z``: ``d`` for ``u``, ``i q_l d``
        for ``d_l u`` and ``i (q1 d2 - q2 d1) = -i s |k|`` for ``omega``.
        ``d`` vanishes on the mean cell, which holds ``u = (a, b)`` itself
        in the two rows starting at each listed index.
        """
        if fields not in self._symbols:
            d1, d2 = self.dvec[:, 0], self.dvec[:, 1]
            q1, q2 = self.q1.ravel(), self.q2.ravel()
            table = {
                "u": (d1, d2),
                "omega": (1j * (q1 * d2 - q2 * d1),),
                "d1u": (1j * q1 * d1, 1j * q1 * d2),
                "d2u": (1j * q2 * d1, 1j * q2 * d2),
            }
            phi = np.array([s for name in fields for s in table[name]], dtype=np.complex128)
            starts = np.cumsum([0] + [len(table[name]) for name in fields])
            u_rows = [int(i) for i, name in zip(starts, fields) if name == "u"]
            self._symbols[fields] = (phi, u_rows)
        return self._symbols[fields]


# ---------------------------------------------------------------------------
# batched low-level transforms (leading axes pass through untouched)
# ---------------------------------------------------------------------------
#
# Every matrix stage is a stacked ``@`` with one small product per path: a
# stage that multiplies from the right folds the path's fields into the rows
# of its product, one that multiplies from the left runs one product per
# field.  Folding paths into one GEMM would round a path differently for
# different batch sizes (module docstring).

def place_halfspectrum(
    basis: Basis, coeffs: np.ndarray, m: int, fields: tuple[str, ...] = ("u",)
) -> np.ndarray:
    """Write ``fields`` of a coefficient array into the occupied spectral block.

    ``coeffs`` has shape ``(..., 2, N)``; the result has shape
    ``(..., F, 2n+1, n+1)``, one scalar field per entry of ``F``: ``"u"``
    gives ``(u1, u2)``, ``"omega"`` the vorticity ``d1 u2 - d2 u1``, and
    ``"d1u"``/``"d2u"`` the two components of ``d1 u``/``d2 u``.  Cells hold
    Fourier coefficients, so ``halfspectrum_to_grid`` of the block evaluates
    the fields on the ``m x m`` collocation grid exactly.
    """
    gm = basis._grid_map(m)
    phi, u_rows = gm.symbols(tuple(fields))
    src = coeffs[..., gm.src]
    z = np.empty(coeffs.shape[:-2] + (1, gm.src.size), dtype=np.complex128)
    np.multiply(src[..., 0, :], 0.5, out=z.real[..., 0, :])
    np.multiply(src[..., 1, :], gm.amp_imag, out=z.imag[..., 0, :])
    out = z * phi
    for f in u_rows:
        out[..., f : f + 2, gm.cells[0]] = coeffs[..., :, 0]
    return out.reshape(coeffs.shape[:-2] + (len(phi),) + gm.shape)


def halfspectrum_to_grid(spec: np.ndarray, m: int) -> np.ndarray:
    """Inverse transform of a placed block ``(..., F, 2n+1, n+1)`` to ``(..., F, m, m)`` real."""
    n = spec.shape[-1] - 1
    if spec.shape[-2] != 2 * n + 1:
        raise ValueError(f"spectral block {spec.shape[-2:]} is not (2n+1, n+1)")
    gm = get_basis(n)._grid_map(m)
    lead = spec.shape[:-3]
    x = gm.inv_rows @ spec  # (..., F, m, n+1): one product per path and field
    x = x.view(np.float64).reshape(lead + (-1, 2 * (n + 1)))
    return (x @ gm.inv_cols).reshape(spec.shape[:-2] + (m, m))  # one product per path


def grid_to_halfspectrum(grid: np.ndarray, basis: Basis) -> np.ndarray:
    """Forward transform of ``(..., F, m, m)`` grids onto the block of ``basis``.

    Returns ``(..., F, 2n+1, n+1)``, the rfft2 cells with ``|k1|, k2 <= n``
    scaled by ``1/m^2``, i.e. the Fourier coefficients of the grid values.
    """
    m = grid.shape[-1]
    gm = basis._grid_map(m)
    y = grid.reshape(grid.shape[:-3] + (-1, m)) @ gm.fwd_cols  # one product per path
    y = y.view(np.complex128).reshape(grid.shape[:-2] + (m, gm.shape[1]))
    return gm.fwd_rows @ y  # one product per path and field


def gather_coeffs(basis: Basis, spec: np.ndarray, m: int) -> np.ndarray:
    """Project a vector field's block ``(..., 2, 2n+1, n+1)`` onto the canonical basis.

    Performs the orthogonal projection of each Fourier vector coefficient onto
    the divergence-free direction ``d_k`` (the mean vector passes through), so
    gradient content is discarded.  Returns ``(..., 2, N)``.
    """
    gm = basis._grid_map(m)
    cells = spec.reshape(spec.shape[:-2] + (-1,))[..., gm.cells]  # (..., 2, N)
    z = cells[..., 0, :] * gm.proj[0]
    z += cells[..., 1, :] * gm.proj[1]
    out = np.empty(spec.shape[:-3] + (2, basis.n_modes))
    out[..., 0, :] = z.real
    np.multiply(z.imag, gm.proj_imag, out=out[..., 1, :])
    out[..., :, 0] = cells[..., :, 0].real
    return out


def derivative_spectra(basis: Basis, spec: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of ``d/d theta1`` and ``d/d theta2`` of a placed block ``(..., 2n+1, n+1)``.

    A pass needs no call: ``place_halfspectrum`` writes ``d1 u`` and ``d2 u``
    directly.
    """
    gm = basis._grid_map(m)
    return (1j * gm.q1) * spec, (1j * gm.q2) * spec


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
        """Seminorm ``sqrt(sum_l ||d_l f||_0^2)`` (mean modes contribute 0)."""
        w = self.basis.norm_sq * self.basis.ksq
        return float(np.sqrt(np.sum(w * (self.coeffs * self.coeffs).sum(axis=0))))

    def divergence_max(self, m: int | None = None) -> float:
        return divergence_max(self, m)


def _check_same_basis(f: SpectralField, g: SpectralField) -> None:
    if f.basis.n != g.basis.n:
        raise ValueError(f"truncation mismatch: n={f.basis.n} vs n={g.basis.n}")


def leray_project(f: SpectralField, basis: Basis) -> SpectralField:
    """Projection of a spectral field onto the truncated basis ``basis``.

    The basis spans only divergence-free fields, so this keeps the modes the
    two index squares share and zero-fills the rest.  Grid samples reach the
    basis through ``gather_coeffs``, which removes the gradient part of each
    Fourier coefficient.
    """
    if f.basis.n == basis.n:
        return f.copy()
    out = SpectralField.zero(basis)
    nshared = min(f.basis.n, basis.n)
    for i, k in enumerate(f.basis.modes):
        if abs(k[0]) <= nshared and abs(k[1]) <= nshared:
            j = basis.index[tuple(k)]
            out.coeffs[:, j] = f.coeffs[:, i]
    return out


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


def divergence_max(f: SpectralField, m: int | None = None) -> float:
    """Max of ``|div f|`` on a collocation grid, via spectral differentiation."""
    if m is None:
        m = max(2 * f.basis.n + 2, 8)
    d1, d2 = derivative_spectra(f.basis, place_halfspectrum(f.basis, f.coeffs, m), m)
    # div f = d1 f^1 + d2 f^2
    div = halfspectrum_to_grid(d1[..., 0:1, :, :] + d2[..., 1:2, :, :], m)
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
