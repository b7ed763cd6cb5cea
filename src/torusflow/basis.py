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
A field of truncation ``n`` is a real cosine/sine sum over the wavevectors
with ``0 <= k1 <= n`` and ``|k2| <= n``, which fit an ``(n+1) x 2(2n+1)``
block of real cos/sin coefficients, while the dealiased grid is ``m x m``
with ``m >= 3n + 1``.  For transforms this short and this sparse, partial
summation by dense matrix products beats an FFT (Boyd, *Chebyshev and
Fourier Spectral Methods*, 2001, ch. 10), so every transform is two real
matrix stages over the block.  ``place_halfspectrum`` writes the two
components of ``u`` straight from the coefficients into the block, one
gather and one multiply by per-cell weights;
``halfspectrum_to_grid`` applies the cos/sin rotation of ``k2 theta2`` from
the right, then the cos/sin of ``k1 theta1`` from the left;
``grid_to_halfspectrum`` applies the adjoint stages in the opposite order,
computing only the output block; and ``gather_coeffs`` projects a vector
field's block onto the basis, ``gather_flux_coeffs`` the divergence of a
flux given by its scalar blocks.  The names keep the word "halfspectrum":
a block cell pair ``(alpha, beta)`` at ``k`` is the rfft2 coefficient
``(alpha - i beta) / 2`` at ``k`` together with its conjugate at ``-k``.

Each stage is a stacked ``@`` with one small product per path (fields may
share a product, since their number is fixed by the pass).  Paths are never
folded into the rows or columns of one GEMM: BLAS rounds a row differently
for different row counts, and would switch to a matrix-vector kernel for a
single path, so a path would not give the same bits alone and in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
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


class Workspace:
    """Arrays reused across calls: one slot per name, grown when a call needs more.

    A call gets a C-contiguous array of the shape it asks for, made of the
    first elements of its slot, so a smaller shape (a partial path block, the
    paths still active) reuses the slot and only a larger one reallocates it.
    A slot is overwritten by the next call that takes it, so nothing a caller
    keeps may be a slot or a view of one.
    """

    def __init__(self):
        self._slots: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = prod(shape)
        a = self._slots.get(name)
        if a is None or a.size < size:
            a = self._slots[name] = np.empty(size)
        return a[:size].reshape(shape)

    def take_field_major(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """``take`` of grids ``(..., F, m, m)`` laid out as ``(F, ..., m, m)``,
        through a view of the asked shape: each field is one contiguous array."""
        fields = shape[:-3] + shape[-2:]
        return np.moveaxis(self.take(name, (shape[-3],) + fields), 0, -3)


#: the stage array of the transforms called with ``out=``: one slot, since
#: its four users are never live at once: the inverse, the forward and the
#: gather stage, and ``dynamics.advect``'s flux products on the grid, which
#: keep ``u1^2`` or ``v`` here between the inverse and the forward transform
_STAGES = Workspace()

#: paths per chunk of the per-step observations (``batch_norms_sq`` and the
#: martingale probes' quadratic form), so their scratch arrays hold one chunk
#: however many paths the batch has.  At n=8 on 256 paths (a 2-vCPU host,
#: pinned to one CPU, medians of 30 timings in two passes), the pairings of
#: three one-mode probes took 0.64-0.70 ms in chunks of 64, 0.63-0.68 ms
#: unchunked, 0.72-0.91 ms in chunks of 32 and 0.62-0.68 ms in 128, and the
#: norms 0.22, 0.19, 0.31 and 0.21 ms; 64 keeps the time and a chunk's
#: arrays under 0.5 MB.  ``path_chunks`` keeps every path's bits
CHUNK_PATHS = 64


def path_chunks(paths: int) -> list[slice]:
    """``range(paths)`` in chunks of ``CHUNK_PATHS``, a last chunk of fewer
    than 4 paths joined to the one before it.

    A matrix-vector product rounds a row by its place in the matrix, and a
    chunk starts where the batch's rows repeat that place; but numpy takes a
    product over one row as a dot product, and OpenBLAS (0.3.31, x86-64)
    rounds products over 2 or 3 rows differently as well.
    """
    starts = list(range(0, paths, CHUNK_PATHS))
    if len(starts) > 1 and paths - starts[-1] < 4:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [paths])]


def block_shape(basis: Basis) -> tuple[int, int]:
    """Rows ``k1 = 0..n`` and columns ``[alpha | beta]`` over ``k2 = -n..n`` of a field's block."""
    return basis.n + 1, 2 * (2 * basis.n + 1)


class _GridMap:
    """The real cos/sin block of a basis and its DFT matrices on an ``m x m`` grid.

    A scalar field of truncation ``n`` is ``sum alpha cos(k . theta) + beta
    sin(k . theta)`` over rows ``k1 = 0..n`` and columns ``[alpha | beta]``
    for ``k2 = -n..n``, an ``(n+1) x 2(2n+1)`` block.  Each canonical mode
    owns one cell pair, ``cells`` (its ``alpha`` cell; the ``beta`` cell is
    ``2n+1`` further on); the cells with ``k1 = 0, k2 < 0`` stay 0.

    The inverse right-multiplies the block by ``inv_k2``, the rotation
    ``[[cos, -sin], [sin, cos]]`` of ``k2 theta2`` (2(2n+1) x 2m), which
    leaves per row the cos and sin parts of ``k1 theta1`` side by side; the
    reshape to ``(2(n+1), m)`` is free, and ``inv_k1``, the interleaved
    cos/sin of ``k1 theta1`` (m x 2(n+1)), multiplies from the left.  The
    forward is the adjoint, ``fwd_k1 = inv_k1^T / m^2`` then ``fwd_k2 =
    inv_k2^T``, so a cell pair receives ``(Re Z(k), -Im Z(k))`` of the grid's
    Fourier coefficient ``Z(k)``.
    """

    def __init__(self, basis: Basis, m: int):
        n = basis.n
        if m < 2 * n + 1:
            raise ResolutionError(
                f"grid m={m} cannot carry truncation n={n} (need m >= {2 * n + 1})"
            )
        width = 2 * n + 1
        self.shape = block_shape(basis)
        k1, k2 = basis.modes[:, 0], basis.modes[:, 1]
        self.cells = k1 * self.shape[1] + k2 + n
        # the mode each cell reads; a cell no mode owns reads the mean, whose
        # d and k are 0
        self.owner = np.zeros(self.shape, dtype=np.int64)
        for half in (0, width):
            self.owner.ravel()[self.cells + half] = np.arange(basis.n_modes)
        is_beta = np.arange(2 * width) >= width

        # placement of component c of u: a cell pair holds d_c (a, b) of its
        # mode, each cell one flattened coefficient ``row * N + mode`` times
        # a weight; d vanishes at the origin, whose alpha cell holds the
        # mean's component c
        size = self.owner.size
        origin = self.cells[0]
        index = np.stack([is_beta * basis.n_modes + self.owner] * 2)
        weight = np.moveaxis(basis.dvec[self.owner], -1, 0).copy()
        for c in (0, 1):
            index[c].ravel()[origin] = c * basis.n_modes
            weight[c].ravel()[origin] = 1.0
        self.placement = index, weight

        # gather: one index into the two flattened components per output
        # coefficient (row r of mode i reads the alpha cell for r = 0 and the
        # beta cell for r = 1, the mean both rows from the alpha cell)
        beta_cells = self.cells + width
        beta_cells[0] = self.cells[0]
        rows = np.stack([self.cells, beta_cells])
        self.gather_idx = np.stack([rows, size + rows])  # (component, row, mode)
        self.gather_w = np.stack([2.0 * basis.dvec.T] * 2, axis=1)
        self.gather_w[:, :, 0] = np.eye(2)

        # flux gathers by block count: the curl of div(v (x) u) has the
        # symbol -k1^2, k2^2 and -k1 k2 on the blocks of (A, B, C) = (v1 u2,
        # v2 u1, v2 u2 - v1 u1), and k2^2 - k1^2 on A when A = B (v = u);
        # mode k's pair (a, b) is (2 beta, -2 alpha) / |k| of the curl's
        # cell pair, and the mean of a divergence is 0, so it reads nothing
        q1, q2 = basis.modes[:, 0].astype(np.float64), basis.modes[:, 1].astype(np.float64)
        kabs = np.sqrt(np.where(basis.ksq > 0, basis.ksq, np.inf))
        rows = np.stack([self.cells + width, self.cells])  # a reads beta, b alpha
        self.flux = {}
        for symbols in ([-q1 * q1, q2 * q2, -q1 * q2], [q2 * q2 - q1 * q1, -q1 * q2]):
            symbols = np.stack(symbols) * (2.0 / kabs)
            index = np.stack([f * size + rows for f in range(len(symbols))])  # (field, row, mode)
            self.flux[len(symbols)] = index, np.stack([symbols, -symbols], axis=1)

        # trig tables from the root-of-unity table, indexed by k . j mod m
        root = np.exp(2j * np.pi * np.arange(m) / m)
        nodes = np.arange(m)
        e2 = root[np.outer(np.arange(-n, n + 1), nodes) % m]  # (2n+1, m) at k2 theta2
        self.inv_k2 = np.block([[e2.real, -e2.imag], [e2.imag, e2.real]])
        e1 = root[np.outer(nodes, np.arange(n + 1)) % m]  # (m, n+1) at k1 theta1
        self.inv_k1 = np.empty((m, 2 * (n + 1)))
        self.inv_k1[:, 0::2] = e1.real
        self.inv_k1[:, 1::2] = e1.imag
        self.fwd_k1 = np.ascontiguousarray(self.inv_k1.T) / (m * m)
        self.fwd_k2 = np.ascontiguousarray(self.inv_k2.T)


# ---------------------------------------------------------------------------
# batched low-level transforms (leading axes pass through untouched)
# ---------------------------------------------------------------------------
#
# Every matrix stage is a stacked real ``@`` with one small product per path:
# a stage that multiplies from the right folds the path's fields into the
# rows of its product, one that multiplies from the left runs one product per
# field.  Folding paths into one GEMM would round a path differently for
# different batch sizes (module docstring).  Each function returns a fresh
# array unless the caller passes ``out=``; with ``out=``, the stage array in
# between is reused as well.

def place_halfspectrum(
    basis: Basis, coeffs: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Write the components ``(u1, u2)`` of a coefficient array into the real cos/sin block.

    ``coeffs`` has shape ``(..., 2, N)``; the result has shape ``(..., 2,
    n+1, 2(2n+1))``, and ``halfspectrum_to_grid`` of it evaluates ``u`` on
    the ``m x m`` collocation grid exactly.  One gather and one multiply by
    per-cell weights.
    """
    index, weight = basis._grid_map(m).placement
    flat = coeffs.reshape(coeffs.shape[:-2] + (-1,))
    out = np.take(flat, index, axis=-1, out=out, mode="clip")
    np.multiply(out, weight, out=out)
    return out


def halfspectrum_to_grid(
    spec: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse transform of a placed block ``(..., F, n+1, 2(2n+1))`` to ``(..., F, m, m)``."""
    n = spec.shape[-2] - 1
    if spec.shape[-1] != 2 * (2 * n + 1):
        raise ValueError(f"spectral block {spec.shape[-2:]} is not (n+1, 2(2n+1))")
    gm = get_basis(n)._grid_map(m)
    lead, fields = spec.shape[:-3], spec.shape[-3]
    rows = lead + (fields * (n + 1), 2 * m)
    stage = None if out is None else _STAGES.take("stage", rows)
    x = np.matmul(spec.reshape(rows[:-1] + (-1,)), gm.inv_k2, out=stage)  # one per path
    x = x.reshape(lead + (fields, 2 * (n + 1), m))
    return np.matmul(gm.inv_k1, x, out=out)  # one product per path and field


def grid_to_halfspectrum(
    grid: np.ndarray, basis: Basis, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward transform of ``(..., F, m, m)`` grids onto the block of ``basis``.

    Returns ``(..., F, n+1, 2(2n+1))``: each cell pair holds ``(Re Z(k), -Im
    Z(k))`` of the grid's Fourier coefficient ``Z(k) = m^-2 sum g e^{-i k .
    theta}``, i.e. half the grid's cos/sin coefficients away from the mean.
    """
    m = grid.shape[-1]
    gm = basis._grid_map(m)
    n = basis.n
    lead, fields = grid.shape[:-3], grid.shape[-3]
    shape = lead + (fields, 2 * (n + 1), m)
    stage = None if out is None else _STAGES.take("stage", shape)
    y = np.matmul(gm.fwd_k1, grid, out=stage)  # one product per path and field
    y = y.reshape(lead + (fields * (n + 1), 2 * m))
    rows = None if out is None else out.reshape(y.shape[:-1] + (-1,))
    res = np.matmul(y, gm.fwd_k2, out=rows)  # one product per path
    return res.reshape(lead + (fields,) + gm.shape)


def gather_coeffs(
    basis: Basis, spec: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Project a vector field's block ``(..., 2, n+1, 2(2n+1))`` onto the canonical basis.

    Performs the orthogonal projection of each Fourier vector coefficient onto
    the divergence-free direction ``d_k`` (the mean vector passes through), so
    gradient content is discarded: one gather, a multiply, and a sum over the
    two components.  Returns ``(..., 2, N)``.
    """
    gm = basis._grid_map(m)
    return _weighted_sum(spec, gm.gather_idx, gm.gather_w, out)


def gather_flux_coeffs(
    basis: Basis, spec: np.ndarray, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Project ``div(v (x) u)`` onto the canonical basis from its flux blocks.

    ``spec`` holds the blocks ``(..., 3, n+1, 2(2n+1))`` of ``A = v1 u2``,
    ``B = v2 u1`` and ``C = v2 u2 - v1 u1``, or ``(..., 2, ...)`` of ``A``
    and ``C`` when ``A = B``, as for ``v = u``.  The curl of the divergence,
    ``d1^2 A - d2^2 B + d1 d2 C``, is the symbol ``-k1^2 A + k2^2 B - k1 k2
    C`` on the cells (``(k2^2 - k1^2) A - k1 k2 C`` for two blocks), and the
    divergence-free part of a field is fixed by its curl: mode ``k`` gets
    ``(a, b) = (2 beta, -2 alpha) / |k|`` of the curl's cell pair ``(alpha,
    beta)``, and the mean gets 0, the mean of every divergence.  For
    divergence-free ``v`` the result is ``P (v . grad) u``.  One gather, a
    multiply and a sum over the blocks.  Returns ``(..., 2, N)``.
    """
    index, weight = basis._grid_map(m).flux[spec.shape[-3]]
    return _weighted_sum(spec, index, weight, out)


def _weighted_sum(spec: np.ndarray, index: np.ndarray, weight: np.ndarray, out) -> np.ndarray:
    """Gather ``index`` ``(F, 2, N)`` from the flattened blocks of ``spec``,
    multiply by ``weight`` and sum over ``F``, in order; with ``out=``, the
    gathered parts go into a stage array."""
    flat = spec.reshape(spec.shape[:-3] + (-1,))
    shape = flat.shape[:-1] + index.shape
    parts = None if out is None else _STAGES.take("stage", shape)
    parts = np.take(flat, index, axis=-1, out=parts, mode="clip")
    np.multiply(parts, weight, out=parts)
    out = np.add(parts[..., 0, :, :], parts[..., 1, :, :], out=out)
    for f in range(2, len(index)):
        out += parts[..., f, :, :]
    return out


def derivative_spectra(basis: Basis, spec: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of ``d/d theta1`` and ``d/d theta2`` of a placed block ``(..., n+1, 2(2n+1))``.

    Each cell pair maps ``(alpha, beta) -> (k_l beta, -k_l alpha)``; no
    operator pass needs it.
    """
    n = basis.n
    width = 2 * n + 1
    k1 = np.arange(n + 1.0)[:, None]
    k2 = np.arange(-n, n + 1.0)
    alpha, beta = spec[..., :width], spec[..., width:]
    return (
        np.concatenate([k1 * beta, -k1 * alpha], axis=-1),
        np.concatenate([k2 * beta, -k2 * alpha], axis=-1),
    )


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


def constant_advection(
    kappa: np.ndarray, coeffs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact ``(a . grad) u`` for a spatially constant advector ``a``.

    ``kappa = a . k`` is the per-mode symbol (leading axes broadcast against
    ``coeffs`` of shape ``(..., 2, N)``); transport rotates each cosine/sine
    pair, ``(a, b) -> (kappa b, -kappa a)``, and never leaves the mode set.
    ``out``, if given, must not overlap ``coeffs``.
    """
    if out is None:
        lead = np.broadcast_shapes(np.shape(kappa), coeffs.shape[:-2] + coeffs.shape[-1:])
        out = np.empty(lead[:-1] + (2,) + lead[-1:])
    np.multiply(kappa, coeffs[..., 1, :], out=out[..., 0, :])
    # -(kappa a) is (-kappa) a: rounding is symmetric in the sign
    np.multiply(kappa, coeffs[..., 0, :], out=out[..., 1, :])
    np.negative(out[..., 1, :], out=out[..., 1, :])
    return out


def constant_symbol(basis: Basis, a1, a2) -> np.ndarray:
    """The per-mode symbol ``kappa = a . k = a1 k1 + a2 k2`` of constant advectors.

    ``a1`` and ``a2`` broadcast against the ``N`` modes of ``basis``.
    """
    return a1 * basis.modes[:, 0].astype(np.float64) + a2 * basis.modes[:, 1].astype(np.float64)


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


def batch_norms_sq(
    basis: Basis, coeffs: np.ndarray, work: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_l2_sq` and :func:`batch_h1_sq` from one squaring into ``work``.

    The paths are squared ``CHUNK_PATHS`` at a time, so ``work`` holds two
    ``(CHUNK_PATHS, N)`` arrays however large the batch.  The arithmetic of
    each path is theirs, operation for operation, so the bits are too.
    """
    rows = coeffs.reshape((-1,) + coeffs.shape[-2:])
    l2, h1 = np.empty(len(rows)), np.empty(len(rows))
    h1_weight = basis.norm_sq * basis.ksq
    for chunk in path_chunks(len(rows)):
        shape = (chunk.stop - chunk.start, coeffs.shape[-1])
        energy = np.square(rows[chunk, 0, :], out=work.take("energy", shape))
        weighted = np.square(rows[chunk, 1, :], out=work.take("weighted", shape))
        energy += weighted
        np.multiply(basis.norm_sq, energy, out=weighted).sum(axis=-1, out=l2[chunk])
        np.multiply(h1_weight, energy, out=weighted).sum(axis=-1, out=h1[chunk])
    return l2.reshape(coeffs.shape[:-2]), h1.reshape(coeffs.shape[:-2])


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
