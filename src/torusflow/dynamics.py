"""Galerkin drift and diffusion operators for the truncated system.

The drift ``(u . grad) u`` and the transport noise ``(dW . grad) u`` are one
bilinear operator ``(a . grad) u`` with different advectors, and every
evaluation of it goes through one of two routes.  The tensor route contracts
the precomputed coupling coefficients

    b_{ikj} = < (e_i . grad) e_k , e_j >_0

over the enumerated basis (closed-form trigonometric integrals, O(n^4) per
apply); ``build_advection_tensor`` is the correctness oracle.  One routine,
``_couplings``, evaluates the closed form for any advectors and targets: the
tensor takes every pairing from it, and the probe tables of ``middle_slice``
only the pairings whose target is a component of one test function, the
tensor's slice in its order at O(n^2) per component, with no tensor built.

The pseudo-spectral route, ``advect``, forms the products on a dealiased
``M x M`` collocation grid (dense real matrix stages over the cos/sin block
of each field, O(M^2 n) per field; see ``basis``) for batched states, with
or without an advecting field, and must agree with the tensor route to full
precision; the time stepper, the drifts and ``transport_apply`` all use it.
A spatially constant advector needs no grid: its transport is the exact
per-mode rotation ``basis.constant_advection``.

``advect`` takes both terms in one divergence form.  For a divergence-free
``v``,

    (v . grad) u = div(v (x) u),    curl div(v (x) u) = d1^2 A - d2^2 B + d1 d2 C,

with the flux products ``A = v1 u2``, ``B = v2 u1`` and ``C = v2 u2 - v1
u1``.  The divergence-free part of a field is fixed by its curl, so the
products' spectra give the projection (``basis.gather_flux_coeffs``).  With
an advecting field ``w`` the pass evaluates ``scale (u . grad) u + (w .
grad) u = (v . grad) u`` for ``v = scale u + w``: a state enters through
``u``, 2 fields in, and the 3 products go forward, while a caller places
the advecting field once for every state it advects, as its 2 components.
The quadratic term alone has ``v = scale u``, so ``A = B = scale u1 u2``
and ``C = scale (u2^2 - u1^2)``: 2 fields in and 2 out (the symmetric form
of Basdevant, *J. Comput. Phys.* 50, 1983).  Every stage of a pass writes
into arrays kept for the next pass of the same shape (``_PASS``): the two
flux products of the quadratic term overwrite the grids of ``u`` that they
are formed from, the flux spectra go into the placed block's array, which is
dead once the inverse transform has read it, and the one array that waits
while the products form (``u1^2``, or with an advecting field ``v = scale u
+ w``) goes into the transforms' stage slot (``basis._STAGES``), free
between the inverse and the forward transform.  Only a pass with an
advecting field keeps an array for its 3 products.  Every grid array is
kept field-major, ``(F, ..., m, m)``, behind the path-major view ``(..., F,
m, m)`` that the transforms write and read (``Workspace.take_field_major``),
so that each product is a ufunc over contiguous fields.  The arrays are
module state, so passes must not run concurrently.

All Galerkin outputs are the orthogonal projection onto the span of the
truncated basis: representing the result in basis coefficients *is* the
projection (divergence-free part, modes inside the index square).  Mode
content pushed outside the square by an advecting field is discarded, matching
the weak formulation tested against the truncated space.

The fixed Ito-correction viscosity of the stochastic system is exposed as
``ITO_VISCOSITY``; it is not a tunable parameter because every exact energy
identity in the test battery relies on the cancellation it produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as _fft

from . import basis as _basis
from .basis import (
    Basis,
    BasisMode,
    SpectralField,
    Workspace,
    block_shape,
    constant_advection,
    constant_symbol,
    gather_flux_coeffs,
    get_basis,
    grid_to_halfspectrum,
    halfspectrum_to_grid,
    leray_project,
    place_halfspectrum,
)

#: coefficient of the Laplacian in the Ito-form drift (the Stratonovich
#: conversion of unit-rate transport noise); fixed, not a parameter.
ITO_VISCOSITY = 0.5


class TruncationMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# closed-form advection expansion
# ---------------------------------------------------------------------------
#
# For p, q != 0 with unit directions d_p, d_q and alpha = d_p . q:
#
#   (c_p . grad) c_q = -(alpha/2) d_q [ sin((p+q).t) - sin((p-q).t) ]
#   (c_p . grad) s_q = +(alpha/2) d_q [ cos((p+q).t) + cos((p-q).t) ]
#   (s_p . grad) c_q = +(alpha/2) d_q [ cos((p+q).t) - cos((p-q).t) ]
#   (s_p . grad) s_q = +(alpha/2) d_q [ sin((p+q).t) + sin((p-q).t) ]
#
# The constant advectors act as plain partial derivatives (p = 0, cosine
# factor 1); constant targets are annihilated.  Folding r -> canonical(r)
# flips the sign of sine content only.

_SHIFT_SIGNS = {
    # (adv kind, target kind) -> (output trig, amp sign at p+q, amp sign at p-q)
    ("c", "c"): ("s", -0.5, +0.5),
    ("c", "s"): ("c", +0.5, +0.5),
    ("s", "c"): ("c", +0.5, -0.5),
    ("s", "s"): ("s", +0.5, +0.5),
}


@lru_cache(maxsize=32)
def _fold_table(n: int):
    """Dense canonical-row lookup over the square ``{-n..n}``."""
    b = get_basis(n)
    size = 2 * n + 1
    idx = -np.ones((size, size), dtype=np.int64)
    for k1 in range(-n, n + 1):
        for k2 in range(-n, n + 1):
            idx[k1 + n, k2 + n] = b.mode_id((k1, k2))[0]
    return idx


@dataclass
class SortedCOO:
    """A sparse tensor of three slots, one entry per index triple.

    Entries are sorted by the linear key ``(a M + b) M + c``, where ``M`` is
    ``size``, the range of every slot, so a lookup is a binary search.
    """

    size: int
    keys: np.ndarray
    vals: np.ndarray

    def key(self, a, b, c) -> np.ndarray:
        return np.ravel_multi_index((a, b, c), (self.size,) * 3)

    @classmethod
    def coalesce(cls, size: int, a, b, c, vals) -> SortedCOO:
        """Sum the values of repeated triples, each in input order."""
        keys, inv = np.unique(np.ravel_multi_index((a, b, c), (size,) * 3), return_inverse=True)
        return cls(size, keys, np.bincount(inv, weights=vals, minlength=len(keys)))

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.unravel_index(self.keys, (self.size,) * 3)

    def lookup(self, a, b, c) -> np.ndarray:
        """Values at the triples ``(a, b, c)``; 0.0 where no entry is stored."""
        key = self.key(a, b, c)
        if not len(self.keys):
            return np.zeros(key.shape)
        pos = np.searchsorted(self.keys, key).clip(max=len(self.keys) - 1)
        return np.where(self.keys[pos] == key, self.vals[pos], 0.0)

    def nonzero(self) -> SortedCOO:
        keep = self.vals != 0.0
        return SortedCOO(self.size, self.keys[keep], self.vals[keep])


@dataclass
class AdvectionTensor:
    """Sparse coupling coefficients ``b_{ikj}`` in COO layout.

    Flat element indices run over ``[cosine modes | sine modes]`` of the
    canonical enumeration (length ``2 N``).  ``b`` is skew in its last two
    slots, which is what removes the quadratic term from every energy budget.
    A coupling may come in several pieces; ``coalesced`` sums them.
    """

    n: int
    i_idx: np.ndarray
    k_idx: np.ndarray
    j_idx: np.ndarray
    vals: np.ndarray

    @cached_property
    def coalesced(self) -> SortedCOO:
        size = 2 * get_basis(self.n).n_modes
        return SortedCOO.coalesce(size, self.i_idx, self.k_idx, self.j_idx, self.vals)

    def entry(self, adv: BasisMode, tgt: BasisMode, out: BasisMode) -> float:
        b = get_basis(self.n)
        key = []
        sign = 1.0
        for m in (adv, tgt, out):
            i, cs, ss = b.mode_id(m.k)
            sign *= cs if m.kind == "c" else ss
            key.append(i if m.kind == "c" else b.n_modes + i)
        return sign * float(self.coalesced.lookup(*key))


def _couplings(basis: Basis, adv: np.ndarray, tgt: np.ndarray, out_n: int):
    """Closed-form couplings ``b_{ikj}`` of the advectors ``adv`` on the
    targets ``tgt``, vectorized over both (flat indices, ``tgt`` ascending).

    Returns COO ``(i, k, j, value)`` over outputs ``j`` inside truncation
    ``out_n``, ordered by advector, then target kind, shift (``p + q`` before
    ``p - q``), slot (a nonconstant output before the two components of a
    constant one) and target.  Values are the raw inner products against the
    unnormalized output modes; constant targets are annihilated and give none.
    """
    from .basis import CONST_NORMSQ, MODE_NORMSQ

    n_in = basis.n_modes
    out_basis = get_basis(out_n)
    n_out = out_basis.n_modes
    # the advectors' descriptors: a constant advector acts as the partial
    # derivative along its axis and expands like a cosine
    mode = adv % n_in
    const = mode == 0
    adv_sine = (adv >= n_in) & ~const
    p = basis.modes[mode]
    d_adv = basis.dvec[mode]
    d_adv[const] = np.where(adv[const, None] >= n_in, [0.0, 1.0], [1.0, 0.0])

    tgt = tgt[tgt % n_in != 0]
    tgt_sine = tgt >= n_in
    q = basis.modes[tgt % n_in]
    dq = basis.dvec[tgt % n_in]
    alpha = d_adv[:, :1] * q[:, 0] + d_adv[:, 1:] * q[:, 1]  # (A, T)
    # each pairing's row of _SHIFT_SIGNS: its output trig (A, T) and its
    # amplitude at each shift (A, shift, T)
    pair = adv_sine[:, None].astype(int), tgt_sine.astype(int)
    rows = [[_SHIFT_SIGNS[(e, t)] for t in "cs"] for e in "cs"]
    trig_sine = np.array([[row[0] == "s" for row in r] for r in rows])[pair]
    signs = np.array([[row[1:] for row in r] for r in rows])[pair]
    amp = np.moveaxis(signs, -1, 1) * alpha[:, None, :]
    r = p[:, None, None, :] + np.array([1, -1])[:, None, None] * q  # (A, shift, T, 2)
    inside = (np.abs(r) <= out_n).all(axis=-1)
    ridx = _fold_table(out_n)[tuple(np.where(inside, r[..., c] + out_n, 0) for c in (0, 1))]
    nz = inside & (amp != 0.0)
    origin = ridx == 0
    const_out = nz & origin & ~trig_sine[:, None, :]
    slots = np.stack([nz & ~origin, const_out, const_out], axis=2)  # (A, shift, slot, T)
    by_kind = np.stack([~tgt_sine, tgt_sine])  # (kind, T)
    ia, _, sh, sl, it = np.nonzero(slots[:, None] & by_kind[:, None, None, :])

    a = amp[ia, sh, it]
    rr = r[ia, sh, it]
    rj = ridx[ia, sh, it]
    dqv = dq[it]
    trig = trig_sine[ia, it]
    dm = out_basis.dvec[rj]
    proj = dqv[:, 0] * dm[:, 0] + dqv[:, 1] * dm[:, 1]
    # the scalar sine is odd: sin(r.t) = -sin(rc.t) when r folds onto rc = -r
    positive = (rr[:, 0] > 0) | ((rr[:, 0] == 0) & (rr[:, 1] > 0))
    parity = np.where(trig & ~positive, -1.0, 1.0)
    # slot 0 projects amp d_q trig(r.t) onto its output mode; at r = 0 a
    # cosine leaves the constant vector amp d_q, one component per slot
    comp = np.maximum(sl - 1, 0)
    val = np.where(
        sl == 0,
        a * parity * proj * MODE_NORMSQ,
        a * dqv[np.arange(len(comp)), comp] * CONST_NORMSQ,
    )
    j = np.where(sl == 0, rj + n_out * trig, comp * n_out)
    return adv[ia], tgt[it], j, val


@lru_cache(maxsize=16)
def build_advection_tensor(n: int) -> AdvectionTensor:
    """All couplings ``b_{ikj}`` over truncation ``n`` (closed-form integrals)."""
    basis = get_basis(n)
    flat = np.arange(2 * basis.n_modes)
    # one call per advector kind and ring floor|p|: the enumeration runs by
    # |p|, so each ring is a contiguous run and the pieces concatenate in
    # advector order, while a call holds O(n N) pairings, not O(N^2)
    ring = np.sqrt(basis.ksq).astype(np.int64)
    runs = np.split(flat, np.flatnonzero(np.diff(np.concatenate([ring, ring + 2 * n + 1]))) + 1)
    ii, kk, jj, vv = zip(*(_couplings(basis, adv, flat, n) for adv in runs))
    # 32-bit indices: the cached tensor stays resident beside the oracle
    # checks that read it, and 2 N is far below 2^31
    return AdvectionTensor(
        n,
        np.concatenate(ii, dtype=np.int32),
        np.concatenate(kk, dtype=np.int32),
        np.concatenate(jj, dtype=np.int32),
        np.concatenate(vv),
    )


def nonlinear_direct(f: SpectralField, tensor: AdvectionTensor | None = None) -> SpectralField:
    """Galerkin projection of ``(f . grad) f`` by tensor contraction (oracle path)."""
    if tensor is None:
        tensor = build_advection_tensor(f.basis.n)
    if tensor.n != f.basis.n:
        raise TruncationMismatch(
            f"tensor built for n={tensor.n}, field has n={f.basis.n}"
        )
    b = f.basis
    c = f.coeffs.reshape(-1)
    contrib = tensor.vals * c[tensor.i_idx] * c[tensor.k_idx]
    out = np.bincount(tensor.j_idx, weights=contrib, minlength=2 * b.n_modes)
    out = out.reshape(2, b.n_modes) / b.norm_sq
    return SpectralField(b, out)


def middle_slice(basis: Basis, v: SpectralField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO quadratic form ``Q[i, j] = < (e_i . grad) v, e_j >_0``.

    Contracting ``sum_ij Q_ij u_i u_j`` evaluates ``< (u . grad) v, u >_0``
    exactly without grids, which the probe diagnostics use per step.  The
    entries are the couplings ``b_{ikj}`` whose target ``k`` is a nonzero
    component of ``v``, weighted by that component: the entries of the
    tensor's slice, in its order, from the closed form over every advector
    and only those targets, so that no tensor is built.
    """
    w = v.coeffs.reshape(-1)
    i, k, j, val = _couplings(basis, np.arange(2 * basis.n_modes), np.flatnonzero(w), basis.n)
    return i, j, val * w[k]


# ---------------------------------------------------------------------------
# pseudo-spectral path
# ---------------------------------------------------------------------------


def dealias_resolution(n_target: int, n_adv: int, n_out: int) -> int:
    """Smallest fast grid on which the quadratic product is alias-free.

    Aliasing corrupts output mode ``p`` only through product content at
    ``p +- m e_i``; keeping ``m > n_out + n_target + n_adv`` rules that out.
    """
    need = max(n_out + n_target + n_adv + 1, 2 * n_target + 2, 2 * n_adv + 2, 2 * n_out + 2, 4)
    return _fft.next_fast_len(need, real=True)


#: the arrays of one ``advect`` pass, reused by the next pass of the same
#: shape: ``spec`` holds the placed ``u``, then the flux spectra; ``grids``
#: holds ``u`` on the grid, then the quadratic term's products; ``prods``
#: holds the 3 products of a pass with an advecting field
_PASS = Workspace()


def advect(
    basis: Basis,
    coeffs: np.ndarray,
    m: int,
    scale: float = 1.0,
    advector: np.ndarray | None = None,
    out_basis: Basis | None = None,
) -> np.ndarray:
    """Galerkin projection ``scale P (u . grad) u + P (w . grad) u``.

    ``coeffs`` holds ``u`` with leading batch axes ``(..., 2, N)``;
    ``advector`` is the divergence-free ``w`` on the ``m x m`` grid as its
    components ``(w1, w2)`` (``halfspectrum_to_grid`` of
    ``place_halfspectrum``), ``(..., 2, m, m)``, and ``None`` drops the
    transport term.  One placement and one inverse transform give ``u``, 2
    fields per state; the flux products of ``v = scale u + w`` go forward
    onto the block of ``out_basis``, 2 fields without an advector and 3 with
    one (module docstring), and ``gather_flux_coeffs`` takes their
    divergence.  Every stage writes into an array of ``_PASS`` or into the
    stage slot of ``basis``: the quadratic term's products into the grids of
    ``u``, the flux spectra into the array that held the placed ``u``; only
    the result is fresh.  Returns ``(..., 2, N)`` over ``out_basis``
    (default: the basis of ``u``).
    """
    out_basis = out_basis or basis
    lead = coeffs.shape[:-2]
    spec = _PASS.take("spec", lead + (2,) + block_shape(basis))
    spec = place_halfspectrum(basis, coeffs, m, out=spec)
    # the grids are field-major (module docstring): one field is a
    # contiguous array, and every product below a contiguous ufunc, which
    # numpy runs without an iterator buffer or a copy of an operand
    u = halfspectrum_to_grid(spec, m, out=_PASS.take_field_major("grids", lead + (2, m, m)))
    u1, u2 = u[..., 0, :, :], u[..., 1, :, :]
    if advector is None:
        # u1^2 waits in the stage slot (free from the end of the inverse
        # transform to the start of the forward one) while A = u1 u2
        # overwrites u1 and C = u2^2 - u1^2 overwrites u2
        square = np.multiply(u1, u1, out=_basis._STAGES.take("stage", lead + (m, m)))
        u1 *= u2
        u2 *= u2
        u2 -= square
        if scale != 1.0:
            u *= scale
        prods = u
    else:
        v = np.multiply(u, scale, out=_basis._STAGES.take_field_major("stage", lead + (2, m, m)))
        v += advector
        prods = _PASS.take_field_major("prods", lead + (3, m, m))
        np.multiply(v[..., 0, :, :], u2, out=prods[..., 0, :, :])
        np.multiply(v[..., 1, :, :], u1, out=prods[..., 1, :, :])
        v *= u
        np.subtract(v[..., 1, :, :], v[..., 0, :, :], out=prods[..., 2, :, :])
    spec_out = _PASS.take("spec", prods.shape[:-2] + block_shape(out_basis))
    spec_out = grid_to_halfspectrum(prods, out_basis, out=spec_out)
    return gather_flux_coeffs(out_basis, spec_out, m, out=np.empty(lead + (2, out_basis.n_modes)))


def nonlinear_pseudospectral(f: SpectralField, out_basis: Basis | None = None) -> SpectralField:
    """Galerkin projection of ``(f . grad) f`` via the dealiased grid product."""
    out_basis = out_basis or f.basis
    m = dealias_resolution(f.basis.n, f.basis.n, out_basis.n)
    return SpectralField(out_basis, advect(f.basis, f.coeffs, m, out_basis=out_basis))


def transport_apply(
    f: SpectralField, w: SpectralField, out_basis: Basis | None = None
) -> SpectralField:
    """Galerkin projection of ``(w . grad) f`` for a divergence-free advector.

    A constant advector (a field over ``get_basis(0)``) reduces to the exact
    mode-wise rotation; general ones go through the dealiased product.
    Content shifted outside the output truncation is discarded (projection
    onto the truncated span).
    """
    out_basis = out_basis or f.basis
    if w.basis.n == 0:
        kappa = constant_symbol(f.basis, w.coeffs[0, 0], w.coeffs[1, 0])
        res = SpectralField(f.basis, constant_advection(kappa, f.coeffs))
        return res if out_basis.n == f.basis.n else leray_project(res, out_basis)
    m = dealias_resolution(f.basis.n, w.basis.n, out_basis.n)
    w_grid = halfspectrum_to_grid(place_halfspectrum(w.basis, w.coeffs, m), m)
    return SpectralField(out_basis, advect(f.basis, f.coeffs, m, 0.0, w_grid, out_basis))


# ---------------------------------------------------------------------------
# Stokes operator
# ---------------------------------------------------------------------------


def stokes_apply(f: SpectralField) -> SpectralField:
    """Spectral Stokes operator: multiply each mode by ``|k|^2``."""
    return SpectralField(f.basis, f.coeffs * f.basis.ksq)
