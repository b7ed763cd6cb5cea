"""Galerkin drift and diffusion operators for the truncated system.

The drift ``(u . grad) u`` and the transport noise ``(dW . grad) u`` are one
bilinear operator ``(a . grad) u`` with different advectors, and every
evaluation of it goes through one of two routes.  The tensor route contracts
the precomputed coupling coefficients

    b_{ikj} = < (e_i . grad) e_k , e_j >_0

over the enumerated basis (closed-form trigonometric integrals, O(n^4) per
apply); ``build_advection_tensor`` is the correctness oracle, and the probe
tables of ``middle_slice`` are slices of it.  The pseudo-spectral route,
``advect``, forms the products on a dealiased collocation grid
(O(M^2 log M)) for batched states and any number of advectors, and must
agree with the tensor route to full precision; the time stepper, the drifts
and ``transport_apply`` all use it.  A spatially constant advector needs no
grid: its transport is the exact per-mode rotation
``basis.constant_advection``.

``advect`` takes the quadratic term in rotational form.  In 2D

    (u . grad) u = grad(|u|^2 / 2) + omega u_perp,
    omega = d1 u2 - d2 u1,   u_perp = (-u2, u1),

and the projection removes the gradient, so ``P (u . grad) u = P (omega
u_perp)`` exactly at every truncation (Canuto, Hussaini, Quarteroni & Zang,
*Spectral Methods in Fluid Dynamics*, 1988, ch. 7; Orszag 1971).  The
product needs 3 inverse-transformed fields per state, ``(u1, u2, omega)``,
against 6 for ``(d1 u, d2 u, u)``; transport by a field advector needs the
gradient, 4 fields, and with both terms requested ``omega`` is read off the
gradient grids, 6 fields.  Each term takes 2 forward-transformed fields.

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

from .basis import (
    Basis,
    BasisMode,
    SpectralField,
    constant_advection,
    curl_spectrum,
    derivative_spectra,
    gather_coeffs,
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


def _advector_descriptor(basis: Basis, kind: str, i: int):
    """(direction vector, wavevector, effective trig kind) of one advector."""
    if i == 0:
        d = np.array([1.0, 0.0]) if kind == "c" else np.array([0.0, 1.0])
        return d, np.array([0, 0]), "c"
    return basis.dvec[i], basis.modes[i], kind


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

    @property
    def nnz(self) -> int:
        return len(self.vals)

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


def _mode_expansion(basis: Basis, kind: str, i: int, out_n: int):
    """Vectorized closed-form expansion of ``(e . grad) e_k`` for one advector.

    Returns COO pieces (k_flat, j_flat, value) over targets ``k`` of both
    kinds and outputs inside truncation ``out_n``.  Values are the raw inner
    products against the unnormalized output modes.
    """
    from .basis import CONST_NORMSQ, MODE_NORMSQ

    d_adv, p, eff_kind = _advector_descriptor(basis, kind, i)
    fold_idx = _fold_table(out_n)
    out_basis = get_basis(out_n)
    n_out = out_basis.n_modes

    q = basis.modes[1:]  # targets with nonzero wavevector
    nq = len(q)
    alpha = d_adv[0] * q[:, 0] + d_adv[1] * q[:, 1]
    dq = basis.dvec[1:]

    pieces = []
    for tgt_kind in ("c", "s"):
        trig, s_plus, s_minus = _SHIFT_SIGNS[(eff_kind, tgt_kind)]
        tgt_flat = (np.arange(1, nq + 1)
                    if tgt_kind == "c" else basis.n_modes + np.arange(1, nq + 1))
        for shift_sign, amp_sign in ((+1, s_plus), (-1, s_minus)):
            r = p[None, :] + shift_sign * q  # (nq, 2)
            amp = amp_sign * alpha
            inside = (np.abs(r[:, 0]) <= out_n) & (np.abs(r[:, 1]) <= out_n)
            nz = inside & (amp != 0.0)
            if not np.any(nz):
                continue
            rr = r[nz]
            a = amp[nz]
            dqv = dq[nz]
            tgt_f = tgt_flat[nz]
            ridx = fold_idx[rr[:, 0] + out_n, rr[:, 1] + out_n]
            origin = ridx == 0
            # nonzero output wavevectors: project amp * d_q * trig(r.t)
            if np.any(~origin):
                sel = ~origin
                rj = ridx[sel]
                dm = out_basis.dvec[rj]
                proj = dqv[sel, 0] * dm[:, 0] + dqv[sel, 1] * dm[:, 1]
                if trig == "s":
                    # the scalar sine is odd: sin(r.t) = -sin(rc.t) when r
                    # folds onto rc = -r
                    parity = np.where(
                        (rr[sel, 0] > 0) | ((rr[sel, 0] == 0) & (rr[sel, 1] > 0)), 1.0, -1.0
                    )
                    val = a[sel] * parity * proj * MODE_NORMSQ
                    jf = out_basis.n_modes + rj
                else:
                    val = a[sel] * proj * MODE_NORMSQ
                    jf = rj
                pieces.append((tgt_f[sel], jf, val))
            # r = 0 with cosine trig: a constant vector amp * d_q
            if np.any(origin) and trig == "c":
                sel = origin
                for comp, off in ((0, 0), (1, n_out)):
                    val = a[sel] * dqv[sel, comp] * CONST_NORMSQ
                    jf = np.full(val.shape, off, dtype=np.int64)
                    pieces.append((tgt_f[sel], jf, val))
    return pieces


@lru_cache(maxsize=16)
def build_advection_tensor(n: int) -> AdvectionTensor:
    """All couplings ``b_{ikj}`` over truncation ``n`` (closed-form integrals)."""
    basis = get_basis(n)
    ii, kk, jj, vv = [], [], [], []
    for kind, off in (("c", 0), ("s", basis.n_modes)):
        for i in range(basis.n_modes):
            for k_f, j_f, val in _mode_expansion(basis, kind, i, n):
                ii.append(np.full(val.shape, off + i, dtype=np.int64))
                kk.append(k_f)
                jj.append(j_f)
                vv.append(val)
    # 32-bit indices: the cached tensor stays resident beside every probe's
    # ensemble, and 2 N is far below 2^31
    if ii:
        return AdvectionTensor(
            n,
            np.concatenate(ii, dtype=np.int32),
            np.concatenate(kk, dtype=np.int32),
            np.concatenate(jj, dtype=np.int32),
            np.concatenate(vv),
        )
    return AdvectionTensor(n, *(np.zeros(0, dtype=np.int32),) * 3, np.zeros(0))


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
    entries are the couplings of the cached tensor whose target ``k`` is a
    nonzero component of ``v``, weighted by that component.
    """
    t = build_advection_tensor(basis.n)
    w = v.coeffs.reshape(-1)[t.k_idx]
    nz = w != 0.0
    return t.i_idx[nz], t.j_idx[nz], t.vals[nz] * w[nz]


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


def advect(
    basis: Basis,
    coeffs: np.ndarray,
    m: int,
    advectors: tuple = (None,),
    out_basis: Basis | None = None,
) -> np.ndarray:
    """Galerkin projections ``P (a . grad) u``, one per advector ``a``.

    ``coeffs`` holds ``u`` with leading batch axes ``(..., 2, N)``.  Each entry
    of ``advectors`` is either ``None``, standing for ``u`` itself (the
    quadratic term ``P (u . grad) u``), or an advecting field already on the
    ``m x m`` grid, ``(..., 2, m, m)``, so a caller transforms a field it
    reuses only once.  The quadratic term is taken in rotational form,
    ``P (u . grad) u = P (omega u_perp)`` (module docstring), and the inverse
    transforms evaluate only the fields the products need, per state:

    * ``(None,)``: ``u`` and ``omega``, 3 fields, with the ``omega`` spectrum
      formed directly as ``i (k1 u2 - k2 u1)``;
    * ``(w,)``: ``(d1 u, d2 u)``, 4 fields;
    * ``(None, w)``: ``(d1 u, d2 u, u)``, 6 fields, with
      ``omega = d1 u2 - d2 u1`` taken from the gradient grids.

    One forward transform takes the stacked products, 2 fields each.  Returns
    ``(len(advectors), ..., 2, N)`` over ``out_basis`` (default: the basis
    of ``u``).
    """
    spec = place_halfspectrum(basis, coeffs, m)
    if all(a is None for a in advectors):
        # two inverse calls rather than one on a concatenated copy, and each
        # large temporary freed as soon as it is dead: a pass that holds
        # fewer of them at once touches fewer fresh pages (n=8, 256 paths:
        # ~3200 minor faults per pass against ~3900, ~10% of its time)
        omega = halfspectrum_to_grid(curl_spectrum(basis, spec, m)[..., None, :, :], m)
        u = halfspectrum_to_grid(spec, m)
        del spec
        self_term = _omega_u_perp(omega, u)
        del u, omega
        prods = [self_term] * len(advectors)
    else:
        d1, d2 = derivative_spectra(basis, spec, m)
        need_self = any(a is None for a in advectors)
        grids = halfspectrum_to_grid(np.stack([d1, d2, spec] if need_self else [d1, d2]), m)
        g1, g2 = grids[0], grids[1]
        if need_self:
            self_term = _omega_u_perp(g1[..., 1:2, :, :] - g2[..., 0:1, :, :], grids[2])
        prods = [
            self_term if a is None else a[..., 0:1, :, :] * g1 + a[..., 1:2, :, :] * g2
            for a in advectors
        ]
    stack = prods[0][None] if len(prods) == 1 else np.stack(prods)
    return gather_coeffs(out_basis or basis, grid_to_halfspectrum(stack), m)


def _omega_u_perp(omega: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``omega u_perp = (-omega u2, omega u1)`` on the grid, ``(..., 2, m, m)``."""
    p = omega * u[..., ::-1, :, :]
    p[..., 0, :, :] *= -1.0
    return p


def nonlinear_pseudospectral(f: SpectralField, out_basis: Basis | None = None) -> SpectralField:
    """Galerkin projection of ``(f . grad) f`` via the dealiased grid product."""
    out_basis = out_basis or f.basis
    m = dealias_resolution(f.basis.n, f.basis.n, out_basis.n)
    return SpectralField(out_basis, advect(f.basis, f.coeffs, m, out_basis=out_basis)[0])


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
        k1 = f.basis.modes[:, 0].astype(np.float64)
        k2 = f.basis.modes[:, 1].astype(np.float64)
        kappa = w.coeffs[0, 0] * k1 + w.coeffs[1, 0] * k2
        res = SpectralField(f.basis, constant_advection(kappa, f.coeffs))
        return res if out_basis.n == f.basis.n else leray_project(res, out_basis)
    m = dealias_resolution(f.basis.n, w.basis.n, out_basis.n)
    w_grid = halfspectrum_to_grid(place_halfspectrum(w.basis, w.coeffs, m), m)
    return SpectralField(out_basis, advect(f.basis, f.coeffs, m, (w_grid,), out_basis)[0])


# ---------------------------------------------------------------------------
# Stokes operator
# ---------------------------------------------------------------------------


def stokes_apply(f: SpectralField) -> SpectralField:
    """Spectral Stokes operator: multiply each mode by ``|k|^2``."""
    return SpectralField(f.basis, f.coeffs * f.basis.ksq)
