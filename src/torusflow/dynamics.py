"""Galerkin drift and diffusion operators for the truncated system.

The drift ``(u . grad) u`` and the transport noise ``(dW . grad) u`` are one
bilinear operator ``(a . grad) u`` with different advectors, and every
evaluation of it goes through one of two routes.  The tensor route contracts
the precomputed coupling coefficients

    b_{ikj} = < (e_i . grad) e_k , e_j >_0

over the enumerated basis (closed-form trigonometric integrals, O(n^4) per
apply); ``build_advection_tensor`` is the correctness oracle, and the probe
tables of ``middle_slice`` are slices of it.  The pseudo-spectral route,
``advect``, forms the products on a dealiased ``M x M`` collocation grid
(dense real matrix stages over the cos/sin block of each field, O(M^2 n)
per field; see ``basis``) for batched states, with or without an advecting
field, and must agree with the tensor route to full precision; the time
stepper, the drifts and ``transport_apply`` all use it.  A spatially
constant advector needs no grid: its transport is the exact per-mode
rotation ``basis.constant_advection``.

``advect`` takes the quadratic term alone in rotational form.  In 2D, with
``omega = d1 u2 - d2 u1`` and ``u_perp = (-u2, u1)``,

    (u . grad) u = grad(|u|^2 / 2) + omega u_perp,

and the projection removes the gradient exactly at every truncation
(Canuto, Hussaini, Quarteroni & Zang, *Spectral Methods in Fluid Dynamics*,
1988, ch. 7; Orszag 1971), so a state enters only through ``u_perp`` and
``omega``, 3 fields in, and ``omega u_perp`` goes forward, 2 fields out.
With an advecting field ``w`` both terms are one transport, ``scale (u .
grad) u + (w . grad) u = (v . grad) u`` for the divergence-free ``v = scale
u + w``, taken in divergence form,

    (v . grad) u = div(v (x) u),    curl div(v (x) u) = d1^2 A - d2^2 B + d1 d2 C,

with the flux products ``A = v1 u2``, ``B = v2 u1`` and ``C = v2 u2 - v1
u1``.  The divergence-free part of a field is fixed by its curl, so the
three products' spectra give the projection (``basis.gather_flux_coeffs``):
a state enters through ``u``, 2 fields in, the 3 products go forward, and a
caller places the advecting field once for every state it advects, as its
2 components (the symmetric-form saving of Basdevant, *J. Comput. Phys.*
50, 1983; the rotational form of transport needs ``w_perp``, ``d1 w`` and
``d2 w``, 6 fields).  Every stage of a pass writes into arrays kept for the
next pass of the same shape (``_PASS``); the arrays are module state, so
passes must not run concurrently.

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
    Workspace,
    block_shape,
    constant_advection,
    gather_coeffs,
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


#: the arrays of one ``advect`` pass, reused by the next pass of the same shape
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
    components ``(w1, w2)`` (``place_halfspectrum``'s ``("u",)``),
    ``(..., 2, m, m)``, and ``None`` drops the transport term.  Without an
    advector one placement and one inverse transform give ``(u_perp,
    omega)``, 3 fields per state, and one forward transform takes the 2
    fields of ``omega u_perp`` (module docstring).  With one, both terms are
    ``(v . grad) u`` for ``v = scale u + w``: the inverse transform gives
    ``u``, 2 fields, and the 3 flux products ``(v1 u2, v2 u1, v2 u2 - v1
    u1)`` go forward onto the block of ``out_basis``, where
    ``gather_flux_coeffs`` takes their divergence.  Every stage writes into
    an array of ``_PASS``; only the result is fresh.  Returns ``(..., 2, N)``
    over ``out_basis`` (default: the basis of ``u``).
    """
    out_basis = out_basis or basis
    lead = coeffs.shape[:-2]
    if advector is None:
        spec = _PASS.take("spec", lead + (3,) + block_shape(basis))
        spec = place_halfspectrum(basis, coeffs, m, ("uperp", "omega"), out=spec)
        grids = halfspectrum_to_grid(spec, m, out=_PASS.take("grids", lead + (3, m, m)))
        prods = _PASS.take("prods", lead + (2, m, m))
        np.multiply(grids[..., 2:3, :, :], grids[..., 0:2, :, :], out=prods)
        if scale != 1.0:
            prods *= scale
        gather = gather_coeffs
    else:
        spec = _PASS.take("spec", lead + (2,) + block_shape(basis))
        spec = place_halfspectrum(basis, coeffs, m, ("u",), out=spec)
        u = halfspectrum_to_grid(spec, m, out=_PASS.take("grids", lead + (2, m, m)))
        v = np.multiply(u, scale, out=_PASS.take("v", lead + (2, m, m)))
        v += advector
        prods = _PASS.take("prods", lead + (3, m, m))
        # numpy buffers every strided operand of a ufunc, so each product
        # takes the whole batch in one call, and C is a reduction over the
        # field axis, which needs no buffer
        np.multiply(v, u[..., ::-1, :, :], out=prods[..., 0:2, :, :])
        vu = np.multiply(v, u, out=v)
        np.subtract.reduce(vu[..., ::-1, :, :], axis=-3, out=prods[..., 2, :, :])
        gather = gather_flux_coeffs
    spec_out = _PASS.take("spec_out", prods.shape[:-2] + block_shape(out_basis))
    spec_out = grid_to_halfspectrum(prods, out_basis, out=spec_out)
    return gather(out_basis, spec_out, m, out=np.empty(lead + (2, out_basis.n_modes)))


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
        k1 = f.basis.modes[:, 0].astype(np.float64)
        k2 = f.basis.modes[:, 1].astype(np.float64)
        kappa = w.coeffs[0, 0] * k1 + w.coeffs[1, 0] * k2
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
