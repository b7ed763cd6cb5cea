"""Structure constants, Christoffel symbols, and the geodesic form of the
drift on the group of measure-preserving maps of the torus.

Conventions (calibrated so the geodesic contraction reproduces the advection
term exactly):

* bracket orientation ``[X, Y] = (X . grad) Y - (Y . grad) X``;
* the frame is the L2-orthonormalized basis ``e_i / ||e_i||`` (the Christoffel
  formula presumes orthonormality), with coefficients converted back to the
  unnormalized convention at the boundary of this module;
* ``Gamma_{k,l}^m = (1/2) (c_{k,l}^m - c_{l,m}^k + c_{m,k}^l)``.

With these choices, for fields ``w, u`` supported inside the table truncation,

    Gamma(w, u)^m  =  sum_{l,j} Gamma_{l,j}^m w^l u^j  =  [P (w . grad) u]^m

in the working basis, so the geodesic drift ``-Gamma(u, u)`` equals the
projected ``-(u . grad) u``, and the covariant derivative along a noise field
is its projected transport, for constant and space-dependent noise fields
alike.  The transported-noise term of the geodesic form therefore reproduces
the transport up to a sign reflection of the driving Brownian motion (which
leaves the law unchanged; the opposite bracket orientation would fix that sign
but flip the drift, breaking the correspondence above).

Structure constants are stored for element pairs inside truncation ``n`` with
expansions over the doubled square ``{-2n..2n}^2``; every pairwise bracket of
interior elements is therefore fully resolved, never silently truncated.
Lookups, contractions and Jacobi checks that would need an element or a
bracket outside the interior raise :class:`InteriorSupportError` instead of
guessing.

Both tables are :class:`~torusflow.dynamics.SortedCOO` arrays built from the
advection tensor over the doubled square (the same closed-form integrals as
A4's oracle): ``c`` is the part of the all-slot structure constants whose
first two slots are interior, and ``Gamma`` comes by the formula above over
every triple where one of its three terms is nonzero.  Each entry is a
term-by-term sum in a fixed order, and every contraction is one
``np.bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import Basis, BasisMode, SpectralField, get_basis, leray_project
from .diagnostics import csv_writer
from .dynamics import SortedCOO, build_advection_tensor, transport_apply


class InteriorSupportError(ValueError):
    """A contraction touched bracket content outside the resolved truncation."""


def lie_bracket(
    x: SpectralField, y: SpectralField, out_basis: Basis | None = None
) -> SpectralField:
    """``[x, y] = (x . grad) y - (y . grad) x``, exact by default.

    Without an explicit output basis the result is expanded on the enlarged
    square that holds every product mode, so no content is lost.
    """
    if out_basis is None:
        out_basis = get_basis(x.basis.n + y.basis.n)
    return transport_apply(y, x, out_basis) - transport_apply(x, y, out_basis)


def _flat_modes(basis: Basis) -> list[BasisMode]:
    out = [BasisMode("c", (int(k[0]), int(k[1]))) for k in basis.modes]
    out += [BasisMode("s", (int(k[0]), int(k[1]))) for k in basis.modes]
    return out


@dataclass
class StructureTables:
    """Sparse ``c_{k,l}^m`` and ``Gamma_{k,l}^m`` over the orthonormal frame.

    ``k, l`` run over elements inside truncation ``n``; ``m`` over the doubled
    square.  Slots are flat indices of the doubled enumeration; ``nu`` holds
    the frame norms and ``interior`` marks the flat indices inside ``n``.
    """

    n: int
    basis: Basis          # interior truncation
    out_basis: Basis      # doubled square carrying the expansions
    c: SortedCOO = field(repr=False)
    gamma: SortedCOO = field(repr=False)
    nu: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)

    def _flat(self, mode: BasisMode) -> int:
        i, cs, ss = self.out_basis.mode_id(mode.k)
        if not (cs == 1 and ss == 1):
            raise ValueError("table lookups expect canonical modes")
        return i if mode.kind == "c" else self.out_basis.n_modes + i

    def _interior_index(self, mode: BasisMode) -> int:
        i = self._flat(mode)
        if not self.interior[i]:
            raise InteriorSupportError(f"{mode} is outside the table truncation n={self.n}")
        return i

    def c_entry(self, k: BasisMode, l: BasisMode, m: BasisMode) -> float:
        key = (self._interior_index(k), self._interior_index(l), self._flat(m))
        return float(self.c.lookup(*key))

    def interior_flat(self, f: SpectralField) -> np.ndarray:
        """Flat doubled-enumeration coefficients of an interior-supported field."""
        if f.basis.n > self.n:
            support = np.abs(f.coeffs).max(axis=0)
            live = support > 0
            k = f.basis.modes[live]
            if np.any(np.abs(k) > self.n):
                raise InteriorSupportError(
                    f"field has modes outside the table truncation n={self.n}"
                )
        inner = leray_project(f, self.out_basis)
        return inner.coeffs.reshape(-1)


@lru_cache(maxsize=8)
def build_structure_tables(n: int) -> StructureTables:
    """Closed-form structure constants and Christoffel symbols at truncation ``n``.

    The raw couplings are the closed-form integrals of the advection tensor
    over the doubled square; pairs whose bracket leaves it do not exist
    (products shift wavevectors by at most the sum), so no entry is flagged
    incomplete at this truncation.  Every sum is formed term by term in a
    fixed order, so the tables do not depend on how entries are stored.
    """
    basis, big = get_basis(n), get_basis(2 * n)
    nu = np.sqrt(np.concatenate([big.norm_sq, big.norm_sq]))
    interior = np.tile(np.abs(big.modes).max(axis=1) <= n, 2)
    raw = build_advection_tensor(2 * n).coalesced
    i, k, j = raw.slots

    # c_all: the structure constants for arbitrary slots, from the raw
    # couplings in both orientations, so antisymmetry holds entrywise even
    # when only one of t(k,l,m), t(l,k,m) is nonzero; c is its interior part
    shape = (raw.size,) * 3
    keys = _union(raw.keys, raw.key(k, i, j))
    a, b, m = np.unravel_index(keys, shape)
    v = (raw.lookup(a, b, m) - raw.lookup(b, a, m)) / (nu[a] * nu[b] * nu[m])
    c_all = SortedCOO(raw.size, keys, v).nonzero()
    a, b, m = c_all.slots
    sel = interior[a] & interior[b]
    c = SortedCOO(raw.size, c_all.keys[sel], c_all.vals[sel])

    # Gamma_{k,l}^m is nonzero only where one of its three terms is
    keys = _union(c_all.keys, c_all.key(m, a, b), c_all.key(b, m, a))
    k, l, m = np.unravel_index(keys, shape)
    sel = interior[k] & interior[l]
    keys, k, l, m = keys[sel], k[sel], l[sel], m[sel]
    g = 0.5 * (c_all.lookup(k, l, m) - c_all.lookup(l, m, k) + c_all.lookup(m, k, l))
    gamma = SortedCOO(raw.size, keys, g).nonzero()
    return StructureTables(n, basis, big, c, gamma, nu, interior)


def _union(*keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys; a plain sort, since ``np.unique`` in numpy >= 2.3
    hashes, ~10x slower on these keys."""
    s = np.sort(np.concatenate(keys))
    return s[np.diff(s, prepend=-1) != 0]


def christoffel_contract(
    w: SpectralField, u: SpectralField, tables: StructureTables
) -> SpectralField:
    """``Gamma(w, u)^m = sum_{l,j} Gamma_{l,j}^m w^l u^j`` in the working basis.

    Both fields must be supported inside the table truncation; the result
    lives on the doubled square and, by the calibration above, equals the
    projected ``(w . grad) u``.
    """
    nu = tables.nu
    cw = tables.interior_flat(w) * nu  # orthonormal-frame components
    cu = tables.interior_flat(u) * nu
    l, j, m = tables.gamma.slots
    out = np.bincount(m, weights=tables.gamma.vals * cw[l] * cu[j], minlength=len(nu)) / nu
    return SpectralField(tables.out_basis, out.reshape(2, -1))


def geodesic_drift(u: SpectralField, tables: StructureTables) -> SpectralField:
    """The geodesic drift ``-Gamma(u, u)``, equal to the projected ``-(u . grad) u``."""
    return -1.0 * christoffel_contract(u, u, tables)


def jacobi_residual(
    tables: StructureTables, x: BasisMode, y: BasisMode, z: BasisMode
) -> float:
    """Max residual of the Jacobi identity on one triple of basis elements.

    Requires the elements and all first-level brackets to stay inside the
    interior truncation so the nested constants exist; otherwise raises
    :class:`InteriorSupportError`.
    """
    fx, fy, fz = (tables._interior_index(e) for e in (x, y, z))
    k, l, m = tables.c.slots
    vals = tables.c.vals
    residual = np.zeros(tables.c.size)
    for a, b, cc in ((fx, fy, fz), (fy, fz, fx), (fz, fx, fy)):
        inner = np.zeros(tables.c.size)  # [a, b] in flat coefficients
        row = (k == a) & (l == b)
        inner[m[row]] = vals[row]
        if np.any(inner[~tables.interior]):
            raise InteriorSupportError("triple not fully resolved inside the truncation")
        outer = l == cc
        residual += np.bincount(
            m[outer], weights=inner[k[outer]] * vals[outer], minlength=tables.c.size
        )
    return float(np.abs(residual).max())


def write_tables_csv(tables: StructureTables, c_out, gamma_out) -> None:
    """Dump both sparse tensors as ``(k, l, m, value)`` rows."""
    names = np.array([str(m) for m in _flat_modes(tables.out_basis)])
    for table, out in ((tables.c, c_out), (tables.gamma, gamma_out)):
        k, l, m = table.slots
        with csv_writer(out) as w:
            w.writerow(["k", "l", "m", "value"])
            w.writerows(
                zip(names[k], names[l], names[m], (f"{v:.17g}" for v in table.vals.tolist()))
            )
