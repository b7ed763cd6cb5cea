"""Structure constants, Christoffel symbols, and the geodesic form of the
drift on the group of measure-preserving maps of the torus.

Conventions (calibrated so the geodesic contraction reproduces the advection
term exactly):

* bracket orientation ``[X, Y] = (X . grad) Y - (Y . grad) X``;
* the frame is the L2-orthonormalized basis ``e_i / ||e_i||`` (the Christoffel
  formula presumes orthonormality), with coefficients converted back to the
  unnormalized convention at the boundary of this module;
* ``Gamma_{k,l}^m = (1/2) (c_{k,l}^m - c_{l,m}^k + c_{m,k}^l)``.

With these choices, for fields supported inside the table truncation,

    sum_{l,j} Gamma_{l,j}^m u^l u^j  =  [P (u . grad) u]^m,

so the geodesic drift ``-Gamma(u, u)`` equals the projected ``-(u . grad) u``.
Contracting one slot against a constant mode gives ``+ (1 / ||e_0||) P d_l u``;
the transported-noise term of the geodesic form therefore reproduces the
constant-advector transport up to the scaling of the orthonormal frame and a
sign reflection of the driving Brownian motion (which leaves the law
unchanged; the opposite bracket orientation would fix that sign but flip the
drift, breaking the correspondence above).

Structure constants are stored for element pairs inside truncation ``n`` with
expansions over the doubled square ``{-2n..2n}^2``; every pairwise bracket of
interior elements is therefore fully resolved, never silently truncated.
Contractions that would need unresolved entries raise
:class:`InteriorSupportError` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import Basis, BasisMode, SpectralField, get_basis, leray_project
from .diagnostics import csv_writer
from .dynamics import _mode_expansion, transport_apply


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


def _raw_slice(big: Basis, kind: str, i: int) -> dict[tuple[int, int], float]:
    """All raw couplings ``<(e . grad) e_k, e_j>`` of one advector element.

    Keys are flat ``(k, j)`` indices over the big enumeration.
    """
    out: dict[tuple[int, int], float] = {}
    for k_f, j_f, val in _mode_expansion(big, kind, i, big.n):
        for k, j, v in zip(k_f, j_f, val):
            if v != 0.0:
                key = (int(k), int(j))
                out[key] = out.get(key, 0.0) + float(v)
    return out


@dataclass
class StructureTables:
    """Sparse ``c_{k,l}^m`` and ``Gamma_{k,l}^m`` over the orthonormal frame.

    ``k, l`` run over elements inside truncation ``n``; ``m`` over the doubled
    square.  Keys are flat indices of the doubled enumeration.
    """

    n: int
    basis: Basis          # interior truncation
    out_basis: Basis      # doubled square carrying the expansions
    c: dict = field(repr=False, default_factory=dict)       # (k,l,m) -> float
    gamma: dict = field(repr=False, default_factory=dict)   # (k,l,m) -> float

    def _flat(self, mode: BasisMode) -> int:
        i, cs, ss = self.out_basis.mode_id(mode.k)
        if not (cs == 1 and ss == 1):
            raise ValueError("table lookups expect canonical modes")
        return i if mode.kind == "c" else self.out_basis.n_modes + i

    def c_entry(self, k: BasisMode, l: BasisMode, m: BasisMode) -> float:
        return self.c.get((self._flat(k), self._flat(l), self._flat(m)), 0.0)

    def gamma_entry(self, k: BasisMode, l: BasisMode, m: BasisMode) -> float:
        return self.gamma.get((self._flat(k), self._flat(l), self._flat(m)), 0.0)

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

    Every entry is an exact trigonometric integral; pairs whose bracket leaves
    the doubled square do not exist (products shift wavevectors by at most the
    sum), so no entry is flagged incomplete at this truncation.
    """
    basis = get_basis(n)
    big = get_basis(2 * n)
    nbig = big.n_modes
    nu = np.sqrt(np.concatenate([big.norm_sq, big.norm_sq]))

    inner_rows = [i for i, k in enumerate(big.modes) if max(abs(k[0]), abs(k[1])) <= n]
    inner = inner_rows + [nbig + i for i in inner_rows]
    inner_set = set(inner)
    flats = _flat_modes(big)

    raw: dict[int, dict[tuple[int, int], float]] = {}
    for a in range(2 * nbig):
        kind = "c" if a < nbig else "s"
        raw[a] = _raw_slice(big, kind, a % nbig)

    def t(i: int, k: int, j: int) -> float:
        return raw[i].get((k, j), 0.0)

    # accumulate both orientations from every raw coupling so antisymmetry
    # holds entrywise even when only one of T[k,l,m], T[l,k,m] is nonzero
    c: dict[tuple[int, int, int], float] = {}
    for k in inner:
        for (l, j), v in raw[k].items():
            if l in inner_set and v != 0.0:
                w = v / (nu[k] * nu[l] * nu[j])
                c[(k, l, j)] = c.get((k, l, j), 0.0) + w
                c[(l, k, j)] = c.get((l, k, j), 0.0) - w
    c = {key: v for key, v in c.items() if v != 0.0}

    def c_any(k: int, l: int, m: int) -> float:
        # structure constant for arbitrary slots, from the raw couplings
        val = t(k, l, m) - t(l, k, m)
        if val == 0.0:
            return 0.0
        return val / (nu[k] * nu[l] * nu[m])

    # Gamma_{k,l}^m with k, l interior can be nonzero only where one of its
    # three cyclic terms is; enumerate every such triple from the couplings
    candidates = set(c.keys())
    for a in inner:
        for (tgt, j), _ in raw[a].items():
            if j in inner_set:
                # t(a, tgt, j) feeds c_{a,tgt}^j-type terms with m = tgt
                candidates.add((j, a, tgt))
                candidates.add((a, j, tgt))
    for a in range(2 * nbig):
        for (tgt, j), _ in raw[a].items():
            if tgt in inner_set and j in inner_set:
                # t(a, tgt, j) feeds terms with m = a in either slot order
                candidates.add((tgt, j, a))
                candidates.add((j, tgt, a))
    gamma: dict[tuple[int, int, int], float] = {}
    for k, l, m in candidates:
        val = 0.5 * (c_any(k, l, m) - c_any(l, m, k) + c_any(m, k, l))
        if val != 0.0:
            gamma[(k, l, m)] = val
    return StructureTables(n=n, basis=basis, out_basis=big, c=c, gamma=gamma)


def geodesic_drift(u: SpectralField, tables: StructureTables) -> SpectralField:
    """``- sum_{l,j} Gamma_{l,j} u^l u^j`` in the working (unnormalized) basis.

    ``u`` must be supported inside the table truncation so every quadratic
    interaction is resolved; the result lives on the doubled square and, by
    the calibration above, equals the projected ``-(u . grad) u``.
    """
    flat = tables.interior_flat(u)
    big = tables.out_basis
    nu = np.sqrt(np.concatenate([big.norm_sq, big.norm_sq]))
    comp = flat * nu  # orthonormal-frame components
    out = np.zeros(2 * big.n_modes)
    for (l, j, m), g in tables.gamma.items():
        cl = comp[l]
        cj = comp[j]
        if cl != 0.0 and cj != 0.0:
            out[m] -= g * cl * cj
    out /= nu
    return SpectralField(big, out.reshape(2, big.n_modes))


def geodesic_transport(
    u: SpectralField, tables: StructureTables, direction: int
) -> SpectralField:
    """Gamma-contraction of one constant-frame slot against an interior field.

    ``direction`` 1 or 2 picks the constant mode; the result is the
    orthonormal-frame contraction ``sum_j Gamma_{l0, j}^m u^j`` rescaled by
    ``||e_0||``, which reproduces the projected ``d_l u`` exactly.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    flat = tables.interior_flat(u)
    big = tables.out_basis
    nu = np.sqrt(np.concatenate([big.norm_sq, big.norm_sq]))
    comp = flat * nu
    l0 = 0 if direction == 1 else big.n_modes
    out = np.zeros(2 * big.n_modes)
    for (l, j, m), g in tables.gamma.items():
        if l == l0 and comp[j] != 0.0:
            out[m] += g * comp[j]
    out *= nu[l0]
    out /= nu
    return SpectralField(big, out.reshape(2, big.n_modes))


def jacobi_residual(
    tables: StructureTables, x: BasisMode, y: BasisMode, z: BasisMode
) -> float:
    """Max residual of the Jacobi identity on one triple of basis elements.

    Requires all first-level brackets to stay inside the interior truncation
    so the nested constants exist; otherwise raises
    :class:`InteriorSupportError`.
    """
    big = tables.out_basis
    n = tables.n
    fx, fy, fz = (tables._flat(m) for m in (x, y, z))
    nbig = big.n_modes

    def bracket_coeffs(a: int, b: int) -> dict[int, float]:
        out = {}
        for (k, l, m), v in tables.c.items():
            if k == a and l == b and v != 0.0:
                out[m] = out.get(m, 0.0) + v
        return out

    def interior(flat_idx: int) -> bool:
        k = big.modes[flat_idx % nbig]
        return max(abs(int(k[0])), abs(int(k[1]))) <= n

    residual: dict[int, float] = {}
    for a, b, cc in ((fx, fy, fz), (fy, fz, fx), (fz, fx, fy)):
        inner_br = bracket_coeffs(a, b)
        for r, v in inner_br.items():
            if not interior(r):
                raise InteriorSupportError(
                    "triple not fully resolved inside the truncation"
                )
            for m, w in bracket_coeffs(r, cc).items():
                residual[m] = residual.get(m, 0.0) + v * w
    return max((abs(v) for v in residual.values()), default=0.0)


def write_tables_csv(tables: StructureTables, c_out, gamma_out) -> None:
    """Dump both sparse tensors as ``(k, l, m, value)`` rows."""
    names = [str(m) for m in _flat_modes(tables.out_basis)]
    for table, out in ((tables.c, c_out), (tables.gamma, gamma_out)):
        with csv_writer(out) as w:
            w.writerow(["k", "l", "m", "value"])
            for (k, l, m), v in sorted(table.items()):
                w.writerow([names[k], names[l], names[m], f"{v:.17g}"])
