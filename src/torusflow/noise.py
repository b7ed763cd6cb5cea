"""Transport-noise models: space-independent, finite-mode and truncated
Q-Wiener forcing on the torus.

The Q-Wiener field is

    W(t, theta) = c_W^{-1/2} * sum_k q_k^{1/2} [c_k(theta) B_k^1(t) + s_k(theta) B_k^2(t)]

with ``q_(0,0) = 1``, ``q_k = |k|^{-2(beta-1)}`` otherwise, ``beta > 3``, and
the normalizer ``c_W = 1 + sum_{k != 0} (k1)^2 / |k|^{2 beta}``.  The sum runs
over the full index square: each lattice point, including both members of a
``{k, -k}`` pair, carries its own independent 2D Brownian motion, exactly as
in the truncated expansion the Galerkin system uses.  (Folding onto the
half-lattice would require sqrt(2) amplitudes; we keep the literal
enumeration.)

``c_W`` and the growth constant ``c'_W`` of the enstrophy envelope are
square-lattice Epstein sums with a classical closed form
(Borwein, Glasser, McPhedran, Wan & Zucker, *Lattice Sums Then and Now*,
CUP 2013, ch. 1):

    sum_{k != 0} |k|^{-2s} = 4 zeta(s) L(s, chi_-4),    s > 1,

where ``L(s, chi_-4) = 4^{-s} [zeta(s, 1/4) - zeta(s, 3/4)]`` is the Dirichlet
beta function.  The ``k1 <-> k2`` symmetry of the lattice turns
``sum (k1)^2 / |k|^{2s+2}`` into ``(1/2) sum |k|^{-2s}``, so

    c_W  = 1 + 2 zeta(beta-1) L(beta-1),
    c'_W = sum_{k != 0} (k1)^2 / |k|^{2 beta - 2} = 2 zeta(beta-2) L(beta-2),
    tr Q = sum_k q_k = 1 + 4 zeta(beta-1) L(beta-1).

The acceptance battery (A9) checks these against direct partial sums with
rigorous tail bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np
from scipy.special import zeta

from .basis import CHUNK_PATHS, Basis, BasisMode, ModeIndex, get_basis


class ConfigurationError(ValueError):
    """Invalid noise or simulation configuration."""


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not beta > 3.0:
        raise ConfigurationError(f"beta must exceed 3 (got beta={beta})")
    return beta


def q_coeff(k: ModeIndex, beta: float) -> float:
    """Covariance eigenvalue ``q_k``: 1 at the origin, ``|k|^{-2(beta-1)}`` else."""
    _check_beta(beta)
    ksq = float(k[0]) ** 2 + float(k[1]) ** 2
    if ksq == 0.0:
        return 1.0
    return ksq ** (-(beta - 1.0))


# ---------------------------------------------------------------------------
# lattice constants in closed form
# ---------------------------------------------------------------------------


def _epstein(s: float) -> float:
    """``sum_{k != 0} |k|^{-2s} = 4 zeta(s) L(s, chi_-4)`` over ``Z^2``, ``s > 1``.

    ``L(s, chi_-4) = 4^{-s} [zeta(s, 1/4) - zeta(s, 3/4)]`` (Hurwitz zeta).
    """
    return float(4.0 * zeta(s) * 4.0**-s * (zeta(s, 0.25) - zeta(s, 0.75)))


def normalizer_cw(beta: float) -> float:
    """``c_W = 1 + sum_{k != 0} (k1)^2 / |k|^{2 beta} = 1 + 2 zeta(beta-1) L(beta-1)``."""
    return 1.0 + 0.5 * _epstein(_check_beta(beta) - 1.0)


def normalizer_cw_prime(beta: float) -> float:
    """``c'_W = sum_{k != 0} (k1)^2 / |k|^{2 beta - 2} = 2 zeta(beta-2) L(beta-2)``."""
    return 0.5 * _epstein(_check_beta(beta) - 2.0)


def q_trace(beta: float) -> float:
    """Trace ``sum_k q_k = 1 + 4 zeta(beta-1) L(beta-1)`` over the full lattice."""
    return 1.0 + _epstein(_check_beta(beta) - 1.0)


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

SPACE_INDEPENDENT = "space-independent"
FINITE_MODES = "finite"
Q_WIENER = "qwiener"


class NoiseModel:
    """Immutable description of one noise regime plus its sampling tables.

    ``active_modes`` lists the lattice points carrying an independent 2D
    Brownian motion, in a fixed documented order (row-major over the index
    square for the Q-Wiener regime).  ``weights[j]`` scales both transport
    fields of mode ``j``: 1 for the space-independent regime,
    ``sqrt(q_k) / sqrt(c_W)`` otherwise.
    """

    def __init__(
        self,
        regime: str,
        active_modes: Sequence[ModeIndex],
        beta: float = 4.0,
    ):
        if regime not in (SPACE_INDEPENDENT, FINITE_MODES, Q_WIENER):
            raise ConfigurationError(f"unknown noise regime {regime!r}")
        self.regime = regime
        self.beta = _check_beta(beta)
        self.active_modes = tuple((int(k[0]), int(k[1])) for k in active_modes)
        if len(set(self.active_modes)) != len(self.active_modes):
            raise ConfigurationError("duplicate lattice points in the noise mode set")

        if regime == SPACE_INDEPENDENT:
            if self.active_modes != ((0, 0),):
                raise ConfigurationError(
                    "the space-independent regime has exactly the constant mode"
                )
            self.cw = 1.0
            weights = [1.0]
        else:
            self.cw = normalizer_cw(self.beta)
            weights = [
                np.sqrt(q_coeff(k, self.beta)) / np.sqrt(self.cw)
                for k in self.active_modes
            ]
        self.weights = np.array(weights, dtype=np.float64)
        self.n_components = len(self.active_modes)
        extent = max((max(abs(k[0]), abs(k[1])) for k in self.active_modes), default=0)
        #: basis carrying one increment field; fields of this noise live here
        self.field_basis: Basis = get_basis(extent)
        self._fold = self._fold_plan()

    # -- constructors ------------------------------------------------------

    @classmethod
    def space_independent(cls) -> "NoiseModel":
        """Plain 2D Brownian motion: ``W(t) = (B^1(t), B^2(t))``."""
        return cls(SPACE_INDEPENDENT, [(0, 0)], beta=4.0)

    @classmethod
    def q_wiener(cls, n_w: int, beta: float = 4.0) -> "NoiseModel":
        """Q-Wiener noise truncated to the full index square ``{-n_w, .., n_w}^2``."""
        if n_w < 0:
            raise ConfigurationError("n_w must be >= 0")
        modes = [
            (k1, k2)
            for k1 in range(-n_w, n_w + 1)
            for k2 in range(-n_w, n_w + 1)
        ]
        return cls(Q_WIENER, modes, beta=beta)

    @classmethod
    def finite_modes(cls, modes: Iterable[ModeIndex], beta: float = 4.0) -> "NoiseModel":
        """Arbitrary finite mode set; an empty set gives the zero-noise model."""
        return cls(FINITE_MODES, list(modes), beta=beta)

    # -- derived tables ------------------------------------------------------

    def _fold_plan(self) -> tuple[np.ndarray, ...]:
        """How raw increments fold into field coefficients.

        Component ``j`` adds its increments times ``weights[j]`` and its
        cosine and sine fold signs to one row of ``field_basis``, where ``k``
        and ``-k`` meet.  Returns those factors ``(K, 2)``, the rows that two
        components share with the two components in mode order, and the rows
        of one component with that component.
        """
        ids = [self.field_basis.mode_id(k) for k in self.active_modes]
        factors = np.array([(cs, ss) for _, cs, ss in ids], dtype=np.float64).reshape(-1, 2)
        factors *= self.weights[:, None]
        alone: dict[int, int] = {}
        pairs = []
        for j, (row, _, _) in enumerate(ids):
            if row in alone:
                pairs.append((row, alone.pop(row), j))
            else:
                alone[row] = j
        rows, first, second = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
        alone_rows, alone_js = np.array(list(alone.items()), dtype=np.int64).reshape(-1, 2).T
        return factors, rows, first, second, alone_rows, alone_js

    def transport_pairs(self) -> list[tuple[float, BasisMode, tuple[int, int]]]:
        """Enumerate ``(coefficient, advecting mode, (lattice index, component))``.

        The Brownian increment addressed by the last entry multiplies the
        transport of the listed field: component 0 pairs with the cosine
        field, component 1 with the sine field.
        """
        out = []
        for j, k in enumerate(self.active_modes):
            out.append((float(self.weights[j]), BasisMode("c", k), (j, 0)))
            out.append((float(self.weights[j]), BasisMode("s", k), (j, 1)))
        return out

    def increments_to_field(
        self, values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Fold raw increments ``(..., K, 2)`` into field coefficients ``(..., 2, N)``.

        The result represents ``dW = sum_j w_j [c_{k_j} dB_j^1 + s_{k_j} dB_j^2]``
        over ``field_basis``; linearity of transport in the advector makes
        applying ``(dW . grad)`` equivalent to summing the per-mode transports.
        Each path is folded on its own: a row that ``k`` and ``-k`` share is
        the sum of the two members' products, and a row of one member is its
        product, so the field does not depend on the batch it comes in; a
        matrix product rounds a row differently for different batch sizes.
        The temporaries of the fold grow as paths x components, so the paths
        are folded in chunks of ``basis.CHUNK_PATHS`` paths or, where a path
        has fewer components than that, of as many paths as hold
        ``CHUNK_PATHS`` squared increments: under constant noise a batch of
        up to 4096 paths folds in one call.  The result goes into ``out``
        when given, a fresh array otherwise.
        """
        factors, rows, first, second, alone_rows, alone = self._fold
        lead = values.shape[:-2]
        if out is None:
            out = np.empty(lead + (2, self.field_basis.n_modes))
        if len(rows) + len(alone_rows) < self.field_basis.n_modes:
            out[...] = 0.0
        paths = prod(lead)
        flat, flat_out = (a.reshape((paths,) + a.shape[-2:]) for a in (values, out))
        per = CHUNK_PATHS * max(1, CHUNK_PATHS // max(1, self.n_components))
        for start in range(0, paths, per):
            chunk = slice(start, start + per)
            prods = flat[chunk] * factors
            block = flat_out[chunk]
            block[..., rows] = np.swapaxes(prods[..., first, :] + prods[..., second, :], -1, -2)
            block[..., alone_rows] = np.swapaxes(prods[..., alone, :], -1, -2)
        return out

    def discarded_trace(self) -> float:
        """Trace of the covariance carried by the truncated-away modes."""
        if self.regime == SPACE_INDEPENDENT:
            return 0.0
        active = sum(q_coeff(k, self.beta) for k in self.active_modes)
        return max(q_trace(self.beta) - active, 0.0)

    @property
    def is_constant_advection(self) -> bool:
        """True when every active transport field is spatially constant."""
        return all(k == (0, 0) for k in self.active_modes)

    def describe(self) -> dict:
        d = {
            "regime": self.regime,
            "beta": self.beta,
            "components": self.n_components,
            "cw": self.cw,
            "discarded_trace": self.discarded_trace(),
        }
        if self.regime != SPACE_INDEPENDENT:
            d["modes"] = list(self.active_modes)
        return d

    def __repr__(self):
        return (
            f"NoiseModel({self.regime!r}, beta={self.beta}, "
            f"components={self.n_components})"
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass
class WienerIncrement:
    """Brownian increments over one step: ``values[j] = (dB_j^1, dB_j^2)``."""

    dt: float
    values: np.ndarray  # (K, 2)


_STREAM_PATH = 0
_STREAM_INITIAL = 1


def _philox(seed: int, path_id: int, lane: int) -> np.random.Generator:
    key = np.array([seed % 2**64, path_id % 2**64], dtype=np.uint64)
    counter = np.array([0, 0, 0, lane], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def path_stream(seed: int, path_id: int) -> np.random.Generator:
    """Counter-based stream owned by one sample path.

    Streams for distinct ``(seed, path_id)`` pairs are independent Philox
    streams; within a path, draws are consumed in a fixed (step, mode,
    component) order, so results do not depend on how paths are scheduled.
    """
    return _philox(seed, path_id, _STREAM_PATH)


def initial_condition_stream(seed: int) -> np.random.Generator:
    """Stream reserved for drawing random initial conditions."""
    return _philox(seed, 0, _STREAM_INITIAL)

