"""Time stepping for the truncated stochastic system and the ensemble runner.

Scheme menu
-----------
``ito-em``
    Euler-Maruyama on the Ito form: drift ``-(1/2) A u - B(u)``, transport
    increments applied explicitly.
``strat-heun``
    Two-stage predictor-corrector (trapezoidal in both drift and noise) on
    the Stratonovich form, whose drift is the inviscid ``-B(u)``.
``strat-midpoint``
    Implicit midpoint on the Stratonovich form, solved to a fixed-point
    residual of ``MIDPOINT_TOL``.  Drift and transport are both skew in the
    L2 pairing, so this scheme conserves ``||u||_0^2`` to solver tolerance
    per step.  For spatially constant noise the linear noise part of the
    midpoint map is inverted exactly per mode (2x2 blocks), which leaves only
    the ``dt``-small quadratic term to the Picard iteration, and the iteration
    starts from the exact noise-only step: the midpoint map with the quadratic
    term dropped, a Cayley rotation of each mode by ``kappa = dW . k``.  Its
    first residual is then ``O(dt |B(u)|)``, not ``O(sqrt(dt) |k| |u|)``, and
    at n=8, dt=1e-3 the solve reaches ``1e-12`` in 3 passes.
    The fixed point, and with it every conserved quantity, is unchanged.

Paths own independent counter-based streams keyed by ``(seed, path_id)``;
increments are drawn in fixed blocks of ``BLOCK_STEPS`` steps so a path's
noise is identical whether it runs alone or inside any batch, in any order.

A batched step runs over contiguous blocks of paths sized from
``BLOCK_BYTES``, so the temporaries of one operator pass stay in cache and
are reused from the allocator's free lists rather than faulted in afresh: at
n=8 a pass over 256 paths at once faults in ~3200 fresh pages, a pass over
blocks of 16 paths ~30.  Every operation, the midpoint convergence test
included, acts on each path alone, so results do not depend on the blocks: a
path is bit-identical alone, in any batch and in any block.  Observers see
the whole batch after each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .basis import (
    Basis,
    BasisMode,
    SpectralField,
    batch_h1_sq,
    batch_l2_sq,
    constant_advection,
    get_basis,
    halfspectrum_to_grid,
    place_halfspectrum,
    random_field,
)
from .dynamics import ITO_VISCOSITY, advect, dealias_resolution
from .noise import (
    ConfigurationError,
    NoiseModel,
    WienerIncrement,
    initial_condition_stream,
    path_stream,
)

SCHEMES = ("ito-em", "strat-heun", "strat-midpoint")

#: increments are drawn per path in blocks of this many steps
BLOCK_STEPS = 64

#: a batched step runs over contiguous blocks of paths whose grid fields in
#: one operator pass take about this many bytes, so the temporaries of a pass
#: stay in cache and come back from the allocator's free lists instead of
#: faulting in fresh pages; measured sweep in ``BENCH_path_blocks.json``
BLOCK_BYTES = 400_000

#: the midpoint fixed-point iteration stops once every path's update moves no
#: coefficient by more than ``MIDPOINT_TOL``, and fails after
#: ``MIDPOINT_MAX_ITER`` passes
MIDPOINT_TOL = 1e-12
MIDPOINT_MAX_ITER = 50


class MidpointConvergenceError(RuntimeError):
    """The midpoint fixed point missed its tolerance.

    ``paths`` lists the unconverged paths: batch rows as a
    :class:`StepKernel` raises it, path ids once the runners re-raise it.
    """

    def __init__(
        self,
        residual: float,
        iterations: int,
        step_index: int | None = None,
        paths: Sequence[int] = (),
    ):
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index
        self.paths = tuple(int(i) for i in paths)
        at = f" at step {step_index}" if step_index is not None else ""
        on = f" (paths {', '.join(map(str, self.paths))})" if self.paths else ""
        super().__init__(
            f"midpoint iteration did not reach tolerance{at}: "
            f"residual {residual:.3e} after {iterations} iterations{on}"
        )


@dataclass(frozen=True)
class SimConfig:
    """Resolved simulation parameters; immutable once validated."""

    n: int = 8
    dt: float = 1e-3
    t_final: float = 1.0
    scheme: str = "strat-midpoint"
    noise: NoiseModel = field(default_factory=NoiseModel.space_independent)
    paths: int = 256
    seed: int = 0
    initial: str | tuple = "random:3"
    save_every: int = 10

    def violations(self) -> list[str]:
        bad = []
        if self.n < 1:
            bad.append(f"truncation n must be >= 1 (got {self.n})")
        if not self.dt > 0:
            bad.append(f"dt must be positive (got {self.dt})")
        if self.dt > 0 and self.t_final < self.dt:
            bad.append(f"horizon T={self.t_final} must be at least one step dt={self.dt}")
        if self.dt > 0 and self.t_final >= self.dt:
            steps = self.t_final / self.dt
            if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
                bad.append(
                    f"horizon T={self.t_final} is not a whole number of steps of dt={self.dt}"
                )
        if self.scheme not in SCHEMES:
            bad.append(f"scheme must be one of {SCHEMES} (got {self.scheme!r})")
        if self.paths < 1:
            bad.append(f"paths must be >= 1 (got {self.paths})")
        if self.save_every < 1:
            bad.append(f"save_every must be >= 1 (got {self.save_every})")
        try:
            self.initial_field()
        except Exception as e:  # surface every constraint at once
            bad.append(f"initial condition: {e}")
        return bad

    def validate(self) -> "SimConfig":
        bad = self.violations()
        if bad:
            raise ConfigurationError("; ".join(bad))
        return self

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def basis(self) -> Basis:
        return get_basis(self.n)

    def initial_field(self) -> SpectralField:
        """Resolve the initial-condition preset to a concrete field.

        Named presets are normalized to unit L2 norm; explicit mode lists are
        used verbatim.  Random draws come from a dedicated stream keyed by the
        seed, independent of the path streams.
        """
        b = self.basis
        ic = self.initial
        if not isinstance(ic, str):
            return SpectralField.from_modes(b, ic)
        if ic.startswith("mode:"):
            k = _parse_wavevector(ic[5:])
            f = SpectralField.from_modes(b, [(BasisMode("c", k), 1.0)])
            return f * (1.0 / f.l2_norm())
        if ic == "pair":
            f = SpectralField.from_modes(
                b, [(BasisMode("c", (1, 0)), 1.0), (BasisMode("c", (1, 1)), 1.0)]
            )
            return f * (1.0 / f.l2_norm())
        if ic.startswith("random"):
            decay = 3.0
            if ":" in ic:
                decay = float(ic.split(":", 1)[1])
            return random_field(b, initial_condition_stream(self.seed), decay=decay)
        raise ConfigurationError(
            f"unknown initial condition {ic!r} (expected mode:<k1>,<k2> | pair | random[:<decay>])"
        )


def _parse_wavevector(s: str) -> tuple[int, int]:
    parts = s.replace("(", "").replace(")", "").split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"cannot parse wavevector {s!r}")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------
# step kernel
# ---------------------------------------------------------------------------


class StepKernel:
    """Batched single-step integrator bound to one (basis, noise, scheme)."""

    def __init__(self, basis: Basis, noise: NoiseModel, scheme: str, dt: float):
        if scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.basis = basis
        self.noise = noise
        self.scheme = scheme
        self.dt = float(dt)
        self.m = dealias_resolution(basis.n, max(noise.field_basis.n, basis.n), basis.n)
        self.k1 = basis.modes[:, 0].astype(np.float64)
        self.k2 = basis.modes[:, 1].astype(np.float64)
        self.ksq = basis.ksq
        self.constant_noise = noise.is_constant_advection
        # real m x m fields per path that one operator pass transforms: 3 in
        # and 2 out for the quadratic term alone, 6 in and 4 out with a field
        # advector
        fields = 5 if self.constant_noise else 10
        self.path_bytes = fields * 8 * self.m * self.m
        self.block_paths = max(1, BLOCK_BYTES // self.path_bytes)

    # -- building blocks ---------------------------------------------------

    def _prepare_noise(self, w_coeffs: np.ndarray) -> np.ndarray:
        """What every operator evaluation of one step needs of its noise field.

        Constant noise: the per-mode symbol ``kappa = w . k`` of its exact
        rotation.  Otherwise: the field on the grid, transformed once per step.
        """
        if self.constant_noise:
            return w_coeffs[..., 0, 0:1] * self.k1 + w_coeffs[..., 1, 0:1] * self.k2
        spec = place_halfspectrum(self.noise.field_basis, w_coeffs, self.m)
        return halfspectrum_to_grid(spec, self.m)

    def _operators(self, u: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(P (u . grad) u, P (w . grad) u)`` for the prepared noise."""
        if self.constant_noise:
            return advect(self.basis, u, self.m)[0], constant_advection(noise, u)
        conv, tr = advect(self.basis, u, self.m, (None, noise))
        return conv, tr

    # -- schemes -------------------------------------------------------------

    def step(self, u: np.ndarray, w_coeffs: np.ndarray) -> np.ndarray:
        """Advance batched coefficients ``(..., 2, N)`` by one step.

        ``w_coeffs`` is the assembled Wiener-increment field over the noise
        basis (leading axes matching ``u``).  A batch ``(P, 2, N)`` is stepped
        in contiguous blocks of ``block_paths`` paths; every operation acts on
        each path alone, so the result does not depend on the blocks.  A
        midpoint failure is raised once every block has run, with the largest
        residual and the unconverged rows of all blocks.
        """
        rows = self.block_paths
        if u.ndim != 3 or len(u) <= rows:
            return self._step_block(u, w_coeffs)
        out = np.empty_like(u)
        failed = []
        for lo in range(0, len(u), rows):
            block = slice(lo, lo + rows)
            try:
                out[block] = self._step_block(u[block], w_coeffs[block])
            except MidpointConvergenceError as e:
                failed.append((lo, e))
        if failed:
            raise MidpointConvergenceError(
                float(np.max([e.residual for _, e in failed])),
                MIDPOINT_MAX_ITER,
                paths=[lo + i for lo, e in failed for i in e.paths],
            )
        return out

    def _step_block(self, u: np.ndarray, w_coeffs: np.ndarray) -> np.ndarray:
        noise = self._prepare_noise(w_coeffs)
        if self.scheme == "ito-em":
            return self._step_em(u, noise)
        if self.scheme == "strat-heun":
            return self._step_heun(u, noise)
        return self._step_midpoint(u, noise)

    def _step_em(self, u, noise):
        conv, tr = self._operators(u, noise)
        drift = -ITO_VISCOSITY * self.ksq * u - conv
        return u + self.dt * drift + tr

    def _step_heun(self, u, noise):
        conv0, tr0 = self._operators(u, noise)
        incr0 = -self.dt * conv0 + tr0
        pred = u + incr0
        conv1, tr1 = self._operators(pred, noise)
        incr1 = -self.dt * conv1 + tr1
        return u + 0.5 * (incr0 + incr1)

    def _step_midpoint(self, u, noise):
        # solve v = u - dt P(mid . grad) mid + T(mid), mid = (u + v)/2, by
        # fixed-point iteration on the paths not yet converged
        if self.constant_noise:
            # the linear noise part T is inverted exactly per mode (2x2
            # blocks), and the iteration starts from the exact noise-only
            # step, the Cayley rotation of u by kappa
            half_k = 0.5 * noise
            denom = 1.0 + half_k * half_k
            base = u + 0.5 * constant_advection(noise, u)

            def solve(x, hk, d):
                va = (x[..., 0, :] + hk * x[..., 1, :]) / d
                return np.stack([va, x[..., 1, :] - hk * va], axis=-2)

            def update(idx, mid):
                x = base[idx] - self.dt * advect(self.basis, mid, self.m)[0]
                return solve(x, half_k[idx], denom[idx])

            v = solve(base, half_k, denom)
        else:

            def update(idx, mid):
                conv, tr = advect(self.basis, mid, self.m, (None, noise[idx]))
                return u[idx] - self.dt * conv + tr

            v = u.copy()
        active = np.ones(u.shape[:-2], dtype=bool)
        for _ in range(MIDPOINT_MAX_ITER):
            idx = np.nonzero(active)
            v_new = update(idx, 0.5 * (u[idx] + v[idx]))
            res = np.abs(v_new - v[idx]).max(axis=(-2, -1))
            v[idx] = v_new
            still = ~(res <= MIDPOINT_TOL)  # a NaN residual is not converged
            if not still.any():
                return v
            active[idx] = still
        raise MidpointConvergenceError(
            float(np.max(res)), MIDPOINT_MAX_ITER, paths=np.flatnonzero(active)
        )


def step(
    scheme: str, state: SpectralField, dw: WienerIncrement, model: NoiseModel
) -> SpectralField:
    """One step of the chosen scheme from a single state (convenience wrapper)."""
    kernel = StepKernel(state.basis, model, scheme, dw.dt)
    w = model.increments_to_field(dw.values[None, ...])
    out = kernel.step(state.coeffs[None, ...], w)
    return SpectralField(state.basis, out[0])


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


class StepObserver(Protocol):
    """Hooks receiving the batched state at t = 0 and after every step."""

    def start(self, t: float, u: np.ndarray) -> None: ...

    def after_step(self, t: float, u: np.ndarray) -> None: ...


@dataclass
class PathResult:
    """One path: decimated states plus the per-step energy ledger."""

    config: SimConfig
    path_id: int
    times: np.ndarray          # saved times (decimated)
    states: list[SpectralField]
    step_times: np.ndarray     # full step grid
    l2_sq: np.ndarray          # per-step ||u||_0^2
    h1_sq: np.ndarray          # per-step ||u||_1^2


@dataclass
class EnsembleDiagnostics:
    """Per-step energy series over all paths, plus observer products."""

    config: SimConfig
    path_ids: tuple[int, ...]
    times: np.ndarray     # (S,) full step grid
    l2_sq: np.ndarray     # (P, S)
    h1_sq: np.ndarray     # (P, S)
    observers: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return len(self.path_ids)

    def l2_stats(self):
        return mean_se(self.l2_sq)

    def h1_stats(self):
        return mean_se(self.h1_sq)


def mean_se(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and standard error over the leading (path) axis.

    The error is zero for a single path.
    """
    p = series.shape[0]
    mean = series.mean(axis=0)
    if p < 2:
        return mean, np.zeros_like(mean)
    return mean, series.std(axis=0, ddof=1) / np.sqrt(p)


def _saved_indices(n_steps: int, save_every: int) -> np.ndarray:
    idx = list(range(0, n_steps + 1, save_every))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.array(idx, dtype=np.int64)


def _run_batch(
    config: SimConfig,
    path_ids: Sequence[int],
    observers: Sequence[StepObserver] = (),
    keep_states_for: int | None = None,
):
    """Advance all requested paths in lockstep; the workhorse of both runners.

    Increment draws are per-path and blocked, so results are independent of
    the batch composition.  Returns per-step energies and, when
    ``keep_states_for`` names a position in ``path_ids``, that path's saved
    states.
    """
    config.validate()
    basis = config.basis
    noise = config.noise
    steps = config.n_steps
    p = len(path_ids)
    kernel = StepKernel(basis, noise, config.scheme, config.dt)
    u0 = config.initial_field()
    u = np.broadcast_to(u0.coeffs, (p,) + u0.coeffs.shape).copy()

    l2 = np.empty((p, steps + 1))
    h1 = np.empty((p, steps + 1))
    l2[:, 0] = batch_l2_sq(basis, u)
    h1[:, 0] = batch_h1_sq(basis, u)

    saved = _saved_indices(steps, config.save_every)
    keep = keep_states_for is not None
    states: list[SpectralField] = []
    if keep and 0 in saved:
        states.append(SpectralField(basis, u[keep_states_for].copy()))

    for obs in observers:
        obs.start(0.0, u)

    gens = [path_stream(config.seed, pid) for pid in path_ids]
    k = noise.n_components
    s = 0
    while s < steps:
        block = min(BLOCK_STEPS, steps - s)
        draws = np.empty((p, block, k, 2))
        for j, g in enumerate(gens):
            draws[j] = g.standard_normal((block, k, 2))
        draws *= np.sqrt(config.dt)
        for b_i in range(block):
            w = noise.increments_to_field(draws[:, b_i])
            try:
                u = kernel.step(u, w)
            except MidpointConvergenceError as e:
                raise MidpointConvergenceError(
                    e.residual, e.iterations, s + b_i, [path_ids[i] for i in e.paths]
                ) from None
            t = (s + b_i + 1) * config.dt
            l2[:, s + b_i + 1] = batch_l2_sq(basis, u)
            h1[:, s + b_i + 1] = batch_h1_sq(basis, u)
            for obs in observers:
                obs.after_step(t, u)
            if keep and (s + b_i + 1) in saved:
                states.append(SpectralField(basis, u[keep_states_for].copy()))
        s += block

    times = np.arange(steps + 1) * config.dt
    return times, l2, h1, saved, states


def run_path(
    config: SimConfig, path_id: int = 0, observers: Sequence[StepObserver] = ()
) -> PathResult:
    """Integrate a single path; deterministic given ``(seed, path_id)``."""
    times, l2, h1, saved, states = _run_batch(
        config, [path_id], observers, keep_states_for=0
    )
    return PathResult(
        config=config,
        path_id=path_id,
        times=times[saved],
        states=states,
        step_times=times,
        l2_sq=l2[0],
        h1_sq=h1[0],
    )


def run_ensemble(
    config: SimConfig,
    path_ids: Sequence[int] | None = None,
    observers: Sequence[StepObserver] = (),
) -> EnsembleDiagnostics:
    """Integrate all paths and aggregate the energy series.

    ``path_ids`` defaults to ``0 .. paths-1``; passing explicit ids is the
    hook for degenerate tests (repeated ids give identical paths).
    """
    if path_ids is None:
        path_ids = list(range(config.paths))
    if len(path_ids) < 2:
        raise ConfigurationError("ensemble statistics need at least two paths")
    times, l2, h1, _, _ = _run_batch(config, path_ids, observers)
    results = {}
    for obs in observers:
        name = getattr(obs, "name", obs.__class__.__name__)
        if hasattr(obs, "result"):
            results[name] = obs.result()
    return EnsembleDiagnostics(
        config=config,
        path_ids=tuple(path_ids),
        times=times,
        l2_sq=l2,
        h1_sq=h1,
        observers=results,
    )
