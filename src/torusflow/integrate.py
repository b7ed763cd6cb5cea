"""Time stepping for the truncated stochastic system and the ensemble runner.

Scheme menu
-----------
Every scheme steps by the Stratonovich increment ``incr(u) = -dt B(u) +
P (dW . grad) u``, ``B(u) = P (u . grad) u`` (``StepKernel._increment``).

``ito-em``
    Euler-Maruyama on the Ito form: ``u - dt (1/2) A u + incr(u)``.
``strat-heun``
    Predictor-corrector on the Stratonovich form (drift ``-B(u)``): ``u``
    plus the mean of ``incr(u)`` and ``incr(u + incr(u))``.
``strat-midpoint``
    ``v = u + incr((u + v) / 2)``, implicit midpoint, solved to a fixed-point
    residual of ``MIDPOINT_TOL``.  Drift and transport are both skew in the
    L2 pairing, so this scheme conserves ``||u||_0^2`` to solver tolerance
    per step.  For spatially constant noise the linear noise part of the
    midpoint map is inverted exactly per mode (2x2 blocks), which leaves only
    the ``dt``-small quadratic term to the Picard iteration, and the iteration
    starts from the exact noise-only step: the midpoint map with the quadratic
    term dropped, a Cayley rotation of each mode by ``kappa = dW . k``.  Its
    first residual is then ``O(dt |B(u)|)``, not ``O(sqrt(dt) |k| |u|)``, and
    at n=8, dt=1e-3 the solve reaches ``1e-12`` in 3 passes.  Each pass
    then adds ``-dt (I - T/2)^-1 B(mid)`` to that start, two per-mode
    products precomputed once per step.
    The fixed point, and with it every conserved quantity, is unchanged.

Paths own independent counter-based streams keyed by ``(seed, path_id)``,
and each path draws its increments from its own stream in step order, so its
noise is identical whether it runs alone or inside any batch, in any order,
and however many steps a draw takes.  The draws go into one buffer that the
run reuses, holding as many whole steps of the batch as fit ``DRAW_BYTES``,
so the noise costs memory in paths x components, not in the horizon.

A batched step runs over contiguous blocks of paths, so the arrays of one
operator pass stay in cache.  The pass writes its stages into arrays that
``dynamics.advect`` keeps for the next pass of the same shape, so in a run
they are allocated once, not faulted in afresh every pass.  The block size
is ``BLOCK_BYTES // StepKernel.path_bytes``, where ``path_bytes`` budgets
what one pass touches per path: 5 transformed fields (a field-noise pass's
2 in and 3 out; the quadratic term alone moves 2 in and 2 out), each an
``m x m`` grid, an ``(n+1) x 2m`` matrix-stage array and an ``(n+1) x
2(2n+1)`` cos/sin block, all real, plus under field noise the 2 grids of
the step's noise field, placed once per step.  At n=8 (m=25) that gives 32
paths with spatially constant noise and 27 with ``qwiener:8``; in the sweep
in ``BENCH_real_blocks.json`` 24-64 paths per block ran fastest, and 128 or
256 faulted most.  Every operation,
the midpoint convergence test and the transform stages included, acts on
each path alone, so results do not depend on the blocks: a path is
bit-identical alone, in any batch and in any block.

The blocks of an ensemble's steps are shared between the runner and helper
processes forked for the ensemble on the layer of :mod:`torusflow.workers`,
one per CPU of ``workers.plan(blocks)`` (:func:`helper_processes`).  Each
process owns a contiguous range of blocks as tickets, the runner the first.
Each step the runner copies the state and the increment field into one of
two slots of one anonymous shared mapping, the slots taking turns, and
hands out the slot's tickets; a helper steps a ticket into the slot's
shared output.  Once a helper has held a ticket ``PATIENCE`` times as long
as the runner took for its own last one, the runner steps it itself, so a
helper that the host deschedules (steal time on a shared host) delays the
step by about one ticket, not by as long as it is off its CPU.  A slot is
rewritten only once every ticket of it is answered, and until then the
runner steps serially.  A helper's midpoint failure comes back as
``(residual, iterations, rows)`` and merges with the runner's in row order;
anything else it raises is re-raised in the runner.  One usable CPU (so
``taskset -c 0`` and a lane of the acceptance battery), one block, or other
threads running in the process give the serial loop, with the same bits.

Draws, norms and observers stay in the runner, and run while the helpers
step: once it has woken them for step ``k + 1``, and before it claims a
block, the runner takes the norms of the state after step ``k``, passes it
to the observers (read-only, since its own blocks of step ``k + 1`` still
read it), and folds the increment field of step ``k + 2``, first refilling
the draw buffer when it is used up.
Every operation is the serial loop's, on the same arrays and in the same
per-path draw order; only when it runs changes.  Observers see every state
once, in step order, and a midpoint failure in a step is raised after they
have seen the state it started from.  A state with a non-finite norm is
never observed: its norms raise :class:`NonFiniteStateError`.  Serially the
same work runs just before each step.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import prod
from time import perf_counter
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from . import workers
from .basis import (
    Basis,
    BasisMode,
    SpectralField,
    Workspace,
    batch_norms_sq,
    block_shape,
    constant_advection,
    constant_symbol,
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

#: increments are drawn per path into one reused buffer of as many whole
#: steps as fit this many bytes (at least one): 64 steps of 256 paths under
#: constant noise, one step of 64 paths under ``qwiener:8``
DRAW_BYTES = 256 * 1024

#: a batched step runs over contiguous blocks of paths whose grids, stage
#: arrays and blocks in one operator pass take about this many bytes, so a
#: pass stays in cache; measured sweep in ``BENCH_real_blocks.json``
BLOCK_BYTES = 1_800_000

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

    def __reduce__(self):
        # the default rebuilds from ``args``, which hold only the message
        return type(self), (self.residual, self.iterations, self.step_index, self.paths)


class NonFiniteStateError(RuntimeError):
    """A state's norm is not finite: the scheme has blown up.

    ``paths`` lists the ids of the paths whose state after ``step_index``
    steps has an infinite or NaN norm.
    """

    def __init__(self, step_index: int, time: float, paths: Sequence[int]):
        self.step_index = step_index
        self.time = time
        self.paths = tuple(int(i) for i in paths)
        super().__init__(
            f"state is not finite after step {step_index} (t = {time:g}) "
            f"(paths {', '.join(map(str, self.paths))})"
        )

    def __reduce__(self):
        return type(self), (self.step_index, self.time, self.paths)


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
            # a start that comes out non-finite is reported below, not warned about
            with np.errstate(invalid="ignore", over="ignore"):
                u0 = self.initial_field()
        except Exception as e:  # surface every constraint at once
            bad.append(f"initial condition: {e}")
        else:
            if not np.isfinite(u0.coeffs).all():
                bad.append(f"initial condition {self.initial!r} is not finite")
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


def _nothing() -> None:
    pass


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
        self.ksq = basis.ksq
        self.constant_noise = noise.is_constant_advection
        # the budget of a 5-field pass per path (under field noise 2 fields
        # in and 3 out, and the quadratic term alone within it at 2 and 2),
        # each an m x m grid, an (n+1) x 2m stage array and an (n+1) x
        # 2(2n+1) block, all real, and under field noise the 2 grids of the
        # step's noise field
        n, m = basis.n, self.m
        self.path_bytes = 5 * 8 * (m * m + 2 * (n + 1) * (m + 2 * n + 1))
        self.path_bytes += 0 if self.constant_noise else 2 * 8 * m * m
        self.block_paths = max(1, BLOCK_BYTES // self.path_bytes)
        self._noise_arrays = Workspace()
        #: the processes that share a multi-block step, from :func:`helper_processes`
        self.helpers: _Helpers | None = None

    # -- building blocks ---------------------------------------------------

    def _prepare_noise(self, w_coeffs: np.ndarray) -> np.ndarray:
        """What every operator evaluation of one step needs of its noise field.

        Constant noise: the per-mode symbol ``kappa = w . k`` of its exact
        rotation.  Otherwise: the field's 2 components on the grid, ``advect``'s
        advector, in arrays the next step reuses.
        """
        if self.constant_noise:
            return constant_symbol(self.basis, w_coeffs[..., 0, 0:1], w_coeffs[..., 1, 0:1])
        fb, m, lead = self.noise.field_basis, self.m, w_coeffs.shape[:-2] + (2,)
        spec = self._noise_arrays.take("spec", lead + block_shape(fb))
        spec = place_halfspectrum(fb, w_coeffs, m, out=spec)
        return halfspectrum_to_grid(spec, m, out=self._noise_arrays.take("grids", lead + (m, m)))

    def _increment(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The Stratonovich increment ``-dt P (u . grad) u + P (dW . grad) u``."""
        if self.constant_noise:
            return constant_advection(noise, u) - self.dt * advect(self.basis, u, self.m)
        return advect(self.basis, u, self.m, -self.dt, noise)

    # -- schemes -------------------------------------------------------------

    def step(
        self, u: np.ndarray, w_coeffs: np.ndarray, meanwhile: Callable[[], object] = _nothing
    ) -> np.ndarray:
        """Advance batched coefficients ``(..., 2, N)`` by one step.

        ``w_coeffs`` is the assembled Wiener-increment field over the noise
        basis (leading axes matching ``u``).  A batch ``(P, 2, N)`` is stepped
        in contiguous blocks of ``block_paths`` paths, shared with
        ``self.helpers`` when there are any; every operation acts on each path
        alone, so the result does not depend on the blocks or on the process
        that steps them.  ``meanwhile()`` is called once, while the helpers
        step their blocks and before this process steps its first, or before
        the step when it runs serially; it must not write ``u`` or
        ``w_coeffs``.  A midpoint failure is raised once every block has run,
        with the largest residual and the unconverged rows of all blocks.
        """
        if u.ndim != 3 or len(u) <= self.block_paths:
            meanwhile()
            return self._step_block(u, w_coeffs)
        out = np.empty_like(u)
        if self.helpers is None:
            meanwhile()
            failed = self._step_rows(u, w_coeffs, out, 0, len(u))
        else:
            failed = self.helpers.step(u, w_coeffs, out, meanwhile)
        if failed:
            raise MidpointConvergenceError(
                float(np.max([residual for residual, _, _ in failed])),
                max(iterations for _, iterations, _ in failed),
                paths=[row for _, _, rows in failed for row in rows],
            )
        return out

    def _step_rows(self, u, w_coeffs, out, lo: int, hi: int) -> list:
        """Step the blocks of rows ``lo:hi`` into ``out``.

        ``lo`` is a block boundary.  Returns the midpoint failures, in row
        order, as ``(residual, iterations, rows)``.
        """
        failed = []
        for a in range(lo, hi, self.block_paths):
            block = slice(a, min(a + self.block_paths, hi))
            try:
                out[block] = self._step_block(u[block], w_coeffs[block])
            except MidpointConvergenceError as e:
                failed.append((e.residual, e.iterations, [a + i for i in e.paths]))
        return failed

    def _step_block(self, u: np.ndarray, w_coeffs: np.ndarray) -> np.ndarray:
        noise = self._prepare_noise(w_coeffs)
        if self.scheme == "ito-em":
            return self._step_em(u, noise)
        if self.scheme == "strat-heun":
            return self._step_heun(u, noise)
        return self._step_midpoint(u, noise)

    def _step_em(self, u, noise):
        return u - self.dt * ITO_VISCOSITY * self.ksq * u + self._increment(u, noise)

    def _step_heun(self, u, noise):
        incr0 = self._increment(u, noise)
        incr1 = self._increment(u + incr0, noise)
        return u + 0.5 * (incr0 + incr1)

    def _step_midpoint(self, u, noise):
        # solve v = u - dt P(mid . grad) mid + T(mid), mid = (u + v)/2, by
        # fixed-point iteration on the paths not yet converged
        if self.constant_noise:
            # the linear noise part T is inverted exactly per mode (2x2
            # blocks): the iteration starts from the exact noise-only step v0,
            # the Cayley rotation of u by kappa, and each pass adds
            # -dt S(B(mid)), S = (I - T/2)^-1, as two per-mode products:
            # -dt S maps (x0, x1) to s0 (x0, x1) + (s1 x1, -s1 x0), with
            # h = kappa/2, s0 = -dt / (1 + h^2) and s1 = h s0
            half_k = 0.5 * noise
            denom = 1.0 + half_k * half_k
            base = u + 0.5 * constant_advection(noise, u)
            va = (base[..., 0, :] + half_k * base[..., 1, :]) / denom
            v0 = np.stack([va, base[..., 1, :] - half_k * va], axis=-2)
            s0 = (-self.dt / denom)[..., None, :]
            s1 = s0 * half_k[..., None, :] * [[1.0], [-1.0]]

            def update(rows, mid):
                b = advect(self.basis, mid, self.m)
                inc = s1[rows] * b[..., ::-1, :]
                inc += s0[rows] * b
                inc += v0[rows]
                return inc

            v = v0.copy()
        else:

            def update(rows, mid):
                return u[rows] + self._increment(mid, noise[rows])

            v = u.copy()
        # every path takes every pass until one has converged; from then on
        # a pass gathers the rows still active
        active = np.ones(u.shape[:-2], dtype=bool)
        rows = ...
        # a diverging iterate overflows on the grid; its residual turns
        # non-finite in the same pass and ends the solve there
        with np.errstate(over="ignore", invalid="ignore"):
            for iteration in range(1, MIDPOINT_MAX_ITER + 1):
                v_new = update(rows, 0.5 * (u[rows] + v[rows]))
                res = np.abs(v_new - v[rows]).max(axis=(-2, -1))
                v[rows] = v_new
                blown = ~np.isfinite(res)
                if blown.any():
                    raise MidpointConvergenceError(
                        float(np.max(res)), iteration, paths=np.flatnonzero(active)[blown]
                    )
                still = res > MIDPOINT_TOL
                if not still.any():
                    return v
                if not still.all():
                    active[rows] = still
                    rows = np.nonzero(active)
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
# helper processes
# ---------------------------------------------------------------------------


@contextmanager
def helper_processes(kernel: StepKernel, paths: int) -> Iterator[int]:
    """Share ``kernel``'s steps of ``paths``-path batches with forked helpers,
    one process per CPU of ``workers.plan(blocks)``.  Yields the number of
    processes, and kills and reaps the helpers on the way out."""
    processes = len(workers.plan(-(-paths // kernel.block_paths)))
    kernel.helpers = _Helpers(kernel, paths, processes) if processes > 1 else None
    try:
        yield processes
    finally:
        if kernel.helpers is not None:
            kernel.helpers.workers.close()
            # the workers hold the helpers' callbacks: without this link the
            # shared mapping goes now, not at the next garbage collection
            kernel.helpers.workers = kernel.helpers = None


#: each process's row range goes out as at most this many tickets, so a
#: step's tickets fit in a pipe without a reader
_MAX_TICKETS = 128
#: a helper is late with a ticket once it has held it this many times as long
#: as the runner's own last ticket took; the runner then steps it itself
PATIENCE = 1.5


class _Helpers:
    """The step policy of the helpers (module docstring): ticket ``slot *
    count + j`` steps the rows ``ranges[j]`` of shared slot ``slot``."""

    def __init__(self, kernel: StepKernel, paths: int, processes: int):
        self.kernel = kernel
        rows = kernel.block_paths
        blocks = [(lo, min(lo + rows, paths)) for lo in range(0, paths, rows)]
        # each process's blocks, as at most _MAX_TICKETS runs of whole blocks
        self.ranges: list[tuple[int, int]] = []
        owned = []
        for i in range(processes):
            own = blocks[len(blocks) * i // processes : len(blocks) * (i + 1) // processes]
            per = -(-len(own) // _MAX_TICKETS)
            first = len(self.ranges)
            self.ranges += [
                (own[j][0], own[min(j + per, len(own)) - 1][1]) for j in range(0, len(own), per)
            ]
            owned.append(range(first, len(self.ranges)))
        self.count = len(self.ranges)
        #: each process's tickets, for each slot
        self.tickets = [[[slot * self.count + j for j in own] for own in owned] for slot in (0, 1)]
        self.steps = 0
        #: the caller's time for its last ticket, in seconds
        self.ticket_s: float | None = None
        state = (2, paths, 2, kernel.basis.n_modes)
        noise = (2, paths, 2, kernel.noise.field_basis.n_modes)
        mem = np.frombuffer(mmap.mmap(-1, 8 * (2 * prod(state) + prod(noise))), np.float64)
        self.u, self.out = mem[: 2 * prod(state)].reshape((2, *state))
        self.w = mem[2 * prod(state) :].reshape(noise)
        self.workers = workers.Workers(
            self._serve, processes, "path-block helper", lambda ticket: f" at step {self.steps}"
        )

    def _serve(self, me: int, ticket: int) -> list:
        slot, j = divmod(ticket, self.count)
        return self.kernel._step_rows(self.u[slot], self.w[slot], self.out[slot], *self.ranges[j])

    def step(self, u: np.ndarray, w_coeffs: np.ndarray, out: np.ndarray, meanwhile) -> list:
        """Step the whole batch into ``out``; the failures of every block in row
        order.  ``meanwhile()`` runs once the tickets are out, before this
        process claims one, or before a serial step."""
        while self.workers.receive(0) is not None:
            pass
        slot = self.steps % 2
        mine = range(slot * self.count, (slot + 1) * self.count)
        if not self.workers.pending.isdisjoint(mine):
            # a helper still steps a ticket of two steps ago from this slot
            meanwhile()
            failed = self.kernel._step_rows(u, w_coeffs, out, 0, len(u))
        else:
            failed = self._share(slot, mine, u, w_coeffs, out, meanwhile)
        self.steps += 1
        return failed

    def _share(self, slot: int, mine: range, u, w_coeffs, out, meanwhile) -> list:
        self.u[slot] = u
        self.w[slot] = w_coeffs
        self.workers.put(self.tickets[slot])
        meanwhile()
        done: dict[int, list] = {}
        while (ticket := self.workers.claim()) is not None:
            done[ticket] = self._step_own(u, w_coeffs, out, ticket)
        waiting = perf_counter()
        while len(done) < self.count:
            timeout = None
            if self.ticket_s is not None:
                # the ticket held longest; one whose claim notice is not yet
                # read counts from when the wait began
                held = {t: self.workers.claimed.get(t, waiting) for t in mine if t not in done}
                ticket = min(held, key=held.get)
                timeout = max(0.0, held[ticket] + PATIENCE * self.ticket_s - perf_counter())
            replies = self.workers.receive(timeout)
            if replies is None:
                # the helper is late with the ticket: step it here as well
                done[ticket] = self._step_own(u, w_coeffs, out, ticket)
            for ticket, failed in replies or ():
                if ticket in mine and ticket not in done:
                    lo, hi = self.ranges[ticket - mine.start]
                    out[lo:hi] = self.out[slot, lo:hi]
                    done[ticket] = failed
        return sorted((f for failed in done.values() for f in failed), key=lambda f: f[2][0])

    def _step_own(self, u, w_coeffs, out, ticket: int) -> list:
        start = perf_counter()
        failed = self.kernel._step_rows(u, w_coeffs, out, *self.ranges[ticket % self.count])
        self.ticket_s = perf_counter() - start
        return failed


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


class StepObserver(Protocol):
    """Hooks receiving the batched state at t = 0 and after every step.

    ``after_step`` sees every state once, in step order, but runs while the
    next step is under way, and that step still reads ``u``: both hooks get a
    read-only view, so an observer that writes to it raises ``ValueError``
    rather than change the rows that this process steps and not the helpers'.
    A step's midpoint failure is raised after ``after_step`` has seen the
    state that the step started from.
    """

    def start(self, t: float, u: np.ndarray) -> None: ...

    def after_step(self, t: float, u: np.ndarray) -> None: ...


def _read_only(u: np.ndarray) -> np.ndarray:
    view = u.view()
    view.flags.writeable = False
    return view


@dataclass
class EnsembleDiagnostics:
    """One run of one or more paths: per-step energy series, the states at
    ``T`` and observer products."""

    config: SimConfig
    path_ids: tuple[int, ...]
    times: np.ndarray     # (S,) full step grid
    l2_sq: np.ndarray     # (P, S)
    h1_sq: np.ndarray     # (P, S)
    final: np.ndarray     # (P, 2, N) states at T
    observers: dict = field(default_factory=dict)
    processes: int = 1    # the processes that stepped the run

    @property
    def n_paths(self) -> int:
        return len(self.path_ids)


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
    config: SimConfig, path_ids: Sequence[int], observers: Sequence[StepObserver] = ()
) -> EnsembleDiagnostics:
    """Advance all requested paths in lockstep; the workhorse of both runners.

    Increment draws are per path and in step order, so results are
    independent of the batch composition.  Helper processes, forked here and reaped on the
    way out, step some of the path blocks; draws, norms and observers stay in
    this process, in two stages (module docstring): while step ``s`` runs,
    ``meanwhile`` observes the state it started from and folds the field of
    step ``s + 1``.
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
    norms = Workspace()
    l2[:, 0], h1[:, 0] = batch_norms_sq(basis, u, norms)

    gens = [path_stream(config.seed, pid) for pid in path_ids]
    step_bytes = 8 * p * noise.n_components * 2
    per_draw = min(steps, max(1, DRAW_BYTES // max(step_bytes, 1)))
    draws = np.empty((p, per_draw, noise.n_components, 2))

    def field(i: int) -> np.ndarray:
        """The increment field of step ``i``, refilling the draws from step ``i`` on
        when they are used up."""
        if i % per_draw == 0:
            fill = draws[:, : steps - i]
            for j, g in enumerate(gens):
                g.standard_normal(out=fill[j])
            fill *= np.sqrt(config.dt)
        return noise.increments_to_field(draws[:, i % per_draw])

    def observe(i: int, u: np.ndarray) -> None:
        """The norms of the state after ``i`` steps and its observers; a
        non-finite norm raises :class:`NonFiniteStateError`."""
        l2[:, i], h1[:, i] = batch_norms_sq(basis, u, norms)
        blown = np.flatnonzero(~(np.isfinite(l2[:, i]) & np.isfinite(h1[:, i])))
        if len(blown):
            raise NonFiniteStateError(i, i * config.dt, [path_ids[j] for j in blown])
        view = _read_only(u)
        for obs in observers:
            obs.after_step(i * config.dt, view)

    def meanwhile() -> None:
        # while step s runs: observe the state it starts from (start() saw
        # state 0) and fold the field of step s + 1
        nonlocal w
        if s:
            observe(s, u)
        if s + 1 < steps:
            w = field(s + 1)

    # a path that blows up overflows on the grid and in its norms before its
    # state turns non-finite; its norms then raise NonFiniteStateError, so
    # the overflow warnings would add nothing (the helpers, forked here, keep
    # the setting)
    with np.errstate(over="ignore", invalid="ignore"), helper_processes(kernel, p) as processes:
        for obs in observers:
            obs.start(0.0, _read_only(u))
        w = field(0)
        for s in range(steps):
            try:
                u = kernel.step(u, w, meanwhile)
            except MidpointConvergenceError as e:
                raise MidpointConvergenceError(
                    e.residual, e.iterations, s, [path_ids[i] for i in e.paths]
                ) from None
        observe(steps, u)

    results = {
        getattr(obs, "name", obs.__class__.__name__): obs.result()
        for obs in observers
        if hasattr(obs, "result")
    }
    times = np.arange(steps + 1) * config.dt
    return EnsembleDiagnostics(
        config, tuple(path_ids), times, l2, h1, final=u, observers=results, processes=processes
    )


def run_path(
    config: SimConfig, path_id: int = 0, observers: Sequence[StepObserver] = ()
) -> EnsembleDiagnostics:
    """Integrate a single path, deterministic given ``(seed, path_id)``: a run
    whose one row is that path."""
    return _run_batch(config, [path_id], observers)


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
    return _run_batch(config, path_ids, observers)
