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
operator pass stay in cache.  Each block shape has a plan (``_Block``, and
``dynamics._Pass`` for each pass), built on first use and kept, which holds
every array its updates write and every view of them, so a block allocates
only its result and each pass's, and runs only numpy calls.  The block size
is ``BLOCK_BYTES // StepKernel.path_bytes``, where ``path_bytes`` budgets
what one pass touches per path: 5 transformed fields (a field-noise pass's
2 in and 3 out; the quadratic term alone moves 2 in and 2 out), each an
``m x m`` grid, an ``(n+1) x 2m`` matrix-stage array and an ``(n+1) x
2(2n+1)`` cos/sin block, all real, plus under field noise the 2 grids of
the step's noise field, placed once per step: at n=8 (m=25) 32 paths with
spatially constant noise and 27 with ``qwiener:8``.  Every operation, the
midpoint convergence test and the transform stages included, acts on each
path alone, so a path is bit-identical alone, in any batch and in any block.

``StepKernel.step`` steps the rows it is handed; the ring that
:func:`helper_processes` yields schedules a run's steps, each one
``StepKernel.step`` of the whole batch.  The ring holds the state and the
increment field in two slots each: step ``s`` reads one state and its field
and writes the other state, while the next field is folded into the other
field.  One usable CPU (so ``taskset -c 0`` and a lane of the acceptance
battery), one block, or other threads running in the process give the
serial ring of this process's own arrays, which hands the kernel every row.
Otherwise the blocks of a step are shared between the runner and helper
processes forked for the run on the layer of :mod:`torusflow.workers`, one
per CPU of ``workers.plan(blocks)``, with the slots in anonymous shared
mappings, so nothing is copied between processes.  Each process owns a
contiguous range of blocks as tickets, the runner the first, and claims
what is left of the others' once through its own; the runner's kernel steps
the rows of the tickets it claims.  A step ends when every ticket has
answered, so a helper that the host slows down in a ticket delays that step.
A helper's midpoint failure comes back as ``(residual, iterations, rows)``
and merges with the runner's in row order; anything else it raises is
re-raised in the runner.

Draws, norms and observers stay in the runner, in the step's ``meanwhile()``:
once it has woken the helpers for step ``k + 1``, and before it claims a
block, the runner takes the norms of the state after step ``k``, passes it
to the observers, and folds the increment field of step ``k + 2``, first
refilling the draw buffer when it is used up.  Serially the same work runs
before the step's first block, on the same arrays and in the same per-path
draw order.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import prod
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
    get_basis,
    halfspectrum_to_grid,
    inverse_plan,
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
        #: the block plans (:class:`_Block`) and their arrays
        self._arrays = Workspace()
        self._step_scheme = getattr(StepKernel, "_step_" + scheme.split("-")[1])
        # per-mode rows of every step: the Ito viscosity's dt (1/2) |k|^2,
        # and the wavevectors of the constant noise's symbol
        self._viscosity = self.dt * ITO_VISCOSITY * basis.ksq
        self._k1, self._k2 = basis.modes.T.astype(np.float64)

    # -- building blocks ---------------------------------------------------

    def _prepare_noise(self, w_coeffs: np.ndarray, plan: _Block) -> np.ndarray:
        """What every operator evaluation of one step needs of its noise field,
        in the block's plan: constant noise's symbol ``kappa = w . k`` (per mode,
        ``constant_symbol``), else the field's 2 grids, field-major as ``advect``'s."""
        if self.constant_noise:
            kappa = np.multiply(w_coeffs[..., 0, 0:1], self._k1, out=plan.kappa)
            kappa += np.multiply(w_coeffs[..., 1, 0:1], self._k2, out=plan.a2_k2)
            return kappa
        place_halfspectrum(self.noise.field_basis, w_coeffs, self.m, plan=plan.place)
        return halfspectrum_to_grid(plan.spec, self.m, plan=plan.inverse)

    def _increment(self, u: np.ndarray, noise: np.ndarray, plan: _Block) -> np.ndarray:
        """The Stratonovich increment ``-dt P (u . grad) u + P (dW . grad) u``,
        in the array that ``advect`` returns."""
        if self.constant_noise:
            incr = advect(self.basis, u, self.m)
            incr *= self.dt
            rotated = constant_advection(noise, u, out=plan.rotated)
            return np.subtract(rotated, incr, out=incr)
        return advect(self.basis, u, self.m, -self.dt, noise)

    # -- schemes -------------------------------------------------------------

    def step(
        self, u: np.ndarray, w_coeffs: np.ndarray, out: np.ndarray | None = None, rows=None
    ) -> np.ndarray:
        """Step a batch ``(P, 2, N)`` with its Wiener-increment fields over
        the noise basis, in blocks of ``block_paths`` paths, into ``out`` (a
        fresh array by default; ``u`` itself steps in place), which is
        returned: every row, or the ranges ``(lo, hi)`` from block boundaries
        that ``rows`` yields, as a run's ring hands them to this process.
        Every operation acts on each path alone, so the result does not
        depend on the blocks.  A midpoint failure is raised once every block
        has run, with the largest residual and the unconverged rows of all."""
        out = np.empty_like(u) if out is None else out
        failed = []
        for lo, hi in [(0, len(u))] if rows is None else rows:
            failed += self._step_rows(u, w_coeffs, out, lo, hi)
        if failed:
            raise _merged(failed)
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
        """One step of a block of paths on the plan of its shape, allocating
        only its result and each ``advect`` result."""
        plan = self._arrays.plan(len(u), _Block, self, len(u))
        return self._step_scheme(self, plan, u, self._prepare_noise(w_coeffs, plan))

    def _step_em(self, plan, u, noise):
        # u - dt (1/2) A u + incr(u)
        incr = self._increment(u, noise, plan)
        damped = np.multiply(self._viscosity, u, out=plan.damped)
        incr += np.subtract(u, damped, out=damped)
        return incr

    def _step_heun(self, plan, u, noise):
        # u + (incr(u) + incr(u + incr(u))) / 2
        incr = self._increment(u, noise, plan)
        predicted = np.add(u, incr, out=plan.predicted)
        incr += self._increment(predicted, noise, plan)
        incr *= 0.5
        incr += u
        return incr

    def _step_midpoint(self, plan, u, noise):
        # solve v = u - dt P(mid . grad) mid + T(mid), mid = (u + v)/2, by
        # fixed-point iteration on the paths not yet converged
        if self.constant_noise:
            # the linear noise part T is inverted exactly per mode (2x2
            # blocks): the iteration starts from the exact noise-only step v0,
            # the Cayley rotation of u by kappa, and each pass adds
            # -dt S(B(mid)), S = (I - T/2)^-1, as two per-mode products:
            # -dt S maps (x0, x1) to s0 (x0, x1) + (s1 x1, -s1 x0), with
            # h = kappa/2, s0 = -dt / (1 + h^2) and s1 = h s0
            (base, base_a, base_b), (v0, v0_a, v0_b) = plan.base, plan.v0
            s1, s1_a, s1_b = plan.s1
            half_k = np.multiply(noise, 0.5, out=plan.half_k)
            denom = np.multiply(half_k, half_k, out=plan.denom)
            denom += 1.0
            base = constant_advection(noise, u, out=base)
            base *= 0.5
            base += u
            va = np.multiply(half_k, base_b, out=v0_a)
            va += base_a
            va /= denom
            np.multiply(half_k, va, out=v0_b)
            np.subtract(base_b, v0_b, out=v0_b)
            np.divide(-self.dt, denom, out=denom)
            np.multiply(denom, half_k, out=s1_a)
            np.negative(s1_a, out=s1_b)
            fixed, v = (u, s1, plan.s0, v0), v0
        else:
            fixed, v = (u, noise), u
        # every path takes every pass until one has converged; the iterates
        # swap, and the arrays that the passes only read are gathered once
        # each time the active rows change
        active, rows, q, here, v_rows = np.ones(len(u), dtype=bool), None, plan, fixed, v
        # a diverging iterate overflows on the grid; its residual turns
        # non-finite in the same pass and ends the solve there
        with np.errstate(over="ignore", invalid="ignore"):
            for iteration in range(1, MIDPOINT_MAX_ITER + 1):
                mid = np.add(here[0], v_rows, out=q.mid)
                mid *= 0.5
                if self.constant_noise:
                    # (s1 b~ + s0 b) + v0 in b, b~ the swapped rows of b
                    v_new = advect(self.basis, mid, self.m)
                    np.multiply(here[1], v_new[:, ::-1, :], out=q.new)
                    v_new *= here[2]
                    v_new += q.new
                    v_new += here[3]
                else:
                    v_new = self._increment(mid, here[1], q)
                    v_new += here[0]
                diff = np.subtract(v_new, v_rows, out=mid)
                res = np.maximum.reduce(np.abs(diff, out=diff), axis=(-2, -1))
                if rows is None:
                    v = v_new
                else:
                    v[rows] = v_new
                top = np.maximum.reduce(res)
                if top <= MIDPOINT_TOL:
                    return v
                if not np.isfinite(top):
                    blown = np.flatnonzero(active)[~np.isfinite(res)]
                    raise MidpointConvergenceError(float(top), iteration, paths=blown)
                still = res > MIDPOINT_TOL
                v_rows = v_new
                if not still.all():
                    active[active] = still
                    rows = np.flatnonzero(active)
                    q = self._arrays.plan(len(rows), _Block, self, len(rows))
                    v_rows, *here = (
                        np.take(a, rows, axis=0, out=o, mode="clip")
                        for a, o in zip((v,) + fixed, q.gathered(self._arrays, (v,) + fixed))
                    )
        raise MidpointConvergenceError(
            float(np.max(res)), MIDPOINT_MAX_ITER, paths=np.flatnonzero(active)
        )


def _merged(failed: list) -> MidpointConvergenceError:
    """One error for a step's midpoint failures ``(residual, iterations,
    rows)``: the largest residual and count, and every row in row order."""
    return MidpointConvergenceError(
        float(np.max([residual for residual, _, _ in failed])),
        max(iterations for _, iterations, _ in failed),
        paths=sorted(row for _, _, rows in failed for row in rows),
    )


class _Block:
    """The plan of a :class:`StepKernel`'s blocks of ``rows`` paths: every
    array that a step writes, a leading slice of a slot of ``_arrays``, its
    views, and the operands of the noise field's transforms."""

    def __init__(self, kernel: StepKernel, rows: int):
        take, m, n_modes = kernel._arrays.take, kernel.m, kernel.basis.n_modes
        state, modes, grids = (rows, 2, n_modes), (rows, n_modes), (rows, 2, m, m)
        const = kernel.constant_noise
        if const:
            self.kappa, self.a2_k2 = take("kappa", modes), take("a2_k2", modes)
        else:
            fb = kernel.noise.field_basis
            self.spec = take("spec", (rows, 2) + block_shape(fb))
            self.place = fb._grid_map(m).placement + (self.spec,)
            grids_fm = kernel._arrays.take_field_major("grids", grids)
            self.inverse = inverse_plan(self.spec, m, grids_fm, kernel._arrays)
        if kernel.scheme != "strat-midpoint":
            self.damped = self.predicted = take("update", state)
            self.rotated = take("rotated", state) if const else None
            return
        self.mid, self._rows, self._gathered = take("mid", state), rows, None
        if const:
            self.new, self.half_k = take("new", state), take("half_k", modes)
            self.s0 = take("s0", (rows, 1, n_modes))
            self.denom = self.s0[:, 0, :]
            # v0, s1 and base, each with its two rows
            self.v0, self.s1, self.base = (
                (a, a[:, 0, :], a[:, 1, :]) for a in map(take, ("v0", "s1", "base"), [state] * 3)
            )

    def gathered(self, work: Workspace, arrays: tuple) -> list:
        """The arrays of ``work`` that a midpoint step gathers ``arrays``' rows into."""
        if self._gathered is None:
            shapes = [(self._rows,) + a.shape[1:] for a in arrays]
            self._gathered = [work.take(f"rows_{i}", s) for i, s in enumerate(shapes)]
        return self._gathered


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
def helper_processes(kernel: StepKernel, paths: int) -> Iterator[_Ring]:
    """The ring that steps ``kernel``'s batches of ``paths`` paths, shared
    with forked helpers, one process per CPU of ``workers.plan(blocks)``, or
    this process's own when that is one.  Kills and reaps the helpers on the
    way out."""
    processes = len(workers.plan(-(-paths // kernel.block_paths)))
    if processes == 1:
        yield _Ring(kernel, paths)
        return
    ring = _Helpers(kernel, paths, processes)
    try:
        yield ring
    finally:
        ring.workers.close()
        # the workers hold the ring's callbacks: without this link the
        # shared mappings go now, not at the next garbage collection
        ring.workers = None


#: each process's row range goes out as at most this many tickets, so a
#: step's tickets fit in a pipe without a reader
_MAX_TICKETS = 128


class _Ring:
    """The two states and increment fields that a run steps through: step
    ``s`` reads ``states[a]`` with ``fields[a]`` and writes the other state,
    while the field of step ``s + 1`` is folded into the other field
    (``free``), so the second step after a state overwrites it.  Here they are
    this process's arrays; :class:`_Helpers` keeps them in shared mappings."""

    processes = 1

    def __init__(self, kernel: StepKernel, paths: int, alloc=np.empty):
        self.kernel = kernel
        state = (paths, 2, kernel.basis.n_modes)
        noise = (paths, 2, kernel.noise.field_basis.n_modes)
        self.states = (alloc(state), alloc(state))
        self.fields = (alloc(noise), alloc(noise))

    def free(self, pair: tuple, a: np.ndarray) -> np.ndarray:
        """The slot of ``pair`` (``states`` or ``fields``) other than ``a``."""
        return pair[1] if a is pair[0] else pair[0]

    def step(self, u: np.ndarray, meanwhile: Callable[[], object]) -> np.ndarray:
        """Step ``u``, a state of the ring, with the field of its slot into the
        other state, which is returned: one ``kernel.step`` of the whole batch
        on the rows that :meth:`_rows` hands this process once it has run
        ``meanwhile()``, which must write neither state nor that field.  The
        midpoint failures of every process's blocks are raised together."""
        a = int(u is self.states[1])
        if u is not self.states[a]:
            raise ValueError("a ring steps its own states only")
        self.failed = []  # those of the blocks that other processes step
        try:
            v = self.kernel.step(u, self.fields[a], self.states[1 - a], self._rows(a, meanwhile))
        except MidpointConvergenceError as e:
            self.failed.append((e.residual, e.iterations, e.paths))
        if self.failed:
            raise _merged(self.failed)
        return v

    def _rows(self, a: int, meanwhile: Callable[[], object]) -> Iterator[tuple[int, int]]:
        meanwhile()
        yield 0, len(self.states[a])


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A float array in an anonymous shared mapping of its own, which forked
    processes share and which goes when its last view does."""
    return np.frombuffer(mmap.mmap(-1, 8 * prod(shape)), np.float64).reshape(shape)


class _Helpers(_Ring):
    """The ring in shared mappings, and the tickets that step it: ticket
    ``a * count + j`` steps the rows ``ranges[j]`` of ``states[a]`` and
    ``fields[a]`` into the other state."""

    def __init__(self, kernel: StepKernel, paths: int, processes: int):
        super().__init__(kernel, paths, _shared)
        self.processes = processes
        rows = kernel.block_paths
        blocks = [(lo, min(lo + rows, paths)) for lo in range(0, paths, rows)]
        # each process's blocks, as at most _MAX_TICKETS runs of whole blocks
        self.ranges: list[tuple[int, int]] = []
        #: each process's indices into ``ranges``
        self.owned: list[range] = []
        for i in range(processes):
            own = blocks[len(blocks) * i // processes : len(blocks) * (i + 1) // processes]
            per = -(-len(own) // _MAX_TICKETS)
            first = len(self.ranges)
            self.ranges += [
                (own[j][0], own[min(j + per, len(own)) - 1][1]) for j in range(0, len(own), per)
            ]
            self.owned.append(range(first, len(self.ranges)))
        self.count = len(self.ranges)
        self.steps = 0
        self.workers = workers.Workers(
            self._serve, processes, "path-block helper", lambda ticket: f" at step {self.steps}"
        )

    def _serve(self, me: int, ticket: int) -> list:
        a, j = divmod(ticket, self.count)
        u, w_coeffs, out = self.states[a], self.fields[a], self.states[1 - a]
        return self.kernel._step_rows(u, w_coeffs, out, *self.ranges[j])

    def _rows(self, a: int, meanwhile: Callable[[], object]) -> Iterator[tuple[int, int]]:
        """Put the tickets of slot ``a``, run ``meanwhile()``, yield the rows
        of each ticket this process claims, then wait for the others'."""
        # every ticket of the last step has answered, so what is left to read
        # is a helper that has ended since: report it before handing it tickets
        while self.workers.receive(0) is not None:
            pass
        self.workers.put([[a * self.count + j for j in own] for own in self.owned])
        meanwhile()
        while (ticket := self.workers.claim()) is not None:
            yield self.ranges[ticket % self.count]
        while self.workers.pending:
            self.failed += [f for _, fs in self.workers.receive() for f in fs]
        self.steps += 1


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


class StepObserver(Protocol):
    """Hooks receiving the batched state at t = 0 and after every step.

    ``after_step`` sees every state once, in step order, but runs while the
    next step is under way, and that step still reads ``u``: both hooks get a
    read-only view, so an observer that writes to it raises ``ValueError``
    rather than change the rows that this process steps and not the helpers'.
    The view is of a slot of the run's ring, which a later step rewrites, so
    an observer copies what it keeps.  A step's midpoint failure is raised
    after ``after_step`` has seen the state that the step started from.
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


@workers.one_blas_thread()
def _run_batch(
    config: SimConfig, path_ids: Sequence[int], observers: Sequence[StepObserver] = ()
) -> EnsembleDiagnostics:
    """Advance all requested paths in lockstep; the workhorse of both runners.

    Increment draws are per path and in step order, so results are
    independent of the batch composition.  States and fields go into the
    ring of :func:`helper_processes`, which steps them (module docstring),
    so a step allocates no state; while step ``s`` runs, ``meanwhile``
    observes the state it started from and folds the field of step
    ``s + 1``.  ``final`` is the last state, in memory that no later run
    reuses.  The run holds BLAS at one thread, in every process, so its
    bits do not depend on the CPUs it may use.
    """
    config.validate()
    basis = config.basis
    noise = config.noise
    steps = config.n_steps
    p = len(path_ids)
    kernel = StepKernel(basis, noise, config.scheme, config.dt)
    u0 = config.initial_field()

    l2 = np.empty((p, steps + 1))
    h1 = np.empty((p, steps + 1))
    norms = Workspace()

    gens = [path_stream(config.seed, pid) for pid in path_ids]
    step_bytes = 8 * p * noise.n_components * 2
    per_draw = min(steps, max(1, DRAW_BYTES // max(step_bytes, 1)))
    draws = np.empty((p, per_draw, noise.n_components, 2))

    def field(i: int, out: np.ndarray) -> np.ndarray:
        """The increment field of step ``i``, folded into ``out``, refilling the
        draws from step ``i`` on when they are used up."""
        if i % per_draw == 0:
            fill = draws[:, : steps - i]
            for j, g in enumerate(gens):
                g.standard_normal(out=fill[j])
            fill *= np.sqrt(config.dt)
        return noise.increments_to_field(draws[:, i % per_draw], out=out)

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
        # state 0) and fold the field of step s + 1 into the ring's other field
        nonlocal w
        if s:
            observe(s, u)
        if s + 1 < steps:
            w = field(s + 1, ring.free(ring.fields, w))

    # a path that blows up overflows on the grid and in its norms before its
    # state turns non-finite; its norms then raise NonFiniteStateError, so
    # the overflow warnings would add nothing (the helpers, forked here, keep
    # the setting)
    with np.errstate(over="ignore", invalid="ignore"), helper_processes(kernel, p) as ring:
        u = ring.states[0]
        u[...] = u0.coeffs
        l2[:, 0], h1[:, 0] = batch_norms_sq(basis, u, norms)
        for obs in observers:
            obs.start(0.0, _read_only(u))
        w = field(0, ring.fields[0])
        for s in range(steps):
            try:
                u = ring.step(u, meanwhile)
            except MidpointConvergenceError as e:
                raise MidpointConvergenceError(
                    e.residual, e.iterations, s, [path_ids[i] for i in e.paths]
                ) from None
        observe(steps, u)
    # the ring's other slots go before the observers build their results;
    # ``u`` keeps its own
    processes = ring.processes
    del ring
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
