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
``dynamics.advect`` keeps for the next pass of the same shape, and each
scheme's update into arrays that the kernel keeps for the next block, so in
a run they are allocated once, not faulted in afresh every pass; a block
allocates only its result and each pass's, and the runner's steps write
into the ring below.  The block size
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
The ensemble's state and increment field live in four slots each, in
anonymous shared mappings: step ``s`` reads a state and its field, every
process writes its rows of the result straight into the first other state
that no ticket out holds, and the runner folds the next field into that
state's field, so nothing is copied between processes and a run takes
turns between the first two states.  Once a helper has held a ticket
``PATIENCE`` times as long as the runner took for its own last one, the
runner steps it itself, so a helper that the host deschedules (steal time)
delays the step by about one ticket, not by as long as it is off its CPU.
The late helper reads and writes its rows of the step's two states until
it answers, so the runner steps the ticket into a third state; a helper
that has not answered ``PATIENCE`` times later still has the runner gather
the step's other rows there, and the next steps, every ticket still
shared, use neither held state (the field copied in once).  With more than
one helper late a step may find no state free, and waits for an answer
instead.  A helper's midpoint failure comes back as ``(residual,
iterations, rows)`` and merges with the runner's in row order; anything
else it raises is re-raised in the runner.  One usable CPU (so
``taskset -c 0`` and a lane of the acceptance battery), one block, or
other threads running in the process give the serial loop, with the same
bits, on two states and fields of the runner's own.  A caller of
``StepKernel.step`` other than the runner passes its own arrays, which are
copied into free slots and the result out of them.

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
        #: the schemes' arrays of one block, reused by the next block
        self._work = Workspace()
        # per-mode rows of every step: the Ito viscosity's dt (1/2) |k|^2,
        # and the wavevectors of the constant noise's symbol
        self._viscosity = self.dt * ITO_VISCOSITY * basis.ksq
        self._k1, self._k2 = basis.modes.T.astype(np.float64)
        #: the processes that share a multi-block step, from :func:`helper_processes`
        self.helpers: _Helpers | None = None

    # -- building blocks ---------------------------------------------------

    def _prepare_noise(self, w_coeffs: np.ndarray) -> np.ndarray:
        """What every operator evaluation of one step needs of its noise field.

        Constant noise: the per-mode symbol ``kappa = w . k`` of its exact
        rotation (``constant_symbol``).  Otherwise: the field's 2 components
        on the grid, ``advect``'s advector, kept field-major as ``advect``
        keeps its grids and returned through a path-major view.  Both go into
        arrays that the next block reuses.
        """
        work = self._noise_arrays
        if self.constant_noise:
            shape = w_coeffs.shape[:-2] + (self.basis.n_modes,)
            kappa = np.multiply(w_coeffs[..., 0, 0:1], self._k1, out=work.take("kappa", shape))
            kappa += np.multiply(w_coeffs[..., 1, 0:1], self._k2, out=work.take("a2_k2", shape))
            return kappa
        fb, m, lead = self.noise.field_basis, self.m, w_coeffs.shape[:-2] + (2,)
        spec = place_halfspectrum(fb, w_coeffs, m, out=work.take("spec", lead + block_shape(fb)))
        return halfspectrum_to_grid(spec, m, out=work.take_field_major("grids", lead + (m, m)))

    def _increment(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The Stratonovich increment ``-dt P (u . grad) u + P (dW . grad) u``,
        in the array that ``advect`` returns."""
        if self.constant_noise:
            incr = advect(self.basis, u, self.m)
            incr *= self.dt
            rotated = constant_advection(noise, u, out=self._work.take("rotated", u.shape))
            return np.subtract(rotated, incr, out=incr)
        return advect(self.basis, u, self.m, -self.dt, noise)

    def _rows(self, a: np.ndarray, rows: np.ndarray | None, name: str) -> np.ndarray:
        """``a`` itself, or its ``rows`` gathered into the kept array ``name``."""
        if rows is None:
            return a
        out = self._work.take(name, (len(rows),) + a.shape[1:])
        return np.take(a, rows, axis=0, out=out, mode="clip")

    # -- schemes -------------------------------------------------------------

    def step(
        self,
        u: np.ndarray,
        w_coeffs: np.ndarray,
        meanwhile: Callable[[], object] = _nothing,
        out: np.ndarray | None = None,
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

        The result goes into ``out``, a fresh array by default, which is
        returned; ``out`` may be ``u`` itself, stepped in place.  The
        caller's arrays stay the caller's: with helpers, ``u`` and
        ``w_coeffs`` are copied into their ring and the result out of it,
        so a returned state stays as it is through later steps and after
        the helpers exit.  Only the runner passes the ring's own slots
        (:meth:`_Ring.free`): then nothing is copied, and after a late ticket
        the state returned may be another slot than ``out``.
        """
        if u.ndim != 3 or len(u) <= self.block_paths:
            meanwhile()
            result = self._step_block(u, w_coeffs)
            if out is None:
                return result
            out[...] = result
            return out
        out = np.empty_like(u) if out is None else out
        if self.helpers is None:
            meanwhile()
            failed = self._step_rows(u, w_coeffs, out, 0, len(u))
        else:
            out, failed = self.helpers.step(u, w_coeffs, out, meanwhile)
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
        """One step of a block of paths, allocating only its result and each
        ``advect`` result; every other array is kept in ``_work`` for the next
        block.  Any leading axes are stepped as one axis of paths."""
        lead = u.shape[:-2]
        u = u.reshape((-1,) + u.shape[-2:])
        noise = self._prepare_noise(w_coeffs.reshape((-1,) + w_coeffs.shape[-2:]))
        if self.scheme == "ito-em":
            out = self._step_em(u, noise)
        elif self.scheme == "strat-heun":
            out = self._step_heun(u, noise)
        else:
            out = self._step_midpoint(u, noise)
        return out.reshape(lead + out.shape[-2:])

    def _step_em(self, u, noise):
        # u - dt (1/2) A u + incr(u)
        incr = self._increment(u, noise)
        damped = np.multiply(self._viscosity, u, out=self._work.take("damped", u.shape))
        incr += np.subtract(u, damped, out=damped)
        return incr

    def _step_heun(self, u, noise):
        # u + (incr(u) + incr(u + incr(u))) / 2
        incr = self._increment(u, noise)
        predicted = np.add(u, incr, out=self._work.take("predicted", u.shape))
        incr += self._increment(predicted, noise)
        incr *= 0.5
        incr += u
        return incr

    def _step_midpoint(self, u, noise):
        # solve v = u - dt P(mid . grad) mid + T(mid), mid = (u + v)/2, by
        # fixed-point iteration on the paths not yet converged
        work = self._work
        if self.constant_noise:
            # the linear noise part T is inverted exactly per mode (2x2
            # blocks): the iteration starts from the exact noise-only step v0,
            # the Cayley rotation of u by kappa, and each pass adds
            # -dt S(B(mid)), S = (I - T/2)^-1, as two per-mode products:
            # -dt S maps (x0, x1) to s0 (x0, x1) + (s1 x1, -s1 x0), with
            # h = kappa/2, s0 = -dt / (1 + h^2) and s1 = h s0
            half_k = np.multiply(noise, 0.5, out=work.take("half_k", noise.shape))
            denom = np.multiply(half_k, half_k, out=work.take("s0", noise.shape))
            denom += 1.0
            base = constant_advection(noise, u, out=work.take("base", u.shape))
            base *= 0.5
            base += u
            v0 = work.take("v0", u.shape)
            va = np.multiply(half_k, base[:, 1, :], out=v0[:, 0, :])
            va += base[:, 0, :]
            va /= denom
            np.multiply(half_k, va, out=v0[:, 1, :])
            np.subtract(base[:, 1, :], v0[:, 1, :], out=v0[:, 1, :])
            s0 = np.divide(-self.dt, denom, out=denom)[:, None, :]
            s1 = work.take("s1", u.shape)
            np.multiply(s0[:, 0, :], half_k, out=s1[:, 0, :])
            np.negative(s1[:, 0, :], out=s1[:, 1, :])

            def update(rows, u_rows, mid):
                b = advect(self.basis, mid, self.m)
                new = work.take("new", b.shape)
                np.multiply(self._rows(s1, rows, "s1_rows"), b[:, ::-1, :], out=new)
                b *= self._rows(s0, rows, "s0_rows")
                new += b
                new += self._rows(v0, rows, "v0_rows")
                return new

            v = v0.copy()
        else:

            def update(rows, u_rows, mid):
                new = self._increment(mid, self._rows(noise, rows, "noise_rows"))
                new += u_rows
                return new

            v = u.copy()
        # every path takes every pass until one has converged; from then on
        # a pass gathers the rows still active
        active = np.ones(len(u), dtype=bool)
        rows = None
        # a diverging iterate overflows on the grid; its residual turns
        # non-finite in the same pass and ends the solve there
        with np.errstate(over="ignore", invalid="ignore"):
            for iteration in range(1, MIDPOINT_MAX_ITER + 1):
                u_rows, v_rows = self._rows(u, rows, "u_rows"), self._rows(v, rows, "v_rows")
                mid = np.add(u_rows, v_rows, out=work.take("mid", u_rows.shape))
                mid *= 0.5
                v_new = update(rows, u_rows, mid)
                diff = np.subtract(v_new, v_rows, out=mid)
                res = np.abs(diff, out=diff).max(axis=(-2, -1))
                if rows is None:
                    v[...] = v_new
                else:
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
                    active[active] = still
                    rows = np.flatnonzero(active)
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


class _Ring:
    """The states and increment fields that a run steps through: step ``s``
    reads a state and its field (``states[a]``, ``fields[a]``) and writes
    another state ``states[b]``, while the field of step ``s + 1`` is folded
    into ``fields[b]``.  Serially two of each, this process's own arrays;
    :class:`_Helpers` keeps four in shared mappings."""

    def __init__(self, kernel: StepKernel, paths: int, slots: int = 2, alloc=np.empty):
        state = (paths, 2, kernel.basis.n_modes)
        noise = (paths, 2, kernel.noise.field_basis.n_modes)
        self.states = tuple(alloc(state) for _ in range(slots))
        self.fields = tuple(alloc(noise) for _ in range(slots))

    def free(self, pair: tuple, a: np.ndarray) -> np.ndarray:
        """The array to write the next of ``pair`` (``states`` or ``fields``)
        into while ``a`` is read: the other slot."""
        return pair[1] if a is pair[0] else pair[0]


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A float array in an anonymous shared mapping of its own, which forked
    processes share and which goes when its last view does."""
    return np.frombuffer(mmap.mmap(-1, 8 * prod(shape)), np.float64).reshape(shape)


class _Helpers(_Ring):
    """The step policy of the helpers (module docstring), and the ring in
    shared mappings: ticket ``(a * 4 + b) * count + j`` steps the rows
    ``ranges[j]`` of ``states[a]`` and ``fields[a]`` into ``states[b]``.  A
    step writes the first state that no ticket out reads or writes, so a run
    takes turns between the first two, and the others come into use only
    while a late ticket holds states."""

    def __init__(self, kernel: StepKernel, paths: int, processes: int):
        super().__init__(kernel, paths, 4, _shared)
        self.kernel = kernel
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
        #: the caller's time for its last ticket, in seconds
        self.ticket_s: float | None = None
        #: the state that the step under way writes
        self.writing: int | None = None
        self.workers = workers.Workers(
            self._serve, processes, "path-block helper", lambda ticket: f" at step {self.steps}"
        )

    def _serve(self, me: int, ticket: int) -> list:
        slots, j = divmod(ticket, self.count)
        a, b = divmod(slots, len(self.states))
        u, w_coeffs, out = self.states[a], self.fields[a], self.states[b]
        return self.kernel._step_rows(u, w_coeffs, out, *self.ranges[j])

    def _drain(self) -> None:
        """Read every answer that has come."""
        while self.workers.receive(0) is not None:
            pass

    def _unheld(self, *besides: int | None) -> list[int]:
        """The states, but ``besides``, that no ticket out reads or writes."""
        held = set(besides)
        for ticket in self.workers.pending:
            held.update(divmod(ticket // self.count, len(self.states)))
        return [i for i in range(len(self.states)) if i not in held]

    def _free(self, *besides: int | None) -> int:
        """The first of :meth:`_unheld`.  One beyond the first two states only
        once the answers that would free one of those have had one more
        ``PATIENCE``, as a late helper mostly answers by then; with none,
        waiting for an answer, which takes more than one helper late."""
        deadline = perf_counter() + PATIENCE * (self.ticket_s or 0.0)
        while True:
            free = self._unheld(*besides)
            left = deadline - perf_counter()
            if free and (free[0] < 2 or left <= 0):
                return free[0]
            self.workers.receive(max(0.0, left) if free else None)

    def free(self, pair: tuple, a: np.ndarray) -> np.ndarray:
        """The first state, other than ``a``, that no ticket out holds; the
        field that that state is read with, for the step under way."""
        if pair is self.fields:
            return pair[self.writing]
        # between steps, where every answer that has come can be read
        self._drain()
        return pair[self._free(_slot(pair, a))]

    def step(self, u: np.ndarray, w_coeffs: np.ndarray, out: np.ndarray, meanwhile):
        """Step the whole batch (``StepKernel.step``): the state, in ``out`` or,
        after a late ticket, in another state, and the failures of every
        block in row order.  ``meanwhile()`` runs once the tickets are out,
        before this process claims one."""
        self._drain()
        # the runner's state and the state it writes are slots already; a
        # caller's own arrays go into free ones, and the result out of them
        a, b = _slot(self.states, u), _slot(self.states, out)
        a = self._free(b) if a is None else a
        b = self._free(a) if b is None else b
        if u is not self.states[a]:
            self.states[a][...] = u
        if w_coeffs is not self.fields[a]:
            # the runner's field after a late ticket, or a caller's
            self.fields[a][...] = w_coeffs
        self.writing = b
        try:
            result, failed = self._share(a, b, meanwhile)
        finally:
            self.writing = None
        if _slot(self.states, out) is None:
            out[...] = result
        else:
            out = result
        self.steps += 1
        return out, failed

    def _share(self, a: int, b: int, meanwhile) -> tuple[np.ndarray, list]:
        u, w_coeffs, out = self.states[a], self.fields[a], self.states[b]
        first = (a * len(self.states) + b) * self.count
        mine = range(first, first + self.count)
        self.workers.put([[first + j for j in own] for own in self.owned])
        meanwhile()
        done: dict[int, list] = {}
        while (ticket := self.workers.claim()) is not None:
            done[ticket] = self._step_own(u, w_coeffs, out, ticket)
        late, spare = [], None
        waiting = perf_counter()
        while len(done) < self.count:
            # where this process steps a late ticket; with no state free, it
            # waits for the helpers, and an answer may free one
            spare = next(iter(self._unheld(a, b)), None) if spare is None else spare
            timeout = None
            if self.ticket_s is not None and spare is not None:
                # the ticket held longest; one whose claim notice is not yet
                # read counts from when the wait began
                held = {t: self.workers.claimed.get(t, waiting) for t in mine if t not in done}
                ticket = min(held, key=held.get)
                timeout = max(0.0, held[ticket] + PATIENCE * self.ticket_s - perf_counter())
            replies = self.workers.receive(timeout)
            if replies is None:
                # the helper is late with the ticket, and writes its rows of
                # ``out`` until it answers: step them into the spare as well
                done[ticket] = self._step_own(u, w_coeffs, self.states[spare], ticket)
                late.append(ticket)
            for ticket, failed in replies or ():
                if ticket in mine and ticket not in done:
                    done[ticket] = failed
        failed = sorted((f for fs in done.values() for f in fs), key=lambda f: f[2][0])
        # a late helper mostly answers soon after: one more ``PATIENCE``
        # spares the gather, and the spare
        deadline = perf_counter() + PATIENCE * (self.ticket_s or 0.0)
        while not self.workers.pending.isdisjoint(late):
            if self.workers.receive(max(0.0, deadline - perf_counter())) is None:
                break
        if self.workers.pending.isdisjoint(late):
            # no ticket was late, or its helper has answered
            return out, failed
        for ticket in set(mine).difference(late):
            lo, hi = self.ranges[ticket - first]
            self.states[spare][lo:hi] = out[lo:hi]
        return self.states[spare], failed

    def _step_own(self, u, w_coeffs, out, ticket: int) -> list:
        start = perf_counter()
        failed = self.kernel._step_rows(u, w_coeffs, out, *self.ranges[ticket % self.count])
        self.ticket_s = perf_counter() - start
        return failed


def _slot(pair: tuple, a) -> int | None:
    """The index of ``a`` in ``pair``, or None when it is none of them."""
    return next((i for i, slot in enumerate(pair) if slot is a), None)


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
    independent of the batch composition.  Helper processes, forked here and reaped on the
    way out, step some of the path blocks; draws, norms and observers stay in
    this process, in two stages (module docstring): while step ``s`` runs,
    ``meanwhile`` observes the state it started from and folds the field of
    step ``s + 1``.  States and fields go into the ring (:class:`_Ring`,
    the helpers' shared slots when there are helpers), so a step of more
    than one block allocates no state; ``final`` is the last state, in
    memory that no later run reuses.  The run holds BLAS at one thread, in every process, so its
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
    with np.errstate(over="ignore", invalid="ignore"), helper_processes(kernel, p) as processes:
        ring = kernel.helpers or _Ring(kernel, p)
        u = ring.states[0]
        u[...] = u0.coeffs
        l2[:, 0], h1[:, 0] = batch_norms_sq(basis, u, norms)
        for obs in observers:
            obs.start(0.0, _read_only(u))
        w = field(0, ring.fields[0])
        for s in range(steps):
            # a single block's step returns the block's own result, with no
            # copy into the ring
            out = ring.free(ring.states, u) if p > kernel.block_paths else None
            try:
                u = kernel.step(u, w, meanwhile, out=out)
            except MidpointConvergenceError as e:
                raise MidpointConvergenceError(
                    e.residual, e.iterations, s, [path_ids[i] for i in e.paths]
                ) from None
        observe(steps, u)
    # the ring's other slots go before the observers build their results;
    # ``u`` keeps its own
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
