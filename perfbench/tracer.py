"""Outside-in span tracer for the torusflow benchmark.

The tracer wraps public functions at every module binding their callers use
(``from .basis import place_halfspectrum`` copies the binding, so
``torusflow.integrate.place_halfspectrum`` and
``torusflow.dynamics.place_halfspectrum`` are wrapped, not only
``torusflow.basis.place_halfspectrum``) and methods on their classes.  Each
call records one span: name, parent span, start and end.  Spans stay in
memory and are written once, when the run ends; :meth:`Tracer.restore` puts
every original binding back.

Counters are derived from call arguments' shapes only, so they repeat
bit-for-bit for a fixed seed and amount of work.  They are collected only
while :attr:`Tracer.counting` is set (inside the harness's timed units).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from math import prod
from time import perf_counter

HARNESS_UNIT = "harness.unit"
STEP = "integrate.step"


def self_times(parent: list[int], t0: list[float], t1: list[float]) -> list[float]:
    """Span duration minus the time its direct child spans cover.

    Spans are synchronous and properly nested, so the children of one span
    are disjoint sub-intervals of it and their durations simply add.
    """
    out = [b - a for a, b in zip(t0, t1)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= t1[i] - t0[i]
    return out


def roots(parent: list[int]) -> list[int]:
    """Top-level ancestor of every span (parents precede their children)."""
    out = []
    for i, p in enumerate(parent):
        out.append(i if p < 0 else out[p])
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.counting = False
        self.counts: dict[str, int] = {}
        # the step in progress: its noise-field argument and batch size
        self._step_noise = None
        self._step_batch = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float) -> None:
        self._stack.pop()
        self.t0[sid] = start
        self.t1[sid] = end

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, start, perf_counter())

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(tracer, args, kwargs)`` runs first."""
        tracer = self

        def traced(*args, **kwargs):
            if count is not None and tracer.counting:
                count(tracer, args, kwargs)
            sid = tracer._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def patch_bindings(self, modules, home, attr: str, name: str, count=None) -> None:
        """Wrap ``home.attr`` at every module in ``modules`` bound to the same object."""
        original = getattr(home, attr)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def unit_self_seconds(self) -> dict[str, float]:
        """Self time per span name, over spans inside harness units only."""
        own = self_times(self.parent, self.t0, self.t1)
        top = roots(self.parent)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if self.names[top[i]] == HARNESS_UNIT:
                out[name] = out.get(name, 0.0) + own[i]
        return out

    def unit_spans(self) -> int:
        """Spans inside harness units, the unit spans themselves excluded."""
        top = roots(self.parent)
        return sum(
            self.names[top[i]] == HARNESS_UNIT and top[i] != i for i in range(len(top))
        )

    def total_seconds(self, name: str) -> float:
        return sum(b - a for n, a, b in zip(self.names, self.t0, self.t1) if n == name)

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with open(path, "w") as f:
            json.dump(
                {
                    "names": table,
                    "name": [index[n] for n in self.names],
                    "parent": self.parent,
                    "t0": self.t0,
                    "t1": self.t1,
                    "counts": self.counts,
                },
                f,
            )


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op with a shape counter."""
    import numpy as np

    tr = Tracer()
    tr.counting = True
    spec = np.zeros((2, 5, 3), dtype=np.complex128)

    def noop(spec, m):
        return spec

    traced = tr.wrap("calibrate", noop, _count_to_grid)
    start = perf_counter()
    for _ in range(calls):
        noop(spec, 5)
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced(spec, 5)
    return max(perf_counter() - start - bare, 0.0) / calls


# ---------------------------------------------------------------------------
# counters (argument shapes only)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_step(tr: Tracer, args, kwargs) -> None:
    # StepKernel.step(self, u, w_coeffs): one call advances every path in u
    u = _arg(args, kwargs, 1, "u")
    tr._step_noise = _arg(args, kwargs, 2, "w_coeffs")
    tr._step_batch = prod(u.shape[:-2])
    tr.add("steps", 1)
    tr.add("path_steps", tr._step_batch)


def _count_place(tr: Tracer, args, kwargs) -> None:
    # place_halfspectrum(basis, coeffs, m)
    coeffs = _arg(args, kwargs, 1, "coeffs")
    tr.add("place.rows", prod(coeffs.shape[:-1]))
    # A state placement directly inside a step is one operator evaluation
    # (one Picard pass for the midpoint scheme); placing the step's own noise
    # field is not.
    if tr.names[tr._stack[-1]] == STEP and coeffs is not tr._step_noise:
        tr.add("passes", 1)
        tr.add("path_iters", prod(coeffs.shape[:-2]))
        tr.add("pass_slots", tr._step_batch)


def _count_to_grid(tr: Tracer, args, kwargs) -> None:
    # halfspectrum_to_grid(spec, m): complex (..., m, m//2+1) -> real (..., m, m)
    spec = _arg(args, kwargs, 0, "spec")
    m = _arg(args, kwargs, 1, "m")
    fields = prod(spec.shape[:-2])
    tr.add("to_grid.fields", fields)
    tr.add("to_grid.bytes", spec.nbytes + fields * m * m * 8)


def _count_to_spectrum(tr: Tracer, args, kwargs) -> None:
    # grid_to_halfspectrum(grid): real (..., m, m) -> complex (..., m, m//2+1)
    grid = _arg(args, kwargs, 0, "grid")
    m = grid.shape[-1]
    fields = prod(grid.shape[:-2])
    tr.add("to_spectrum.fields", fields)
    tr.add("to_spectrum.bytes", grid.nbytes + fields * m * (m // 2 + 1) * 16)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import torusflow
    from torusflow import acceptance, basis, diagnostics, dynamics, geometry, integrate, noise

    modules = (torusflow, basis, dynamics, geometry, integrate, noise, diagnostics, acceptance)

    for attr, name, count in (
        ("place_halfspectrum", "basis.place_halfspectrum", _count_place),
        ("halfspectrum_to_grid", "basis.halfspectrum_to_grid", _count_to_grid),
        ("grid_to_halfspectrum", "basis.grid_to_halfspectrum", _count_to_spectrum),
        ("gather_coeffs", "basis.gather_coeffs", None),
        ("derivative_spectra", "basis.derivative_spectra", None),
        ("batch_l2_sq", "basis.norms", None),
        ("batch_h1_sq", "basis.norms", None),
    ):
        tracer.patch_bindings(modules, basis, attr, name, count)

    for home, attr, name in (
        (integrate, "run_ensemble", "integrate.run_loop"),
        (dynamics, "build_advection_tensor", "dynamics.build_advection_tensor"),
        (dynamics, "nonlinear_direct", "dynamics.nonlinear_direct"),
        (geometry, "build_structure_tables", "geometry.build_structure_tables"),
        (geometry, "geodesic_drift", "geometry.geodesic_drift"),
        (diagnostics, "energy_report", "diagnostics.energy_report"),
        (diagnostics, "qv_check", "diagnostics.qv_check"),
        (diagnostics, "write_ensemble_csv", "diagnostics.write_ensemble_csv"),
    ):
        tracer.patch_bindings(modules, home, attr, name)

    tracer.patch(integrate.StepKernel, "step", STEP, _count_step)
    tracer.patch(noise.NoiseModel, "__init__", "noise.model_build")
    tracer.patch(noise.NoiseModel, "increments_to_field", "noise.increments_to_field")
    tracer.patch(diagnostics.MartingaleProbe, "after_step", "diagnostics.probe_after_step")

    # Draws go through the Generator a path stream returns: hand back a view
    # whose standard_normal is traced.
    def traced_stream(make):
        def make_stream(*args, **kwargs):
            return _TracedStream(tracer, make(*args, **kwargs))

        return make_stream

    stream = noise.path_stream
    for mod in (integrate, acceptance):
        if getattr(mod, "path_stream", None) is stream:
            tracer._saved.append((mod, "path_stream", stream))
            setattr(mod, "path_stream", tracer.wrap("noise.draw", traced_stream(stream)))


class _TracedStream:
    def __init__(self, tracer: Tracer, gen):
        self.standard_normal = tracer.wrap("noise.draw", gen.standard_normal)
