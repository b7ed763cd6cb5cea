"""Benchmark worker: one fresh process that sets up one workload and runs units.

``run.py`` starts it, one process at a time; it can also be run by hand from
the repository root:

    python3 perfbench/worker.py setup --workload midpoint-const --seed 0
    python3 perfbench/worker.py run --workload em-probes --seed 0 --seconds 5
    python3 perfbench/worker.py run --workload em-probes --seed 0 --units 1 --trace

The last line of standard output is one JSON object.  ``setup_s`` runs from
the top of this file, before numpy and torusflow are imported.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CRITERIA = ("a1a", "a1b", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def layer_metrics(tracer, units) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0.

    Self times are seconds per unit.  Counter ratios do not depend on the
    number of units, since every unit repeats the same computation.
    """
    own = {k: v / len(units) for k, v in tracer.unit_self_seconds().items()}
    c = tracer.counts
    path_steps = c.get("path_steps", 0)

    def per_path_step(key):
        return c.get(key, 0) / path_steps if path_steps else 0.0

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    out = {}
    for name in ("halfspectrum_to_grid", "grid_to_halfspectrum"):
        key = "to_grid" if name == "halfspectrum_to_grid" else "to_spectrum"
        out[f"basis.{name}.self_s"] = own.get(f"basis.{name}", 0.0)
        out[f"basis.{name}.fields_per_path_step"] = per_path_step(f"{key}.fields")
        out[f"basis.{name}.bytes_per_path_step"] = per_path_step(f"{key}.bytes")
    out["basis.place_halfspectrum.self_s"] = own.get("basis.place_halfspectrum", 0.0)
    out["basis.place_halfspectrum.rows_per_path_step"] = per_path_step("place.rows")
    for name in ("gather_coeffs", "derivative_spectra", "norms"):
        out[f"basis.{name}.self_s"] = own.get(f"basis.{name}", 0.0)

    out["integrate.step.self_s"] = own.get("integrate.step", 0.0)
    out["integrate.picard_iters_per_step"] = ratio("passes", "steps")
    out["integrate.path_iters_per_path_step"] = per_path_step("path_iters")
    out["integrate.active_frac"] = ratio("path_iters", "pass_slots")
    out["integrate.run_loop.self_s"] = own.get("integrate.run_loop", 0.0)

    out["noise.draw.self_s"] = own.get("noise.draw", 0.0)
    out["noise.increments_to_field.self_s"] = own.get("noise.increments_to_field", 0.0)
    out["noise.model_build_s"] = tracer.total_seconds("noise.model_build")

    for name in ("probe_after_step", "energy_report", "qv_check", "write_ensemble_csv"):
        out[f"diagnostics.{name}.self_s"] = own.get(f"diagnostics.{name}", 0.0)
    csv_bytes = [u.detail["csv"]["bytes"] for u in units if "csv" in u.detail]
    out["diagnostics.write_ensemble_csv.bytes"] = (
        sum(csv_bytes) / len(csv_bytes) if csv_bytes else 0.0
    )

    for name in (
        "dynamics.build_advection_tensor",
        "dynamics.nonlinear_direct",
        "geometry.build_structure_tables",
        "geometry.geodesic_drift",
    ):
        out[f"{name}.self_s"] = own.get(name, 0.0)
    for crit in CRITERIA:
        out[f"acceptance.{crit}.s"] = sum(
            u.detail.get("criteria", {}).get(crit, {}).get("s", 0.0) for u in units
        ) / len(units)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--units", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--short", action="store_true", help="one short step (smoke test)")
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    if args.short:
        w = workloads.shortened(w)
    OUT.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        ctx = workloads.setup(w, args.seed, str(OUT))
        setup_s = perf_counter() - _T0
        # the host's speed right after set-up, for the side figure setup_ref_s
        speed = workloads.SpeedProbe()
        kernel = sorted(speed.time_once() for _ in range(31))[15]
        result = {
            "setup_s": setup_s,
            "setup_kernel_s": kernel,
            "versions": versions(),
            "shapes": ctx.shapes,
        }
        if args.mode == "run":
            result.update(run_units(ctx, args, tracer, None if tracer else speed))
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def run_units(ctx, args, tracer, speed) -> dict:
    units = []
    start = perf_counter()
    while True:
        if tracer is None:
            units.append(workloads.run_unit(ctx, speed))
        else:
            tracer.counting = True
            with tracer.span(tracing.HARNESS_UNIT):
                units.append(workloads.run_unit(ctx, None))
            tracer.counting = False
        if args.units:
            if len(units) >= args.units:
                break
        elif perf_counter() - start >= args.seconds:
            break

    fingerprints = sorted({u.fingerprint for u in units})
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    out = {
        "units": [
            {
                "wall_s": u.wall_s,
                "wall_units": u.wall_units,
                "ops": u.ops,
                "attempted": u.attempted,
                "failed": u.failed,
                "op_s": u.op_s,
                "op_units": u.op_units,
                "detail": u.detail,
            }
            for u in units
        ],
        "fingerprints": fingerprints,
        "reference": workloads.deviation_from_reference(reference, ctx.workload, ctx.seed, units[0]),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, units)
        # overhead: wrapped calls inside units times the measured cost of one
        out["span_cost_s"] = tracing.span_cost()
        out["layers"]["trace.overhead_frac"] = (
            tracer.unit_spans() * out["span_cost_s"] / sum(u.wall_s for u in units)
        )
        out["counts"] = dict(sorted(tracer.counts.items()))
        out["spans"] = len(tracer.names)
        path = OUT / f"trace-{ctx.workload.name}-seed{ctx.seed}.json"
        tracer.dump(path)
        out["trace_file"] = str(path.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
