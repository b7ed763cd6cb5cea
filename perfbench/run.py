"""torusflow benchmark: end-to-end metrics, or a per-layer trace, for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload midpoint-const --seed 0 --seconds 20 --trace 0

The harness is one closed-loop caller.  It starts worker processes
(``perfbench/worker.py``) one at a time and waits for each; a worker drives
the public torusflow API, one ensemble at a time, and adds no threads.

``--trace 0`` measures with no wrappers installed: one process that repeats
units (an ensemble plus its post-processing) for ``--seconds``, with three
cold set-up processes before it and three after; ``verify-quick`` runs each
suite in a fresh process, as many as fit in ``--seconds`` (at least one).
The host's speed drifts, so step and unit times are scaled by a fixed kernel
timed beside them (see ``REF_KERNEL_S``); ``setup_s`` is in plain seconds.
``--trace 1`` repeats units for ``--seconds`` (one suite on verify-quick) in
one fresh process with wrappers installed, and reports per-layer self times
per unit, exact counters and the tracing overhead.

The last line of standard output is the JSON result.  Everything before it is
for people: one line per metric, then one JSON report line (environment,
fingerprints, counters).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: exit within this many seconds, whatever the workload
DEADLINE_S = 175.0
SETUP_PROCESSES = 6
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Times in "ref" units are wall times scaled by REF_KERNEL_S over the time of
#: the speed-probe kernel measured beside them (see workloads.SpeedClock):
#: one ref_s is one second on a host where that kernel takes 1 ms.  setup_s is
#: wall-clock seconds; its ref-scaled value is only a side figure in the report.
REF_KERNEL_S = 1e-3
END_TO_END_UNITS = {
    "ops_per_s": "1/ref_s",
    "op_ms_p50": "ref_ms",
    "op_ms_tail": "ref_ms",
    "wall_s": "ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        env["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return env


class Workers:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def __call__(self, mode: str, *extra: str) -> dict:
        left = self.deadline - perf_counter()
        if left <= 1.0:
            raise BenchError("out of time before starting a worker")
        cmd = [
            sys.executable,
            str(WORKER),
            mode,
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            *extra,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} exceeded the deadline") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"worker {mode} exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(samples: list[float], pct: float) -> float:
    """The latency at the workload's fixed tail percentile.

    ``pct=100`` is the maximum, for verify-quick (one or two suites per run);
    any lower percentile needs at least 10 samples beyond it, or the run fails.
    """
    xs = sorted(samples)
    if pct >= 100.0:
        return xs[-1]
    value = percentile(xs, pct)
    beyond = sum(x > value for x in xs)
    if beyond < 10:
        raise BenchError(f"only {beyond} of {len(xs)} latencies lie beyond p{pct:g}; need 10")
    return value


def percentile(xs: list[float], p: float) -> float:
    """Linear-interpolated percentile of sorted samples."""
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(w, workers: Workers, seconds: float) -> tuple[dict, dict, int, int]:
    # cold set-ups on both sides of the timed phase, to sample more of the
    # host's slow drift in speed
    setups = [workers("setup") for _ in range(SETUP_PROCESSES // 2)]
    if w.is_suite:
        # one cold suite per worker; start another only if one more of the
        # same length still ends within --seconds
        runs = []
        start = perf_counter()
        while True:
            runs.append(workers("run", "--units", "1"))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(runs) > seconds:
                break
    else:
        runs = [workers("run", "--seconds", str(seconds))]
    setups += [workers("setup") for _ in range(SETUP_PROCESSES - len(setups))]

    units = [u for r in runs for u in r["units"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    op_ms = [1e3 * REF_KERNEL_S * x for u in units for x in u["op_units"]]
    tail = tail_latency(op_ms, w.tail_pct)
    metrics = {
        "ops_per_s": sum(u["ops"] for u in units) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail,
        "wall_s": statistics.median(REF_KERNEL_S * u["wall_units"] for u in units),
        "setup_s": statistics.median(s["setup_s"] for s in setups + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    raw_op_ms = [1e3 * x for u in units for x in u["op_s"]]
    raw = {
        "ops_per_s": sum(u["ops"] for u in units) / (sum(raw_op_ms) / 1e3),
        "op_ms_p50": statistics.median(raw_op_ms),
        "op_ms_tail": percentile(sorted(raw_op_ms), w.tail_pct),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "probe_kernel_ms": 1e3 * statistics.median(u["wall_s"] / u["wall_units"] for u in units),
    }
    fingerprints = sorted({f for r in runs for f in r["fingerprints"]})
    report = {
        "units": len(units),
        "wall_clock": raw,
        "op_samples": len(op_ms),
        "op_ms_tail_percentile": w.tail_pct,
        "failed_frac": failed / attempted,
        "fingerprints": fingerprints,
        "reference": runs[0]["reference"],
        "setup_s_samples": [s["setup_s"] for s in setups + runs],
        # side figure only: set-up time scaled by the kernel timed right after it
        "setup_ref_s": statistics.median(
            REF_KERNEL_S * s["setup_s"] / s["setup_kernel_s"] for s in setups + runs
        ),
        "versions": runs[0]["versions"],
        "shapes": runs[0]["shapes"],
        "unit_details": [u["detail"] for u in units][:3],
    }
    return metrics, report, attempted, failed


def trace(w, workers: Workers, seconds: float) -> tuple[dict, dict, int, int]:
    amount = ("--units", "1") if w.is_suite else ("--seconds", str(seconds))
    traced = workers("run", *amount, "--trace")
    units = traced["units"]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    report = {
        "units": len(units),
        "failed_frac": failed / attempted,
        "fingerprints": traced["fingerprints"],
        "reference": traced["reference"],
        "counts": traced["counts"],
        "spans": traced["spans"],
        "span_cost_s": traced["span_cost_s"],
        "trace_file": traced["trace_file"],
        "versions": traced["versions"],
        "shapes": traced["shapes"],
    }
    return traced["layers"], report, attempted, failed


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "torusflow" / "__init__.py").is_file():
        print(f"benchmark: no torusflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("benchmark: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workers = Workers(w.name, args.seed, t_start + DEADLINE_S)

    try:
        if args.trace:
            metrics, report, attempted, failed = trace(w, workers, args.seconds)
            units = per_layer_units()
        else:
            metrics, report, attempted, failed = measure(w, workers, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1

    # one result per seed: every unit of the run must reproduce the same output
    deterministic = len(report["fingerprints"]) == 1
    report["deterministic"] = deterministic
    report["environment"] = environment()
    report["workload"] = {"name": w.name, "seed": args.seed, "why": w.why}

    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<52} {report['failed_frac']:>16.6g} fraction")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and deterministic,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
