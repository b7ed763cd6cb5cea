"""Smoke test of the benchmark harness itself (not of torusflow).

    python3 perfbench/smoke.py

Checks the self-time arithmetic on a synthetic span tree, that wrappers are
installed at every calling module's binding and restored afterwards, the tail
percentile rule, and one short step of every workload, untraced and traced.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok    {what}")


def synthetic_tree() -> None:
    # unit [0, 10] > a [1, 3], b [4, 8] > c [5, 6];  setup [10, 12] outside units
    tr = tracing.Tracer()
    tr.names = [tracing.HARNESS_UNIT, "a", "b", "c", "setup", "a"]
    tr.parent = [-1, 0, 0, 2, -1, 4]
    tr.t0 = [0.0, 1.0, 4.0, 5.0, 10.0, 10.5]
    tr.t1 = [10.0, 3.0, 8.0, 6.0, 12.0, 11.0]
    own = tracing.self_times(tr.parent, tr.t0, tr.t1)
    check(own == [4.0, 2.0, 3.0, 1.0, 1.5, 0.5], "self time = span minus child spans")
    check(tracing.roots(tr.parent) == [0, 0, 0, 0, 4, 4], "root of every span")
    check(
        tr.unit_self_seconds() == {tracing.HARNESS_UNIT: 4.0, "a": 2.0, "b": 3.0, "c": 1.0},
        "per-name self time counts spans inside units only",
    )
    check(tr.total_seconds("a") == 2.5, "total span time per name")


def live_spans() -> None:
    tr = tracing.Tracer()

    def leaf(x):
        return x + 1

    def outer(x):
        return wrapped_leaf(x) * 2

    wrapped_leaf = tr.wrap("leaf", leaf)
    wrapped_outer = tr.wrap("outer", outer)
    with tr.span(tracing.HARNESS_UNIT):
        check(wrapped_outer(1) == 4, "wrapped calls return the wrapped result")
    check(tr.parent == [-1, 0, 1], "live spans record their parent")
    own = tr.unit_self_seconds()
    total = tr.t1[0] - tr.t0[0]
    check(abs(sum(own.values()) - total) < 1e-12, "self times add up to the unit span")


def bindings() -> None:
    from torusflow import basis, dynamics, integrate, noise

    before = (
        integrate.place_halfspectrum,
        dynamics.place_halfspectrum,
        basis.place_halfspectrum,
        integrate.StepKernel.__dict__["step"],
        noise.NoiseModel.__dict__["__init__"],
        integrate.path_stream,
    )
    tr = tracing.Tracer()
    tracing.install(tr)
    check(
        integrate.place_halfspectrum is not before[0]
        and dynamics.place_halfspectrum is not before[1]
        and integrate.place_halfspectrum.__wrapped__ is before[0],
        "wrappers sit at the calling modules' bindings",
    )
    tr.restore()
    after = (
        integrate.place_halfspectrum,
        dynamics.place_halfspectrum,
        basis.place_halfspectrum,
        integrate.StepKernel.__dict__["step"],
        noise.NoiseModel.__dict__["__init__"],
        integrate.path_stream,
    )
    check(all(a is b for a, b in zip(after, before)), "restore puts every binding back")


def tail_rule() -> None:
    xs = [float(i) for i in range(200)]
    check(run.tail_latency(xs, 95.0) == run.percentile(xs, 95.0), "tail is the fixed p95 at 200 samples")
    check(run.tail_latency(xs[:3], 100.0) == 2.0, "p100 is the slowest sample")
    try:
        run.tail_latency(xs[:100], 95.0)
    except run.BenchError:
        check(True, "tail fails with fewer than 10 samples beyond p95")
    else:
        check(False, "tail fails with fewer than 10 samples beyond p95")


def worker(name: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "run", "--workload", name, "--seed", "0",
           "--units", "1", "--short", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL: worker {name} {extra} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_steps() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name, w in workloads.WORKLOADS.items():
        short = workloads.shortened(w)
        plain = worker(name)
        traced = worker(name, "--trace")
        for label, out in (("untraced", plain), ("traced", traced)):
            unit = out["units"][0]
            check(unit["failed"] == 0 and unit["attempted"] > 0, f"{name} {label}: gate passes")
        check(plain["fingerprints"] == traced["fingerprints"], f"{name}: tracing leaves results unchanged")
        check(set(traced["layers"]) == layer_names, f"{name}: every per-layer metric reported")
        if not w.is_suite:
            c = traced["counts"]
            check(c["path_steps"] == short.paths * short.steps, f"{name}: path-steps counted")
            check(c["passes"] >= c["steps"] > 0, f"{name}: operator passes counted")


def main() -> int:
    synthetic_tree()
    live_spans()
    bindings()
    tail_rule()
    short_steps()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
