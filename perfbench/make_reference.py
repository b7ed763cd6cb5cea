"""Write ``perfbench/reference.json``: the stored results the benchmark compares with.

    python3 perfbench/make_reference.py

For every ensemble workload and seed ``0 .. SEEDS-1``, and for verify-quick at
its one seed, it runs one unit and stores the result fingerprint; for seed 0 it also stores the final per-path ``l2_sq``
and ``h1_sq`` of the ensembles, so a run at seed 0 reports its largest
relative deviation.  Regenerate only when a change is meant to alter results,
and say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: the seeds run.py looks up; the stored file covers all of them
SEEDS = 10


def main() -> int:
    import numpy
    import scipy

    out: dict = {
        "_meta": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "seeds": SEEDS,
        }
    }
    scratch = HERE.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    for name, w in workloads.WORKLOADS.items():
        out[name] = {}
        # verify-quick runs at one seed, whatever the benchmark seed
        for seed in (workloads.VERIFY_SEED,) if w.is_suite else range(SEEDS):
            ctx = workloads.setup(w, seed, str(scratch))
            unit = workloads.run_unit(ctx, speed=None)
            if unit.failed:
                raise SystemExit(f"{name} seed {seed}: {unit.failed} failed operations")
            entry = {"fingerprint": unit.fingerprint}
            if seed == 0 and unit.finals:
                entry.update({k: v.tolist() for k, v in unit.finals.items()})
            out[name][str(seed)] = entry
            print(name, seed, unit.fingerprint, flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
