"""Command-line interface: batch runs, ensembles, verification, table dumps.

Configuration comes from a ``key = value`` file plus flag overrides (flags
win).  A JSON run manifest written next to every output reproduces the run
bit-identically when passed back via ``--config``.

Config keys::

    n           truncation (default 8)
    dt          time step (default 1e-3)
    T           horizon (default 1.0; must be a whole number of steps)
    scheme      ito-em | strat-heun | strat-midpoint (default strat-midpoint)
    noise       space-independent | finite:<k1>,<k2>[;<k1>,<k2>...] | qwiener:<n_w>
    beta        covariance decay exponent, must exceed 3 (default 4.0)
    ic          mode:<k1>,<k2> | pair | random[:<decay>] (default random:3)
    paths       ensemble size (default 256)
    seed        64-bit stream seed (default 0)
    save_every  output decimation in steps (default 10)

``save_every`` decimates the rows of ``ensemble.csv`` and nothing else, so
only ``torusflow ensemble`` takes ``--save-every``: ``run`` writes every
step to ``run.csv`` and refuses the flag (exit 2).  A config file or a
manifest that carries ``save_every`` still replays a run byte-identically.

The default output directory is ``$TORUSFLOW_OUT`` or ``./torusflow_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .acceptance import CRITERIA, SUITES, run_suite
from .basis import BasisMode, SpectralField
from .diagnostics import (
    MartingaleProbe,
    write_ensemble_csv,
    write_path_csv,
    write_state_csv,
)
from .integrate import (
    SCHEMES,
    MidpointConvergenceError,
    NonFiniteStateError,
    SimConfig,
    StepKernel,
    run_ensemble,
    run_path,
)
from .noise import ConfigurationError, NoiseModel
from .workers import HelperProcessError

OUT_ENV_VAR = "TORUSFLOW_OUT"

_DEFAULTS = {
    "n": "8",
    "dt": "1e-3",
    "T": "1.0",
    "scheme": "strat-midpoint",
    "noise": "space-independent",
    "beta": "4.0",
    "ic": "random:3",
    "paths": "256",
    "seed": "0",
    "save_every": "10",
}

_KEYS = tuple(_DEFAULTS)


class ConfigFileError(ValueError):
    pass


def _parse_kv_file(path: Path) -> dict[str, str]:
    """Parse the ``key = value`` format, reporting the offending line."""
    out: dict[str, str] = {}
    errors = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in out:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        out[key] = val
    if errors:
        raise ConfigFileError("; ".join(errors))
    return out


def _load_config_file(path: str) -> tuple[dict[str, str], int | None]:
    """The config table of a ``key = value`` file or a JSON manifest, and the
    manifest's path id (``None`` if it records none)."""
    p = Path(path)
    if not p.exists():
        raise ConfigFileError(f"config file {path!r} does not exist")
    text = p.read_text()
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigFileError(f"{path}: invalid JSON manifest: {e}") from None
        cfg = doc.get("config")
        if not isinstance(cfg, dict):
            raise ConfigFileError(f"{path}: manifest has no 'config' table")
        unknown = sorted(set(cfg) - set(_KEYS))
        if unknown:
            raise ConfigFileError(f"{path}: unknown config keys {unknown}")
        path_id = doc.get("path_id")
        return {k: str(v) for k, v in cfg.items()}, None if path_id is None else int(path_id)
    return _parse_kv_file(p), None


_NOISE_GRAMMAR = "space-independent | finite:<k1>,<k2>[;<k1>,<k2>...] | qwiener:<n_w>"


def _spec_ints(spec: str, text: str, count: int) -> tuple[int, ...]:
    """Parse ``text``, a part of the noise spec ``spec``, as ``count`` comma-separated ints."""
    parts = text.split(",")
    try:
        if len(parts) == count:
            return tuple(int(x) for x in parts)
    except ValueError:
        pass
    raise ConfigurationError(f"malformed noise spec {spec!r} (expected {_NOISE_GRAMMAR})")


def _build_noise(spec: str, beta: float) -> NoiseModel:
    if spec == "space-independent":
        return NoiseModel.space_independent()
    if spec.startswith("qwiener:"):
        (n_w,) = _spec_ints(spec, spec.split(":", 1)[1], 1)
        return NoiseModel.q_wiener(n_w, beta=beta)
    if spec.startswith("finite:") or spec == "finite":
        body = spec.split(":", 1)[1] if ":" in spec else ""
        modes = []
        if body.strip():
            for chunk in body.split(";"):
                modes.append(_spec_ints(spec, chunk, 2))
        return NoiseModel.finite_modes(modes, beta=beta)
    raise ConfigurationError(f"unknown noise spec {spec!r} (expected {_NOISE_GRAMMAR})")


@dataclass
class RunManifest:
    """Everything needed to replay a run, plus provenance metadata."""

    command: str
    config: dict[str, str]
    out_dir: Path
    version: str = __version__
    created_utc: str = ""
    wall_seconds: float = 0.0
    outputs: tuple[str, ...] = ()
    path_id: int | None = None  # the stream a single-path run integrates
    resolved: SimConfig | None = None  # what a run or ensemble integrated
    processes: int | None = None  # how many processes stepped it

    def sim_config(self) -> SimConfig:
        c = self.config
        beta = float(c["beta"])
        if not beta > 3.0:
            raise ConfigurationError(f"beta must exceed 3 (got beta={beta})")
        noise = _build_noise(c["noise"], beta)
        cfg = SimConfig(
            n=int(c["n"]),
            dt=float(c["dt"]),
            t_final=float(c["T"]),
            scheme=c["scheme"],
            noise=noise,
            paths=int(c["paths"]),
            seed=int(c["seed"]),
            initial=c["ic"],
            save_every=int(c["save_every"]),
        )
        return cfg.validate()

    def to_json(self) -> str:
        doc = {
            "tool": "torusflow",
            "version": self.version,
            "created_utc": self.created_utc,
            "command": self.command,
            "config": self.config,
            "outputs": list(self.outputs),
            "wall_seconds": self.wall_seconds,
        }
        if self.path_id is not None:
            doc["path_id"] = self.path_id
        if self.resolved is not None:
            cfg = self.resolved
            doc["noise"] = cfg.noise.describe()
            doc["m"] = StepKernel(cfg.basis, cfg.noise, cfg.scheme, cfg.dt).m
            doc["N"] = cfg.basis.n_modes
        if self.processes is not None:
            doc["processes"] = self.processes
        doc["libraries"] = {"numpy": np.__version__, "scipy": scipy.__version__}
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, name: str = "manifest.json") -> Path:
        p = self.out_dir / name
        p.write_text(self.to_json() + "\n")
        return p


def resolve_manifest(args: argparse.Namespace, command: str) -> RunManifest:
    """Merge defaults, config file, and flag overrides (flags win)."""
    config = dict(_DEFAULTS)
    path_id = None
    if getattr(args, "config", None):
        loaded, path_id = _load_config_file(args.config)
        config.update(loaded)
    for key in _KEYS:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = str(val)
    out_dir = Path(
        args.out
        if getattr(args, "out", None)
        else os.environ.get(OUT_ENV_VAR, "torusflow_out")
    )
    if command != "run":
        path_id = None
    elif args.path_id is not None:  # the flag wins over a replayed manifest
        path_id = args.path_id
    elif path_id is None:
        path_id = 0
    return RunManifest(command=command, config=config, out_dir=out_dir, path_id=path_id)


def _finish(manifest: RunManifest, outputs: list[Path], t0: float) -> None:
    manifest.created_utc = datetime.now(timezone.utc).isoformat()
    manifest.wall_seconds = round(time.perf_counter() - t0, 3)
    manifest.outputs = tuple(p.name for p in outputs)
    path = manifest.write()
    for p in outputs + [path]:
        print(f"wrote {p}")


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    manifest = resolve_manifest(args, "run")
    cfg = manifest.resolved = manifest.sim_config()
    result = run_path(cfg, path_id=manifest.path_id)
    manifest.processes = result.processes
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    p_csv = manifest.out_dir / "run.csv"
    p_state = manifest.out_dir / "state_final.csv"
    write_path_csv(result, p_csv)
    write_state_csv(SpectralField(cfg.basis, result.final[0]), p_state)
    _finish(manifest, [p_csv, p_state], t0)
    return 0


def cmd_ensemble(args) -> int:
    t0 = time.perf_counter()
    manifest = resolve_manifest(args, "ensemble")
    cfg = manifest.resolved = manifest.sim_config()
    # the probe's generator is the constant-noise one: field noise gets nan columns
    observers = []
    if cfg.noise.is_constant_advection:
        v = SpectralField.from_modes(cfg.basis, [(BasisMode("s", (1, 0)), 1.0)])
        observers.append(MartingaleProbe(v, "probe"))
    diag = run_ensemble(cfg, observers=observers)
    manifest.processes = diag.processes
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    p_csv = manifest.out_dir / "ensemble.csv"
    write_ensemble_csv(diag, p_csv, probe="probe" if observers else None)
    _finish(manifest, [p_csv], t0)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, quick=args.quick, seed=args.seed or 0)
    failed = 0
    for r in results:
        print(r.line())
        failed += not r.passed
    processes = len({r.process for r in results})
    on = f"{processes} process{'es' if processes != 1 else ''}"
    print(f"{len(results) - failed}/{len(results)} criteria passed on {on}")
    return 1 if failed else 0


def cmd_tables(args) -> int:
    from .geometry import build_structure_tables, write_tables_csv

    t0 = time.perf_counter()
    manifest = resolve_manifest(args, "tables")
    n = int(args.n if args.n is not None else 2)
    tables = build_structure_tables(n)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)
    p_c = manifest.out_dir / "structure_constants.csv"
    p_g = manifest.out_dir / "christoffel.csv"
    write_tables_csv(tables, p_c, p_g)
    manifest.config = {"n": str(n)}
    _finish(manifest, [p_c, p_g], t0)
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file or a run manifest (JSON)")
    p.add_argument("--n", type=int, help="spectral truncation")
    p.add_argument("--dt", type=float, help="time step")
    p.add_argument("--T", type=float, dest="T", help="time horizon")
    p.add_argument("--paths", type=int, help="ensemble size")
    p.add_argument("--seed", type=int, help="stream seed")
    p.add_argument("--scheme", choices=SCHEMES, help="integrator")
    p.add_argument("--noise", help=_NOISE_GRAMMAR)
    p.add_argument("--beta", type=float, help="covariance decay exponent (> 3)")
    p.add_argument("--ic", help="mode:<k1>,<k2> | pair | random[:<decay>]")
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./torusflow_out)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusflow",
        description="Monte-Carlo pseudo-spectral simulator for 2D incompressible "
        "flow with transport noise on the periodic torus.",
    )
    ap.add_argument("--version", action="version", version=f"torusflow {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a single path and write its ledger")
    _add_config_flags(p_run)
    p_run.add_argument(
        "--path-id", type=int, help="which stream to run (default: the manifest's, else 0)"
    )
    p_run.set_defaults(fn=cmd_run)

    p_ens = sub.add_parser("ensemble", help="integrate an ensemble and write diagnostics")
    _add_config_flags(p_ens)
    p_ens.add_argument(
        "--save-every", type=int, dest="save_every", help="ensemble.csv row decimation in steps"
    )
    p_ens.set_defaults(fn=cmd_ensemble)

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument(
        "--suite",
        default="all",
        help=" | ".join(("all", *SUITES, *(c.key for c in CRITERIA))),
    )
    p_ver.add_argument("--quick", action="store_true", help="reduced horizons/ensembles")
    p_ver.add_argument("--seed", type=int, help="seed for the statistical criteria")
    p_ver.set_defaults(fn=cmd_verify)

    p_tab = sub.add_parser("tables", help="dump structure constants and Christoffel symbols")
    p_tab.add_argument("--n", type=int, help="table truncation (default 2)")
    p_tab.add_argument("--out", help="output directory")
    p_tab.set_defaults(fn=cmd_tables)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        ConfigFileError,
        ConfigurationError,
        ValueError,
        MidpointConvergenceError,
        NonFiniteStateError,
        HelperProcessError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
