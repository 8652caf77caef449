"""Configuration-driven experiment runner.

Reads a JSON config describing the system, grid, and sample plan, runs the
chosen sample-reuse algorithm, and writes a robustness-curve CSV plus a
complexity report JSON.  Exit codes: 0 success, 2 config error, 3 runtime or
indicator error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import indicators, reuse, xform
from .gridspec import GridScheme, build_grid, choose_m, predict_meq
from .indicators import Disk, HalfPlane, LtiPlant
from .uncsample import BlockShape, NormKind

CSV_HEADER = "index,r,p_script_hat,p_script_inf,p_bb_hat,p_bb_inf"


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class ExperimentConfig:
    system: dict
    norm: NormKind
    grid_scheme: GridScheme
    lam: float
    a: float
    m: int | None
    grid_eps: float | None
    n_samples: int | None
    sample_eps: float | None
    sample_delta: float | None
    algorithm: str
    emit_bbp: bool
    seed: int
    out_dir: Path


_NORMS = {"l1": NormKind.L1, "l2": NormKind.L2, "linf": NormKind.LINF}
_SCHEMES = {"uniform": GridScheme.UNIFORM, "geometric": GridScheme.GEOMETRIC}


def _number(report: ValidationReport, field: str, value, kind=float):
    """value as a finite `kind`; None when absent, or with a config error
    naming the field when it is not a number."""
    if value is None:
        return None
    try:
        num = kind(value)
        if math.isfinite(num):
            return num
    except (TypeError, ValueError, OverflowError):
        pass
    report.errors.append(f"{field}: must be a finite number, got {value!r}")
    return None


def _section(report: ValidationReport, raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if isinstance(value, dict):
        return value
    report.errors.append(f"{key}: must be an object, got {type(value).__name__}")
    return {}


def parse_config(raw, overrides: argparse.Namespace | None = None):
    """Build (config, report); config is None when the report has errors.
    Never raises: every malformed field becomes an error naming it."""
    report = ValidationReport()
    if not isinstance(raw, dict):
        report.errors.append(f"top level: must be an object, got {type(raw).__name__}")
        return None, report
    system = raw.get("system")
    if not isinstance(system, dict) or "kind" not in system:
        report.errors.append("system: need an object with a 'kind' field")
        system = {"kind": "?"}

    norm_name = raw.get("norm", "l2")
    norm = _NORMS.get(str(norm_name).lower())
    if norm is None:
        report.errors.append(f"norm: unknown kind {norm_name!r}")

    grid = _section(report, raw, "grid")
    scheme = _SCHEMES.get(str(grid.get("scheme", "geometric")).lower())
    if scheme is None:
        report.errors.append(f"grid.scheme: unknown scheme {grid.get('scheme')!r}")
    lam = _number(report, "grid.lambda", grid.get("lambda", 0.0))
    a = _number(report, "grid.a", grid.get("a", 0.0))
    if lam is not None and lam <= 1:
        report.errors.append("grid.lambda: must be > 1")
    if a is not None and a <= 0:
        report.errors.append("grid.a: must be > 0")
    m = grid.get("m")
    grid_eps = grid.get("epsilon")
    if (m is None) == (grid_eps is None):
        report.errors.append("grid: exactly one of 'm' or 'epsilon' is required")
    m = _number(report, "grid.m", m, int)
    grid_eps = _number(report, "grid.epsilon", grid_eps)
    if m is not None and m < 2:
        report.errors.append("grid.m: must be >= 2")
    if grid_eps is not None and not 0 < grid_eps < 1:
        report.errors.append("grid.epsilon: must be in (0,1)")

    sample = _section(report, raw, "sample")
    n = sample.get("n")
    s_eps, s_delta = sample.get("epsilon"), sample.get("delta")
    if (n is None) == (s_eps is None and s_delta is None):
        report.errors.append("sample: exactly one of 'n' or ('epsilon','delta') is required")
    elif n is None and (s_eps is None or s_delta is None):
        report.errors.append("sample: 'epsilon' and 'delta' must be given together")
    n = _number(report, "sample.n", n, int)
    s_eps = _number(report, "sample.epsilon", s_eps)
    s_delta = _number(report, "sample.delta", s_delta)
    if n is not None and n < 1:
        report.errors.append("sample.n: must be >= 1")

    algorithm = raw.get("algorithm", "hsra")
    if overrides is not None and getattr(overrides, "algo", None):
        algorithm = overrides.algo
    if algorithm not in ("ssra", "hsra"):
        report.errors.append(f"algorithm: must be 'ssra' or 'hsra', got {algorithm!r}")

    seed = raw.get("seed")
    if overrides is not None and getattr(overrides, "seed", None) is not None:
        seed = overrides.seed
    if seed is None:
        seed = 0
        report.warnings.append("seed: missing, defaulted to 0")
    seed = _number(report, "seed", seed, int)

    emit_bbp = bool(raw.get("emit_bbp", False))
    if overrides is not None and getattr(overrides, "emit_bbp", False):
        emit_bbp = True

    out_dir = raw.get("out", ".")
    if overrides is not None and getattr(overrides, "out", None):
        out_dir = overrides.out
    if not isinstance(out_dir, str):
        report.errors.append(f"out: must be a path string, got {out_dir!r}")

    if not report.ok:
        return None, report
    cfg = ExperimentConfig(
        system=system,
        norm=norm,
        grid_scheme=scheme,
        lam=lam,
        a=a,
        m=m,
        grid_eps=grid_eps,
        n_samples=n,
        sample_eps=s_eps,
        sample_delta=s_delta,
        algorithm=algorithm,
        emit_bbp=emit_bbp,
        seed=seed,
        out_dir=Path(out_dir),
    )
    return cfg, report


def build_indicator(system: dict):
    """Indicator, uncertainty dimension, and block shape for a system spec."""
    kind = system["kind"]
    if kind == "layered":
        ml, i, j = int(system["m_layers"]), int(system["i"]), int(system["j"])
        d = int(system.get("d", 2))
        return indicators.layered_oracle(ml, i, j), d, None
    if kind == "rank_one":
        k = int(system["k"])
        return indicators.rank_one_oracle(k), k * k, None
    if kind == "state_space":
        plant = LtiPlant(
            np.array(system["a"], dtype=float),
            np.array(system["b"], dtype=float),
            np.array(system["c"], dtype=float),
        )
        reg = system.get("region", {"kind": "half_plane"})
        if reg.get("kind") == "disk":
            region = Disk(float(reg.get("radius", 1.0)))
        else:
            region = HalfPlane(float(reg.get("sigma_max", 0.0)))
        rows, cols = plant.b_mat.shape[1], plant.c_mat.shape[0]
        if system.get("block", "real") == "complex":
            shape = BlockShape.complex_matrix(rows, cols)
        else:
            shape = BlockShape.real_matrix(rows, cols)
        return indicators.region_stability(plant, region), shape.dim, shape
    if kind == "step_servo":
        ind = indicators.step_spec(
            indicators.three_parameter_servo,
            float(system.get("rise_max", 0.25)),
            float(system.get("settle_max", 3.5)),
            float(system.get("overshoot_max", 0.7)),
        )
        return ind, 3, None
    if kind == "servo_stability":
        return indicators.servo_stability_indicator(), 3, None
    raise ValueError(f"unknown system kind {kind!r}")


def _bbp_on_grid(curve: reuse.RobustnessCurve, d: int) -> np.ndarray:
    """Transform the estimated curve to the ball-uniform measure, extending
    it flat below the first grid point down to ~0 for the integral head."""
    radii = curve.grid.radii
    head = np.geomspace(radii[-1] * 1e-4, radii[0], 200, endpoint=False)
    dense_r = np.concatenate([head, radii])
    dense_v = np.concatenate([np.full(head.size, curve.values[0]), curve.values])
    out = xform.bbp_from_scriptp(xform.CurveGrid(dense_r, dense_v, d))
    return out.values[head.size :]


def run_experiment(cfg: ExperimentConfig) -> dict:
    m = cfg.m if cfg.m is not None else choose_m(cfg.grid_scheme, cfg.lam, cfg.grid_eps)
    grid = build_grid(cfg.grid_scheme, cfg.lam, cfg.a, m)
    n = (
        cfg.n_samples
        if cfg.n_samples is not None
        else reuse.chernoff_n(cfg.sample_eps, cfg.sample_delta)
    )
    indicator, d, shape = build_indicator(cfg.system)
    algo = reuse.hsra if cfg.algorithm == "hsra" else reuse.ssra
    t0 = time.perf_counter()
    h, report = algo(n, grid, indicator, d, cfg.norm, cfg.seed, shape)
    curve = reuse.estimate_curve(h, n, grid)
    bbp_vals = bbp_inf = None
    if cfg.emit_bbp:
        bbp_vals = _bbp_on_grid(curve, d)
        bbp_inf = np.minimum.accumulate(bbp_vals)
    wall = time.perf_counter() - t0

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for i in range(m):
        cells = [
            str(i + 1),
            format(grid.radii[i], ".9g"),
            format(curve.values[i], ".9g"),
            format(curve.inf_values[i], ".9g"),
            format(bbp_vals[i], ".9g") if bbp_vals is not None else "",
            format(bbp_inf[i], ".9g") if bbp_inf is not None else "",
        ]
        lines.append(",".join(cells))
    (cfg.out_dir / "curve.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "seed": cfg.seed,
        "N": n,
        "m": m,
        "lambda": cfg.lam,
        "a": cfg.a,
        "algorithm": cfg.algorithm,
        "total_simulations": report.total_simulations,
        "measured_meq": report.measured_meq,
        "predicted_meq": predict_meq(cfg.grid_scheme, cfg.lam, m),
        "merge_row_visits": report.merge_row_visits,
        "decomposition": report.group_sizes,
        "predicted_speedup": report.predicted_speedup,
        "wall_time_s": wall,
    }
    (cfg.out_dir / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="robkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--algo", choices=["ssra", "hsra"], default=None)
    run_p.add_argument("--emit-bbp", dest="emit_bbp", action="store_true")
    run_p.add_argument("--out", default=None)

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        raw = _load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        _, report = parse_config(raw)
        for msg in report.errors:
            print(f"error: {msg}")
        for msg in report.warnings:
            print(f"warning: {msg}")
        if report.ok:
            print("config ok")
        return 0

    cfg, report = parse_config(raw, args)
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    if cfg is None:
        for msg in report.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    try:
        summary = run_experiment(cfg)
    except Exception as exc:  # indicator/runtime failures
        # notes added on the way up name the failing direction and radius
        context = "".join(f"; {note}" for note in getattr(exc, "__notes__", ()))
        print(f"runtime error: {exc}{context}", file=sys.stderr)
        return 3
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
