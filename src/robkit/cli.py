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
from .gridspec import GridScheme, build_grid, choose_m
from .indicators import Disk, HalfPlane, LtiPlant, three_parameter_servo
from .uncsample import BlockShape, NormKind, _stream_key

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
    """A parsed config: the built indicator and a fully sized run."""

    indicator: indicators.Indicator
    d: int
    shape: BlockShape | None
    norm: NormKind
    grid_scheme: GridScheme
    lam: float
    a: float
    m: int
    n: int
    algorithm: str
    emit_bbp: bool
    seed: int
    out_dir: Path


_NORMS = {"l1": NormKind.L1, "l2": NormKind.L2, "linf": NormKind.LINF}
_SCHEMES = {"uniform": GridScheme.UNIFORM, "geometric": GridScheme.GEOMETRIC}
_KINDS = ("layered", "rank_one", "state_space", "step_servo", "servo_stability")
# region kind -> (class, its parameter, the parameter's default)
_REGIONS = {"half_plane": (HalfPlane, "sigma_max", 0.0), "disk": (Disk, "radius", 1.0)}
_BLOCKS = {"real": BlockShape.real_matrix, "complex": BlockShape.complex_matrix}
_LIMITS = (("rise_max", 0.25), ("settle_max", 3.5), ("overshoot_max", 0.7))
_TOP_KEYS = ("system", "norm", "grid", "sample", "algorithm", "seed", "out", "emit_bbp")
# adjacent radii must differ by more than this many ulps (see _check_grid_spacing)
_GRID_STEP_ULPS = 16


def _number(report: ValidationReport, field: str, value, kind=float):
    """value as a finite `kind`; None when absent, or with a config error
    naming the field when it is not a finite JSON number (booleans and
    strings are not) or, for an int field, not an integral one."""
    if value is None:
        return None
    try:
        if type(value) in (int, float) and math.isfinite(value):
            if kind is float or value == int(value):
                return kind(value)
            report.errors.append(f"{field}: must be an integer, got {value!r}")
            return None
    except OverflowError:  # an int too large for a float
        pass
    report.errors.append(f"{field}: must be a finite number, got {value!r}")
    return None


def _field(report: ValidationReport, section: dict, field: str, kind=float, default=None):
    """`_number` of the section's value for the last part of the dotted field;
    `default` when absent, and an error when absent without a default."""
    value = section.get(field.rsplit(".", 1)[-1])
    if value is None:
        if default is None:
            report.errors.append(f"{field}: required")
        return default
    return _number(report, field, value, kind)


def _at_least(report: ValidationReport, field: str, value, low) -> None:
    if value is not None and value < low:
        report.errors.append(f"{field}: must be >= {low}")


def _above(report: ValidationReport, field: str, value, low) -> None:
    if value is not None and value <= low:
        report.errors.append(f"{field}: must be > {low}")


def _section(report: ValidationReport, field: str, value) -> dict:
    if isinstance(value, dict):
        return value
    report.errors.append(f"{field}: must be an object, got {type(value).__name__}")
    return {}


def _unknown_keys(report: ValidationReport, prefix: str, section: dict, known) -> None:
    """A config error, named `prefix` + key, for each key of the section that
    the parser does not read: a misspelt key would otherwise run with the
    default it was meant to replace."""
    report.errors.extend(f"{prefix}{key}: unknown key" for key in section if key not in known)


def _choice(report: ValidationReport, field: str, value, options):
    """value when it is one of the options (a tuple or a dict's keys), else None."""
    if isinstance(value, str) and value in options:
        return value
    report.errors.append(f"{field}: must be one of {', '.join(options)}, got {value!r}")
    return None


def _matrix(report: ValidationReport, system: dict, key: str):
    if system.get(key) is None:
        report.errors.append(f"system.{key}: required")
        return None
    try:
        cells = np.array(system[key], dtype=object)
        # JSON numbers only: float() would also take strings and booleans
        if all(type(x) in (int, float) for x in cells.flat):
            mat = cells.astype(float)
            if mat.size and mat.ndim <= 2 and np.all(np.isfinite(mat)):
                return mat
    except (TypeError, ValueError, OverflowError):
        pass
    report.errors.append(f"system.{key}: must be a non-empty matrix of finite numbers")
    return None


def build_indicator(report: ValidationReport, system: dict, norm: NormKind = NormKind.L2):
    """(indicator, uncertainty dimension, block shape) for a system spec, or
    None with config errors naming the malformed fields.  Rejections by the
    constructors themselves are reported against `system`.  The layered
    shells are measured in `norm`, the norm the directions are drawn in."""
    errors = len(report.errors)
    kind = _choice(report, "system.kind", system.get("kind"), _KINDS)
    if kind == "layered":
        keys = ("m_layers", "i", "j", "d")
        ml, i, j = (_field(report, system, f"system.{k}", int) for k in keys[:3])
        d = _field(report, system, "system.d", int, 2)
        _at_least(report, "system.d", d, 1)
        make = lambda: (indicators.layered_oracle(ml, i, j, norm), d, None)
    elif kind == "rank_one":
        keys = ("k",)
        k = _field(report, system, "system.k", int)
        _at_least(report, "system.k", k, 1)
        make = lambda: (indicators.rank_one_oracle(k), k * k, None)
    elif kind == "state_space":
        keys = ("a", "b", "c", "block", "region")
        a, b, c = (_matrix(report, system, key) for key in "abc")
        block = _choice(report, "system.block", system.get("block", "real"), _BLOCKS)
        region = _section(report, "system.region", system.get("region", {}))
        region_kind = region.get("kind", "half_plane")
        if _choice(report, "system.region.kind", region_kind, _REGIONS):
            cls, key, default = _REGIONS[region_kind]
            param = _field(report, region, f"system.region.{key}", float, default)
            _unknown_keys(report, "system.region.", region, ("kind", key))

        def make():
            plant = LtiPlant(a, b, c)
            shape = _BLOCKS[block](plant.b_mat.shape[1], plant.c_mat.shape[0])
            return indicators.region_stability(plant, cls(param)), shape.dim, shape

    elif kind == "step_servo":
        keys = tuple(k for k, _ in _LIMITS)
        limits = [_field(report, system, f"system.{k}", float, v) for k, v in _LIMITS]
        rise, settle, overshoot = limits
        _above(report, "system.rise_max", rise, 0)
        _above(report, "system.settle_max", settle, 0)
        _at_least(report, "system.overshoot_max", overshoot, 0)
        make = lambda: (indicators.step_spec(three_parameter_servo, *limits), 3, None)
    elif kind == "servo_stability":
        keys = ()
        make = lambda: (indicators.servo_stability_indicator(), 3, None)
    if kind is not None:
        _unknown_keys(report, "system.", system, ("kind", *keys))
    if len(report.errors) > errors:
        return None
    try:
        return make()
    except ValueError as exc:
        report.errors.append(f"system: {exc}")
        return None


def _size(report: ValidationReport, field: str, sizer, *args):
    """sizer(*args), or None with a config error naming the field on overflow."""
    try:
        return sizer(*args)
    except (OverflowError, ZeroDivisionError) as exc:
        report.errors.append(f"{field}: gives a size that cannot be computed ({exc})")
        return None


def _check_grid_spacing(report: ValidationReport, scheme: GridScheme, lam, a, m) -> None:
    """Report, in O(1) and without building it, a grid whose adjacent radii
    could coincide.  The first radius a/lambda and the smallest gap between
    radii must be normal floats, and the relative step between radii must
    exceed _GRID_STEP_ULPS ulps, times 1 + ln(lambda) on a geometric grid,
    whose powers of 1/lambda round by that much."""
    first = a / lam
    if scheme is GridScheme.UNIFORM:
        step, scale = (1.0 - 1.0 / lam) / (m - 1), 1.0  # relative to a
        gap = a * step
    else:
        step, scale = math.expm1(math.log(lam) / (m - 1)), 1.0 + math.log(lam)
        gap = first * step
    if min(first, gap) < sys.float_info.min:
        report.errors.append(
            f"grid.a: {a!r} puts the first radius or the gap between radii "
            "below the smallest normal float"
        )
    elif step <= _GRID_STEP_ULPS * sys.float_info.epsilon * scale:
        report.errors.append(
            f"grid.lambda: {lam!r} with m = {m} puts adjacent radii within "
            f"{_GRID_STEP_ULPS} ulps of each other"
        )


def parse_config(raw):
    """Build (config, report); config is None when the report has errors.
    Never raises: every malformed field becomes an error naming it.  The
    indicator is built and m and N are resolved here, not at run time."""
    report = ValidationReport()
    if not isinstance(raw, dict):
        report.errors.append(f"top level: must be an object, got {type(raw).__name__}")
        return None, report
    _unknown_keys(report, "", raw, _TOP_KEYS)
    norm = _choice(report, "norm", str(raw.get("norm", "l2")).lower(), _NORMS)
    system = _section(report, "system", raw.get("system", {}))
    built = build_indicator(report, system, _NORMS.get(norm, NormKind.L2))

    grid = _section(report, "grid", raw.get("grid", {}))
    _unknown_keys(report, "grid.", grid, ("scheme", "lambda", "a", "m", "epsilon"))
    scheme_name = str(grid.get("scheme", "geometric")).lower()
    scheme = _choice(report, "grid.scheme", scheme_name, _SCHEMES)
    lam = _field(report, grid, "grid.lambda")
    a = _field(report, grid, "grid.a")
    if lam is not None and lam <= 1:
        report.errors.append("grid.lambda: must be > 1")
    if a is not None and a <= 0:
        report.errors.append("grid.a: must be > 0")
    m, grid_eps = grid.get("m"), grid.get("epsilon")
    if (m is None) == (grid_eps is None):
        report.errors.append("grid: exactly one of 'm' or 'epsilon' is required")
    m = _number(report, "grid.m", m, int)
    grid_eps = _number(report, "grid.epsilon", grid_eps)
    _at_least(report, "grid.m", m, 2)

    sample = _section(report, "sample", raw.get("sample", {}))
    _unknown_keys(report, "sample.", sample, ("n", "epsilon", "delta"))
    n, s_eps, s_delta = sample.get("n"), sample.get("epsilon"), sample.get("delta")
    if (n is None) == (s_eps is None and s_delta is None):
        report.errors.append("sample: exactly one of 'n' or ('epsilon','delta') is required")
    elif n is None and (s_eps is None or s_delta is None):
        report.errors.append("sample: 'epsilon' and 'delta' must be given together")
    n = _number(report, "sample.n", n, int)
    s_eps = _number(report, "sample.epsilon", s_eps)
    s_delta = _number(report, "sample.delta", s_delta)
    _at_least(report, "sample.n", n, 1)
    tolerances = {"grid.epsilon": grid_eps, "sample.epsilon": s_eps, "sample.delta": s_delta}
    for name, value in tolerances.items():
        if value is not None and not 0 < value < 1:
            report.errors.append(f"{name}: must be in (0,1)")

    algorithm = _choice(report, "algorithm", raw.get("algorithm", "hsra"), ("ssra", "hsra"))
    if raw.get("seed") is None:
        report.warnings.append("seed: missing, defaulted to 0")
    seed = _field(report, raw, "seed", int, 0)
    if seed is not None:
        try:
            _stream_key(seed)
        except ValueError as exc:
            report.errors.append(str(exc))
    out_dir = raw.get("out", ".")
    if not isinstance(out_dir, str):
        report.errors.append(f"out: must be a path string, got {out_dir!r}")
    emit_bbp = raw.get("emit_bbp")
    if emit_bbp is not None and not isinstance(emit_bbp, bool):
        report.errors.append(f"emit_bbp: must be true or false, got {emit_bbp!r}")

    if report.ok:  # every sizing input is valid; only the arithmetic can fail
        if m is None:
            m = _size(report, "grid.epsilon", choose_m, _SCHEMES[scheme], lam, grid_eps)
        if n is None:
            n = _size(report, "sample.epsilon", reuse.chernoff_n, s_eps, s_delta)
        if m is not None:
            _check_grid_spacing(report, _SCHEMES[scheme], lam, a, m)
    if not report.ok:
        return None, report
    cfg = ExperimentConfig(
        *built, _NORMS[norm], _SCHEMES[scheme], lam, a, m, n, algorithm,
        bool(emit_bbp), seed, Path(out_dir),
    )
    return cfg, report


def run_experiment(cfg: ExperimentConfig) -> dict:
    grid = build_grid(cfg.grid_scheme, cfg.lam, cfg.a, cfg.m)
    algo = reuse.hsra if cfg.algorithm == "hsra" else reuse.ssra
    t0 = time.perf_counter()
    h, report = algo(cfg.n, grid, cfg.indicator, cfg.d, cfg.norm, cfg.seed, cfg.shape)
    curve = reuse.estimate_curve(h, cfg.n, grid)
    columns = [grid.radii, curve.values, curve.inf_values]
    if cfg.emit_bbp:
        bbp = xform.bbp_from_scriptp(xform.CurveGrid(grid.radii, curve.values, cfg.d)).values
        columns += [bbp, np.minimum.accumulate(bbp)]
    wall = time.perf_counter() - t0

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for i in range(cfg.m):
        cells = [format(col[i], ".9g") for col in columns] + [""] * (5 - len(columns))
        lines.append(",".join([str(i + 1), *cells]))
    (cfg.out_dir / "curve.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "seed": cfg.seed,
        "N": cfg.n,
        "m": cfg.m,
        "lambda": cfg.lam,
        "a": cfg.a,
        "algorithm": cfg.algorithm,
        "total_simulations": report.total_simulations,
        "measured_meq": report.measured_meq,
        "predicted_meq": report.predicted_meq,
        "merge_row_visits": report.merge_row_visits,
        "decomposition": report.group_sizes,
        "predicted_speedup": report.predicted_speedup,
        "wall_time_s": wall,
    }
    (cfg.out_dir / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


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
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, bytes, digits, nesting
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run" and isinstance(raw, dict):
        # the run flags override their config keys
        flags = {"seed": args.seed, "algorithm": args.algo, "out": args.out,
                 "emit_bbp": args.emit_bbp or None}
        raw.update((key, value) for key, value in flags.items() if value is not None)
    cfg, report = parse_config(raw)

    if args.command == "validate":
        for msg in report.errors:
            print(f"error: {msg}")
        for msg in report.warnings:
            print(f"warning: {msg}")
        if report.ok:
            print("config ok")
        return 0

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
