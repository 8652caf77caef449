"""One round of one benchmark workload, in a fresh interpreter.

Started by run.py; prints one JSON line with the round's timings, counts and
output digest.  Modes:

  plain      the round, with spans only around estimator and margin calls
  trace      the round, with spans around every layer boundary
  alloc      the round, with tracemalloc on during each estimator call
  setup      stops at the first estimator or margin call
  mergeonly  (shells-wide-grid) ssra fold against hsra tree over fixed leaves

The set-up clock starts before robkit is imported; wall time runs from the
first estimator or margin call until the round's outputs exist.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

ENTRY = (
    ("reuse", "hsra", "reuse.hsra"),
    ("reuse", "ssra", "reuse.ssra"),
    ("margins", "complex_margin", "margins.complex"),
    ("margins", "real_margin", "margins.real"),
)


class SetupDone(BaseException):
    """Ends a set-up-only round at the first estimator or margin call.  A
    BaseException, so the CLI's runtime-error handler does not swallow it."""


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


def cli_digest(out: Path) -> str:
    """curve.csv, and report.json without its wall-time line, as bytes."""
    report = (out / "report.json").read_bytes().splitlines(keepends=True)
    return _digest(
        (out / "curve.csv").read_bytes(),
        b"".join(line for line in report if b'"wall_time_s"' not in line),
    )


class Round:
    def __init__(self, args, rk):
        self.args = args
        self.rk = rk
        self.dir = Path(args.dir)
        self.out = self.dir / f"r{args.round}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.ops = 0
        self.failed = 0
        self.extra: dict = {}

    def op(self, fn, *a, **k):
        """One program call, counted as an attempted operation."""
        self.ops += 1
        try:
            return fn(*a, **k)
        except Exception as exc:
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return None

    def cli_run(self, config: Path, *flags: str) -> None:
        """`robkit run`, in this process, as one attempted operation."""
        self.ops += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.rk.cli.main(
                ["run", "--config", str(config), "--out", str(self.out), *flags]
            )
        self.failed += int(code != 0)


def round_layered(r: Round):
    r.cli_run(r.dir / "config.json", "--emit-bbp")
    return lambda: cli_digest(r.out)


def round_cli(r: Round):
    r.cli_run(r.dir / "config.json")
    return lambda: cli_digest(r.out)


def _shells_problem(rk, wl):
    grid = rk.build_grid(rk.GridScheme.GEOMETRIC, wl.SHELLS_LAM, 1.0, wl.SHELLS_M)
    return grid, rk.Indicator(wl.shell_parity, f"{wl.SHELLS} alternating norm shells")


def round_shells(r: Round):
    import workloads as wl

    rk, seed = r.rk, r.args.seed
    grid, ind = _shells_problem(rk, wl)
    n, d, l2 = wl.SHELLS_N, wl.SHELLS_D, rk.NormKind.L2
    res = {}
    steps = (
        ("ssra", lambda: rk.reuse.ssra(n, grid, ind, d, l2, seed)),
        ("hsra", lambda: rk.reuse.hsra(n, grid, ind, d, l2, seed)),
        ("curve", lambda: rk.reuse.estimate_curve(res["hsra"][0], n, grid)),
        ("bbp", lambda: rk.xform.bbp_from_scriptp(
            rk.xform.CurveGrid(grid.radii, res["curve"].values, d))),
    )
    for k, (name, call) in enumerate(steps):
        res[name] = r.op(call)
        if res[name] is None:  # later steps need this result: count them failed
            r.ops += len(steps) - k - 1
            r.failed += len(steps) - k - 1
            break

    def finish():
        import numpy as np

        if r.failed:
            return ""
        arrays = {}
        for algo in ("ssra", "hsra"):
            h, rep = res[algo]
            arrays[f"{algo}_rows"] = np.stack([h.lo, h.hi, h.value])
            r.extra[algo] = {
                "n_samples": rep.n_samples,
                "total_simulations": rep.total_simulations,
                "measured_meq": rep.measured_meq,
                "predicted_meq": rep.predicted_meq,
                "merge_row_visits": rep.merge_row_visits,
            }
        arrays["values"] = res["curve"].values
        arrays["inf_values"] = res["curve"].inf_values
        arrays["bbp"] = res["bbp"].values
        if r.args.save:
            np.savez(r.out / "shells.npz", **arrays)
        return _digest(*(np.ascontiguousarray(v).tobytes() for v in arrays.values()))

    return finish


def round_plant(r: Round):
    import numpy as np
    import workloads as wl

    rk = r.rk
    p = json.loads((r.dir / "plant.json").read_text())
    plant = rk.LtiPlant(np.array(p["a"]), np.array(p["b"]), np.array(p["c"]))
    region = rk.HalfPlane(0.0)
    rc = r.op(rk.margins.complex_margin, plant, region)
    rr = r.op(rk.margins.real_margin, plant, region) if rc is not None else None
    if rc is None or rr is None:  # the CLI runs need r_C: count them failed
        r.ops += wl.PLANT_CLI_RUNS
        r.failed += wl.PLANT_CLI_RUNS
        return lambda: ""
    config = r.out / "config.json"
    config.write_text(json.dumps(wl.plant_config(p, rc.value, r.args.seed)))
    for _ in range(wl.PLANT_CLI_RUNS):
        r.cli_run(config)
    r.extra.update(
        r_c=rc.value, r_r=rr.value, w_c=rc.frequency_at_sup, w_r=rr.frequency_at_sup
    )
    return lambda: _digest(cli_digest(r.out).encode(), json.dumps(r.extra).encode())


ROUNDS = {
    "layered-n26492": round_layered,
    "shells-wide-grid": round_shells,
    "servo-step": round_cli,
    "plant-margins": round_plant,
}


def merge_only(args, rk) -> dict:
    """Time the ssra fold schedule and the hsra tree schedule over the same
    leaf runs through the public merge; leaves are made before any timing."""
    import numpy as np
    import workloads as wl

    grid, ind = _shells_problem(rk, wl)
    leaves = []
    for k in range(1, max(wl.MERGE_ONLY_NS) + 1):
        u = rk.sample_surface(wl.SHELLS_D, rk.NormKind.L2, rk.SeededStream(args.seed, 2 * k))
        run = rk.radial_sampling(u, grid, ind, rk.SeededStream(args.seed, 2 * k + 1), k)
        leaves.append(run.segments)

    def fold(segs, counter):
        h = segs[0]
        for seg in segs[1:]:
            h = rk.merge(seg, h, counter)
        return h

    def tree(segs, counter):
        n, start, groups = len(segs), 0, []
        for size in (1 << b for b in range(n.bit_length()) if n >> b & 1):
            level = segs[start : start + size]
            start += size
            while len(level) > 1:
                level = [
                    rk.merge(level[i], level[i + 1], counter) for i in range(0, len(level), 2)
                ]
            groups.append(level[0])
        h = groups[0]
        for seg in groups[1:]:
            h = rk.merge(h, seg, counter)
        return h

    out, equal = {}, True
    for n in wl.MERGE_ONLY_NS:
        res = {}
        for algo, schedule in (("ssra", fold), ("hsra", tree)):
            times = []
            for _ in range(3):
                counter = rk.MergeCostCounter()
                t = time.perf_counter()
                h = schedule(leaves[:n], counter)
                times.append(time.perf_counter() - t)
            res[algo] = (float(np.median(times)), counter.row_visits, h)
        equal &= res["ssra"][2].rows == res["hsra"][2].rows
        out[f"segfun.merge_only_s.ssra.N{n}"] = res["ssra"][0]
        out[f"segfun.merge_only_s.hsra.N{n}"] = res["hsra"][0]
        out[f"segfun.row_ratio.N{n}"] = res["ssra"][1] / res["hsra"][1]
        out[f"segfun.wall_ratio.N{n}"] = res["ssra"][0] / res["hsra"][0]
        out[f"segfun.predicted_speedup.N{n}"] = rk.predicted_speedup(n)
    return {"merge_only": out, "merge_only_equal": bool(equal)}


def install_layers(tr: Tracer, rk) -> None:
    for owner, attr, name, count in (
        (rk.uncsample.SeededStream, "generator", "uncsample.stream", None),
        (rk.reuse, "sample_surface", "uncsample.surface", None),
        (rk.reuse, "scale", "uncsample.scale", None),
        (rk.reuse, "locate", "gridspec.locate", None),
        (rk.indicators.Indicator, "__call__", "indicators.call", None),
        (rk.reuse, "radial_sampling", "reuse.sweep", None),
        (rk.reuse, "merge", "segfun.merge", None),
        (rk.reuse, "estimate_curve", "reuse.estimate_curve", None),
        (rk.xform, "bbp_from_scriptp", "xform.bbp", lambda a: a[0].radii.size),
        (rk.indicators.LtiPlant, "transfer_at", "margins.transfer_at", None),
        (rk.cli, "main", "cli", None),
    ):
        tr.wrap(owner, attr, name, count=count)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument(
        "--mode", required=True, choices=["plain", "trace", "alloc", "setup", "mergeonly"]
    )
    ap.add_argument("--dir", required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--save", action="store_true", help="keep bulky outputs for checks")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import robkit as rk
    from robkit import cli  # noqa: F401  (rk.cli, for the CLI workloads)

    import_s = time.perf_counter() - t0
    if Path(rk.__file__).resolve().parent != (SRC / "robkit").resolve():
        print(f"robkit imported from {rk.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.mode == "mergeonly":
        print(json.dumps(merge_only(args, rk)))
        return 0

    tr = Tracer()
    first: list[float] = []
    peaks: list[int] = []
    for mod, attr, name in ENTRY:
        owner = getattr(rk, mod)
        if args.mode == "setup":
            def stop(*a, **k):
                first.append(time.perf_counter())
                raise SetupDone
            setattr(owner, attr, stop)
        elif args.mode == "alloc" and mod == "reuse":
            setattr(owner, attr, _with_tracemalloc(getattr(owner, attr), peaks))
        else:
            tr.wrap(owner, attr, name, keep_return=mod == "reuse")
    calls: list = []
    if args.mode == "trace":
        install_layers(tr, rk)
        if args.workload == "servo-step":  # the step oracle re-decides each call
            _record_indicator_calls(rk, calls)

    r = Round(args, rk)
    try:
        finish = ROUNDS[args.workload](r)
    except SetupDone:
        print(json.dumps({"setup_s": first[0] - t0, "import_s": import_s}))
        return 0
    t_end = time.perf_counter()
    tr.unwrap()

    entry = [tr.start[i] for _, _, name in ENTRY for i in tr.spans(name)]
    est = [
        tr.end[i] - tr.start[i] for name in ("reuse.hsra", "reuse.ssra") for i in tr.spans(name)
    ]
    reports = [ret for name, ret in tr.returns if name.startswith("reuse.")]
    result = {
        "import_s": import_s,
        "setup_s": min(entry) - t0 if entry else None,
        "wall_s": t_end - min(entry) if entry else None,
        "est_s": sum(est),
        "directions": sum(rep.n_samples for _, rep in reports),
        "ops": r.ops,
        "failed": r.failed,
        "rss_mb": peak_rss_mb(),
        "digest": finish(),
        "extra": r.extra,
    }
    if args.mode == "trace":
        result["layers"] = layer_metrics(tr)
        tr.save(r.out / "spans.npz")
    if calls:
        import numpy as np

        np.savez(
            r.out / "indicator_calls.npz",
            coords=np.array([c for c, _ in calls]),
            decision=np.array([d for _, d in calls]),
        )
    if args.mode == "alloc":
        result["alloc_mb"] = max(peaks) / 2**20 if peaks else 0.0
    print(json.dumps(result))
    return 0


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  VmHWM starts afresh at
    exec; ru_maxrss would also carry the parent's peak across fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record_indicator_calls(rk, calls: list) -> None:
    """Keep (coords, decision) of every indicator call."""
    cls = rk.indicators.Indicator
    fn = cls.__call__

    def recorded(self, delta):
        out = fn(self, delta)
        calls.append((delta.coords.copy(), out))
        return out

    cls.__call__ = recorded


def _with_tracemalloc(fn, peaks: list[int]):
    import tracemalloc

    def measured(*a, **k):
        tracemalloc.start()
        try:
            return fn(*a, **k)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured


if __name__ == "__main__":
    sys.exit(main())
