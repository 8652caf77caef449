"""robkit benchmark: four workloads, end-to-end metrics, a traced per-layer
run, and output checks against references the benchmark computes itself.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Each round of a workload runs in a fresh interpreter (bench/worker.py), one
at a time, with BLAS pinned to one thread.  Rounds repeat the same seeded
inputs while they fit in run_seconds (BENCHMARK.json); end-to-end metrics are
medians over the rounds.  The run length is not an option: a caller may pass
--seconds, but only with that same value, so that every measurement compared
has the same length.  With --trace 1 the per-layer metrics are printed
instead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when a check
fails, 2 when the benchmark cannot run (for example, without robkit's sources
beside it, or with --seconds other than run_seconds).
"""

from __future__ import annotations

import os

BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before NumPy loads, for this process too

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TIME_LIMIT_S = 170.0  # a single-workload run ends well within 180 s
MIN_SETUPS = 5


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


class Workers:
    """Starts worker rounds one at a time and waits for each."""

    def __init__(self, workload: str, seed: int, rundir: Path, t_start: float):
        self.workload, self.seed, self.rundir = workload, seed, rundir
        self.deadline = t_start + TIME_LIMIT_S
        self.rounds = 0
        self.env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(SRC)}

    def __call__(self, mode: str, save: bool = False) -> dict:
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--mode", mode, "--seed", str(self.seed),
            "--dir", str(self.rundir), "--round", str(self.rounds),
        ] + (["--save"] if save else [])
        self.rounds += 1
        t = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.deadline - t, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} round of {self.workload} ran out of time") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"{mode} round of {self.workload} exited {proc.returncode}: "
                + proc.stderr.strip()[-2000:]
            )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["mode"], out["round"], out["elapsed_s"] = mode, self.rounds - 1, time.monotonic() - t
        return out


def prepare(workload: str, seed: int, rundir: Path) -> None:
    """Write the generated inputs the program receives."""
    if workload == "layered-n26492":
        (rundir / "config.json").write_text(json.dumps(wl.layered_config(seed)))
    elif workload == "servo-step":
        (rundir / "config.json").write_text(json.dumps(wl.servo_config(seed)))
    elif workload == "plant-margins":
        (rundir / "plant.json").write_text(json.dumps(wl.random_plant(seed)))


def run_rounds(run: Workers, seconds: float, trace: bool, t_start: float) -> dict:
    def more(last_s: float) -> bool:
        """Another round like the last one (or pair of rounds) still ends
        within `seconds`; the first always runs."""
        now = time.monotonic()
        return now + last_s - t_start <= seconds and now + 1.5 * last_s < run.deadline

    if not trace:
        rounds = [run("plain", save=True)]
        while more(rounds[-1]["elapsed_s"]):
            rounds.append(run("plain"))
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(run("setup")["setup_s"])
        return {"rounds": rounds, "setups": setups}
    # plain and traced rounds alternate, so their difference is the overhead;
    # the one-off rounds come first, so that they count against `seconds`
    pair = [run("plain", save=True), run("trace")]
    rounds = pair + [run("alloc")]
    merge = run("mergeonly") if run.workload == "shells-wide-grid" else None
    while more(pair[0]["elapsed_s"] + pair[1]["elapsed_s"]):
        pair = [run("plain"), run("trace")]
        rounds += pair
    return {"rounds": rounds, "merge": merge}


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(setups),
        "wall_s": med(r["wall_s"] for r in rounds),
        "directions_per_s": med(r["directions"] / r["est_s"] for r in rounds),
        "peak_rss_mb": med(r["rss_mb"] for r in rounds),
    }
    return _select(values, metric_units("end_to_end"))


def _select(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def per_layer(res: dict) -> dict:
    med = statistics.median
    by_mode = {m: [r for r in res["rounds"] if r["mode"] == m] for m in ("plain", "trace", "alloc")}
    traced = by_mode["trace"]
    values = {
        # counts are the same in every traced round; median_low keeps them integers
        k: (statistics.median_low if isinstance(v, int) else med)(r["layers"][k] for r in traced)
        for k, v in traced[0]["layers"].items()
    }
    values["reuse.peak_alloc_mb"] = by_mode["alloc"][0]["alloc_mb"]
    values["trace.overhead_s"] = med(r["wall_s"] for r in traced) - med(
        r["wall_s"] for r in by_mode["plain"]
    )
    # the merge-only comparison runs on the shells workload; elsewhere it reads 0
    values.update(dict.fromkeys(wl.merge_only_names(), 0.0))
    if res["merge"]:
        values.update(res["merge"]["merge_only"])
    return _select(values, metric_units("per_layer"))


def run_checks(workload: str, seed: int, res: dict) -> tuple[list, list, dict]:
    sys.path.insert(0, str(SRC))
    import robkit as rk

    import checks

    rounds = res["rounds"]
    first = rounds[0]
    out = Path(first["dir"])
    fn = {
        "layered-n26492": checks.check_layered,
        "shells-wide-grid": checks.check_shells,
        "servo-step": checks.check_servo,
        "plant-margins": checks.check_plant,
    }[workload]
    try:
        found, selfchecks, stats = fn(out, seed, first["extra"], rk)
    except (OSError, KeyError, ValueError) as exc:  # outputs missing or malformed
        found, selfchecks, stats = [("outputs.readable", False, repr(exc))], [], {}
    digests = {r["digest"] for r in rounds}
    found.append(
        (
            "outputs.identical_across_rounds",
            len(digests) == 1 and "" not in digests,
            f"{len(rounds)} rounds ({', '.join(sorted({r['mode'] for r in rounds}))}), "
            f"{len(digests)} distinct output digest(s)",
        )
    )
    if res.get("merge"):
        found.append(
            (
                "merge_only.ssra_equals_hsra",
                res["merge"]["merge_only_equal"],
                "fold and tree give the same H",
            )
        )
    return found, selfchecks, stats


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.monotonic()
    rundir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    prepare(workload, seed, rundir)
    run = Workers(workload, seed, rundir, t_start)
    res = run_rounds(run, seconds, trace, t_start)
    for r in res["rounds"]:
        r["dir"] = str(rundir / f"r{r['round']}")
    found, selfchecks, stats = run_checks(workload, seed, res)
    attempted = sum(r["ops"] for r in res["rounds"])
    failed = sum(r["failed"] for r in res["rounds"])
    metrics = per_layer(res) if trace else end_to_end(res["rounds"], res["setups"])
    correct = all(ok for _, ok, _ in found + selfchecks)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "run": run_record(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in found],
        "selfchecks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in selfchecks],
        "check_stats": stats,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in res["rounds"]],
        "setups": res.get("setups"),
        "merge_only": res.get("merge"),
        "elapsed_s": time.monotonic() - t_start,
    }
    for bulky in rundir.glob("r*/shells.npz"):
        bulky.unlink()
    (rundir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def print_record(rec: dict) -> None:
    for name, ok, detail in ((c["name"], c["ok"], c["detail"]) for c in rec["checks"]):
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    rejected = sum(c["ok"] for c in rec["selfchecks"])
    print(f"  self-checks: {rejected}/{len(rec['selfchecks'])} perturbed outputs rejected")
    for c in rec["selfchecks"]:
        if not c["ok"]:
            print(f"  FAIL {c['name']}: {c['detail']}")
    print(f"  operations attempted {rec['attempted']}, failed {rec['failed']}")
    for name, m in rec["metrics"].items():
        print(f"  {rec['workload']} {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    ap.add_argument("--seed", type=int, default=None, help="default: per workload, see README")
    ap.add_argument("--seconds", type=float, default=None, help="must equal run_seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "robkit" / "__init__.py").is_file():
        print(f"robkit sources not found under {SRC}", file=sys.stderr)
        return 2

    seconds = spec()["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"--seconds {args.seconds:g}: every run measures run_seconds = {seconds} "
              "(BENCHMARK.json)", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        seed = wl.DEFAULT_SEEDS[name] if args.seed is None else args.seed
        print(f"{name} (seed {seed}, trace {args.trace})", flush=True)
        try:
            rec = run_workload(name, seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
        print_record(rec)
        records.append(rec)

    if len(records) == 1:
        summary = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
