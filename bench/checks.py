"""Output checks.  Each check is a function of the program's outputs and an
independent reference, returning (name, ok, detail).  Every check also runs
once on a deliberately perturbed copy of the outputs, which it must reject;
a check that accepts the perturbed copy has no teeth and fails the run.

Statistical checks hold with a stated false-alarm probability for any seed:
Z_SE standard errors give 5.7e-7 two-sided per check; Hoeffding bounds use a
total of DELTA over the radii checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles as O
import workloads as wl

Z_SE = 5.0
DELTA = 1e-6
HOEFFDING_RADII = 1000
BBP_TOL = 1e-3  # forward transform on the exact shell curve, r >= 2 r_1


def read_curve(out: Path) -> dict:
    lines = (out / "curve.csv").read_text().splitlines()
    cols = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        c: np.array([float(r[i]) if r[i] else np.nan for r in rows])
        for i, c in enumerate(cols)
    }


def _result(name, ok, detail):
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# Checks on every run.
# ---------------------------------------------------------------------------


def meq(measured, reported_prediction, lam, m, sd, n):
    """Simulations per direction: robkit's prediction equals the closed form,
    and the measured mean lies within Z_SE standard errors of it (sd: exact
    per-direction standard deviation).  The closed form is below the paper's
    1 + ln(lambda) ceiling for every grid, so these two checks cover the
    ceiling; a separate test of it could not fail on its own."""
    closed = O.predicted_meq(lam, m)
    se = sd / math.sqrt(n)
    z = (measured - closed) / se
    return [
        _result(
            "meq.closed_form",
            abs(reported_prediction - closed) <= 1e-12 * closed,
            f"reported {reported_prediction!r}, closed form {closed!r}",
        ),
        _result(
            "meq.within_se",
            abs(z) <= Z_SE,
            f"measured {measured:.5f}, predicted {closed:.5f}, z = {z:+.2f}, |z| <= {Z_SE}",
        ),
    ], {"z": z, "se": se, "sd": sd}


def running_min(values, inf_values, label="p_script"):
    ok = np.array_equal(np.minimum.accumulate(values), inf_values)
    return [_result(f"{label}_inf.running_min", ok, "inf column is the running minimum")]


def unit_interval(*columns):
    vals = np.concatenate([np.asarray(c, dtype=float) for c in columns])
    ok = vals.size > 0 and np.all((vals >= 0.0) & (vals <= 1.0))
    return [_result("p_bb.in_unit_interval", ok, f"{vals.size} values in [0, 1]")]


# ---------------------------------------------------------------------------
# Workload checks.
# ---------------------------------------------------------------------------


def layered(values, truth, eps):
    err = float(np.max(np.abs(values - truth)))
    return [_result("layered.analytic_curve", err <= 2 * eps, f"max error {err:.4f} <= {2 * eps}")]


def equal_rows(a, b):
    return [_result("shells.ssra_equals_hsra", np.array_equal(a, b), "identical H rows")]


def counts_match(h, ref):
    diff = int(np.count_nonzero(h != ref))
    return [_result("shells.difference_array", diff == 0, f"{diff} grid indices differ")]


def estimate_is_counts(values, h, n):
    ok = np.array_equal(values, h / n)
    return [_result("shells.estimate_is_counts_over_n", ok, "p_hat = H / N exactly")]


def hoeffding(values, truth, n):
    t = math.sqrt(math.log(2 * len(values) / DELTA) / (2 * n))
    err = float(np.max(np.abs(values - truth)))
    return [
        _result(
            "shells.hoeffding",
            err <= t,
            f"max error {err:.4f} <= {t:.4f} at {len(values)} radii (total delta {DELTA})",
        )
    ]


def bbp_exact(bbp, truth):
    err = float(np.max(np.abs(bbp - truth)))
    detail = f"max error {err:.2e} <= {BBP_TOL}"
    return [_result("shells.bbp_of_exact_curve", err <= BBP_TOL, detail)]


def servo_counts(counts, ref, near_cover):
    """Counts agree with the reference decisions except where a near-limit
    instance covers the index, by at most the number of such instances."""
    gap = np.abs(counts - ref)
    bad = int(np.count_nonzero(gap > near_cover))
    return [
        _result(
            "servo.step_oracle",
            bad == 0,
            f"{bad} grid indices disagree beyond near-limit instances "
            f"({int(near_cover.max())} near-limit at most per index)",
        )
    ]


def plant(r_c, r_r, r_ref, cert_re, values, radii):
    below = radii < r_c
    return [
        _result(
            "plant.real_ge_complex",
            r_r >= r_c * (1 - 1e-9),
            f"r_R {r_r:.6f} >= r_C {r_c:.6f}",
        ),
        _result(
            "plant.dense_grid",
            abs(r_c - r_ref) <= 0.02 * r_c,
            f"r_C {r_c:.6f} vs dense-grid {r_ref:.6f}, within 2%",
        ),
        _result(
            "plant.certificate",
            cert_re >= -1e-9,
            f"destabilizing block at 1.02 r_C: max Re eig {cert_re:.3e} >= -1e-9",
        ),
        _result(
            "plant.certain_below_r_c",
            bool(below.any()) and bool(np.all(values[below] == 1.0)),
            f"p_script_hat = 1 at all {int(below.sum())} grid radii below r_C",
        ),
    ]


# ---------------------------------------------------------------------------
# Per-workload checks, each with its perturbed-copy self-checks.
# ---------------------------------------------------------------------------


def _selfcheck(results, name):
    """A perturbed copy must fail at least one of the checks it went through."""
    rejected = not all(ok for _, ok, _ in results)
    detail = "perturbed output rejected" if rejected else "perturbed output ACCEPTED"
    return _result(f"selfcheck.{name}", rejected, detail)


def cli_common(out: Path, rk):
    """Checks every robkit run output passes; returns (checks, selfchecks,
    curve, report, stats, grid radii)."""
    curve = read_curve(out)
    report = json.loads((out / "report.json").read_text())
    m, lam, n = report["m"], report["lambda"], report["N"]
    radii = rk.build_grid(rk.GridScheme.GEOMETRIC, lam, report["a"], m).radii
    sd = O.sims_moments(radii)[1]
    measured, predicted = report["measured_meq"], report["predicted_meq"]
    checks, stats = meq(measured, predicted, lam, m, sd, n)
    checks += running_min(curve["p_script_hat"], curve["p_script_inf"])
    shifted = measured + math.copysign(Z_SE + 1, stats["z"]) * stats["se"]
    sc = [
        _selfcheck(meq(shifted, predicted, lam, m, sd, n)[0], "meq_shifted"),
        _selfcheck(
            meq(measured, predicted * (1 + 1e-9), lam, m, sd, n)[0], "meq_prediction_perturbed"
        ),
    ]
    bumped = curve["p_script_inf"].copy()
    bumped[m // 2] += 0.5 / n
    sc.append(_selfcheck(running_min(curve["p_script_hat"], bumped), "running_min"))
    if not np.all(np.isnan(curve["p_bb_hat"])):
        checks += unit_interval(curve["p_bb_hat"], curve["p_bb_inf"])
        checks += running_min(curve["p_bb_hat"], curve["p_bb_inf"], "p_bb")
        high = curve["p_bb_hat"].copy()
        high[0] = 1.0 + 1e-9
        sc.append(_selfcheck(unit_interval(high, curve["p_bb_inf"]), "p_bb_range"))
    return checks, sc, curve, report, stats, radii


def check_layered(out: Path, seed: int, extra: dict, rk):
    checks, sc, curve, _, stats, radii = cli_common(out, rk)
    eps = wl.LAYERED_SAMPLE["epsilon"]
    shells = (wl.LAYERED["m_layers"], wl.LAYERED["i"], wl.LAYERED["j"])
    truth = O.radial_fraction(radii, O.layered_good(*shells), 1)
    values = curve["p_script_hat"]
    checks += layered(values, truth, eps)
    shift = 2 * eps * np.where(values >= truth, 1.0, -1.0)
    sc.append(_selfcheck(layered(values + shift, truth, eps), "layered_shift_2eps"))
    return checks, sc, stats


def servo_instances(coords, decisions, replayed, oracle, near):
    """The traced run's indicator calls are the replayed instances, in order,
    and robkit's decisions match the oracle's except on near-limit ones."""
    same = len(coords) == len(replayed) and np.array_equal(coords, replayed)
    bad = int(np.count_nonzero((decisions != oracle) & ~near)) if same else -1
    return [
        _result(
            "servo.traced_instances",
            same and bad == 0,
            f"{len(coords)} traced calls, replay {'matches' if same else 'DIFFERS'}, "
            f"{bad} decisions differ away from the limits",
        )
    ]


def check_servo(out: Path, seed: int, extra: dict, rk):
    checks, sc, curve, report, stats, radii = cli_common(out, rk)
    n = report["N"]
    counts = np.rint(curve["p_script_hat"] * n).astype(np.int64)
    m = counts.size
    replay = O.replay_sweeps(seed, n, radii, 3)
    decided = [O.step_decision(x, **wl.SERVO_LIMITS) for _, _, _, x in replay]
    oracle = np.array([dec for dec, _ in decided])
    near = np.array([nl for _, nl in decided], dtype=bool)
    ref = O.counts_from_runs(m, [(j, p, dec) for (_, j, p, _), dec in zip(replay, oracle)])
    cover = O.counts_from_runs(m, [(j, p, int(nl)) for (_, j, p, _), nl in zip(replay, near)])
    checks += servo_counts(counts, ref, cover)
    bumped = counts.copy()
    k = int(np.argmin(cover))
    bumped[k] += int(cover[k]) + 1
    sc.append(_selfcheck(servo_counts(bumped, ref, cover), "servo_count_off"))

    # traced rounds record every indicator call robkit made
    replayed = np.array([x for _, _, _, x in replay])
    for rec in sorted(out.parent.glob("r*/indicator_calls.npz")):
        calls = np.load(rec)
        checks += servo_instances(calls["coords"], calls["decision"], replayed, oracle, near)
        flipped = calls["decision"].copy()
        i = int(np.argmin(near))
        flipped[i] = 1 - flipped[i]
        sc.append(_selfcheck(
            servo_instances(calls["coords"], flipped, replayed, oracle, near), "servo_decision_flip"
        ))
    stats["near_limit_instances"] = int(near.sum())
    stats["instances"] = len(replay)
    return checks, sc, stats


def check_plant(out: Path, seed: int, extra: dict, rk):
    checks, sc, curve, _, stats, radii = cli_common(out, rk)
    p = json.loads((out.parent / "plant.json").read_text())
    a, b, c = (np.array(p[k]) for k in "abc")
    r_c, r_r = extra["r_c"], extra["r_r"]
    r_ref = O.complex_margin_dense(a, b, c)
    plant_obj = rk.LtiPlant(a, b, c)
    delta = rk.destabilizing_delta(plant_obj, rk.HalfPlane(0.0), 1.02 * r_c)

    def cert(dl):
        return float(np.max(np.linalg.eigvals(a + b @ dl @ c).real))

    values = curve["p_script_hat"]
    checks += plant(r_c, r_r, r_ref, cert(delta), values, radii)
    dipped = values.copy()
    dipped[0] = 1.0 - 1.0 / wl.PLANT_N
    for name, args in (
        ("margin_scaled_1.05", (1.05 * r_c, max(r_r, 1.05 * r_c), r_ref, cert(delta), values,
                                radii)),
        ("real_below_complex", (r_c, 0.99 * r_c, r_ref, cert(delta), values, radii)),
        ("certificate_halved", (r_c, r_r, r_ref, cert(0.5 * delta), values, radii)),
        ("uncertain_below_r_c", (r_c, r_r, r_ref, cert(delta), dipped, radii)),
    ):
        sc.append(_selfcheck(plant(*args), name))
    stats.update(r_c=r_c, r_r=r_r, r_c_dense=r_ref)
    return checks, sc, stats


def check_shells(out: Path, seed: int, extra: dict, rk):
    data = np.load(out / "shells.npz")
    n, d = wl.SHELLS_N, wl.SHELLS_D
    grid = rk.build_grid(rk.GridScheme.GEOMETRIC, wl.SHELLS_LAM, 1.0, wl.SHELLS_M)
    radii, m = grid.radii, grid.m
    ssra_rows, hsra_rows = data["ssra_rows"], data["hsra_rows"]
    lo, hi, val = hsra_rows
    h = np.repeat(val, hi - lo + 1)
    values, inf_values, bbp = data["values"], data["inf_values"], data["bbp"]

    sd = O.sims_moments(radii)[1]
    measured, predicted = extra["hsra"]["measured_meq"], extra["hsra"]["predicted_meq"]
    checks, stats = meq(measured, predicted, wl.SHELLS_LAM, m, sd, n)
    checks += running_min(values, inf_values)
    checks += unit_interval(bbp)
    checks += equal_rows(ssra_rows, hsra_rows)
    checks.append(
        _result(
            "shells.same_simulations",
            extra["ssra"]["total_simulations"] == extra["hsra"]["total_simulations"],
            "ssra and hsra made the same indicator calls",
        )
    )
    replay = O.replay_sweeps(seed, n, radii, d)
    decided = [(j, p, wl.shell_parity(SimpleNamespace(coords=x))) for _, j, p, x in replay]
    ref = O.counts_from_runs(m, decided)
    checks += counts_match(h, ref)
    checks += estimate_is_counts(values, h, n)
    checks.append(
        _result(
            "shells.replayed_simulations",
            len(replay) == extra["hsra"]["total_simulations"],
            f"{len(replay)} replayed indicator calls",
        )
    )
    exact = O.shells_scriptp(radii, wl.SHELLS)
    idx = np.linspace(0, m - 1, HOEFFDING_RADII).astype(np.int64)
    truth = exact[idx]
    checks += hoeffding(values[idx], truth, n)

    bbp_exact_out = rk.bbp_from_scriptp(rk.CurveGrid(radii, exact, d)).values
    far = np.flatnonzero(radii >= 2 * radii[0])[::100]
    ball = O.radial_fraction(radii[far], O.shells_good(wl.SHELLS), d)
    checks += bbp_exact(bbp_exact_out[far], ball)

    shifted = measured + math.copysign(Z_SE + 1, stats["z"]) * stats["se"]
    sc = [_selfcheck(meq(shifted, predicted, wl.SHELLS_LAM, m, sd, n)[0], "meq_shifted")]
    off = hsra_rows.copy()
    off[2, off.shape[1] // 2] += 1
    sc.append(_selfcheck(equal_rows(ssra_rows, off), "rows_off_by_one"))
    h_off = h.copy()
    h_off[m // 2] += 1
    sc.append(_selfcheck(counts_match(h_off, ref), "h_off_by_one"))
    t = math.sqrt(math.log(2 * HOEFFDING_RADII / DELTA) / (2 * n))
    shifted = values[idx].copy()
    shifted[HOEFFDING_RADII // 2] += 2 * t
    sc.append(_selfcheck(hoeffding(shifted, truth, n), "hoeffding_shift"))
    moved = bbp_exact_out[far].copy()
    moved[moved.size // 2] += 2 * BBP_TOL
    sc.append(_selfcheck(bbp_exact(moved, ball), "bbp_exact_shift"))
    bumped = inf_values.copy()
    bumped[m // 2] += 0.5 / n
    sc.append(_selfcheck(running_min(values, bumped), "running_min"))
    return checks, sc, stats
