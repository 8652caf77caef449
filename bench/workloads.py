"""Workload definitions: fixed parameters and the inputs each workload
derives from its seed.

This module imports only the standard library at load time, so a worker can
import it before starting its set-up clock; NumPy is imported where a plant
is generated.
"""

from __future__ import annotations

import math

WORKLOADS = ("layered-n26492", "shells-wide-grid", "servo-step", "plant-margins")

# Seeds used when --seed is not given.  Layered, shells and plant follow the
# acceptance suite (criteria 1, 4 and 8); the servo seed is arbitrary.
DEFAULT_SEEDS = {
    "layered-n26492": 1,
    "shells-wide-grid": 11,
    "servo-step": 5,
    "plant-margins": 0,
}

LAYERED = {"m_layers": 20, "i": 11, "j": 19, "d": 50}
LAYERED_GRID = {"scheme": "geometric", "lambda": 2.5, "a": 1.0, "epsilon": 0.05}
LAYERED_SAMPLE = {"epsilon": 0.01, "delta": 0.01}

SHELLS = 200  # alternating norm shells of width 1/SHELLS over [0, 1]
SHELLS_LAM = math.exp(3.0)
SHELLS_M = 10**6
SHELLS_N = 2048
SHELLS_D = 50
MERGE_ONLY_NS = (255, 256, 1000, 1024, 4096)


def merge_only_names() -> list[str]:
    """Per-layer metric names of the merge-only ssra/hsra comparison."""
    names = []
    for n in MERGE_ONLY_NS:
        names += [f"segfun.merge_only_s.ssra.N{n}", f"segfun.merge_only_s.hsra.N{n}"]
        names += [f"segfun.{k}.N{n}" for k in ("row_ratio", "wall_ratio", "predicted_speedup")]
    return names


SERVO_GRID = {"scheme": "geometric", "lambda": 2.5, "a": 1.0, "m": 50}
SERVO_N = 100
SERVO_LIMITS = {"rise_max": 0.25, "settle_max": 3.5, "overshoot_max": 0.7}

PLANT_STATES = 6
PLANT_BLOCK = 2
PLANT_LAM = 4.0
PLANT_M = 100
PLANT_N = 738
# robkit run repeats per round: one estimator span is only about 0.2 s, so
# directions_per_s rests on three of them
PLANT_CLI_RUNS = 3


def shell_parity(delta) -> int:
    """The user predicate of the shells workload: 1 on even shells
    [2k/200, (2k+1)/200), 0 on odd ones (acceptance criterion 4)."""
    import numpy as np

    rho = float(np.linalg.norm(delta.coords))
    return int(math.floor(SHELLS * rho) % 2 == 0)


def layered_config(seed: int) -> dict:
    return {
        "system": {"kind": "layered", **LAYERED},
        "norm": "l2",
        "grid": dict(LAYERED_GRID),
        "sample": dict(LAYERED_SAMPLE),
        "algorithm": "hsra",
        "seed": seed,
    }


def servo_config(seed: int) -> dict:
    return {
        "system": {"kind": "step_servo"},
        "norm": "l2",
        "grid": dict(SERVO_GRID),
        "sample": {"n": SERVO_N},
        "algorithm": "hsra",
        "seed": seed,
    }


def random_plant(seed: int) -> dict:
    """A stable 6-state plant with a 2x2 real uncertainty block, drawn as in
    acceptance criterion 8: A is Gaussian shifted so that every eigenvalue has
    real part at most -0.5; B and C are Gaussian."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = PLANT_STATES
    a = rng.standard_normal((n, n))
    shift = max(float(np.max(np.linalg.eigvals(a).real)), 0.0) + rng.uniform(0.5, 2.0)
    return {
        "a": (a - shift * np.eye(n)).tolist(),
        "b": rng.standard_normal((n, PLANT_BLOCK)).tolist(),
        "c": rng.standard_normal((PLANT_BLOCK, n)).tolist(),
    }


def plant_config(plant: dict, r_c: float, seed: int) -> dict:
    """robkit run config for the plant: a geometric grid over [r_C/2, 2 r_C]."""
    return {
        "system": {
            "kind": "state_space",
            **plant,
            "region": {"kind": "half_plane", "sigma_max": 0.0},
            "block": "real",
        },
        "norm": "l2",
        "grid": {"scheme": "geometric", "lambda": PLANT_LAM, "a": 2.0 * r_c, "m": PLANT_M},
        "sample": {"n": PLANT_N},
        "algorithm": "hsra",
        "seed": seed,
    }
