"""Radial sampling and the sequential / hierarchical sample-reuse algorithms.

One directional sample per stream pair: direction k draws its surface point
from stream 2k and its radii from stream 2k+1 of the master seed, so results
are identical whatever order directions are evaluated or merged in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .gridspec import OutOfRangeError, RadiusGrid, locate, predict_meq
from .segfun import MergeCostCounter, SegFun, merge
from .uncsample import (
    BlockShape,
    DirectionSample,
    NormKind,
    SeededStream,
    _as_generator,
    sample_surface,
    scale,
)


class CorruptedInputError(ValueError):
    pass


@dataclass
class RadialSampleRun:
    """Indicator values along one direction, encoded over grid indices."""

    segments: SegFun
    simulations_used: int


@dataclass
class RobustnessCurve:
    grid: RadiusGrid
    kind: str  # "script_p" (surface-radial measure) or "bb_p" (ball-uniform)
    values: np.ndarray
    inf_values: np.ndarray
    n_samples: int


@dataclass
class ComplexityReport:
    n_samples: int
    m: int
    total_simulations: int
    measured_meq: float
    merge_row_visits: int
    predicted_meq: float
    predicted_speedup: float
    tau: int
    group_sizes: list[int] = field(default_factory=list)
    simulations_std: float = 0.0


def radial_sampling(
    u: DirectionSample,
    g: RadiusGrid,
    indicator,
    rng,
    direction_index: int = 0,
) -> RadialSampleRun:
    """Backward sweep over the grid: draw R ~ U[0, r_p], evaluate the
    indicator at U*R, reuse the outcome for every index j with r_j >= R,
    then continue below the located index.

    The value stored at index i is the indicator at a radius distributed
    uniformly on [0, r_i].
    """
    gen = _as_generator(rng)
    rows: list[list[int]] = []  # built back-to-front; rows[-1] is the first row
    sims = 0
    p = g.m
    s = -1
    while p > 0:
        radius = gen.uniform(0.0, g.radii[p - 1])
        try:
            val = int(indicator(scale(u, radius)))
            if val & ~1:  # anything but 0 or 1
                raise ValueError(f"indicator returned {val}, not 0 or 1")
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(
                    f"indicator failed on direction {direction_index} at radius {radius}"
                )
            raise
        sims += 1
        j = locate(g, radius)
        if rows and val == s:
            rows[-1][0] = j
        else:
            rows.append([j, p, val])
            s = val
        p = j - 1
    rows.reverse()
    seg = SegFun.from_rows(g.m, rows)
    return RadialSampleRun(seg, sims)


def binary_decomposition(n: int) -> list[int]:
    """Powers of two summing to n, ascending (1000 -> [8, 32, 64, 128, 256, 512])."""
    return [1 << b for b in range(n.bit_length()) if n >> b & 1]


def predicted_speedup(n: int) -> float:
    """Merge-cost ratio of the sequential fold over the hierarchical schedule,
    from the row-count model with a common mean leaf row count."""
    if n < 2:
        return 1.0
    groups = binary_decomposition(n)
    tau = len(groups)
    hier = sum(g * math.log2(g) for g in groups)
    hier += sum((tau - ell) * g for ell, g in enumerate(groups, start=1))
    hier += sum(groups) - groups[0]
    if hier <= 0:
        return 1.0
    return (n + 2) * (n - 1) / (2 * hier)


def _sample_reuse(n, groups, grid, indicator, d, norm_kind, seed, shape):
    """Stream directions k = 1..n, reduce each group of consecutive leaves by
    a balanced binary merge tree, and fold the group sums into the total in
    order.  Group sizes must be powers of two summing to n.

    A stack of (leaf count, partial sum) pairs stands in for the tree: an
    incoming sum merges with the top while their leaf counts are equal, which
    pairs the same leaves as a level-by-level reduction.  Only O(log n) sums
    and the integer simulation totals are kept."""
    if n < 1:
        raise ValueError("need at least one direction")
    counter = MergeCostCounter()
    sims = sims_sq = 0
    h = None
    k = 0
    for size in groups:
        stack = []
        for _ in range(size):
            k += 1
            u = sample_surface(d, norm_kind, SeededStream(seed, 2 * k), shape)
            run = radial_sampling(u, grid, indicator, SeededStream(seed, 2 * k + 1), k)
            sims += run.simulations_used
            sims_sq += run.simulations_used**2
            leaves, seg = 1, run.segments
            while stack and stack[-1][0] == leaves:
                seg = merge(stack.pop()[1], seg, counter)
                leaves *= 2
            stack.append((leaves, seg))
        [(_, seg)] = stack
        h = seg if h is None else merge(h, seg, counter)
    decomposition = binary_decomposition(n)
    # sample variance from the exact integer sums (ddof=1)
    var = (n * sims_sq - sims * sims) / (n * (n - 1)) if n > 1 else 0.0
    return h, ComplexityReport(
        n_samples=n,
        m=grid.m,
        total_simulations=sims,
        measured_meq=sims / n,
        merge_row_visits=counter.row_visits,
        predicted_meq=predict_meq(grid.scheme, grid.lam, grid.m),
        predicted_speedup=predicted_speedup(n),
        tau=len(decomposition),
        group_sizes=decomposition,
        simulations_std=math.sqrt(var),
    )


def ssra(
    n_samples: int,
    grid: RadiusGrid,
    indicator,
    d: int,
    norm_kind: NormKind = NormKind.L2,
    seed: int = 0,
    shape: BlockShape | None = None,
) -> tuple[SegFun, ComplexityReport]:
    """Sequential sample reuse: fold each direction's run into the running sum."""
    return _sample_reuse(
        n_samples, repeat(1, n_samples), grid, indicator, d, norm_kind, seed, shape
    )


def hsra(
    n_samples: int,
    grid: RadiusGrid,
    indicator,
    d: int,
    norm_kind: NormKind = NormKind.L2,
    seed: int = 0,
    shape: BlockShape | None = None,
) -> tuple[SegFun, ComplexityReport]:
    """Hierarchical sample reuse: split the sample count into powers of two,
    reduce each group by a balanced binary merge tree, then fold the group
    results, smallest group first.  Produces the same counts as ssra."""
    groups = binary_decomposition(n_samples)
    return _sample_reuse(n_samples, groups, grid, indicator, d, norm_kind, seed, shape)


def chernoff_n(eps: float, delta: float) -> int:
    """Smallest sample size exceeding ln(2/delta) / (2 eps^2)."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise OutOfRangeError("eps and delta must lie in (0,1)")
    return math.floor(math.log(2.0 / delta) / (2.0 * eps * eps)) + 1


def estimate_curve(h: SegFun, n_samples: int, grid: RadiusGrid) -> RobustnessCurve:
    """Per-grid-point success frequencies f_H(i)/N with their running infimum."""
    if h.m != grid.m:
        raise CorruptedInputError("segment domain does not match the grid")
    counts = h.dense()
    if np.any(counts > n_samples):
        raise CorruptedInputError("counts exceed the sample size")
    values = counts / n_samples
    return RobustnessCurve(
        grid=grid,
        kind="script_p",
        values=values,
        inf_values=np.minimum.accumulate(values),
        n_samples=n_samples,
    )


def interpolate(curve: RobustnessCurve, r: float) -> float:
    """Linear interpolation of the curve between its grid knots."""
    radii = curve.grid.radii
    if r < radii[0] or r > radii[-1]:
        raise OutOfRangeError(f"radius {r} outside [{radii[0]}, {radii[-1]}]")
    return float(np.interp(r, radii, curve.values))
