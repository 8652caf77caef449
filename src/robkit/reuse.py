"""Radial sampling and the sequential / hierarchical sample-reuse algorithms.

One directional sample per stream pair: direction k draws its surface point
from stream 2k and its radii from stream 2k+1 of the master seed, so results
are identical whatever order directions are evaluated or merged in.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

# sample_surface and merge are not called here; they stay importable from this
# module with radial_sampling, scale and locate, the one-direction API that the
# benchmark's tracer wraps in place
from .gridspec import OutOfRangeError, RadiusGrid, locate, predict_meq
from .segfun import SegFun, add_deltas, from_deltas, merge, merge_pairs
from .uncsample import (
    BlockShape,
    DirectionSample,
    InvalidDimensionError,
    InvalidInstanceError,
    NormKind,
    RekeyedStreams,
    SeededStream,
    UncertaintyInstance,
    _as_generator,
    sample_surface,
    scale,
    surface_points,
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


def _note(exc: Exception, k: int, radius: float) -> None:
    if hasattr(exc, "add_note"):
        exc.add_note(f"indicator failed on direction {k} at radius {radius}")


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
            _note(exc, direction_index, radius)
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


BLOCK = 64  # directions drawn together, and leaves per level-wise merge chunk
UNIFORMS = 8  # radius draws per direction; a longer sweep redraws its stream twice as long


class _Leaves:
    """The leaf runs of directions 1, 2, ..., drawn BLOCK at a time.

    Direction k takes its surface point from stream 2k and its radii from
    stream 2k+1, as `sample_surface` and `radial_sampling` would.  The radii
    and located indices of a sweep do not depend on the indicator's values,
    so a block's schedule is computed in lockstep first; the indicator then
    decides all its rows, by `batch` where the indicator has one, else one
    `__call__` per row in direction-then-step order.  A leaf is its flat
    delta rows (see `segfun.merge_pairs`)."""

    def __init__(self, n, grid, indicator, d, norm_kind, seed, shape):
        if d < 1:
            raise InvalidDimensionError("dimension must be >= 1")
        self.shape = BlockShape.vector(d) if shape is None else shape
        if self.shape.dim != d:
            raise InvalidInstanceError(
                f"shape implies dimension {self.shape.dim}, got {d} coords"
            )
        self.n, self.radii, self.indicator = n, grid.radii, indicator
        self.d, self.norm_kind = d, norm_kind
        self.streams = RekeyedStreams(seed)
        self.drawn = 0  # directions drawn so far
        empty = np.empty(0, dtype=np.int64)
        self.node, self.lo, self.delta = empty, empty, empty  # drawn, not yet taken
        self.sims = self.sims_sq = 0

    def take(self, count: int):
        """(node, lo, delta) rows of the next `count` leaves, nodes 0..count-1."""
        while self.node.size == 0 or self.node[-1] < count - 1:
            base = self.node[-1] + 1 if self.node.size else 0
            node, lo, delta = self._block()
            self.node = np.concatenate([self.node, node + base])
            self.lo = np.concatenate([self.lo, lo])
            self.delta = np.concatenate([self.delta, delta])
        cut = int(self.node.searchsorted(count))
        out = self.node[:cut], self.lo[:cut], self.delta[:cut]
        self.node, self.lo, self.delta = self.node[cut:] - count, self.lo[cut:], self.delta[cut:]
        return out

    def _block(self):
        k0 = self.drawn + 1
        b = min(BLOCK, self.n - self.drawn)
        self.drawn += b
        dirs = np.empty((b, self.d))
        u = np.empty((b, UNIFORMS))
        stream = self.streams.stream
        l2 = self.norm_kind is NormKind.L2
        for r in range(b):
            gen = stream(2 * (k0 + r))
            if l2:
                gen.standard_normal(out=dirs[r])
            else:
                dirs[r] = surface_points(self.d, self.norm_kind, gen, 1)[0]
            stream(2 * (k0 + r) + 1).random(out=u[r])
        if l2:  # as surface_points normalizes, with its redraw of all-zero rows
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            for r in np.flatnonzero(norms[:, 0] == 0.0).tolist():
                dirs[r] = surface_points(self.d, NormKind.L2, stream(2 * (k0 + r)), 1)[0]
                norms[r] = 1.0
            dirs /= norms
        row, radius, j = self._schedule(k0, u)
        val = self._decide(k0, row, dirs[row] * radius[:, None], radius)
        counts = np.bincount(row, minlength=b)
        self.sims += row.size
        self.sims_sq += int(counts @ counts)
        # run [j, p] of each step holds its value; the row at lo = j carries
        # the change from the next step's value (the last step has j = 1)
        last = j == 1
        delta = val.copy()
        delta[:-1] -= val[1:]
        delta[last] = val[last]
        keep = (delta != 0) | last
        row, j, delta = row[keep], j[keep], delta[keep]
        order = np.lexsort((j, row))
        return row[order], j[order], delta[order]

    def _schedule(self, k0, u):
        """(direction row, radius, located index) of every sweep step of the
        block, direction by direction, each in step order: radius =
        r_{p} * U with U from the direction's radius stream (bitwise
        uniform(0, r_p)), j = the smallest index with r_j >= radius, then p =
        j - 1 until p = 0.  A direction that runs out of draws gets its
        stream drawn again, twice as long."""
        radii = self.radii
        p = np.full(u.shape[0], radii.size)
        active = np.arange(u.shape[0])
        steps = []
        t = 0
        while active.size:
            if t == u.shape[1]:
                longer = np.empty((u.shape[0], 2 * t))
                for r in active.tolist():
                    self.streams.stream(2 * (k0 + r) + 1).random(out=longer[r])
                u = longer
            radius = radii[p[active] - 1] * u[active, t]
            j = radii.searchsorted(radius) + 1
            steps.append((active, radius, j))
            p[active] = j - 1
            active = active[j > 1]
            t += 1
        row, radius, j = (np.concatenate(col) for col in zip(*steps))
        order = np.argsort(row, kind="stable")
        return row[order], radius[order], j[order]

    def _decide(self, k0, row, coords, radius):
        batch = getattr(self.indicator, "batch", None)
        if batch is None:
            return self._decide_rows(k0, row, coords, radius)
        try:
            val = np.asarray(batch(coords))
            if val.shape != row.shape:
                raise ValueError(f"indicator batch returned shape {val.shape}, not {row.shape}")
            val = val.astype(np.int64)
            bad = np.flatnonzero(val & ~1)
            if bad.size:
                raise ValueError(f"indicator returned {val[bad[0]]}, not 0 or 1")
            return val
        except Exception as exc:
            error = exc
        # the row-by-row pass names the first row that fails on its own; it
        # runs outside the handler, so that its error is not chained to this one
        self._decide_rows(k0, row, coords, radius)
        if hasattr(error, "add_note"):
            error.add_note(
                f"indicator batch failed on directions {k0}..{k0 + row[-1]}, "
                "though every row passes on its own"
            )
        raise error

    def _decide_rows(self, k0, row, coords, radius):
        val = np.empty(row.size, dtype=np.int64)
        shape, indicator = self.shape, self.indicator
        for s in range(row.size):
            try:
                v = int(indicator(UncertaintyInstance.trusted(coords[s], shape)))
                if v & ~1:  # anything but 0 or 1
                    raise ValueError(f"indicator returned {v}, not 0 or 1")
            except Exception as exc:
                _note(exc, k0 + int(row[s]), float(radius[s]))
                raise
            val[s] = v
        return val


def _sample_reuse(n, groups, grid, indicator, d, norm_kind, seed, shape):
    """Stream directions k = 1..n, reduce each group of consecutive leaves by
    a balanced binary merge tree, and fold the group sums into the total in
    order.  Group sizes must be powers of two summing to n.

    A group is reduced in aligned chunks of min(size, BLOCK) leaves, each one
    tree level at a time.  Above the chunks a stack of (leaf count, partial
    sum) pairs stands in for the tree: an incoming sum merges with the top
    while their leaf counts are equal, which pairs the same leaves as a
    level-by-level reduction.  Row visits are those of the pairwise merges.
    Only O(BLOCK + log n) leaves and sums are kept."""
    if n < 1:
        raise ValueError("need at least one direction")
    leaves = _Leaves(n, grid, indicator, d, norm_kind, seed, shape)
    visits = 0
    h = None
    for size in groups:
        chunk = min(size, BLOCK)
        stack = []
        for _ in range(size // chunk):
            node, lo, delta = leaves.take(chunk)
            while node[-1] > 0:  # one tree level: nodes 2i and 2i+1 sum into node i
                visits += node.size
                node, lo, delta = merge_pairs(node, lo, delta)
            leaf_count, seg = chunk, (lo, delta)
            while stack and stack[-1][0] == leaf_count:
                top = stack.pop()[1]
                visits += top[0].size + seg[0].size
                seg = add_deltas(top, seg)
                leaf_count *= 2
            stack.append((leaf_count, seg))
        [(_, seg)] = stack
        if h is None:
            h = seg
        else:
            visits += h[0].size + seg[0].size
            h = add_deltas(h, seg)
    decomposition = binary_decomposition(n)
    sims, sims_sq = leaves.sims, leaves.sims_sq
    # sample variance from the exact integer sums (ddof=1)
    var = (n * sims_sq - sims * sims) / (n * (n - 1)) if n > 1 else 0.0
    return from_deltas(grid.m, *h), ComplexityReport(
        n_samples=n,
        m=grid.m,
        total_simulations=sims,
        measured_meq=sims / n,
        merge_row_visits=visits,
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
    n_samples = operator.index(n_samples)
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
    n_samples = operator.index(n_samples)
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
