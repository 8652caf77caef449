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

# sample_surface, scale and merge are not called here; they stay importable
# from this module, with radial_sampling and locate, as the one-direction API
# that the benchmark's tracer wraps in place
from .gridspec import OutOfRangeError, RadiusGrid, locate, predict_meq
from .segfun import SegFun, add_deltas, from_deltas, merge, merge_pairs
from .uncsample import (
    BlockShape,
    DirectionSample,
    InvalidDimensionError,
    InvalidInstanceError,
    NormKind,
    RekeyedStreams,
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


def _checked(indicator, delta: UncertaintyInstance, k: int, radius: float) -> int:
    """int(indicator(delta)), checked to be 0 or 1; an error from the call or
    the check gets a note naming direction k and the radius."""
    try:
        val = int(indicator(delta))
        if val & ~1:  # anything but 0 or 1
            raise ValueError(f"indicator returned {val}, not 0 or 1")
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(f"indicator failed on direction {k} at radius {radius}")
        raise
    return val


def radial_sampling(
    u: DirectionSample,
    g: RadiusGrid,
    indicator,
    rng,
    direction_index: int = 0,
) -> RadialSampleRun:
    """Backward sweep over the grid: draw R ~ U[0, r_p], evaluate the
    indicator at U*R, reuse the outcome for every index j with r_j >= R,
    then continue below the located index.  This is the block driver's
    sweep on one direction, with one rng.uniform(0, r_p) per step.

    The value stored at index i is the indicator at a radius distributed
    uniformly on [0, r_i].
    """
    gen = _as_generator(rng)
    row, radius, j = _sweep(
        g, 1, lambda t, active, top: np.array([gen.uniform(0.0, r) for r in top.tolist()])
    )
    coords = u.instance.coords * radius[:, None]
    val = _decide(indicator, u.instance.shape, direction_index, row, coords, radius)
    return RadialSampleRun(from_deltas(g.m, *_runs(row, j, val)[1:]), row.size)


def _sweep(grid: RadiusGrid, rows: int, draw):
    """(row, radius, located index) of every step of the backward sweeps of
    `rows` directions, run in lockstep and returned grouped by row in step
    order.  Step t asks draw(t, active, top) for the radii of the active
    rows, uniform on [0, top] with top = r_p; then j = locate(grid, radius)
    and p = j - 1, until p = 0.  No step depends on a decision."""
    radii = grid.radii
    p = np.full(rows, grid.m)
    active = np.arange(rows)
    steps = []
    t = 0
    while active.size:
        radius = draw(t, active, radii[p[active] - 1])
        j = locate(grid, radius)
        steps.append((active, radius, j))
        p[active] = j - 1
        active = active[j > 1]
        t += 1
    row, radius, j = (np.concatenate(col) for col in zip(*steps))
    order = np.argsort(row, kind="stable")
    return row[order], radius[order], j[order]


def _decide(indicator, shape: BlockShape, k0: int, row, coords, radius):
    """The decisions at the sweep steps `row` (direction k0 + row) with
    instances `coords`: by `batch(coords, shape)` where the indicator has
    one; else, or when the batch fails, by one checked call per row in
    order, so that an error names the first direction and radius that fail
    on their own."""
    batch = getattr(indicator, "batch", None)
    error = None
    if batch is not None:
        try:
            val = np.asarray(batch(coords, shape))
            if val.shape != row.shape:
                raise ValueError(f"indicator batch returned shape {val.shape}, not {row.shape}")
            val = val.astype(np.int64)
            bad = np.flatnonzero(val & ~1)
            if bad.size:
                raise ValueError(f"indicator returned {val[bad[0]]}, not 0 or 1")
            return val
        except Exception as exc:
            error = exc
    # outside the handler, so that a row's error is not chained to the batch's
    rows = zip(coords, (k0 + row).tolist(), radius.tolist())
    val = np.array(
        [_checked(indicator, UncertaintyInstance.trusted(x, shape), k, r) for x, k, r in rows],
        dtype=np.int64,
    )
    if error is None:
        return val
    if hasattr(error, "add_note"):
        error.add_note(
            f"indicator batch failed on directions {k0}..{k0 + row[-1]}, "
            "though every row passes on its own"
        )
    raise error


def _runs(row, j, val):
    """The (row, lo, delta) leaf delta rows of decided sweep steps, ordered
    by (row, lo): run [j, p] of a step holds its value, so the row at lo = j
    carries the change from the next step's value (the last step has j = 1);
    a zero change is dropped."""
    last = j == 1
    delta = val.copy()
    delta[:-1] -= val[1:]
    delta[last] = val[last]
    keep = (delta != 0) | last
    row, j, delta = row[keep], j[keep], delta[keep]
    order = np.lexsort((j, row))
    return row[order], j[order], delta[order]


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


BLOCK = 256  # directions drawn together, and leaves per level-wise merge chunk
UNIFORMS = 8  # radius draws per direction; a longer sweep redraws its stream twice as long


class _Leaves:
    """The leaf runs of directions 1, 2, ..., drawn BLOCK at a time.

    Direction k takes its surface point from stream 2k and its radii from
    stream 2k+1, as `sample_surface` and `radial_sampling` would.  A block's
    sweeps run in lockstep first (`_sweep`); `_decide` then decides all its
    steps, in direction-then-step order, and a leaf is its flat delta rows
    (`_runs`)."""

    def __init__(self, n, grid, indicator, d, norm_kind, seed, shape):
        if d < 1:
            raise InvalidDimensionError("dimension must be >= 1")
        self.shape = BlockShape.vector(d) if shape is None else shape
        if self.shape.dim != d:
            raise InvalidInstanceError(
                f"shape implies dimension {self.shape.dim}, got {d} coords"
            )
        self.n, self.grid, self.indicator = n, grid, indicator
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
        d, l1, l2 = self.d, self.norm_kind is NormKind.L1, self.norm_kind is NormKind.L2
        dirs, u = np.empty((b, d)), np.empty((b, UNIFORMS))
        ints = np.empty((b, d if l1 else 2), dtype=np.int64)  # l1 signs; linf face, sign
        stream = self.streams.stream
        gen = stream(2 * k0)  # stream(k) re-keys and returns this one generator
        normal, random = gen.standard_normal, gen.random
        # each row's raw draws in surface_points' order; the block is finished below
        for r, k in enumerate(range(2 * k0, 2 * (k0 + b), 2)):
            stream(k)
            if l2:
                normal(out=dirs[r])
            elif l1:
                gen.standard_exponential(out=dirs[r])
                ints[r] = gen.integers(0, 2, size=d)
            else:
                ints[r] = gen.integers(0, d), gen.integers(0, 2)
                dirs[r] = gen.uniform(-1.0, 1.0, size=d)
            stream(k + 1)
            random(out=u[r])
        if l2:  # as surface_points normalizes, with its redraw of all-zero rows
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            for r in np.flatnonzero(norms[:, 0] == 0.0).tolist():
                dirs[r] = surface_points(d, NormKind.L2, stream(2 * (k0 + r)), 1)[0]
                norms[r] = 1.0
            dirs /= norms
        elif l1:
            dirs *= ints * 2 - 1
            dirs /= np.sum(np.abs(dirs), axis=1, keepdims=True)
        else:
            dirs[np.arange(b), ints[:, 0]] = ints[:, 1] * 2 - 1

        def draw(t, active, top):
            # a direction that runs out of draws gets its stream drawn
            # again, twice as long; top * U is bitwise uniform(0, top)
            nonlocal u
            if t == u.shape[1]:
                longer = np.empty((b, 2 * t))
                for r in active.tolist():
                    stream(2 * (k0 + r) + 1).random(out=longer[r])
                u = longer
            return top * u[active, t]

        row, radius, j = _sweep(self.grid, b, draw)
        val = _decide(self.indicator, self.shape, k0, row, dirs[row] * radius[:, None], radius)
        counts = np.bincount(row, minlength=b)
        self.sims += row.size
        self.sims_sq += int(counts @ counts)
        return _runs(row, j, val)


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
        values=values,
        inf_values=np.minimum.accumulate(values),
        n_samples=n_samples,
    )
