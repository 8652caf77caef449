"""Run-length-encoded step functions over grid indices 1..m.

A SegFun stores maximal runs (lo, hi, value) that tile [1, m].  Values are
integer counts, so merging (pointwise addition) is exact; averaging happens
only when a curve is built from the merged counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class IncompatibleDomainError(ValueError):
    pass


@dataclass
class MergeCostCounter:
    """Accumulates the number of input rows consumed across merge calls."""

    row_visits: int = 0


@dataclass(frozen=True)
class SegFun:
    m: int
    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        value = np.asarray(self.value, dtype=np.int64)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "value", value)
        if not (lo.size == hi.size == value.size) or lo.size == 0:
            raise ValueError("lo/hi/value must be equal-length, non-empty")
        if lo[0] != 1 or hi[-1] != self.m:
            raise ValueError("rows must cover [1, m] exactly")
        if lo.size > 1:
            if np.any(lo[1:] != hi[:-1] + 1):
                raise ValueError("rows must be contiguous")
            if np.any(value[1:] == value[:-1]):
                raise ValueError("adjacent rows must differ (maximal runs)")
        if np.any(lo > hi):
            raise ValueError("each row needs lo <= hi")
        if np.any(value < 0):
            raise ValueError("values must be non-negative counts")

    @classmethod
    def from_rows(cls, m: int, rows) -> "SegFun":
        lo, hi, value = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
        return cls(m, lo, hi, value)

    @classmethod
    def constant(cls, m: int, value: int) -> "SegFun":
        return cls(m, np.array([1]), np.array([m]), np.array([value]))

    @property
    def rows(self) -> list[tuple[int, int, int]]:
        return [tuple(map(int, t)) for t in zip(self.lo, self.hi, self.value)]

    @property
    def row_count(self) -> int:
        return int(self.lo.size)

    def eval(self, i: int) -> int:
        """Value of the run containing index i."""
        if not 1 <= i <= self.m:
            raise IndexError(f"index {i} outside [1, {self.m}]")
        pos = int(np.searchsorted(self.lo, i, side="right")) - 1
        return int(self.value[pos])

    def dense(self) -> np.ndarray:
        """The full length-m array of values (1-based index i at slot i-1)."""
        return np.repeat(self.value, self.hi - self.lo + 1)


def merge_pairs(node: np.ndarray, lo: np.ndarray, delta: np.ndarray):
    """One level of a merge tree over flat delta rows: nodes 2i and 2i+1 sum
    into node i.

    A node is its rows (lo, delta) in ascending lo, where delta is the value
    at lo minus the value just below it (at lo = 1, the value itself), so
    every node has a row at lo = 1 and a maximal run starts at each row.  The
    input rows are ordered by (node, lo); so are the returned (node // 2, lo,
    delta) rows.  Deltas add, and a delta that cancels to zero joins two runs,
    so its row is dropped."""
    pair = node >> 1
    order = np.lexsort((lo, pair))
    pair, lo, delta = pair[order], lo[order], delta[order]
    first = np.empty(pair.size, dtype=bool)
    first[:1] = True
    np.not_equal(lo[1:], lo[:-1], out=first[1:])
    first[1:] |= pair[1:] != pair[:-1]
    starts = np.flatnonzero(first)
    pair, lo, delta = pair[starts], lo[starts], np.add.reduceat(delta, starts)
    keep = (delta != 0) | (lo == 1)
    return pair[keep], lo[keep], delta[keep]


def add_deltas(a, b):
    """The delta rows (lo, delta) of the sum of two nodes' delta rows."""
    node = np.repeat(np.array([0, 1], dtype=np.int64), [a[0].size, b[0].size])
    _, lo, delta = merge_pairs(node, np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]))
    return lo, delta


def to_deltas(f: SegFun):
    """The delta rows (lo, delta) of f: its value changes at each lo."""
    delta = f.value.copy()
    delta[1:] -= f.value[:-1]
    return f.lo, delta


def from_deltas(m: int, lo: np.ndarray, delta: np.ndarray) -> SegFun:
    """The checked SegFun of one node's delta rows."""
    return SegFun(m, lo, np.append(lo[1:] - 1, m), np.cumsum(delta))


def merge(d: SegFun, h: SegFun, counter: MergeCostCounter | None = None) -> SegFun:
    """Run-length encoding of the pointwise sum f_d + f_h, coalesced to
    maximal runs.  Cost is charged as rows(d) + rows(h)."""
    if d.m != h.m:
        raise IncompatibleDomainError(f"domains differ: {d.m} vs {h.m}")
    if counter is not None:
        counter.row_visits += d.row_count + h.row_count
    return from_deltas(d.m, *add_deltas(to_deltas(d), to_deltas(h)))
