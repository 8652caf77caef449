"""In-memory spans around calls into robkit's modules.

The benchmark replaces module and class attributes with timing wrappers; the
library source is not edited.  Each span records its name, start, end and
parent span.  Spans stay in memory until the round ends, then are summarised
(and optionally written out).
"""

from __future__ import annotations

import functools
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self.returns: list[tuple[str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None, keep_return=False):
        """Replace owner.attr by a wrapper recording one span per call.

        count(args) adds a work count to self.counts[name]; keep_return keeps
        (name, return value) for calls whose results carry counters.
        """
        fn = getattr(owner, attr)
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(_now())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(args)
            if keep_return:
                self.returns.append((name, out))
            return out

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def spans(self, name: str) -> list[int]:
        sid = self._ids.get(name)
        return [i for i, n in enumerate(self.name_id) if n == sid]

    def arrays(self):
        """(name_id, start, end, parent, self_time) as NumPy arrays."""
        import numpy as np

        name_id = np.asarray(self.name_id, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return name_id, start, end, parent, dur - covered

    def save(self, path):
        import numpy as np

        name_id, start, end, parent, _ = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent,
        )


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced round.  Every timing comes with its
    call count, so a layer that is not called reads 0 calls."""
    import numpy as np

    name_id, _, _, parent, self_t = tr.arrays()
    dur = np.asarray(tr.end) - np.asarray(tr.start)
    ids = {n: i for i, n in enumerate(tr.names)}

    def sel(name):
        return name_id == ids[name] if name in ids else np.zeros(name_id.size, bool)

    def calls(name):
        return int(sel(name).sum())

    def total(name, arr=dur):
        return float(arr[sel(name)].sum())

    def mean_us(name):
        n = calls(name)
        return total(name) / n * 1e6 if n else 0.0

    def pct_us(arr, q):
        return float(np.percentile(arr, q)) * 1e6 if arr.size else 0.0

    def under(child, par):
        """Spans of `child` whose parent span is a `par` span."""
        return sel(child) & np.isin(parent, np.flatnonzero(sel(par)))

    ind = dur[sel("indicators.call")]
    sweep_self = self_t[sel("reuse.sweep")]
    m = {
        "uncsample.stream_us": mean_us("uncsample.stream"),
        "uncsample.stream_calls": calls("uncsample.stream"),
        "uncsample.surface_us": mean_us("uncsample.surface"),
        "uncsample.surface_calls": calls("uncsample.surface"),
        "uncsample.scale_us": mean_us("uncsample.scale"),
        "uncsample.scale_calls": calls("uncsample.scale"),
        "uncsample.calls": calls("uncsample.stream")
        + calls("uncsample.surface")
        + calls("uncsample.scale"),
        "gridspec.locate_us": mean_us("gridspec.locate"),
        "gridspec.locate_calls": calls("gridspec.locate"),
        "indicators.call_us.p50": pct_us(ind, 50),
        "indicators.call_us.p99": pct_us(ind, 99),
        "indicators.calls": int(ind.size),
        "indicators.busy_s": float(ind.sum()),
        "reuse.sweep_self_us.p50": pct_us(sweep_self, 50),
        "reuse.sweep_self_us.p99": pct_us(sweep_self, 99),
        "reuse.sweep_calls": int(sweep_self.size),
        "reuse.schedule_self_s": total("reuse.hsra", self_t) + total("reuse.ssra", self_t),
        "reuse.schedule_calls": calls("reuse.hsra") + calls("reuse.ssra"),
        "reuse.estimate_curve_ms": total("reuse.estimate_curve") * 1e3,
        "reuse.estimate_curve_calls": calls("reuse.estimate_curve"),
        "segfun.merge_s.ssra": float(dur[under("segfun.merge", "reuse.ssra")].sum()),
        "segfun.merge_s.hsra": float(dur[under("segfun.merge", "reuse.hsra")].sum()),
        "segfun.merge_calls": calls("segfun.merge"),
        "xform.bbp_ms": total("xform.bbp") * 1e3,
        "xform.points": tr.counts.get("xform.bbp", 0),
        "xform.calls": calls("xform.bbp"),
        "margins.complex_s": total("margins.complex"),
        "margins.real_s": total("margins.real"),
        "margins.real_self_s": total("margins.real")
        - float(dur[under("margins.transfer_at", "margins.real")].sum()),
        "margins.calls": calls("margins.complex") + calls("margins.real"),
        "margins.transfer_at_us": mean_us("margins.transfer_at"),
        "margins.transfer_calls": calls("margins.transfer_at"),
        "cli.self_ms": total("cli", self_t) * 1e3,
        "cli.calls": calls("cli"),
    }
    reports = [(n, r[1]) for n, r in tr.returns if n in ("reuse.hsra", "reuse.ssra")]
    dirs = sum(r.n_samples for _, r in reports)
    sims = sum(r.total_simulations for _, r in reports)
    m["reuse.sims_per_direction"] = sims / dirs if dirs else 0.0
    for algo in ("ssra", "hsra"):
        m[f"segfun.row_visits.{algo}"] = sum(
            r.merge_row_visits for n, r in reports if n == f"reuse.{algo}"
        )
    return m
