"""Span recording from outside the program, and the statistics the
benchmark reports.

A span is (name, start, end, parent, round).  Spans are kept in flat lists
in memory and written once, when the run ends.  The program is traced by
replacing a function with a timing wrapper *at the name the calling module
looks up*: ``lambid.bayes`` imports ``smallest_physical_cp`` into its own
namespace, so calls from the likelihood are traced by patching
``lambid.bayes.smallest_physical_cp``, while calls from curve tracing are
traced by patching ``lambid.dispersion.smallest_physical_cp``.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span log plus the wrappers that feed it.

    Columns are typed arrays so a run of a few hundred thousand spans stays
    a few megabytes.
    """

    def __init__(self):
        self.table: list[str] = []  # span names; spans store an index
        self._ids: dict[str, int] = {}
        self.name_idx = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.rounds = array("l")
        self.round = -1  # spans of one benchmark round share this id
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_idx.append(name_id)
        self.parents.append(self._stack[-1])
        self.rounds.append(self.round)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span.

        ``observe(args, kwargs, result)`` runs after the call, outside the
        span, to record counts at the same boundary.
        """
        orig = getattr(module, attr)
        name_id = self._id(name)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def names(self):
        return (self.table[i] for i in self.name_idx)

    def durations(self, name: str) -> list[float]:
        if name not in self._ids:
            return []
        want = self._ids[name]
        return [e - s for i, s, e in zip(self.name_idx, self.starts, self.ends)
                if i == want]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def self_times_of(self, name: str) -> list[float]:
        if name not in self._ids:
            return []
        want = self._ids[name]
        return [t for i, t in zip(self.name_idx, self.self_times()) if i == want]

    def self_by_name(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = {}
        for name, t in zip(self.names(), self.self_times()):
            out[name] = out.get(name, 0.0) + t
        return out

    def top_level_s(self) -> float:
        return sum(e - s for p, s, e in zip(self.parents, self.starts, self.ends)
                   if p < 0)

    def write(self, path) -> None:
        """Columnar gzip JSON: span i is named names[name_idx[i]]."""
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "names": self.table,
            "name_idx": self.name_idx.tolist(),
            "start_us": [round((s - t0) * 1e6, 1) for s in self.starts],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.ends],
            "parent": self.parents.tolist(),
            "round": self.rounds.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def median(values) -> float:
    """Median of a non-empty sequence; 0.0 for an empty one (layer unused)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values) -> dict:
    """Highest whole percentile that still has at least ten samples beyond it.

    Returns {"value", "percentile", "n", "beyond"}.  With fewer than eleven
    samples no percentile qualifies, and the maximum is reported with
    percentile 100 and beyond 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"value": 0.0, "percentile": 0, "n": 0, "beyond": 0}
    best = None
    for pct in range(99, 0, -1):
        idx = math.ceil(pct / 100 * n) - 1
        beyond = n - idx - 1
        if beyond >= 10:
            best = (pct, idx, beyond)
            break
    if best is None:
        return {"value": xs[-1], "percentile": 100, "n": n, "beyond": 0}
    pct, idx, beyond = best
    return {"value": xs[idx], "percentile": pct, "n": n, "beyond": beyond}
