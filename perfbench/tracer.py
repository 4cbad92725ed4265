"""In-process tracing of netsig library calls, installed from outside.

Wrappers are patched onto the names the callers look up (a module global or
a class attribute) and removed again when the `Tracer` context exits.  Each
wrapper records, per name, the call count, busy time (inclusive) and self
time (busy time minus the time spent in wrapped callees), and counts calls
by the name of the wrapped caller.  Hot calls are only aggregated; calls
marked as phases are also kept as spans (name, start, end, parent span).
"""

from __future__ import annotations

import time
from collections import Counter


class Stat:
    __slots__ = ("calls", "busy", "self", "by_parent")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.by_parent = Counter()


class Tracer:
    """Aggregating call tracer; use as a context manager around patching."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.extra = Counter()
        self.caches: dict[int, dict] = {}
        # Parallel stacks of the active wrapped calls: the names, and the busy
        # time their wrapped callees have accumulated so far.  The bottom
        # entries stand for the untraced caller.
        self._names = ["<root>"]
        self._child = [0.0]
        self._span_ids = [None]
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False):
        """Return `fn` wrapped to record count, busy and self time; with
        `span`, each call is also kept as a span."""
        stat = self.stat(name)
        clock = time.perf_counter
        names, child, span_ids, spans = self._names, self._child, self._span_ids, self.spans

        def traced(*args, **kwargs):
            stat.by_parent[names[-1]] += 1
            if span:
                record = {"id": len(spans), "name": name, "parent": span_ids[-1]}
                spans.append(record)
                span_ids.append(record["id"])
            names.append(name)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                names.pop()
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.busy += elapsed
                stat.self += elapsed - inner
                if span:
                    span_ids.pop()
                    record["start"], record["end"] = start, end

        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function: every resumption counts as one call, so
        `calls` is the number of items produced and busy time is the time
        spent producing them."""
        stat = self.stat(name)
        clock = time.perf_counter
        names, child = self._names, self._child

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                names.append(name)
                child.append(0.0)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    names.pop()
                    inner = child.pop()
                    child[-1] += elapsed
                    stat.busy += elapsed
                    stat.self += elapsed - inner
                stat.calls += 1
                stat.by_parent[names[-1]] += 1
                yield item

        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def busy(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.busy if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self if stat else 0.0

    def calls_under(self, name: str, parent: str) -> int:
        stat = self.stats.get(name)
        return stat.by_parent[parent] if stat else 0

    def summary(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "busy_s": s.busy,
                "self_s": s.self,
                "by_parent": dict(s.by_parent),
            }
            for name, s in sorted(self.stats.items())
        }
