"""Span tracing of goodint's public functions, for the traced benchmark run.

`Tracer.install` replaces every public function of the traced modules by a
wrapper that records a span (name, start, end, parent).  Because goodint's
modules call each other through module attributes (`arith.factorize(...)`),
the replacement also intercepts calls between modules and inside a module.
A generator function gets one span per resumption, so its time is counted
while it is consumed, not when it is created.  Spans stay in memory; the
per-layer figures are derived from them when the run ends.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

# Deciders of goodint.classify: one call is one membership decision.
DECIDERS = frozenset({
    "classify.is_good",
    "classify.is_oddly_good",
    "classify.is_good_via_sum_valuation",
    "classify.is_oddly_good_via_sum_valuation",
})
ORDER = "arith.multiplicative_order"
CACHED = ("factorize", "carmichael_lambda")


class Tracer:
    """Spans and call counts of one process; `summary()` reduces them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter[str] = Counter()
        self.findings = 0  # audit generator yields + list lengths of outermost audit calls
        self._stack: list[int] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._arith = None

    def install(self, modules) -> None:
        """Wrap the public functions of each module (`goodint.<layer>`) in place."""
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            if layer == "arith":
                self._arith = mod
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj))
        for name in CACHED:
            info = self._cache_info(name)
            if info is not None:
                self._cache_start[name] = (info.hits, info.misses)

    def _cache_info(self, name):
        """cache_info() of the lru_cache behind arith.<name>, or None without one."""
        cached = getattr(getattr(self._arith, name, None), "__wrapped__", None)
        return cached.cache_info() if hasattr(cached, "cache_info") else None

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        calls = self.calls
        is_audit = name.startswith("audit.")
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    self.findings += is_audit
                    yield item
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            calls[name] += 1
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if is_audit and isinstance(result, list) and not self._under_audit(rec):
                self.findings += len(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _under_audit(self, rec: list) -> bool:
        parent = rec[3]
        while parent >= 0:
            if self.spans[parent][0].startswith("audit."):
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self) -> dict:
        """Per-name calls and self time, cache counters and decider counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter[str] = Counter()
        decisions = orders_in_deciders = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child_time[i]
            if name in DECIDERS or name == ORDER:
                inside = False
                while parent >= 0 and not inside:
                    inside = spans[parent][0] in DECIDERS
                    parent = spans[parent][3]
                if name == ORDER:
                    orders_in_deciders += inside
                elif not inside:
                    decisions += 1
        caches = {}
        for name, (hits0, misses0) in self._cache_start.items():
            info = self._cache_info(name)
            caches[name] = [info.hits - hits0, info.misses - misses0]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self_s),
            "caches": caches,
            "decisions": decisions,
            "orders_in_deciders": orders_in_deciders,
            "findings": self.findings,
        }
