"""Call tracing from outside the program.

A `Tracer` replaces functions with timing wrappers while it is installed and
puts the originals back when it is removed, so no module of the program is
edited.  Every wrapped call records its duration; a call's self time is its
duration minus the durations of the wrapped calls made inside it.  Totals are
kept per (label, name), where the label is set by the caller (the benchmark
sets it to the command being run).
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class CallStats:
    calls: int = 0
    inclusive_s: float = 0.0   # outermost calls only, so recursion counts once
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.label = ""
        self.stats: dict[tuple[str, str], CallStats] = defaultdict(CallStats)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list[float]] = []   # child time of each open call
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, on_return=None):
        """Timing wrapper for `fn`, recorded under `name`.

        `on_return(bound_arguments, result)` may return a dict of counts to
        add under the current label after a call that returned normally.
        """
        signature = inspect.signature(fn) if on_return else None

        def traced(*args, **kwargs):
            self._stack.append([0.0])
            self._depth[name] += 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                child = self._stack.pop()[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                self._depth[name] -= 1
                st = self.stats[(self.label, name)]
                st.calls += 1
                st.self_s += elapsed - child
                if self._depth[name] == 0:
                    st.inclusive_s += elapsed
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, n in on_return(bound.arguments, result).items():
                    self.counts[(self.label, key)] += n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """setattr(owner, attr, replacement) until `remove()`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def labelled(self, label: str):
        previous, self.label = self.label, label
        try:
            yield
        finally:
            self.label = previous

    # -- totals ------------------------------------------------------------

    def total(self, name: str, field: str = "inclusive_s",
              label: str | None = None) -> float:
        """Sum of one CallStats field for `name` over labels (or one label)."""
        return sum(getattr(st, field) for (lab, n), st in self.stats.items()
                   if n == name and (label is None or lab == label))

    def prefix_total(self, prefix: str, field: str = "self_s") -> float:
        return sum(getattr(st, field) for (_, n), st in self.stats.items()
                   if n.startswith(prefix))

    def count(self, key: str, label: str | None = None) -> int:
        return sum(n for (lab, k), n in self.counts.items()
                   if k == key and (label is None or lab == label))
