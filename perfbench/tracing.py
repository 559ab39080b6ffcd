"""Spans and counters around the package's public functions.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, in the defining module and in every `gradedrel` module that re-binds
the name through `from .x import y`, so calls made inside the package are
seen too.  Hot helpers only bump a counter.  Spans are kept in memory as
lists `[name, tag, start, end, parent, op]` and written out by `dump`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("formats", "cli", "relations", "semimetric", "hulls", "dynamics", "harness")
COUNT_ONLY = frozenset(
    {"delta", "mu", "ball", "hull", "covering_level", "expand_level", "compose"}
)
# cli entry points that never run inside a request
SKIP = frozenset({"main", "build_parser", "render_human"})


def _tag(name: str, args: tuple, kwargs: dict):
    """Extra label recorded on a span: the command of `cli.run`, the hull
    mode of an enumeration."""
    if name == "cli.run":
        return next((a for a in args[0] if not a.startswith("-")), None)
    if name == "hulls.enumerate_admissible":
        return kwargs.get("mode", args[1] if len(args) > 1 else "paper-cov")
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.cap_hits = 0
        # family size per (system, mode), from enumerate_admissible results
        self.family_sizes: dict[tuple, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._wrapped: dict = {}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("gradedrel.")]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or attr.startswith("_") or attr in SKIP:
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if fn not in self._wrapped:
                    self._wrapped[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapped[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        counts = self.counts
        if fn.__name__ in COUNT_ONLY:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        from gradedrel.errors import ResourceLimitError

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, _tag(name, args, kwargs), clock(), None,
                    stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError as exc:
                if not getattr(exc, "bench_counted", False):
                    exc.bench_counted = True
                    self.cap_hits += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if name == "hulls.enumerate_admissible":
                self.family_sizes[(args[0], span[1])] = len(result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def outer_total(spans: list[list], names: set, tag=None) -> float:
    """Summed duration of the spans named in `names` that have no ancestor
    also named there, so nested calls inside the group are not counted twice."""
    total = 0.0
    for s in spans:
        if s[0] not in names or (tag is not None and s[1] != tag):
            continue
        p = s[4]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][4]
        if p < 0:
            total += s[3] - s[2]
    return total
