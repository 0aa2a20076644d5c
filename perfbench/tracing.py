"""In-memory spans and counters for the benchmark's traced run.

The tracer wraps public functions of spherecorr from outside: each wrapped
module-level function is replaced in every spherecorr module that imported
it, and methods are replaced on their class.  Layer boundaries record a span
(name, start, end, parent span, thread); hot scalar calls only bump counters,
because a span per call would distort the run.  ``uninstall`` restores the
original functions, so untraced rounds run the library untouched.

Spans opened in a pool thread have no parent: the parent stack is per thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    # -- recording -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end, threading.get_ident()))

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counts[key] += value

    # -- wrappers ----------------------------------------------------------------

    def spanned(self, name, after=None):
        """Wrap a function in a span; ``after(args, kwargs, result)`` may count."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out

            return wrapper

        return make

    def counted(self, name, timed=True, size=None):
        """Count calls, their summed time and ``size(args, kwargs, result)``, without a span."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not timed:
                    self.add(name + ".calls")
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counts[name + ".calls"] += 1
                    self.counts[name + ".s"] += elapsed
                    if size is not None:
                        self.counts[name + ".size"] += size(args, kwargs, out)
                return out

            return wrapper

        return make

    # -- patching ----------------------------------------------------------------

    def patch_function(self, module, attr: str, make):
        """Replace ``module.attr`` everywhere spherecorr imported it by name."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "spherecorr" and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reduction ---------------------------------------------------------------

    def total(self, name: str, parent: str | None = None) -> float:
        """Summed duration of spans called ``name`` (optionally under a ``parent`` span)."""
        names = {s[0]: s[1] for s in self.spans}
        return sum(
            s[4] - s[3]
            for s in self.spans
            if s[1] == name and (parent is None or names.get(s[2]) == parent)
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (minus child spans)."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _name, parent, start, end, _thread in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, _parent, start, end, _thread in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def dump(self) -> dict:
        origin = min((s[3] for s in self.spans), default=0.0)
        return {
            "spans": [
                {"id": sid, "name": name, "parent": parent, "start": start - origin,
                 "end": end - origin, "thread": thread}
                for sid, name, parent, start, end, thread in self.spans
            ],
            "self_times": self.self_times(),
            "counters": dict(self.counts),
        }
