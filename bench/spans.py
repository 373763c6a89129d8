"""In-memory span recorder that wraps earl entry points from outside.

``span`` replaces a function, under every attribute of an ``earl`` module
that refers to it, by a closure that records one span per call: its label,
start, end and parent span. Spans are stored column-wise, because a traced
``score`` run records about half a million, and are written out when the run
ends. Self time is a span's duration minus the time its direct children
cover (one thread, so children never overlap). Counts are taken at the same
boundaries, by an ``on_exit`` callback and as a count of raised errors,
and kept per phase.

``tap`` is the cheap hook: it calls back after each call of one module
attribute and records no span. Step clocks and token counters use it, in
untraced runs too.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Spans and marks read the process's CPU clock. The program runs on one
# thread (BLAS pinned), so on an idle machine this equals wall time; on a
# shared VM it leaves out the intervals in which the vCPU was descheduled,
# which otherwise dominate the tail of short operations.
now = time.process_time


class Recorder:
    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.phase = "setup"
        self.counts = defaultdict(lambda: defaultdict(float))
        self.series = defaultdict(list)
        self._stack = [-1]
        self._patches = []

    # --- spans -----------------------------------------------------------

    def _open(self, label: str) -> int:
        nid = self._label_id.setdefault(label, len(self.labels))
        if nid == len(self.labels):
            self.labels.append(label)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(now())
        return sid

    def _close(self, sid: int) -> float:
        self.end[sid] = t = now()
        self._stack.pop()
        return t - self.start[sid]

    @contextmanager
    def region(self, label: str):
        """A span around a block of benchmark code."""
        sid = self._open(label)
        try:
            yield
        finally:
            self._close(sid)

    def stamp(self, name: str, value=None) -> None:
        """Append a timestamp (or a value) to the current phase's series."""
        self.series[self.phase, name].append(now() if value is None
                                             else value)

    # --- installation ----------------------------------------------------

    def _bind(self, module_name: str, attr: str, wrap, everywhere: bool):
        fn = getattr(sys.modules[module_name], attr)
        wrapper = wrap(fn)
        if everywhere:
            sites = [(mod, key) for name, mod in list(sys.modules.items())
                     if mod is not None
                     and (name == "earl" or name.startswith("earl."))
                     for key, val in list(vars(mod).items()) if val is fn]
        else:
            sites = [(sys.modules[module_name], attr)]
        for mod, key in sites:
            self._patches.append((mod, key, fn))
            setattr(mod, key, wrapper)

    def span(self, module_name: str, attr: str, label: str,
             on_exit=None) -> None:
        """Record a span around every call of module_name.attr, wherever an
        earl module imported it.

        After a call returns, on_exit(counts, args, result, seconds) adds to
        the counters of (phase, label); a call that raises adds 1 to their
        "errors" count instead.
        """
        def wrap(fn):
            def traced(*args, **kwargs):
                sid = self._open(label)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._close(sid)
                    self.counts[self.phase, label]["errors"] += 1
                    raise
                seconds = self._close(sid)
                if on_exit is not None:
                    on_exit(self.counts[self.phase, label], args, result,
                            seconds)
                return result
            return traced

        self._bind(module_name, attr, wrap, everywhere=True)

    def tap(self, module_name: str, attr: str, after) -> None:
        """Call after(args, result) when a call of module_name.attr returns;
        only that module's binding is replaced."""
        def wrap(fn):
            def tapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result
            return tapped

        self._bind(module_name, attr, wrap, everywhere=False)

    def restore(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    # --- queries ---------------------------------------------------------

    def arrays(self) -> dict:
        """Column arrays of every span, with self time and the label table."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {"name": name, "parent": parent, "start": start,
                "duration": dur, "self": dur - covered,
                "labels": np.array(self.labels, dtype=str)}

    def is_label(self, label: str, arrays: dict) -> np.ndarray:
        return arrays["name"] == self._label_id.get(label, -1)

    def under(self, label: str, arrays: dict) -> np.ndarray:
        """Mask of spans that are, or descend from, a span with this label."""
        inside = self.is_label(label, arrays).tolist()
        for i, p in enumerate(arrays["parent"].tolist()):
            if p >= 0 and inside[p]:
                inside[i] = True
        return np.array(inside, dtype=bool)
