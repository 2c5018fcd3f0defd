"""In-memory span tracer that wraps the engine's public functions.

Each wrapper is installed on the name the caller looks up at call time
(for example ``engine.evaluate_general`` rather than
``general_sparql.evaluate_general``), so the engine runs unmodified.
A span records its name, wall start and end, thread CPU start and end,
parent span, query id and thread id.  Pool threads do not inherit the
caller's span stack: a span opened on a thread with an empty stack is
attached to the innermost open span of the thread that runs the query.

A span's self time is its duration minus the part of it that its
children cover.  On the thread that runs the query this is wall time,
so time spent blocked (on a socket, on the pool) counts.  On pool
threads it is thread CPU time minus the CPU time of same-thread
children: under the interpreter lock two pool threads each see the whole
wall interval, and wall time would count the same work twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict

NAME, WALL0, WALL1, CPU0, CPU1, PARENT, QID, TID = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.query_id = None      # None while setting up
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._main_tid = None
        self._undo = []

    # --- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_main_thread(self):
        """Mark the calling thread as the one that runs queries."""
        self._main_stack = self._stack()
        self._main_tid = threading.get_ident()

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name, time.perf_counter(), None, time.thread_time(), None,
                parent, self.query_id, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return span

    def _close(self, span):
        span[CPU1] = time.thread_time()
        span[WALL1] = time.perf_counter()
        self._stack().pop()

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    # --- patching ---------------------------------------------------------

    def _install(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(
            wrapper_factory(original)))
        self._undo.append((owner, attr, original))

    def span(self, owner, attr, name, after=None):
        """Replace owner.attr by a wrapper that records a span named name.

        after(tracer, args, kwargs, result) runs once the call returns,
        to record counts taken from the arguments or the result.
        """
        tracer = self

        def factory(fn):
            def traced(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            return traced

        self._install(owner, attr, factory)

    def count(self, owner, attr, key):
        """Replace owner.attr by a wrapper that counts calls under key and
        truthy results under key + '.true', without opening a span."""
        tracer = self
        true_key = key + ".true"

        def factory(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                with tracer._lock:
                    tracer.counts[key] += 1
                    if result:
                        tracer.counts[true_key] += 1
                return result
            return counted

        self._install(owner, attr, factory)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time per span name, split into set-up (query id None) and
        query phases."""
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append(span)
        setup, query = Counter(), Counter()
        for idx, span in enumerate(self.spans):
            kids = children[idx]
            if span[TID] == self._main_tid:
                own = span[WALL1] - span[WALL0] - _covered(
                    span[WALL0], span[WALL1],
                    [(k[WALL0], k[WALL1]) for k in kids])
            else:
                own = span[CPU1] - span[CPU0] - sum(
                    k[CPU1] - k[CPU0] for k in kids if k[TID] == span[TID])
            (setup if span[QID] is None else query)[span[NAME]] += own
        return setup, query

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME], "start": span[WALL0],
                    "end": span[WALL1], "cpu": span[CPU1] - span[CPU0],
                    "parent": span[PARENT], "query": span[QID],
                    "thread": span[TID]}) + "\n")


def _covered(lo, hi, intervals):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
