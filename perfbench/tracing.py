"""In-memory spans and counters recorded around calls into ergharvest.

Spans come from outside the package: ``Tracer.install`` replaces a module
attribute at the place where the caller looks it up (``ergharvest.cli.
solve_threshold``, ``ergharvest.shooting.classify_boundary``,
``ergharvest.ivp.integrate``, ...) with a wrapper that opens a span, and puts
the original back when the block ends.  No file of the package changes.

A span is (id, name, start, end, parent id, op id).  A span's self time is
its duration minus the time its child spans cover.  The right-hand side
handed to ``ivp.integrate`` runs about 136k times per solve, too often for a
span each, so its calls are counted and timed in aggregate and that time is
subtracted from the enclosing ``ivp.integrate`` span as child time.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# Cash-Karp: one rhs call at the start, five per attempted step (k2..k6)
# and one per accepted step (the derivative at the new node).
RHS_CALLS_PER_ATTEMPT = 5


class Tracer:
    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, op]
        self.extra_child = {}    # span id -> aggregated child seconds
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> n
        self._stack = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts[self.op_id][name] += value

    def wrap(self, fn, name, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        return traced

    def traced_integrate(self, integrate):
        """Wrapper for ``ivp.integrate`` that counts steps and rhs calls."""
        def traced(f, *args, **kwargs):
            calls = 0
            rhs_s = 0.0

            def rhs(x, y):
                nonlocal calls, rhs_s
                t0 = time.perf_counter()
                try:
                    return f(x, y)
                finally:
                    rhs_s += time.perf_counter() - t0
                    calls += 1

            with self.span("ivp.integrate") as sid:
                try:
                    res = integrate(rhs, *args, **kwargs)
                finally:
                    self.extra_child[sid] = rhs_s
                    self.count("ivp.integrate_calls")
                    self.count("ivp.rhs_evals", calls)
                    self.count("ivp.rhs_ms", 1000.0 * rhs_s)
            # A raising integration returns no nodes, so only its rhs calls
            # are counted.
            accepted = len(res.xs) - 1
            attempts = (calls - 1 - accepted) // RHS_CALLS_PER_ATTEMPT
            self.count("ivp.accepted_steps", accepted)
            self.count("ivp.rejected_steps", attempts - accepted)
            return res
        return traced

    @contextmanager
    def install(self, patches):
        """Apply (owner, attribute, replacement) patches for the block."""
        saved = []
        try:
            for owner, attr, replacement in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self, op_ids):
        """Per-op mean of total and self milliseconds, by span name."""
        ops = set(op_ids)
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        self_ms = defaultdict(float)
        for sid, name, start, end, _, op in self.spans:
            if op not in ops:
                continue
            dur = end - start
            total[name] += 1000.0 * dur
            self_ms[name] += 1000.0 * (dur - child[sid]
                                       - self.extra_child.get(sid, 0.0))
        n = max(len(ops), 1)
        return ({k: v / n for k, v in total.items()},
                {k: v / n for k, v in self_ms.items()})

    def op_counts(self, op_ids):
        """Per-op mean of every counter over the given ops."""
        total = defaultdict(float)
        for op in op_ids:
            for name, value in self.counts[op].items():
                total[name] += value
        n = max(len(op_ids), 1)
        return {k: v / n for k, v in total.items()}

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "rhs_child_s": self.extra_child}, fh)
