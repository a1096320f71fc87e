"""Span and counter recording for the traced benchmark run.

Public functions of the program are wrapped by swapping attributes on their
modules or classes, inside the benchmark process only; ``Tracer.uninstall``
puts the originals back.  Two kinds of wrapper exist:

* a *span* records one entry per call: name, start, end, parent span, op id,
  thread and self time;
* a *hot counter* (for functions called millions of times, such as the
  scalar field operations) aggregates calls, total time and self time per
  name instead of recording each call.

Self time is a call's duration minus the durations of the traced calls it
made on the same thread.  Calls made on worker threads are recorded with the
span that was open on the main thread as their parent, but their time is not
subtracted from it, because the main thread spends that interval waiting.

Spans are kept in memory and written out by ``write_jsonl`` at the end.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("stack", "hot")

    def __init__(self):
        self.stack: list[list] = []  # frames: [span id, child seconds]
        self.hot: dict[str, list] = {}  # name -> [calls, total s, self s]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._states: list[tuple[int, _ThreadState]] = []
        self._main = threading.get_ident()
        self._main_state = self._state()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            self._states.append((threading.get_ident(), st))
            return st

    def _next_id(self) -> int:
        with self._id_lock:
            self._ids += 1
            return self._ids

    # -- wrapping ---------------------------------------------------------------

    def span(self, owner, attr: str, name, observe=None) -> None:
        """Record one span per call of ``owner.attr``.

        ``name`` is a string or a function of (args, kwargs) giving one.
        ``observe(args, kwargs, result)`` runs after the call, outside its
        span, to derive counts from the arguments and the result.  An
        attribute the program no longer has is skipped.
        """
        tracer = self
        name_of = name if callable(name) else (lambda _a, _k, _n=name: _n)

        def make(fn):
            def traced(*args, **kwargs):
                st = tracer._state()
                stack = st.stack
                if stack:
                    parent = stack[-1][0]
                else:
                    main_stack = tracer._main_state.stack
                    parent = main_stack[-1][0] if main_stack else None
                sid = tracer._next_id()
                frame = [sid, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dur = t1 - t0
                    if stack:
                        stack[-1][1] += dur
                    tracer.spans.append(
                        (sid, name_of(args, kwargs), t0, t1, parent, tracer.op,
                         threading.get_ident(), dur - frame[1])
                    )
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return traced

        self._patch(owner, attr, make)

    def hot(self, owner, attr: str, name) -> None:
        """Aggregate calls, total and self time of ``owner.attr`` by name;
        ``name`` is a string or a function of the positional arguments."""
        tracer = self
        name_of = name if callable(name) else (lambda _a, _n=name: _n)

        def make(fn):
            def counted(*args):
                st = tracer._state()
                stack = st.stack
                frame = [0, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    key = name_of(args)
                    rec = st.hot.get(key)
                    if rec is None:
                        rec = st.hot[key] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

            return counted

        self._patch(owner, attr, make)

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per name: calls, total seconds, and self seconds on the main thread."""
        out: dict[str, dict] = {}

        def add(name, calls, total, self_s, main):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += total
            if main:
                rec["self_s"] += self_s

        for _sid, name, t0, t1, _parent, _op, thread, self_s in self.spans:
            add(name, 1, t1 - t0, self_s, thread == self._main)
        for thread, st in self._states:
            for name, (calls, total, self_s) in st.hot.items():
                add(name, calls, total, self_s, thread == self._main)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op, thread, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                    "op": op, "main_thread": thread == self._main, "self_s": self_s,
                }) + "\n")
            for thread, st in self._states:
                for name, (calls, total, self_s) in sorted(st.hot.items()):
                    fh.write(json.dumps({
                        "counter": name, "calls": calls, "total_s": total, "self_s": self_s,
                        "main_thread": thread == self._main,
                    }) + "\n")
