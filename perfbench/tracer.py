"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of qcollide from outside the package.
A function bound into other modules with ``from .x import y`` is replaced
at every binding, or calls through the other name would escape the trace.
Each thread keeps its own parent stack; tasks submitted to a
``ThreadPoolExecutor`` inherit the submitting thread's open span, so the
``converge`` sweep workers nest under ``run_converge``.  Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and a dotted ``attr`` inside it."""

    name: str
    module: str
    attr: str
    span: bool = True  # False: count calls only, no span
    work: Callable[[inspect.BoundArguments], dict] | None = None


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int


def _merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, so that
    overlapping children (pool workers) are not subtracted twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _merged_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # --- bookkeeping -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, table: dict, key: str, value) -> None:
        with self._lock:
            table[key] = table.get(key, 0) + value

    def take(self) -> tuple[list[Span], dict[str, int], dict[str, float]]:
        """Return and reset what was recorded since the last call."""
        with self._lock:
            out = (self.spans, self.counts, self.work)
            self.spans, self.counts, self.work = [], {}, {}
        return out

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, target: Target, fn):
        name = target.name
        signature = None
        if target.work is not None:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                signature = None

        def record_work(args, kwargs):
            if signature is None:
                return
            try:
                amounts = target.work(signature.bind(*args, **kwargs))
            except (TypeError, AttributeError, ValueError, KeyError, ZeroDivisionError):
                return  # the signature changed: lose the count, not the run
            for key, value in amounts.items():
                self._add(self.work, key, value)

        if not target.span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._add(self.counts, name, 1)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record_work(args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, threading.get_ident()))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        packages = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "qcollide" or mod_name.startswith("qcollide."))
        ]
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            self._patch(owner, leaf, wrapper)
            if path:  # a method: the patch on the class reaches every caller
                continue
            for mod in packages:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        self._patch_executor()

    def _patch_executor(self) -> None:
        pool_cls = concurrent.futures.ThreadPoolExecutor
        submit = pool_cls.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            inherited = self._stack()[-1:]

            def run(*a, **kw):
                saved = self._stack()[:]
                self._local.stack = list(inherited)
                try:
                    return fn(*a, **kw)
                finally:
                    self._local.stack = saved

            return submit(pool, run, *args, **kwargs)

        self._patch(pool_cls, "submit", traced_submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- output ------------------------------------------------------------

    @staticmethod
    def write_spans(path, spans: list[Span]) -> None:
        with open(path, "w") as fh:
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )
