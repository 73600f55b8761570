"""Benchmark-owned spans, placed around the program from outside.

A :class:`Recorder` wraps public callables named in
``surface.SPAN_TABLE`` (by replacing the attribute for the length of a
traced region) and keeps a stack of open spans.  A span's *self time* is
its duration minus the time its child spans cover; per layer, self
times partition the wall time of the root span, so they add up to it.

Only aggregates are kept — per (layer, name): calls, self ns, inclusive
ns, bytes; per (parent, child) pair: calls and inclusive ns — because a
sync unit opens about half a million spans and a record for each would cost
more than the work it measures.  Calls made on another thread (the
analyzer's chunk-prefetch thread) are timed but kept out of the stack
and the self-time sums, which describe the main thread's wall time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

import surface


#: patch marker: the attribute shadows a class attribute on an instance
_SHADOW = object()


class Cell:
    """Aggregate of every span with one (layer, name)."""

    __slots__ = (
        "index", "layer", "name", "calls", "self_ns", "total_ns", "bytes",
        "off_calls", "off_ns",
    )

    def __init__(self, index: int, layer: str, name: str) -> None:
        self.index = index
        self.layer = layer
        self.name = name
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.bytes = 0
        self.off_calls = 0  # calls made off the main thread
        self.off_ns = 0


class Recorder:
    """Span stack + aggregates + the attribute patches that feed them."""

    def __init__(self) -> None:
        self.cells: list[Cell] = []
        self.by_key: dict[tuple[str, str], Cell] = {}
        #: (parent cell index, child cell index) -> [calls, inclusive ns]
        self.edges: dict[tuple[int, int], list[int]] = {}
        self.stack: list[list[int]] = []  # frames: [child_ns, cell index]
        self.unresolved: list[str] = []
        self.main_thread = threading.get_ident()
        self.patches: list[tuple[Any, str, Any]] = []

    def cell(self, layer: str, name: str) -> Cell:
        key = (layer, name)
        cell = self.by_key.get(key)
        if cell is None:
            cell = self.by_key[key] = Cell(len(self.cells), layer, name)
            self.cells.append(cell)
        return cell

    # -- span accounting ------------------------------------------------

    def enter(self, cell: Cell) -> list[int]:
        frame = [0, cell.index]
        self.stack.append(frame)
        return frame

    def exit(self, cell: Cell, frame: list[int], dur: int, count: int = 1) -> None:
        stack = self.stack
        stack.pop()
        cell.calls += count
        cell.self_ns += dur - frame[0]
        cell.total_ns += dur
        if stack:
            parent = stack[-1]
            parent[0] += dur
            key = (parent[1], cell.index)
            edge = self.edges.get(key)
            if edge is None:
                self.edges[key] = [count, dur]
            else:
                edge[0] += count
                edge[1] += dur

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A span the harness opens itself (root spans, direct calls)."""
        cell = self.cell(layer, name)
        frame = self.enter(cell)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.exit(cell, frame, perf_counter_ns() - start)

    # -- wrappers -------------------------------------------------------

    def wrap_call(self, fn: Callable, cell: Cell, kind: str = "call") -> Callable:
        """Time each call of ``fn`` as one span.

        The span accounting is written out inside the wrapper rather than
        shared with :meth:`exit`: a sync unit opens ~half a million spans
        and every extra Python call per span shows up as trace overhead.
        ``kind="bytes"`` also sums ``len(result)``; ``kind="thread"`` is
        for callables other threads may call too.
        """
        stack, edges, clock, index = self.stack, self.edges, perf_counter_ns, cell.index
        sized = kind == "bytes"

        def wrapper(*args, **kwargs):
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    cell.bytes += len(result)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                cell.calls += 1
                cell.self_ns += dur - frame[0]
                cell.total_ns += dur
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    key = (parent[1], index)
                    edge = edges.get(key)
                    if edge is None:
                        edges[key] = [1, dur]
                    else:
                        edge[0] += 1
                        edge[1] += dur

        if kind != "thread":
            wrapper.__wrapped__ = fn
            return wrapper

        main, ident = self.main_thread, threading.get_ident

        def threaded(*args, **kwargs):
            if ident() == main:
                return wrapper(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell.off_ns += clock() - start
                cell.off_calls += 1

        threaded.__wrapped__ = fn
        return threaded

    def wrap_iter(self, fn: Callable, cell: Cell) -> Callable:
        """Time an iterator-returning callable across its iteration.

        One span per ``next()`` (the consumer's code between two items is
        not the iterator's time), counted as one call per iterator.  The
        inner iterator is closed as soon as the consumer drops this one,
        so side effects in its ``finally`` (the tracing store emits the
        SCAN record there) keep their place in the op order.
        """
        enter, exit_, clock = self.enter, self.exit, perf_counter_ns

        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            count = 1
            try:
                while True:
                    frame = enter(cell)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_(cell, frame, clock() - start, count)
                        count = 0
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    frame = enter(cell)
                    start = clock()
                    try:
                        close()
                    finally:
                        exit_(cell, frame, clock() - start, 0)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, fn: Callable, cell: Cell, kind: str) -> Callable:
        if kind == "iter":
            return self.wrap_iter(fn, cell)
        return self.wrap_call(fn, cell, kind)

    # -- patching -------------------------------------------------------

    def install(self, table=surface.SPAN_TABLE) -> None:
        """Replace every resolvable table entry with its wrapper."""
        for layer, spec, kind in table:
            try:
                owner, leaf = surface.resolve(spec)
            except (ImportError, AttributeError):
                self.unresolved.append(spec)
                continue
            # Read through __dict__ so classmethod/staticmethod objects
            # are seen as such, not as the functions they bind.
            raw = vars(owner).get(leaf)
            cell = self.cell(layer, spec.partition(":")[2])
            if isinstance(raw, (classmethod, staticmethod)):
                patched: Any = type(raw)(self.wrap(raw.__func__, cell, kind))
            elif callable(raw):
                patched = self.wrap(raw, cell, kind)
            else:  # inherited, a property, or data: not a callable defined here
                self.unresolved.append(spec)
                continue
            setattr(owner, leaf, patched)
            self.patches.append((owner, leaf, raw))

    def wrap_store(self, store: Any, layer: str) -> None:
        """Open a span of ``layer`` around every call into one store
        object (a backend, or the timing proxy in front of one), by
        shadowing its methods with instance attributes until uninstall."""
        for name in ("get", "get_or_none", "put", "delete", "has", "scan"):
            kind = "iter" if name == "scan" else "call"
            wrapped = self.wrap(getattr(store, name), self.cell(layer, name), kind)
            setattr(store, name, wrapped)
            self.patches.append((store, name, _SHADOW))

    def uninstall(self) -> None:
        while self.patches:
            owner, leaf, raw = self.patches.pop()
            if raw is _SHADOW:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, raw)

    @contextmanager
    def installed(self, table=surface.SPAN_TABLE) -> Iterator["Recorder"]:
        self.install(table)
        try:
            yield self
        finally:
            self.uninstall()

    # -- read-out -------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """layer -> (self seconds, calls) on the main thread."""
        totals = {layer: [0, 0] for layer in surface.LAYERS}
        for cell in self.cells:
            entry = totals.setdefault(cell.layer, [0, 0])
            entry[0] += cell.self_ns
            entry[1] += cell.calls
        return {layer: (ns / 1e9, calls) for layer, (ns, calls) in totals.items()}

    def inclusive_s(self, layer: str, *names: str, off_thread: bool = False) -> float:
        """Inclusive seconds of the named cells of one layer (every cell
        of the layer when no name is given)."""
        total = 0
        for cell in self.cells:
            if cell.layer == layer and (not names or cell.name in names):
                total += cell.total_ns + (cell.off_ns if off_thread else 0)
        return total / 1e9

    def calls(self, layer: str, *names: str) -> int:
        return sum(
            cell.calls + cell.off_calls
            for cell in self.cells
            if cell.layer == layer and (not names or cell.name in names)
        )

    def edge_calls(self, parent_layer: str, child_layer: str, *child_names: str) -> int:
        """Calls of ``child_layer`` spans opened directly under a span of
        ``parent_layer``."""
        total = 0
        for (parent, child), (calls, _) in self.edges.items():
            child_cell = self.cells[child]
            if (
                self.cells[parent].layer == parent_layer
                and child_cell.layer == child_layer
                and (not child_names or child_cell.name in child_names)
            ):
                total += calls
        return total

    def table(self) -> dict:
        """The whole aggregate, for the result file."""
        return {
            "cells": [
                {
                    "layer": c.layer, "name": c.name, "calls": c.calls,
                    "self_s": c.self_ns / 1e9, "total_s": c.total_ns / 1e9,
                    "bytes": c.bytes, "off_thread_calls": c.off_calls,
                    "off_thread_s": c.off_ns / 1e9,
                }
                for c in self.cells
            ],
            "edges": [
                {
                    "parent": f"{self.cells[p].layer}:{self.cells[p].name}",
                    "child": f"{self.cells[c].layer}:{self.cells[c].name}",
                    "calls": calls, "total_s": ns / 1e9,
                }
                for (p, c), (calls, ns) in sorted(self.edges.items())
            ],
            "unresolved": list(self.unresolved),
        }
