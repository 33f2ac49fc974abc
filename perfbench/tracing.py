"""Spans around calls into each layer's public functions.

``install()`` wraps the callables listed in :mod:`perfbench.layers` — in
this process for the in-process workload, in the program's process (via
``traced_main.py``) for served ones; no file under ``src/`` is edited.
A span is (name, start, end, parent, size); spans are kept in memory,
per thread, and written out once at exit.  The root ancestor of a span
identifies its operation: every span of one request shares it.  A
layer's self time is its span's duration minus what its child spans
cover.

Clocks: ``perf_counter_ns`` is CLOCK_MONOTONIC on Linux, one clock for
every process of the machine, so the benchmark can cut the program's
spans at its own phase boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time

import numpy as np

from perfbench.layers import SPANS


class Recorder:
    """In-memory span store; one buffer per thread, merged on dump."""

    def __init__(self) -> None:
        self.names: list = []
        self.unresolved: list = []
        self._local = threading.local()
        self._buffers: list = []
        self._lock = threading.Lock()

    def _buffer(self):
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            # name, start, end, parent, size — and the open-span stack
            buffer = ([], [], [], [], [], [])
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def wrap(self, function, name: str, size_arg):
        """``function`` with a span recorded around every call."""
        name_index = len(self.names)
        self.names.append(name)
        buffer_of = self._buffer
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            names, starts, ends, parents, sizes, stack = buffer_of()
            index = len(names)
            names.append(name_index)
            parents.append(stack[-1] if stack else -1)
            sizes.append(len(args[size_arg]) if size_arg is not None else 0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = function.__doc__
        return traced

    def columns(self) -> dict:
        """Every finished span as numpy columns (parents made global)."""
        name, start, end, parent, size = [], [], [], [], []
        for names, starts, ends, parents, sizes, _ in self._buffers:
            offset = len(name)
            count = len(starts)  # a span mid-entry may lack its start
            name += names[:count]
            start += starts[:count]
            end += ends[:count]
            parent += [p + offset if p >= 0 else -1 for p in parents[:count]]
            size += sizes[:count]
        return {
            "name": np.asarray(name, dtype=np.int32),
            "start": np.asarray(start, dtype=np.int64),
            "end": np.asarray(end, dtype=np.int64),
            "parent": np.asarray(parent, dtype=np.int64),
            "size": np.asarray(size, dtype=np.int64),
            "names": np.asarray(self.names),
            "unresolved": np.asarray(self.unresolved, dtype=str),
        }

    def dump(self, path) -> None:
        np.savez(path, **self.columns())


def _resolve(target: str):
    """``(holder, attribute, callable)`` for a ``module:dotted`` target."""
    module_name, _, dotted = target.partition(":")
    holder = importlib.import_module(module_name)
    *path, attribute = dotted.split(".")
    for part in path:
        holder = getattr(holder, part)
    function = holder.__dict__[attribute] if inspect.isclass(holder) else getattr(holder, attribute)
    if not callable(function) or inspect.iscoroutinefunction(function):
        raise TypeError(f"{target} is not a synchronous callable")
    return holder, attribute, function


def install(recorder: Recorder) -> None:
    """Wrap every resolvable target of :data:`perfbench.layers.SPANS`.

    A module-level function is rebound in every loaded ``repro`` module
    that imported it by name, since ``from x import f`` copies the
    reference.  Import the program's packages before calling this.
    """
    for name, target, size_arg in SPANS:
        try:
            holder, attribute, function = _resolve(target)
        except (ImportError, AttributeError, KeyError, TypeError):
            recorder.unresolved.append(name)
            continue
        traced = recorder.wrap(function, name, size_arg)
        setattr(holder, attribute, traced)
        if inspect.ismodule(holder):
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and module is not None:
                    for key, value in list(vars(module).items()):
                        if value is function:
                            setattr(module, key, traced)


def import_program() -> None:
    """Import every package of the program, so install() sees them all."""
    for package in (
        "repro",
        "repro.engine",
        "repro.live",
        "repro.server",
        "repro.cluster",
        "repro.io",
        "repro.__main__",
    ):
        importlib.import_module(package)


# -- analysis -----------------------------------------------------------------


class Spans:
    """Loaded spans with durations, self times and operation ids."""

    def __init__(self, columns: dict) -> None:
        self.names = [str(n) for n in columns["names"]]
        self.unresolved = [str(n) for n in columns["unresolved"]]
        finished = columns["end"] > 0
        self.name = columns["name"]
        self.start = columns["start"]
        self.parent = columns["parent"]
        self.size = columns["size"]
        self.ms = np.where(finished, (columns["end"] - columns["start"]) / 1e6, 0.0)
        covered = np.zeros(len(self.ms))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.ms[has_parent])
        self.self_ms = self.ms - covered

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path, allow_pickle=False) as archive:
            return cls({key: archive[key] for key in archive.files})

    def select(self, name: str, since_ns: int = 0, until_ns: int = None) -> np.ndarray:
        """Indices of the spans called ``name`` started in the window."""
        if name not in self.names:
            return np.empty(0, dtype=int)
        mask = (self.name == self.names.index(name)) & (self.start >= since_ns)
        if until_ns is not None:
            mask &= self.start < until_ns
        return np.flatnonzero(mask)

    def layers_seen(self) -> set:
        return {self.names[i].split(".")[0] for i in np.unique(self.name)}

    # -- summaries (None when no span matched: the metric is not measured) --

    def p50_ms(self, names, since_ns: int = 0, until_ns: int = None):
        """Median duration of the spans called any of ``names``."""
        index = self._select_many(names, since_ns, until_ns)
        return float(np.median(self.ms[index])) if len(index) else None

    def total_s(self, names, since_ns: int = 0, until_ns: int = None):
        """Summed duration, seconds."""
        index = self._select_many(names, since_ns, until_ns)
        return float(self.ms[index].sum()) / 1000.0 if len(index) else None

    def self_ms_per_call(self, name: str, since_ns: int = 0):
        index = self.select(name, since_ns)
        return float(self.self_ms[index].mean()) if len(index) else None

    def ns_per_item(self, name: str, since_ns: int = 0, within=None):
        """Span time per recorded size unit (point tested, id packed)."""
        index = self.select(name, since_ns)
        if within is not None:
            index = index[within[index]]
        items = self.size[index].sum()
        return float(self.ms[index].sum() * 1e6 / items) if items else None

    def _select_many(self, names, since_ns, until_ns) -> np.ndarray:
        if isinstance(names, str):
            names = (names,)
        return np.concatenate([self.select(n, since_ns, until_ns) for n in names])
