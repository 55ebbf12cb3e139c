"""Span recorder wrapped around the public functions of ``cpmaps``.

``install`` wraps every function named in a layer module's ``__all__``
(plus ``CpMap.from_kraus`` and ``CpMap.from_choi``) and rebinds the wrapper
in every ``cpmaps`` namespace that holds the original, so calls between
modules are recorded too.  Private helpers are not wrapped: their time is
the self time of the public function that calls them.  Spans stay in memory
as ``[name, start, end, parent, tag]`` until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "cp_map", "stinespring", "quasipure", "completion",
          "ae_equiv", "serialize", "cli")


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.tag = None  # label of the benchmark operation being traced
        self._stack: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.tag])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer module of ``cpmaps``."""
    modules = {layer: importlib.import_module(f"cpmaps.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = (obj, recorder.wrap(f"{layer}.{name}", obj))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cpmaps" or modname.startswith("cpmaps.")):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
    cp_map = modules["cp_map"].CpMap
    for name in ("from_kraus", "from_choi"):
        fn = cp_map.__dict__[name].__func__
        setattr(cp_map, name, classmethod(recorder.wrap(f"cp_map.{name}", fn)))


def totals(spans) -> dict:
    """Call counts, inclusive ms and self ms per function; calls and self ms per layer.

    Inclusive time counts only the outermost span of a name, so a function
    reached again below itself is not counted twice.  A layer's self time is
    its spans' time minus the time covered by their wrapped children.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".")[0]
        duration = end - start
        self_ms = (duration - child_time[idx]) * 1e3
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += self_ms
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += self_ms
        if _outermost(spans, parent, lambda n: n == name):
            out[f"{name}.ms"] += duration * 1e3
    return dict(out)


def _outermost(spans, parent: int, match) -> bool:
    while parent >= 0 and not match(spans[parent][0]):
        parent = spans[parent][3]
    return parent < 0


def outermost_ms(spans, match) -> float:
    """Inclusive ms of the spans whose name ``match``es and no ancestor does."""
    return sum((end - start) * 1e3 for name, start, end, parent, _ in spans
               if match(name) and _outermost(spans, parent, match))


def durations_ms(spans, name: str, tag_prefix: str) -> list:
    """Durations of the spans called ``name`` inside operations tagged ``tag_prefix*``."""
    return [(end - start) * 1e3 for n, start, end, _, tag in spans
            if n == name and tag is not None and tag.startswith(tag_prefix)]
