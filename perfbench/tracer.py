"""In-memory spans around calls into the program's layers.

A hook rebinds one function name in one module namespace to a wrapper
that records a span: name, start, end, parent span and item id. Spans are
kept in flat columns (``array.array``), because the map step alone yields
about 150k spans per equilibrium solve, and are summarised or written out
only when the run ends. A hooked name that no longer exists raises at
install time, so a renamed layer never reads as a layer doing no work.
"""

from __future__ import annotations

import time
from array import array
from importlib import import_module

NO_PARENT = -1   # parent id of a span opened outside any other span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._item_id = -1
        self._hooks: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    def _code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.code.append(self._code_of(name))
        self.parent.append(self._stack[-1])
        self.item.append(self._item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item_id: int) -> int:
        self._item_id = item_id
        return self.open("item")

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def hook(self, module_name: str, attr: str, span: str, after=None) -> None:
        """Rebind ``module.attr`` to a span-recording wrapper.

        ``after(tracer, result)`` runs once the span is closed, so the work
        it does (for example a stat of a written file) is not charged to
        the layer.
        """
        module = import_module(module_name)
        if not hasattr(module, attr):
            raise LookupError(
                f"trace hook {module_name}.{attr} no longer exists; "
                "update the benchmark's hook table")
        original = getattr(module, attr)
        self._hooks.append((module, attr, original))
        setattr(module, attr, self._make_wrapper(original, span, after))

    def _make_wrapper(self, fn, span: str, after):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def unhook(self) -> None:
        for module, attr, original in reversed(self._hooks):
            setattr(module, attr, original)
        self._hooks.clear()

    def columns(self):
        """Spans as numpy columns: names list and (code, parent, item,
        start, end, duration, self time)."""
        import numpy as np
        code = np.frombuffer(self.code, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        item = np.frombuffer(self.item, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return self.names, code, parent, item, start, end, dur, dur - child

    def save(self, path) -> None:
        import numpy as np
        names, code, parent, item, start, end, _, _ = self.columns()
        np.savez_compressed(path, names=np.array(names), code=code,
                            parent=parent, item=item, start=start, end=end)
