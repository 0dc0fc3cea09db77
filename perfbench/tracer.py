"""Span tracer for the traced run, installed from outside the program.

install() wraps every public function of every diamondflow module, found by
introspection, and puts the wrapper wherever the package looks the name up:
the defining module, each module that imported the name, and module-level
dicts such as a dispatch table.  Each call records a span (id, parent, op,
name, start, end) in memory; a layer's self time is the duration of its
spans minus that of their child spans.  A module or function that a later
version drops is simply never wrapped, and its layer reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

# Spans kept for the trace file; later spans are still counted and timed.
MAX_SPANS = 100_000

_DISPATCH_PREFIX = "cli.cmd_"


def _first_array_size(result) -> int:
    if isinstance(result, tuple):
        for item in result:
            if hasattr(item, "ndim") and item.ndim > 0:
                return int(item.size)
    return 0


def _counter(layer: str, fn, counts: dict):
    """Work counted at this layer's boundary, or None."""
    if layer == "limits":
        def count(args, kwargs, result):
            counts["limits.samples"] += len(getattr(result, "t_values", ()))
        return count
    if layer == "figures":
        def count(args, kwargs, result):
            if isinstance(result, str):
                # One comma per "x,y" vertex; each rgb(r,g,b) fill adds two.
                counts["figures.vertices"] += result.count(",") - 2 * result.count("rgb(")
        return count
    if layer == "kernels":
        params = list(inspect.signature(fn).parameters)
        pos = params.index("n_steps") if "n_steps" in params else None

        def count(args, kwargs, result):
            counts["kernels.elements"] += _first_array_size(result)
            if pos is not None:
                steps = kwargs["n_steps"] if "n_steps" in kwargs else (
                    args[pos] if len(args) > pos else 0)
                counts["kernels.rk4_steps"] += int(steps)
        return count
    return None


class Tracer:
    def __init__(self):
        self.names = ["bench.op"]
        self.layers = [None]
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.op = -1
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = {"limits.samples": 0, "figures.vertices": 0,
                       "kernels.elements": 0, "kernels.rk4_steps": 0}
        self.cli = {"parse_s": 0.0, "format_s": 0.0, "write_s": 0.0}

    # ------------------------------------------------------------ spans

    def _enter(self, idx: int) -> list:
        self.next_id += 1
        # [name index, span id, start, child time, dispatch (start, end, child before)]
        frame = [idx, self.next_id, 0.0, 0.0, None]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        idx, sid, start, child, dispatch = frame
        dur = end - start
        own = dur - child
        parent = self.stack[-1] if self.stack else None
        name = self.names[idx]
        if parent is not None:
            if (name.startswith(_DISPATCH_PREFIX)
                    and self.names[parent[0]] == "cli.main"):
                parent[4] = (start, end, parent[3])
            parent[3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent[1] if parent else 0, self.op, idx,
                               start, end))
        else:
            self.dropped += 1
        layer = self.layers[idx]
        if layer is None:
            return
        self.self_s[layer] = self.self_s.get(layer, 0.0) + own
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if name.startswith(_DISPATCH_PREFIX):
            self.cli["format_s"] += own
        elif name == "cli.main":
            if dispatch is None:
                self.cli["parse_s"] += own
            else:
                d_start, d_end, child_before = dispatch
                child_after = child - child_before - (d_end - d_start)
                self.cli["parse_s"] += d_start - start - child_before
                self.cli["write_s"] += end - d_end - child_after

    def begin_op(self, i: int) -> list:
        self.op = i
        return self._enter(0)

    def end_op(self, frame: list) -> None:
        self._exit(frame)

    # --------------------------------------------------------- wrapping

    def _wrap(self, fn, idx: int, counter):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every module of package."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1].lstrip("_")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                idx = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.layers.append(layer)
                wrappers[id(obj)] = (obj, self._wrap(obj, idx,
                                                     _counter(layer, obj, self.counts)))

        def patched(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                wrapper = patched(obj)
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        wrapper = patched(value)
                        if wrapper is not None:
                            obj[key] = wrapper

    # ----------------------------------------------------------- output

    def totals(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": self.counts, "cli": self.cli}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans, "dropped": self.dropped},
                      fh, separators=(",", ":"))
