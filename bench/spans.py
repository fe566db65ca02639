"""Layer spans recorded from outside the program, by rebinding its functions.

`Tracer.install` replaces each public function of the six `gogz` layer
modules, and the public methods of `Engine`, by a wrapper at every module
binding that holds it (``gogz.verdicts.enumerate_complete_paths`` and
``gogz.paths.enumerate_complete_paths`` are two bindings of one function).
`Tracer.uninstall` puts the originals back.  Calls through private names,
such as the engine's use of ``words._coset_canonical_cached``, are not
wrapped; their time is self time of the nearest wrapped caller.

Each call becomes a span with a name, start, end, parent span and op id.
A generator's span covers one ``next()``.  Self time is a span's duration
minus that of its direct children.  Spans stay in memory, up to a cap, and
are written out by the caller once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("words", "graphs", "paths", "engine", "verdicts", "cli")

# Letter-level helpers run once per letter; wrapping them would measure the
# wrappers, not the layer.
UNTRACED = {
    "words": {"reduce_letters", "invert_letters", "letter_key", "letters_sort_key", "cyclic_split", "identity"},
    "graphs": {"side_name"},
}
TRACED_CLASSES = {"engine": ("Engine",)}

SPAN_CAP = 20_000


class Tracer:
    """Spans and per-name totals for the layer calls of one process."""

    def __init__(self):
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.inclusive: List[float] = []  # outermost activations only
        self.self_time: List[float] = []
        self.yielded: List[int] = []
        self.active: List[int] = []
        self.stack: List[list] = []
        self.spans: List[list] = []  # the first SPAN_CAP spans
        self.op = -1
        self.origin = time.perf_counter()
        self.complete_chains = 0
        self.complete_checks = 0
        self.max_power_bits = 0
        self._bindings: List[tuple] = []
        self._installed = False

    # ------------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.yielded, self.active):
                column.append(0)
            for column in (self.inclusive, self.self_time):
                column.append(0.0)
        return self.ids[name]

    def begin(self, nid: int) -> list:
        now = time.perf_counter()
        outermost = self.active[nid] == 0
        self.active[nid] += 1
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([nid, now - self.origin, None, parent, self.op])
        frame = [nid, now, 0.0, index, outermost]
        self.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = time.perf_counter()
        self.stack.pop()
        nid, start, children, index, outermost = frame
        duration = now - start
        self.calls[nid] += 1
        self.active[nid] -= 1
        self.self_time[nid] += duration - children
        if outermost:
            self.inclusive[nid] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = now - self.origin

    # ---------------------------------------------------------- wrappers

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        begin, end = self.begin, self.end
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = begin(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            end(frame)
                        tracer.yielded[nid] += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        before = {"engine.power": self._note_power, "paths.check_conjugacy_path": self._note_check}.get(name)
        after = {"paths.enumerate_complete_paths": self._note_chains}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame)
            if after is not None:
                after(result)
            return result

        return traced

    def _note_power(self, args, kwargs) -> None:
        k = kwargs["k"] if "k" in kwargs else args[2]
        self.max_power_bits = max(self.max_power_bits, abs(k).bit_length())

    def _note_check(self, args, kwargs) -> None:
        if self.active[self.name_id("paths.enumerate_complete_paths")]:
            self.complete_checks += 1

    def _note_chains(self, chains) -> None:
        self.complete_chains += len(chains)

    def _discover(self) -> None:
        originals: Dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gogz.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or attr in UNTRACED.get(layer, ()):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[obj] = self.wrap(obj, f"{layer}.{attr}")
            for class_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, class_name, None)
                for attr, obj in vars(cls).items() if cls is not None else ():
                    if not inspect.isfunction(obj):
                        continue
                    if attr == "__init__":
                        self._bindings.append((cls, attr, obj, self.wrap(obj, f"{layer}.build")))
                    elif not attr.startswith("_"):
                        self._bindings.append((cls, attr, obj, self.wrap(obj, f"{layer}.{attr}")))
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "gogz" or module_name.startswith("gogz.")):
                continue
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in originals:
                    self._bindings.append((module, attr, obj, originals[obj]))

    def install(self) -> None:
        if self._installed:
            return
        if not self._bindings:
            self._discover()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)
        self._installed = False

    # ------------------------------------------------------------ output

    def totals(self) -> dict:
        """Per-name totals and counters, summable across processes."""
        return {
            "names": {
                name: {
                    "calls": self.calls[nid],
                    "s": self.inclusive[nid],
                    "self_s": self.self_time[nid],
                    "yielded": self.yielded[nid],
                }
                for name, nid in self.ids.items()
            },
            "complete_chains": self.complete_chains,
            "complete_checks": self.complete_checks,
            "max_power_bits": self.max_power_bits,
            "spans_dropped": sum(self.calls) - len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for nid, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": self.names[nid], "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )


def merge_totals(parts: List[dict], scales: List[float]) -> dict:
    """Sum `Tracer.totals` from several processes, times multiplied by ``scales``."""
    names: Dict[str, Dict[str, float]] = {}
    out = {"names": names, "complete_chains": 0, "complete_checks": 0, "max_power_bits": 0, "spans_dropped": 0}
    for part, scale in zip(parts, scales):
        for name, row in part["names"].items():
            into = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "yielded": 0})
            for key, value in row.items():
                into[key] += value * scale if key in ("s", "self_s") else value
        for key in ("complete_chains", "complete_checks", "spans_dropped"):
            out[key] += part[key]
        out["max_power_bits"] = max(out["max_power_bits"], part["max_power_bits"])
    return out


def layer_of(name: str) -> Optional[str]:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None
