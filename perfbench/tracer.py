"""Per-layer tracer for the `deadending` package, installed from outside it.

`install()` replaces every public function of the six engine modules, in
every module namespace that binds it, with a wrapper that records a span:
calls and self time (the span's duration minus the child spans it covers).
A function that recurses through its own module global, such as `add` or
`render`, is timed only at its outermost entry; inner calls pass straight
through.  The tracer reads no private table of the engine.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

LAYERS = ("games", "outcomes", "universes", "claims", "notation", "cli")

# Not wrapped.  The accessors index the node table in O(1); a span would cost
# more than the call and its time belongs to the caller.  `build_parser` is
# part of `cli.main`'s own work, as the layer table counts it.
UNWRAPPED = {
    "games.left_options",
    "games.right_options",
    "games.options",
    "games.store_size",
    "games.is_left_end",
    "games.is_right_end",
    "cli.build_parser",
    "cli.entry",
}

# span names whose time is also kept per value of their first argument
KEYED = {"claims.run_claim"}
# span names whose result's length is summed
SIZED = {"universes.generate"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # span name -> [calls, self seconds, {parent span: calls under it}, seconds]
        self.stats: dict[str, list] = {}
        self.keyed_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        stack, clock = self._stack, self.clock
        stat = self.stats.setdefault(name, [0, 0.0, defaultdict(int), 0.0])
        parents = stat[2]
        keyed = self.keyed_s if name in KEYED else None
        sized = self.sizes if name in SIZED else None
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            parents[stack[-1][0] if stack else None] += 1
            active[0] = True
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                active[0] = False
                stat[0] += 1
                stat[1] += duration - frame[2]
                stat[3] += duration
                if stack:
                    stack[-1][2] += duration
                if keyed is not None:
                    keyed[f"{name}:{args[0]}"] += duration
            if sized is not None:
                sized[name] += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"deadending.{m}") for m in LAYERS]
        modules.append(importlib.import_module("deadending"))
        owners = {f"deadending.{m}": m for m in LAYERS}
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                layer = owners.get(value.__module__)
                name = f"{layer}.{value.__name__}"
                if layer is None or name in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def snapshot(self) -> dict:
        """Plain-data view of everything recorded so far."""
        return {
            "calls": {name: st[0] for name, st in self.stats.items() if st[0]},
            "self_s": {name: st[1] for name, st in self.stats.items() if st[0]},
            "total_s": {name: st[3] for name, st in self.stats.items() if st[0]},
            "edges": {
                f"{parent}>{name}": n
                for name, st in self.stats.items()
                for parent, n in st[2].items()
                if parent is not None
            },
            "keyed_s": dict(self.keyed_s),
            "sizes": dict(self.sizes),
        }
