"""Per-layer spans recorded from outside the program.

Each wrapper is attached to the name where its caller looks the function
up: ``explorer`` calls ``purge_expired`` through its own module globals, so
that is the name that gets wrapped, and the same function reached through
``scheduler`` gets a wrapper of its own. A layer's self time is its span
minus the spans of the layers it called. A name that the program no longer
has is reported as an absent layer.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, owner attribute or None, function name, layer, record len(result))
# The owner is a class inside the module when the function is a method.
HOOKS = [
    ("parser", None, "load_model", "parser.load_model", False),
    ("explorer", None, "explore", "explorer.explore", False),
    ("explorer", None, "state_key", "explorer.state_key", True),
    ("explorer", None, "purge_expired", "scheduler.purge_select", False),
    ("explorer", None, "min_tt_candidates", "scheduler.purge_select", False),
    ("explorer", None, "execute_selected", "scheduler.execute_selected", False),
    ("explorer", "ExploreResult", "to_json", "explorer.to_json", True),
    ("model", "SystemState", "clone", "model.clone", False),
    ("scheduler", None, "run", "scheduler.run", False),
    ("scheduler", None, "purge_expired", "scheduler.purge_select", False),
    ("scheduler", None, "min_tt_candidates", "scheduler.purge_select", False),
    ("scheduler", None, "execute_selected", "scheduler.execute_selected", False),
    ("scheduler", None, "exec_method", "interp.exec_method", False),
    ("scheduler", "Trace", "to_jsonl", "scheduler.to_jsonl", True),
    ("monitors", None, "check_graph", "monitors.check_graph", False),
    ("monitors", None, "check_trace", "monitors.check_trace", False),
]

LAYERS = sorted({hook[3] for hook in HOOKS})


class Tracer:
    """Accumulates self time, calls and result sizes per layer."""

    def __init__(self, modules: dict):
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.size: Counter = Counter()
        self._stack: list[float] = []
        self._patches = []  # (owner, name, original, wrapper)
        self.absent: list[str] = []
        for module_name, owner_name, name, layer, sized in HOOKS:
            owner = modules.get(module_name)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                where = f"{module_name}.{owner_name}" if owner_name else module_name
                self.absent.append(f"{where}.{name} ({layer})")
                continue
            self._patches.append((owner, name, original, self._wrap(layer, original, sized)))

    def _wrap(self, layer: str, fn, sized: bool):
        stack = self._stack
        self_s, calls, size = self.self_s, self.calls, self.size

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self_s[layer] += span - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += span
            if sized:
                size[layer] += len(out)
            return out

        return traced

    def install(self) -> None:
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()
