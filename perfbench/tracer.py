"""Span recording around the public functions of polya_net's modules.

The program itself carries no instrumentation: ``Tracer.install`` replaces
each public function (and each public method of a public class) of the
traced modules with a wrapper that records a span, and ``uninstall`` puts
the originals back.  Because module globals are the module's attribute
dictionary, calls made by bare name inside a module are traced too; names
bound elsewhere with ``from module import name`` are patched as aliases.

A span is (id, parent id, name, start, end, trace id).  The parent is the
innermost open span of the same thread; spans opened in worker threads of
``run_trials`` have no parent.  Spans stay in memory until ``records``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass

TRACED_MODULES = ("graph", "montecarlo", "exact", "approx", "sis", "experiments", "cli")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    trace: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, package, hooks=None):
        self.modules = {name: getattr(package, name) for name in TRACED_MODULES}
        self.spans: list[Span] = []
        self.trace = "setup"     # identifier shared by the spans of one round
        self.hooks = hooks or {}  # span name -> fn(tracer, args, kwargs, result)
        self.counters: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local.__dict__
            if local.get("muted"):   # calls made by a hook are not the program's
                return fn(*args, **kwargs)
            stack = local.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, self.trace))
            if hook is not None:
                local["muted"] = True
                try:
                    hook(self, args, kwargs, result)
                finally:
                    local["muted"] = False
            return result

        return traced

    def count(self, name: str, value) -> None:
        """Record a count at a layer boundary, attributed to the current trace."""
        self.counters.setdefault(name, []).append((self.trace, value))

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, function) for every traced callable."""
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, attr, f"{short}.{attr}", obj
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield obj, meth, f"{short}.{attr}.{meth}", fn

    def install(self) -> None:
        wrappers = {}
        for owner, attr, name, fn in self._targets():
            wrappers[id(fn)] = self._wrap(name, fn)
            self._patch(owner, attr, fn, wrappers[id(fn)])
        for mod in self.modules.values():   # aliases made by "from x import f"
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and getattr(mod, attr) is obj:
                    self._patch(mod, attr, obj, wrappers[id(obj)])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------------

    def spans_of(self, trace: str) -> list[Span]:
        return [s for s in self.spans if s.trace == trace]

    def counts_of(self, trace: str, name: str) -> list:
        return [v for t, v in self.counters.get(name, []) if t == trace]

    def records(self) -> list[list]:
        return [[s.sid, s.parent, s.name, s.start, s.end, s.trace] for s in self.spans]


def total_seconds(spans: list[Span], *names: str) -> float:
    """Time inside spans with one of ``names``, outermost occurrences only."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name in names and not _has_ancestor(s, by_id, names):
            total += s.seconds
    return total


def _has_ancestor(span: Span, by_id: dict, names) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False


def self_seconds(spans: list[Span], name: str, subtract: tuple[str, ...] | None = None) -> float:
    """Duration of ``name`` spans minus the time their direct children cover.

    With ``subtract``, only direct children with those names count.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None and (subtract is None or s.name in subtract):
            children.setdefault(s.parent, []).append(s)
    total = 0.0
    for s in spans:
        if s.name == name:
            total += s.seconds - _covered(children.get(s.sid, []))
    return total


def _covered(spans: list[Span]) -> float:
    covered, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        lo = max(s.start, reach)
        if s.end > lo:
            covered += s.end - lo
            reach = s.end
    return covered
