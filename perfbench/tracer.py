"""In-memory span tracer that wraps library functions from the outside.

Spans carry a name, start, end, the index of the span that was open when
they started (the parent) and a small dict of attributes. Nothing is written
while the run measures; ``Tracer.spans`` is dumped once the run has ended.

The package's modules import public names directly (``cli`` binds
``solve_equilibrium``, ``equilibrium`` binds ``solve_L``), so a wrapper is
installed on every module attribute that holds the original function, not
only on the defining module.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function or method to wrap: ``qualname`` is ``func`` or ``Class.method``
    inside ``module``; ``note(args, kwargs, result)`` returns span attributes."""

    span: str
    module: str
    qualname: str
    note: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               attrs=dict(attrs or {})))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        open_, close, note = self.open, self.close, target.note

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(target.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx).attrs["error"] = type(exc).__name__
                raise
            span = close(idx)
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        return traced

    # -- derived quantities --------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children (children of
        one span never overlap: calls are nested and single-threaded)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs} for s in self.spans]


def _resolve(target: Target):
    owner = sys.modules[target.module]
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


PACKAGE = "rategame"


@contextmanager
def patched(targets: list[Target], make_wrapper: Callable[[Target, Callable], Callable]):
    """Install ``make_wrapper(target, original)`` on every binding of each
    target inside the package and undo it on exit.

    A module-level function is replaced in every module of the package whose
    namespace holds the same object; a method is replaced on its class, which
    covers subclasses that inherit it.
    """
    undo: list[tuple[object, str, object, bool]] = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapper = make_wrapper(target, original)
            if isinstance(owner, type):
                undo.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original, True))
                        setattr(module, name, wrapper)
        yield
    finally:
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
