"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` wraps selected functions of the program — class
methods or module functions, named by :class:`Target` — so that every
call records one span ``(name, start, end, parent, run)`` in memory.
Spans nest by call order (the program is single-threaded), so a span's
parent is the innermost wrapped call still open when it began.  The
tracer also remembers the instances of a few classes created during a
run, so the benchmark can read their existing ``stats()`` counters at
the run's end.

The wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`; ``restore`` puts back exactly the attributes
that were there before, so an untraced run executes the unmodified
program.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    """One recorded call; *parent* indexes the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    run: int


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.owner.attr`` (or ``module.attr``).

    *after*, when set, is called as ``after(tracer, args, result)``
    once the call returns — the hook for counters that need the
    result or the receiver (peak log sizes, failed checkins).
    """

    module: str
    owner: str | None
    attr: str
    span: str
    after: Callable[["Tracer", tuple, Any], None] | None = None


@dataclass
class RunTrace:
    """Everything one traced run left behind."""

    run: int
    spans: list[Span]
    #: "module.Class" -> instances created during the run
    instances: dict[str, list[Any]]
    #: named counters and peaks filled by the targets' *after* hooks
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Install span-recording wrappers; restore the originals after."""

    def __init__(self, targets: list[Target],
                 tracked: list[tuple[str, str]] = ()) -> None:
        self.targets = list(targets)
        #: (module, class) pairs whose instances each run remembers
        self.tracked = list(tracked)
        #: targets whose module or attribute does not exist
        self.missing: list[str] = []
        self.run = 0
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._instances: dict[str, list[Any]] = {}
        self._counters: dict[str, float] = {}
        self._saved: list[tuple[Any, str, bool, Any]] = []

    # -- counters for the *after* hooks ---------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self._counters.get(name, 0):
            self._counters[name] = value

    # -- runs ------------------------------------------------------------

    def begin_run(self) -> None:
        """Start a new run id with empty spans, instances and counters."""
        self.run += 1
        self._spans = []
        self._stack.clear()  # the installed wrappers hold this list
        self._instances = {}
        self._counters = {}

    def end_run(self) -> RunTrace:
        """Freeze and hand over what the current run recorded."""
        trace = RunTrace(self.run, [Span(*record) for record in self._spans],
                         self._instances, self._counters)
        self._spans, self._instances, self._counters = [], {}, {}
        return trace

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn: Callable, target: Target) -> Callable:
        name, after, run_of = target.span, target.after, self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            spans = run_of._spans
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      run_of.run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(run_of, args, result)
            return result

        return wrapper

    def _init_wrapper(self, fn: Callable, key: str) -> Callable:
        run_of = self

        @functools.wraps(fn)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> None:
            fn(obj, *args, **kwargs)
            run_of._instances.setdefault(key, []).append(obj)

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every resolvable target and tracked constructor."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        self._stack.clear()
        for target in self.targets:
            owner = _resolve(target.module, target.owner)
            if owner is None or not hasattr(owner, target.attr):
                self.missing.append(
                    f"{target.module}.{target.owner or ''}.{target.attr}")
                continue
            self._patch(owner, target.attr,
                        self._span_wrapper(getattr(owner, target.attr),
                                           target))
        for module, cls_name in self.tracked:
            cls = _resolve(module, cls_name)
            if cls is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            self._patch(cls, "__init__",
                        self._init_wrapper(cls.__init__,
                                           f"{module}.{cls_name}"))
        return self

    def restore(self) -> None:
        """Put back exactly what :meth:`install` replaced."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def _resolve(module: str, owner: str | None) -> Any:
    """The module, or the class *owner* inside it; None if absent."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return mod if owner is None else getattr(mod, owner, None)


# -- span arithmetic ----------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never double-subtracts.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def outermost(spans: list[Span], prefix: str) -> list[int]:
    """Indexes of spans named *prefix*… with no such ancestor."""
    found = []
    for index, span in enumerate(spans):
        if not span.name.startswith(prefix):
            continue
        parent = span.parent
        while parent >= 0 and not spans[parent].name.startswith(prefix):
            parent = spans[parent].parent
        if parent < 0:
            found.append(index)
    return found


def tail_rank(n: int) -> int | None:
    """Index (ascending order) of the highest percentile that has at
    least ten samples beyond it, or None below eleven samples."""
    return n - 11 if n >= 11 else None

