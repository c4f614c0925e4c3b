"""In-memory span recording around csagg's public functions, from outside.

A probe replaces one module attribute -- the name a caller resolves at call
time, such as ``csagg.protocol.solve_lp`` -- with a wrapper that records a
span (name, start, end, parent, step, run) and optional counts read from the
call's result. No file of the package is edited, and ``restore`` puts every
original attribute back. A probe on a name that no longer exists raises, so
a refactor that renames an observed function breaks the benchmark loudly
instead of leaving a layer silently unmeasured.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

CountFn = Callable[[Any], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a top-level call
    step: int  # timed step index, -1 during set-up
    run: int
    counts: dict[str, float] = field(default_factory=dict)
    counted: float = 0.0  # when the probe finished reading counts, after ``end``

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def covered(self) -> float:
        """Time this span takes out of its parent, counting included."""
        return self.counted - self.start


class Recorder:
    """Collects spans for one experiment run and splits it into timed steps.

    Step boundaries come from two marker probes: the end of the velocity
    series (set-up done, step 0 starts) and each per-step report (step i
    ends). Spans opened in between carry the index of the step they ran in.
    """

    def __init__(self, run: int):
        self.run = run
        self.spans: list[Span] = []
        self.step = -1
        self.boundaries: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def probe(
        self,
        target: str,
        name: str,
        count: CountFn | None = None,
        marks_boundary: bool = False,
    ) -> None:
        """Wrap ``module.attr`` (given as "module:attr") in a span named ``name``."""
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise LookupError(
                f"{module_name}.{attr} does not exist; the benchmark's probe list "
                "no longer matches the program"
            )
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.step, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.counted = span.end
            if count is not None:
                span.counts = count(result)
                span.counted = time.perf_counter()
            if marks_boundary:
                self.boundaries.append(span.end)
                self.step += 1
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def step_times(self) -> list[float]:
        return [b - a for a, b in zip(self.boundaries, self.boundaries[1:])]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The time a child's probe spends reading counts is in no span's self
        time; ``Span.counted - Span.end`` gives it separately.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.covered
        return [span.duration - c for span, c in zip(self.spans, child)]
