"""In-memory span tracing around calls into the program's layers.

Spans are recorded only from the benchmark's own files: a :class:`Tracer`
wraps calls the benchmark makes, :class:`TracedBackend` wraps the execution
backend a :class:`repro.api.Session` borrows, and :class:`TracedStore` wraps
the campaign store the runner writes and reads.  Nothing under ``src/`` is
instrumented, so spans see only what crosses those boundaries in the client
process.

Each span has a name, a start, an end, a parent and an op id.  The stack of
open spans is shared by every thread: the benchmark keeps one request in
flight at a time, so the caller and the session's job thread never open
spans concurrently.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from repro.api import ExecutionBackend
from repro.store import CampaignStore

ROOT_SPAN = "op"
"""Name of the span around one whole op; its self time is reported as ``other``."""


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager that closes one span (cheaper than ``@contextmanager``)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Optional[Span]:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        if self._span is not None:
            self._span.end = time.perf_counter()
            self._tracer._stack.pop()


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._ops = 0

    def span(self, name: str) -> _Open:
        if not self.enabled:
            return _Open(self, None)
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            op=self._op,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return _Open(self, span)

    def op(self) -> _Open:
        """Open the root span of a new op; spans opened inside share its id."""
        self._op = self._ops
        self._ops += 1
        return self.span(ROOT_SPAN)

    def ops(self) -> list[Span]:
        return [span for span in self.spans if span.name == ROOT_SPAN]

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "parent": span.parent,
                            "op": span.op,
                            "start": span.start - origin,
                            "end": span.end - origin,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Each span name's total self time: duration minus its children's.

    Children of one span never overlap (a single thread of control opens
    them), so the self times of a span tree sum to its root's duration.  The
    root span's own self time is keyed ``other``: time no layer covers.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        name = "other" if span.name == ROOT_SPAN else span.name
        totals[name] += span.duration - covered[span.id]
    return dict(totals)


def span_problems(spans: Sequence[Span], tolerance: float = 1e-9) -> list[str]:
    """What is wrong with one op's span tree, if anything.

    Every span must be closed, lie inside its parent, and have a self time
    that is not negative (its children do not overlap or outlast it).
    """
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    problems = []
    for span in spans:
        if math.isnan(span.end):
            problems.append(f"span {span.name} #{span.id} was never closed")
            continue
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.name} #{span.id} has a parent outside its op")
        elif span.start < parent.start - tolerance or span.end > parent.end + tolerance:
            problems.append(f"span {span.name} #{span.id} escapes its parent {parent.name}")
        covered[span.parent] += span.duration
    for span in spans:
        if span.duration - covered[span.id] < -tolerance:
            problems.append(f"span {span.name} #{span.id} has negative self time")
    return problems


def inclusive_times(spans: Sequence[Span]) -> dict[str, float]:
    """Each span name's total duration, children included."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration
    return dict(totals)


def spans_of_op(spans: Sequence[Span], op: int) -> list[Span]:
    return [span for span in spans if span.op == op]


class TracedBackend(ExecutionBackend):
    """Wraps a session's backend: spans around dispatch and each result wait.

    ``api.dispatch`` covers one campaign's ``map_shards`` / ``iter_shards``
    from first call to exhaustion, so work the runner does between results
    (store writes) nests inside it; ``api.result_wait`` covers the time the
    caller is blocked on the next result.
    """

    def __init__(self, inner: ExecutionBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def map_shards(self, tasks):
        with self.tracer.span("api.dispatch"), self.tracer.span("api.result_wait"):
            return self.inner.map_shards(tasks)

    def iter_shards(self, tasks) -> Iterator:
        with self.tracer.span("api.dispatch"):
            results = self.inner.iter_shards(tasks)
            try:
                while True:
                    with self.tracer.span("api.result_wait"):
                        outcome = next(results, None)
                    if outcome is None:
                        return
                    yield outcome
            finally:
                results.close()

    def map_items(self, fn: Callable, items: Sequence) -> list:
        return self.inner.map_items(fn, items)

    def pop_job_report(self) -> dict:
        reporter = getattr(self.inner, "pop_job_report", None)
        return reporter() if callable(reporter) else {}

    def close(self) -> None:
        self.inner.close()


class TracedStore(CampaignStore):
    """A campaign store whose shard writes and reads are spans.

    Set :attr:`tracer` after construction: ``CampaignStore.open`` builds the
    instance itself.
    """

    tracer: Tracer

    def write_shard(self, outcome) -> None:
        with self.tracer.span("store.write_shard"):
            super().write_shard(outcome)

    def read_shard(self, index: int):
        with self.tracer.span("store.read_shard"):
            return super().read_shard(index)
