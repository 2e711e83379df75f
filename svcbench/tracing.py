"""Spans recorded around calls into the program's layers, from outside.

Nothing here edits the program.  :func:`instrument` wraps, for the
length of one traced window:

* instance methods of the live service — ``StudyService.submit``,
  ``CellScheduler.run_plans``, ``Session.run_cells`` — and the
  scheduler's claim lock, to time how long a submission waits for it;
* the cache, as a :class:`TracedCache` subclass handed to the service
  through ``StudyService(cache=...)``;
* names the service and scheduler modules look up at call time —
  ``Study`` (spec parse and plan expansion), ``ResultSet`` (its
  ``to_dict``), ``cell_identity`` and the server's ``json_dumps_exact``.

Spans live in memory: name, start, end, parent span and the root span
of the submission, so a submission's spans share one identifier.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.service.cache import CellCache


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional["Span"], name: str) -> None:
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else span_id
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, object] = {}


class Tracer:
    """Collects spans while :attr:`enabled`; a no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(next(self._ids), stack[-1] if stack else None, name)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


class TracedCache(CellCache):
    """The service's cell cache, with its public calls traced."""

    def __init__(self, directory: str, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def __len__(self) -> int:
        with self.tracer.span("service.cache.len"):
            return super().__len__()

    def get(self, identity):
        with self.tracer.span("service.cache.get") as span:
            record = super().get(identity)
            if span is not None:
                span.attrs["hit"] = record is not None
            return record

    def put(self, identity, record) -> None:
        with self.tracer.span("service.cache.put"):
            super().put(identity, record)


class TimedLock:
    """A lock whose acquisitions are spans: the time spent waiting for it."""

    def __init__(self, lock, tracer: Tracer, name: str) -> None:
        self.lock = lock
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "TimedLock":
        with self.tracer.span(self.name):
            self.lock.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.lock.release()


@contextmanager
def instrument(service, tracer: Tracer) -> Iterator[None]:
    """Trace ``service``'s layers until the block exits."""
    import repro.api.scheduler as scheduler_module
    import repro.api.study as study_module
    import repro.service.server as server_module

    base_study = server_module.Study
    base_result_set = study_module.ResultSet
    base_identity = scheduler_module.cell_identity
    base_dumps = server_module.json_dumps_exact

    class TracedStudy(base_study):
        def __init__(self, *args, **kwargs) -> None:
            with tracer.span("api.study.expand"):
                super().__init__(*args, **kwargs)

        def cells(self):
            with tracer.span("api.study.expand"):
                return super().cells()

    class TracedResultSet(base_result_set):
        def to_dict(self):
            with tracer.span("api.results.to_dict"):
                return super().to_dict()

    def traced_dumps(payload, **kwargs):
        with tracer.span("api.results.dumps") as span:
            text = base_dumps(payload, **kwargs)
            if span is not None:
                span.attrs["bytes"] = len(text.encode("utf-8"))
            return text

    def traced_run_cells(jobs):
        with tracer.span("api.session.run_cells") as span:
            if span is not None:
                span.attrs["cells"] = len(jobs)
            return base_run_cells(jobs)

    base_run_cells = service.session.run_cells
    base_lock = service.scheduler._lock
    service.scheduler._lock = TimedLock(base_lock, tracer, "api.scheduler.lock_wait")
    service.submit = tracer.wrap("service.submit", service.submit)
    service.scheduler.run_plans = tracer.wrap(
        "api.scheduler.run_plans", service.scheduler.run_plans
    )
    service.session.run_cells = traced_run_cells
    server_module.Study = TracedStudy
    study_module.ResultSet = TracedResultSet
    scheduler_module.cell_identity = tracer.wrap(
        "api.plans.identity", base_identity
    )
    server_module.json_dumps_exact = traced_dumps
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False
        server_module.Study = base_study
        study_module.ResultSet = base_result_set
        scheduler_module.cell_identity = base_identity
        server_module.json_dumps_exact = base_dumps
        service.scheduler._lock = base_lock
        del service.submit
        del service.scheduler.run_plans
        del service.session.run_cells
