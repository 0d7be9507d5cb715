"""Pluggable execution backends: where a campaign's shards run.

:meth:`repro.core.runner.CampaignRunner.execute` hands every campaign's
:class:`~repro.core.runner.ShardTask` list to one backend through one method,
:meth:`ExecutionBackend.iter_shards`, and merges whatever it yields.  A
:class:`repro.api.Session` shares one backend — and so one warm pool —
across every campaign, resume, and matrix cell it runs.

Three backends ship built in: ``serial`` (inline execution, the determinism
reference), ``process`` (a :class:`~concurrent.futures.ProcessPoolExecutor`),
and ``remote`` (socket workers, :mod:`repro.distributed`).  Additional
backends can be registered with :func:`register_backend` and selected by
name anywhere an executor name is accepted.

The process backend dispatches shards in adaptive *batches*: one pool future
— one IPC round-trip — per batch (sizing in
:func:`repro.core.transport.next_batch_size`), with each batch's results
coming back as one struct-packed blob.

Failure discipline, in two halves:

* **Shard code errors are** :class:`~repro.net.errors.ShardError`.  Every
  exception a shard raises is wrapped with the shard's index where the shard
  ran, so it surfaces once and is never re-run.
* **One fallback, at this seam.**  A pool-infrastructure failure
  (:data:`POOL_FAILURES`: no semaphores in a sandbox, fork restrictions, a
  worker death breaking the pool) makes the process backend discard its
  pool, run the shards it has not yet yielded inline, emit a
  :class:`RuntimeWarning`, and record the warning in its job report, which
  the session folds into ``envelope.meta["warnings"]``.  Shard tasks are
  pure functions, so the inline run yields identical records.  The remote
  backend's degrade-to-local lives at the same seam.
"""

from __future__ import annotations

import os
import threading
import warnings
from abc import ABC, abstractmethod
from collections import deque
from contextlib import closing
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from pickle import PicklingError
from typing import Callable, Iterator, Optional, Sequence

from repro.core.runner import ShardOutcome, ShardTask, run_shard_checked
from repro.core.transport import (
    batch_size_override,
    decode_outcomes,
    encode_outcomes,
    next_batch_size,
)
from repro.net.errors import MeasurementError

POOL_FAILURES = (OSError, PicklingError, BrokenExecutor, CancelledError, RuntimeError)
"""Pool-infrastructure failures: the only exceptions the pool fallback catches.

``RuntimeError`` covers the stdlib's "cannot schedule new futures after
shutdown", and ``CancelledError`` a future cancelled when a concurrent job
discarded the shared pool.  Shard code cannot raise any of these into the
dispatcher: its exceptions arrive wrapped in
:class:`~repro.net.errors.ShardError`.
"""


def _run_batch(tasks: tuple[ShardTask, ...]) -> bytes:
    """Process-pool worker entry point: run a batch, return one blob.

    Shard code errors leave the worker as
    :class:`~repro.net.errors.ShardError`, so the parent can never mistake
    them for a broken pool.
    """
    return encode_outcomes([run_shard_checked(task) for task in tasks])


def _shard_cost(task: ShardTask) -> int:
    """Estimated probe samples one shard simulates — dispatch sizing only.

    Every shard of a campaign carries the same config, so one task stands in
    for all of them.  The estimate feeds the :data:`~repro.core.transport.
    MIN_BATCH_SAMPLES` floor in :func:`~repro.core.transport.next_batch_size`;
    it never affects what is measured.
    """
    tests = task.tests if task.tests is not None else task.config.tests
    return max(
        1,
        len(task.specs)
        * task.config.rounds
        * len(tests)
        * task.config.samples_per_measurement,
    )


class ExecutionBackend(ABC):
    """Where shards run: an execution strategy with an optionally warm pool.

    A backend may be handed to any number of campaigns before being closed;
    pooled backends create their pool lazily on first use and keep it warm
    across calls.  Backends are context managers; :meth:`close` is
    idempotent.

    Backend choice never affects *what is measured* — shard tasks are pure
    functions of their inputs — only where and how concurrently they run.
    """

    #: Registry name; also what :attr:`CampaignRunner.executor` reports.
    name: str = "abstract"

    @abstractmethod
    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield shard outcomes in completion order (a generator).

        Closing the iterator early cancels work that has not started;
        already-running work is allowed to finish in the background.
        """

    def pop_job_report(self) -> dict:
        """What the backend survived since the last pop (empty if nothing).

        The session folds a non-empty report into the envelope's ``meta``
        under the backend's name, and its ``warnings`` into
        ``meta["warnings"]``.
        """
        return {}

    def close(self) -> None:
        """Release pool resources.  Idempotent; the serial backend is a no-op."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Inline execution on the calling thread — the determinism reference."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # Accepted for signature uniformity; a serial backend has one worker.
        self.max_workers = 1

    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        for task in tasks:
            yield run_shard_checked(task)


class ProcessBackend(ExecutionBackend):
    """A lazily created, reusable :class:`ProcessPoolExecutor`.

    Pool lifecycle (creation, discard, close) is serialized by a lock
    because a :class:`repro.api.Session` runs each submitted job on its own
    thread against the one shared backend.  Work submission needs no extra
    locking — the stdlib executor is thread-safe.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers
        self._pool: Optional[Executor] = None
        self._workers = 0
        self._warnings: list[str] = []
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> tuple[Executor, int]:
        """The warm pool and its width (the explicit cap, else one worker
        per core), created on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._workers = self.max_workers or os.cpu_count() or 1
                self._pool = ProcessPoolExecutor(max_workers=self._workers)
            return self._pool, self._workers

    def _submit(self, pool: Executor, batch: tuple[ShardTask, ...]) -> "Future[bytes]":
        """Send one batch to the pool (one IPC round-trip each way)."""
        return pool.submit(_run_batch, batch)

    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        if not tasks:
            return
        unfinished = {task.index: task for task in tasks}
        pool: Optional[Executor] = None
        try:
            pool, workers = self._ensure_pool()
            with closing(self._dispatch_batches(pool, workers, tasks)) as results:
                for outcome in results:
                    unfinished.pop(outcome.index, None)
                    yield outcome
            return
        except POOL_FAILURES as exc:
            failure = exc
        # The one pool fallback.  A shared backend must not keep serving a
        # broken pool to later campaigns, so it is discarded; the next
        # campaign starts a fresh one.
        if pool is not None:
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
        message = (
            f"{self.name} pool failed ({failure!r}); running {len(unfinished)} "
            "unfinished shard(s) inline"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        with self._pool_lock:
            self._warnings.append(message)
        for task in unfinished.values():
            yield run_shard_checked(task)

    def _dispatch_batches(
        self, pool: Executor, workers: int, tasks: Sequence[ShardTask]
    ) -> Iterator[ShardOutcome]:
        """Yield shard outcomes in completion order, batched per round-trip.

        Guided, work-stealing-style scheduling: each submission takes
        :func:`~repro.core.transport.next_batch_size` shards off the shared
        queue, so early batches are large and the tail shrinks toward single
        shards — a straggling worker near the end holds at most one small
        batch while the others drain the rest.  At most one in-flight batch
        per worker; the queue is refilled *before* decoding finished results
        so workers never idle behind the parent's decode.
        """
        pending = deque(tasks)
        override = batch_size_override()
        cost = _shard_cost(tasks[0])
        inflight: "dict[Future[bytes], tuple[ShardTask, ...]]" = {}

        def refill() -> None:
            while pending and len(inflight) < workers:
                size = next_batch_size(
                    len(pending), workers, shard_cost=cost, override=override
                )
                batch = tuple(pending.popleft() for _ in range(size))
                inflight[self._submit(pool, batch)] = batch

        try:
            refill()
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                finished = [(future, inflight.pop(future)) for future in done]
                refill()
                for future, batch in finished:
                    yield from decode_outcomes(
                        future.result(),
                        shard_indexes=tuple(task.index for task in batch),
                    )
        finally:
            # Reached on success, pool failure, and early close (the consumer
            # raised): drop batches that have not started.  The pool itself
            # stays warm — it may be shared with other work.
            for future in inflight:
                future.cancel()

    def pop_job_report(self) -> dict:
        with self._pool_lock:
            warned, self._warnings = self._warnings, []
        return {"warnings": warned, "degraded": True} if warned else {}

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

BackendFactory = Callable[[Optional[int]], ExecutionBackend]

_BACKENDS: dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Register an execution backend under ``name``.

    ``factory`` is called as ``factory(max_workers)`` whenever a session,
    runner, or CLI invocation selects the backend by name.
    """
    if name in _BACKENDS and not replace:
        raise MeasurementError(f"execution backend already registered: {name!r}")
    _BACKENDS[name] = factory


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def create_backend(
    backend: "str | ExecutionBackend", max_workers: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through) to an instance."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        factory = _BACKENDS[backend]
    except KeyError:
        known = ", ".join(_BACKENDS)
        raise MeasurementError(
            f"unknown execution backend {backend!r}; registered: {known}"
        ) from None
    return factory(max_workers)


def _remote_factory(max_workers: Optional[int]) -> ExecutionBackend:
    """Lazy factory for the socket-based remote backend.

    Imported on first use so :mod:`repro.api` never pays for (or cycles
    with) the distributed machinery unless a caller selects ``remote``.
    """
    from repro.distributed.backend import RemoteBackend

    return RemoteBackend(max_workers)


register_backend(SerialBackend.name, SerialBackend)
register_backend(ProcessBackend.name, ProcessBackend)
register_backend("remote", _remote_factory)


__all__ = [
    "POOL_FAILURES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "backend_names",
    "create_backend",
    "register_backend",
]
