"""``RemoteBackend``: the socket-distributed execution backend.

Registered as ``remote`` in the :mod:`repro.api.backends` registry, so every
front door that accepts an executor name (``Session(backend="remote")``,
``python -m repro run --executor remote``, ``CampaignRunner``) can use it.

On first use the backend starts a :class:`~repro.distributed.coordinator.
Coordinator` on ``host:port`` (loopback, ephemeral port by default) and —
unless told otherwise — spawns ``spawn_workers`` local worker processes via
``python -m repro workers``, the same entry point an operator uses to join
workers from other machines.  Shard batches then flow over TCP with the
full fault-tolerance discipline documented on the coordinator.

Two degradation paths keep a campaign alive without remote workers:

* **Nobody ever connected** (within ``wait_timeout``): the whole job runs on
  the local ``process`` backend and the
  :class:`~repro.api.ResultEnvelope` carries a warning.
* **Everyone died mid-job**: the coordinator strands the job; this backend
  atomically takes over the unfinished shards and finishes them locally.

Either way — and under every chaos fault — the campaign digest is
bit-identical to serial execution, because shard tasks are pure functions
and results merge in canonical order.

After each campaign the :class:`~repro.api.Session` pops a *job report*
(:meth:`RemoteBackend.pop_job_report`) into the envelope's ``meta`` so
requeues, evictions, quarantined shards, and degradation warnings are
visible to the caller instead of buried in logs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path
from queue import Empty
from typing import Iterator, Optional, Sequence

import repro
from repro.api.backends import ExecutionBackend, _shard_cost, create_backend
from repro.core.runner import ShardOutcome, ShardTask
from repro.core.transport import batch_size_override
from repro.distributed.chaos import CHAOS_ENV, ChaosSpec
from repro.distributed.coordinator import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_MAX_ATTEMPTS,
    JOB_DONE,
    JOB_STRANDED,
    Coordinator,
)
from repro.distributed.worker import DEFAULT_HEARTBEAT_INTERVAL
from repro.net.errors import MeasurementError

WORKERS_ENV = "REPRO_REMOTE_WORKERS"
HEARTBEAT_ENV = "REPRO_REMOTE_HEARTBEAT"
LEASE_TIMEOUT_ENV = "REPRO_REMOTE_LEASE_TIMEOUT"
WAIT_ENV = "REPRO_REMOTE_WAIT"
MAX_ATTEMPTS_ENV = "REPRO_REMOTE_MAX_ATTEMPTS"

DEFAULT_SPAWN_WORKERS = 2
DEFAULT_WAIT_TIMEOUT = 20.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise MeasurementError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MeasurementError(f"{name} must be an integer, got {raw!r}") from None


class RemoteBackend(ExecutionBackend):
    """Distribute shard batches to TCP workers; survive losing any of them."""

    name = "remote"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: Optional[int] = None,
        heartbeat_interval: Optional[float] = None,
        lease_timeout: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        max_attempts: Optional[int] = None,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        chaos: Optional[ChaosSpec] = None,
        batch_size: Optional[int] = None,
        fallback: str = "process",
    ) -> None:
        self.max_workers = max_workers
        self.host = host
        self.port = port
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else _env_float(HEARTBEAT_ENV, DEFAULT_HEARTBEAT_INTERVAL)
        )
        self.lease_timeout = (
            lease_timeout
            if lease_timeout is not None
            else _env_float(LEASE_TIMEOUT_ENV, max(2.0, 4 * self.heartbeat_interval))
        )
        self.wait_timeout = (
            wait_timeout if wait_timeout is not None else _env_float(WAIT_ENV, DEFAULT_WAIT_TIMEOUT)
        )
        self.max_attempts = (
            max_attempts
            if max_attempts is not None
            else _env_int(MAX_ATTEMPTS_ENV, DEFAULT_MAX_ATTEMPTS)
        )
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.chaos = chaos
        self.batch_size = batch_size
        self.fallback = fallback
        if spawn_workers is not None:
            self._spawn_count = spawn_workers
        else:
            self._spawn_count = max_workers or _env_int(WORKERS_ENV, DEFAULT_SPAWN_WORKERS)
        self._lock = threading.RLock()
        self._coordinator: Optional[Coordinator] = None
        self._procs: "list[subprocess.Popen]" = []
        self._spawned = False
        self._fleet_assembled = False
        self._fallback_backend: Optional[ExecutionBackend] = None
        self._report: dict = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Infrastructure
    # ------------------------------------------------------------------ #

    def _ensure_coordinator(self) -> Coordinator:
        with self._lock:
            if self._closed:
                raise MeasurementError("remote backend is closed")
            if self._coordinator is None:
                self._coordinator = Coordinator(
                    self.host,
                    self.port,
                    lease_timeout=self.lease_timeout,
                    max_attempts=self.max_attempts,
                    backoff_base=self.backoff_base,
                    backoff_cap=self.backoff_cap,
                )
            return self._coordinator

    def _ensure_workers(self) -> None:
        """Spawn the local worker fleet once (``spawn_workers=0`` = external
        workers only — e.g. launched by hand with ``python -m repro workers``)."""
        with self._lock:
            if self._spawned or self._spawn_count <= 0:
                return
            self._spawned = True
            host, port = self._ensure_coordinator().address
            src_root = Path(repro.__file__).resolve().parent.parent
            env = os.environ.copy()
            existing = env.get("PYTHONPATH", "")
            env["PYTHONPATH"] = (
                f"{src_root}{os.pathsep}{existing}" if existing else str(src_root)
            )
            if self.chaos is not None:
                env[CHAOS_ENV] = self.chaos.to_json()
            else:
                env.pop(CHAOS_ENV, None)
            for index in range(self._spawn_count):
                command = [
                    sys.executable,
                    "-m",
                    "repro",
                    "workers",
                    "--connect",
                    f"{host}:{port}",
                    "--index",
                    str(index),
                    "--heartbeat",
                    str(self.heartbeat_interval),
                ]
                self._procs.append(
                    subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
                )

    def _local(self) -> ExecutionBackend:
        with self._lock:
            if self._fallback_backend is None:
                self._fallback_backend = create_backend(self.fallback, self.max_workers)
            return self._fallback_backend

    # ------------------------------------------------------------------ #
    # Job reporting
    # ------------------------------------------------------------------ #

    def _note(self, **updates: object) -> None:
        with self._lock:
            report = self._report
            for key, value in updates.items():
                if isinstance(value, list):
                    report.setdefault(key, []).extend(value)
                elif isinstance(value, int) and not isinstance(value, bool):
                    report[key] = report.get(key, 0) + value
                else:
                    report[key] = value

    def _warn(self, message: str) -> None:
        self._note(warnings=[message])

    def pop_job_report(self) -> dict:
        """The accumulated fault/degradation report since the last pop.

        The :class:`~repro.api.Session` calls this after each campaign and
        folds a non-empty report into the envelope's ``meta["remote"]``.
        Warnings from the local fallback backend (its own pool failing)
        join the report's ``warnings``.
        """
        with self._lock:
            report, self._report = self._report, {}
            fallback = self._fallback_backend
        if fallback is not None:
            local = fallback.pop_job_report().get("warnings")
            if local:
                report.setdefault("warnings", []).extend(local)
        return report

    # ------------------------------------------------------------------ #
    # ExecutionBackend surface
    # ------------------------------------------------------------------ #

    def iter_shards(self, tasks: Sequence[ShardTask]) -> Iterator[ShardOutcome]:
        if not tasks:
            return
        coordinator = self._ensure_coordinator()
        self._ensure_workers()
        # Wait for the whole spawned fleet (not just the first arrival), so
        # the opening dispatch spreads across every worker instead of
        # front-loading whoever won the connect race; shortfalls degrade
        # gracefully to however many made it.  Once the fleet has assembled
        # we never hold a later campaign hostage to full strength again — a
        # worker lost to a fault is an expected operational state, and any
        # survivor can serve the job.
        with self._lock:
            wanted = 1 if self._fleet_assembled else max(1, self._spawn_count)
        connected = coordinator.wait_for_workers(wanted, timeout=self.wait_timeout)
        if connected >= wanted:
            with self._lock:
                self._fleet_assembled = True
        if connected == 0:
            self._warn(
                f"no remote workers connected within {self.wait_timeout:.1f}s; "
                f"degraded to local {self.fallback!r} execution"
            )
            self._note(degraded=True)
            yield from self._local().iter_shards(tasks)
            return
        job = coordinator.submit_job(
            tasks,
            shard_cost=_shard_cost(tasks[0]),
            batch_override=(
                self.batch_size if self.batch_size is not None else batch_size_override()
            ),
        )
        # Watchdog floor: even if every liveness mechanism failed at once, a
        # silent queue eventually strands the job onto local execution
        # instead of hanging the campaign forever.
        stall_timeout = max(30.0, 20 * self.lease_timeout)
        try:
            while True:
                try:
                    item = job.results.get(timeout=stall_timeout)
                except Empty:
                    item = JOB_STRANDED
                    self._warn(
                        f"no progress from remote workers for {stall_timeout:.0f}s; "
                        "taking remaining shards over locally"
                    )
                if item is JOB_DONE:
                    break
                if item is JOB_STRANDED:
                    leftover = coordinator.takeover_remaining(job)
                    if leftover:
                        self._note(degraded=True)
                        self._warn(
                            f"remote workers lost mid-campaign; running "
                            f"{len(leftover)} shard(s) on the local "
                            f"{self.fallback!r} backend"
                        )
                        yield from self._local().iter_shards(leftover)
                    continue
                yield item
        finally:
            coordinator.cancel_job(job)
            stats = coordinator.finish_job(job)
            quarantined = stats.pop("quarantined", [])
            workers = stats.pop("workers", [])
            self._note(backend=self.name, workers=list(workers), **stats)
            if quarantined:
                self._note(quarantined=list(quarantined))
                self._warn(
                    f"{len(quarantined)} shard(s) quarantined after "
                    f"{self.max_attempts} failed attempts: "
                    f"{sorted(entry['shard'] for entry in quarantined)}"
                )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            coordinator, self._coordinator = self._coordinator, None
            procs, self._procs = self._procs, []
            fallback, self._fallback_backend = self._fallback_backend, None
        if coordinator is not None:
            coordinator.close()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        if fallback is not None:
            fallback.close()


__all__ = [
    "DEFAULT_SPAWN_WORKERS",
    "DEFAULT_WAIT_TIMEOUT",
    "HEARTBEAT_ENV",
    "LEASE_TIMEOUT_ENV",
    "MAX_ATTEMPTS_ENV",
    "RemoteBackend",
    "WAIT_ENV",
    "WORKERS_ENV",
]
