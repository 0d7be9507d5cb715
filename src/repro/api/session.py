"""The :class:`Session` facade: one front door for all measurement work.

A session owns an execution backend (and hence at most one warm worker
pool), accepts the typed requests from :mod:`repro.api.requests`, and
returns :class:`~repro.api.jobs.JobHandle` s whose results are versioned
:class:`~repro.api.envelope.ResultEnvelope` s.  Library callers and the
``python -m repro`` CLI both route through here, so argument conventions for
seeds, shards, stores, OS mixes, and checkpoints are normalized exactly once.
Every campaign, resume, and matrix cell then runs the same way:
:meth:`repro.core.runner.CampaignRunner.execute` on the session's backend.

Determinism contract: a request's measurement content is a pure function of
the request (see :mod:`repro.core.runner`); the session's backend choice and
worker count change wall-clock time and memory, never ``result_digest``.

>>> from repro.api import CampaignRequest, Session
>>> from repro.core.campaign import CampaignConfig
>>> with Session(backend="serial") as session:
...     envelope = session.run(CampaignRequest(
...         scenario="imc2002-survey",
...         config=CampaignConfig(rounds=1, samples_per_measurement=2),
...         hosts=2, seed=7,
...     ))
>>> envelope.kind
'campaign'
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Optional, Union

from repro.api.backends import ExecutionBackend, backend_names, create_backend
from repro.api.envelope import (
    KIND_CAMPAIGN,
    KIND_MATRIX,
    KIND_PROBE,
    ResultEnvelope,
    plan_digest,
)
from repro.api.jobs import JobHandle, ProgressEvent
from repro.api.requests import (
    CampaignRequest,
    CellPlan,
    MatrixRequest,
    NormalizedCampaign,
    ProbeRequest,
    Request,
    ResumeRequest,
)
from repro.core.campaign import CampaignResult
from repro.core.prober import ProbeReport, Prober
from repro.core.runner import CampaignRunner, result_digest
from repro.net.errors import MeasurementError
from repro.scenarios.matrix import MatrixResult, ScenarioRun
from repro.scenarios.population import build_scenario_hosts
from repro.workloads.testbed import build_testbed


def _probe_signature(report: ProbeReport) -> tuple:
    """A probe report's measurement content (mirrors ``record_signature``)."""
    samples: tuple = ()
    if report.result is not None:
        samples = tuple(
            (sample.index, sample.forward.value, sample.reverse.value, sample.spacing)
            for sample in report.result.samples
        )
    return (report.test.value, report.error or "", report.ineligible, samples)


class Session:
    """A configured entry point that turns requests into jobs.

    Parameters
    ----------
    backend:
        A backend name from the :mod:`repro.api.backends` registry
        (``"serial"``, ``"process"``, ``"remote"``, or anything registered)
        or an :class:`ExecutionBackend` instance to share.  Named backends
        are created lazily and owned (closed) by the session; instances are
        borrowed and left open.
    max_workers:
        Worker cap for backends the session creates itself.

    Sessions are context managers.  :meth:`submit` returns immediately with
    a :class:`JobHandle`; :meth:`run` is the blocking convenience.  One
    session may run many jobs, and a pooled session reuses a single warm
    pool across all of them — including across every cell of a matrix
    sweep.  The session holds a job only while it runs; a finished job's
    handle and envelope belong to the caller alone.
    """

    def __init__(
        self,
        backend: Union[str, ExecutionBackend] = "process",
        *,
        max_workers: Optional[int] = None,
    ) -> None:
        if isinstance(backend, str) and backend not in backend_names():
            known = ", ".join(backend_names())
            raise MeasurementError(
                f"unknown execution backend {backend!r}; registered: {known}"
            )
        self._backend_spec = backend
        self._backend_name = backend if isinstance(backend, str) else backend.name
        self._owns_backend = isinstance(backend, str)
        self.max_workers = max_workers
        self._backend: Optional[ExecutionBackend] = None
        self._jobs: set[JobHandle] = set()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> ExecutionBackend:
        """The session's backend, created on first use for named backends.

        A closed session refuses to create a *new* backend (nothing would
        ever close it again), but keeps returning the existing one so jobs
        still draining during :meth:`close` can finish their work.
        """
        with self._lock:
            if self._backend is None:
                if self._closed:
                    raise MeasurementError("session is closed")
                self._backend = create_backend(self._backend_spec, self.max_workers)
            return self._backend

    def close(self) -> None:
        """Wait for outstanding jobs, then release the owned backend.

        Jobs are started under the session lock, so every job visible here
        has a thread to join — a submit racing with close either completes
        first (and is joined) or observes the closed flag and is refused.  A
        job leaves the set only once it no longer touches the backend, which
        is detached only after every job has drained.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs, self._jobs = self._jobs, set()
        for job in jobs:
            if job._thread is not None:
                job._thread.join()
        with self._lock:
            backend, self._backend = self._backend, None
        if self._owns_backend and backend is not None:
            backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is not None:
            # Exceptional exit (including KeyboardInterrupt): ask running
            # jobs to stop at their next progress boundary instead of
            # blocking the unwind until every campaign finishes.
            with self._lock:
                jobs = list(self._jobs)
            for job in jobs:
                job.cancel()
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> JobHandle:
        """Start a job for ``request`` and return its handle immediately."""
        with self._lock:
            if self._closed:
                raise MeasurementError("cannot submit to a closed session")
            # Create the backend eagerly so a job accepted here can never
            # lose a race with close() before it first touches the pool
            # (workers spawn lazily, so this is cheap).
            if self._backend is None:
                self._backend = create_backend(self._backend_spec, self.max_workers)
            job = JobHandle(request, lambda handle: self._run_job(request, handle))
            self._jobs.add(job)
            # Started under the lock so close() can never observe a job
            # without a thread to join.
            job._start()
        return job

    def run(self, request: Request) -> ResultEnvelope:
        """Submit ``request`` and block for its envelope (errors re-raise)."""
        return self.submit(request).result()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_job(self, request: Request, job: JobHandle) -> ResultEnvelope:
        """A job's body; the session forgets the job once it is done."""
        try:
            return self._execute(request, job)
        finally:
            with self._lock:
                self._jobs.discard(job)

    def _execute(self, request: Request, job: JobHandle) -> ResultEnvelope:
        if isinstance(request, ProbeRequest):
            return self._run_probe(request, job)
        if isinstance(request, (CampaignRequest, ResumeRequest)):
            return self._run_campaign(request.normalized(), job)
        if isinstance(request, MatrixRequest):
            return self._run_sweep(request, job)
        raise MeasurementError(
            f"unsupported request type: {type(request).__name__} "
            "(expected ProbeRequest, CampaignRequest, MatrixRequest, or ResumeRequest)"
        )

    def _run_probe(self, request: ProbeRequest, job: JobHandle) -> ResultEnvelope:
        spec = request.host_spec()
        testbed = build_testbed([spec], seed=request.seed)
        prober = Prober(
            testbed.probe,
            remote_port=request.remote_port,
            samples_per_measurement=request.samples,
        )
        reports: dict = {}
        for index, test in enumerate(request.tests):
            reports[test] = prober.run(
                test, spec.address, num_samples=request.samples, spacing=request.spacing
            )
            job._report(
                ProgressEvent("probe", index + 1, len(request.tests), label=test.value)
            )
        signature = tuple(_probe_signature(report) for report in reports.values())
        return ResultEnvelope(
            kind=KIND_PROBE,
            payload=reports,
            scenario=None,
            plan_digest=None,
            result_digest=hashlib.sha256(repr(signature).encode()).hexdigest(),
            meta={
                "seed": request.seed,
                "samples": request.samples,
                "host": spec.name,
                "backend": self._backend_name,
            },
        )

    def _run_campaign(self, norm: NormalizedCampaign, job: JobHandle) -> ResultEnvelope:
        runner = CampaignRunner(
            norm.specs,
            norm.config,
            seed=norm.seed,
            remote_port=norm.remote_port,
            shards=norm.shards,
            max_workers=self.max_workers,
            scenario=norm.label,
            backend=self.backend,
        )
        total = len(runner.shard_plan())
        user_hook = norm.on_checkpoint

        # The per-shard hook is what makes every session job observable and
        # cancellable at shard boundaries.
        def hook(outcome, completed, _total):
            if user_hook is not None:
                user_hook(outcome, completed, total)
            job._report(ProgressEvent("shard", completed, total, label=norm.label))

        result = runner.execute(
            norm.tests,
            store=norm.store,
            resume=norm.resume,
            origin=norm.origin,
            on_checkpoint=hook,
        )
        return self._campaign_envelope(runner, norm, result)

    def _campaign_envelope(
        self, runner: CampaignRunner, norm: NormalizedCampaign, result: CampaignResult
    ) -> ResultEnvelope:
        plan = runner.plan(norm.tests, origin=norm.origin)
        meta = {
            "seed": norm.seed,
            "shards": plan.shards,
            "hosts": len(norm.specs),
            "resumed": norm.resume,
            "scenario_spec": norm.scenario_spec,
            "store": str(norm.store.root) if norm.store is not None else None,
            "backend": self._backend_name,
        }
        return ResultEnvelope(
            kind=KIND_CAMPAIGN,
            payload=result,
            scenario=result.scenario or norm.label,
            plan_digest=plan_digest(plan),
            result_digest=result_digest(result),
            meta=self._with_job_report(meta),
        )

    def _with_job_report(self, meta: dict) -> dict:
        """``meta`` plus whatever the backend survived during the campaign.

        A backend's job report — pool fallbacks; the remote pool's requeues,
        evictions, quarantined shards, degradations — lands under the
        backend's name (``meta["remote"]``, ``meta["process"]``) and its
        warnings in ``meta["warnings"]``, so a degraded run says so in its
        envelope rather than in logs.
        """
        report = self.backend.pop_job_report()
        if report:
            meta[self.backend.name] = report
            if report.get("warnings"):
                meta["warnings"] = tuple(report["warnings"])
        return meta

    def _run_sweep(self, request: MatrixRequest, job: JobHandle) -> ResultEnvelope:
        cells = request.normalized().cells
        children = []
        runs: dict[str, ScenarioRun] = {}
        for index, cell in enumerate(cells):
            # Cells run one after another, each a campaign on the session's
            # backend, so every cell's shards share the warm pool.
            specs = build_scenario_hosts(cell.scenario, seed=cell.seed)
            runner = CampaignRunner(
                specs,
                cell.config,
                seed=cell.seed,
                remote_port=cell.remote_port,
                shards=cell.shards,
                max_workers=self.max_workers,
                scenario=cell.label,
                backend=self.backend,
            )
            result = runner.execute(cell.tests)
            runs[cell.label] = ScenarioRun(scenario=cell.scenario, seed=cell.seed, result=result)
            children.append(self._cell_envelope(cell, runner.plan(cell.tests), result))
            job._report(ProgressEvent("cell", index + 1, len(cells), label=cell.label))
        cell_digests = tuple(
            sorted((child.scenario or "", child.result_digest or "") for child in children)
        )
        return ResultEnvelope(
            kind=KIND_MATRIX,
            payload=MatrixResult(runs=runs),
            scenario=None,
            plan_digest=None,
            result_digest=hashlib.sha256(repr(cell_digests).encode()).hexdigest(),
            meta={
                "seed": request.seed,
                "cells": len(cells),
                "backend": self._backend_name,
            },
            children=tuple(children),
        )

    def _cell_envelope(
        self, cell: CellPlan, plan: Any, result: CampaignResult
    ) -> ResultEnvelope:
        return ResultEnvelope(
            kind=KIND_CAMPAIGN,
            payload=result,
            scenario=cell.label,
            plan_digest=plan_digest(plan),
            result_digest=result_digest(result),
            meta=self._with_job_report(
                {"seed": cell.seed, "shards": plan.shards, "backend": self._backend_name}
            ),
        )


__all__ = ["Session"]
