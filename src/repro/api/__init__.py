"""The unified session layer: typed requests in, enveloped results out.

This package is the library's one front door.  Build a request
(:class:`ProbeRequest`, :class:`CampaignRequest`, :class:`MatrixRequest`,
or :class:`ResumeRequest`), submit it to a :class:`Session`, and get back a
:class:`JobHandle` whose :meth:`~repro.api.jobs.JobHandle.result` is a
versioned :class:`ResultEnvelope` carrying the dataset plus its identity
(scenario label, plan digest, result digest).  Work executes on a pluggable
:class:`ExecutionBackend` (``serial`` / ``process`` / ``remote`` built in,
more via :func:`register_backend`), and one session shares one warm pool
across every job, shard, and matrix cell it runs.

There is one way to run a campaign: ``Session`` →
:meth:`~repro.core.runner.CampaignRunner.execute` → one backend's
:meth:`~ExecutionBackend.iter_shards`.  The lower layers
(``quick_testbed`` + per-technique test classes, ``CampaignRunner``) stay
available for direct use.

>>> from repro.api import ProbeRequest, Session
>>> with Session(backend="serial") as session:
...     job = session.submit(ProbeRequest(samples=20, seed=3))
...     envelope = job.result()
>>> envelope.kind, envelope.version
('probe', 1)
"""

from repro.api.backends import (
    POOL_FAILURES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    backend_names,
    create_backend,
    register_backend,
)
from repro.api.envelope import (
    ENVELOPE_VERSION,
    ResultEnvelope,
    plan_digest,
    unwrap_result,
)
from repro.api.jobs import (
    JobCancelled,
    JobHandle,
    JobStatus,
    ProgressEvent,
)
from repro.api.requests import (
    CampaignRequest,
    CellPlan,
    MatrixRequest,
    ProbeRequest,
    Request,
    ResumeRequest,
)
from repro.api.session import Session

__all__ = [
    "CampaignRequest",
    "CellPlan",
    "ENVELOPE_VERSION",
    "ExecutionBackend",
    "JobCancelled",
    "JobHandle",
    "JobStatus",
    "MatrixRequest",
    "POOL_FAILURES",
    "ProbeRequest",
    "ProcessBackend",
    "ProgressEvent",
    "Request",
    "ResultEnvelope",
    "ResumeRequest",
    "SerialBackend",
    "Session",
    "backend_names",
    "create_backend",
    "plan_digest",
    "register_backend",
    "unwrap_result",
]
