"""Sharded campaign execution: the survey at scale.

The paper's 20-day survey (§IV-B) cycled four measurement techniques over
dozens of hosts from a single vantage point.  :class:`repro.core.campaign.Campaign`
reproduces that faithfully — one simulator, one probe host, hosts visited in
sequence — which also makes it the scaling bottleneck: a single event loop on
a single core bounds how large a survey can get.

:class:`CampaignRunner` removes that bound.  It partitions the host spec list
into independent shards, builds each shard its own simulated world (its own
:class:`~repro.sim.simulator.Simulator`, :class:`~repro.host.raw_socket.ProbeHost`,
and :class:`~repro.core.prober.Prober`), runs the shards concurrently via
:meth:`CampaignRunner.execute` through one
:class:`~repro.api.backends.ExecutionBackend`, and merges the per-shard
records into one :class:`~repro.core.campaign.CampaignResult` in canonical
round-robin order.  Every campaign takes the same path: one completion-order
loop over :meth:`~repro.api.backends.ExecutionBackend.iter_shards`, with
serial and one-shard campaigns run inline.

Determinism
-----------
Shard testbeds are built with ``stable_site_seeds=True``, so every site's
random stream is derived from ``(seed, site name)`` alone — independent of
which shard the site lands in or how many shards exist.  Two guarantees
follow:

* **Fixed layout is fully reproducible.**  For a given
  ``(specs, config, seed, tests, shards)`` the merged dataset is identical
  across runs, backends (serial / process / remote), and worker counts.
* **Shard count doesn't change measurements** for sites whose behaviour
  depends only on their own path and stack — i.e. every site *not* behind a
  port-hashing middlebox and *not* on a time-varying path.  The merged
  result then matches the serial campaign's records modulo simulated
  timestamps (each shard's clock starts at zero) and packet uids.  Two
  exception classes exist.  Sites behind a transparent load balancer:
  backend selection hashes ephemeral ports, and the probe's port sequence
  depends on shard composition, so an LB site may flip backends when the
  layout changes — exactly as it would between reruns of the real survey.
  Sites on time-varying paths (diurnal congestion cycles, scheduled route
  flaps, clocked loss episodes — anything where
  :meth:`repro.scenarios.NetworkScenario.is_time_varying` is true): shard
  composition determines *when* in simulated time each host is visited, and
  a path that answers differently at different times of day measures
  differently.  ``docs/architecture.md`` ("The sharded campaign runner")
  spells this out.
"""

from __future__ import annotations

import hashlib
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.campaign import Campaign, CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import TestName
from repro.net.errors import MeasurementError, ShardError
from repro.workloads.population import partition_specs
from repro.workloads.testbed import HostSpec, build_testbed

if TYPE_CHECKING:  # pragma: no cover - type-only imports (these sit above core)
    from repro.api.backends import ExecutionBackend
    from repro.store.store import CampaignPlan, CampaignStore

CheckpointHook = Callable[["ShardOutcome", int, int], None]
"""Called after each shard becomes durable: ``(outcome, completed, total)``."""

EXECUTOR_PROCESS = "process"
EXECUTOR_SERIAL = "serial"


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One shard's complete, self-contained work order.

    Everything a worker needs to rebuild its slice of the world travels in
    this object, so a shard can run in another process as easily as inline.
    """

    index: int
    specs: tuple[HostSpec, ...]
    config: CampaignConfig
    tests: Optional[tuple[TestName, ...]]
    seed: int
    remote_port: int
    scenario: Optional[str] = None
    """Scenario identity the shard's records are stamped with, so a sweep's
    merged datasets stay self-describing no matter which worker produced
    them."""


@dataclass(slots=True)
class ShardOutcome:
    """What one shard measured."""

    index: int
    host_addresses: tuple[int, ...]
    records: list[HostRoundResult]


def record_signature(record: HostRoundResult) -> tuple:
    """The measurement content of a record, free of run-local bookkeeping.

    Two campaign runs measured the same thing exactly when their records have
    equal signatures.  The signature keeps everything the analysis layer
    consumes — round, host, test, scenario identity, error text, eligibility,
    and every sample's per-direction outcome and spacing — and drops the two things that are
    artifacts of *where* the record was produced: simulated timestamps (each
    shard's clock starts at zero) and packet uids (a process-wide counter,
    never an on-the-wire field).
    """
    report = record.report
    samples: tuple = ()
    if report.result is not None:
        samples = tuple(
            (sample.index, sample.forward.value, sample.reverse.value, sample.spacing)
            for sample in report.result.samples
        )
    return (
        record.round_index,
        record.host_address,
        record.test.value,
        record.scenario or "",
        report.error or "",
        report.ineligible,
        samples,
    )


def result_signature(result: CampaignResult) -> tuple:
    """Order-independent signature of a whole campaign dataset."""
    return tuple(sorted(record_signature(record) for record in result.records))


def result_digest(result: CampaignResult) -> str:
    """sha256 hex digest of :func:`result_signature`.

    This is the compact form the golden-signature tests pin and the CLI /
    CI resume-smoke job compare: two campaigns measured the same thing
    exactly when their digests match.
    """
    return hashlib.sha256(repr(result_signature(result)).encode()).hexdigest()


def merge_records(
    records: Iterable[HostRoundResult],
    *,
    config: CampaignConfig,
    host_addresses: tuple[int, ...],
    tests: tuple[TestName, ...],
    scenario: Optional[str],
) -> CampaignResult:
    """Merge shard records into one result in canonical round-robin order.

    The canonical order is the exact sequence the serial Campaign visits
    (round, then host in spec order, then test in cycle order), so merged
    output is independent of shard completion order — and of whether the
    records came straight from workers or back out of a
    :class:`~repro.store.store.CampaignStore`.
    """
    host_order = {address: index for index, address in enumerate(host_addresses)}
    test_order = {test: index for index, test in enumerate(tests)}
    ordered = sorted(
        records,
        key=lambda record: (
            record.round_index,
            host_order[record.host_address],
            test_order[record.test],
        ),
    )
    result = CampaignResult(config=config, host_addresses=host_addresses, scenario=scenario)
    result.extend(ordered)
    return result


def run_shard(task: ShardTask) -> ShardOutcome:
    """Build one shard's testbed and run its campaign to completion.

    Module-level (rather than a method) so :class:`ShardTask` instances can be
    shipped to :class:`~concurrent.futures.ProcessPoolExecutor` workers.
    """
    testbed = build_testbed(list(task.specs), seed=task.seed, stable_site_seeds=True)
    campaign = Campaign(
        testbed.probe,
        testbed.addresses(),
        task.config,
        remote_port=task.remote_port,
        scenario=task.scenario,
    )
    result = campaign.run(task.tests)
    return ShardOutcome(
        index=task.index,
        host_addresses=result.host_addresses,
        records=result.records,
    )


def run_shard_checked(task: ShardTask) -> ShardOutcome:
    """:func:`run_shard`, with any exception wrapped in a :class:`ShardError`.

    Every backend's local execution goes through here, so a bug in shard code
    surfaces the same way wherever the shard ran and is never retried.
    """
    try:
        return run_shard(task)
    except Exception as exc:
        raise ShardError(task.index, exc) from exc


class CampaignRunner:
    """Runs a measurement campaign over a host population in parallel shards.

    Parameters
    ----------
    specs:
        Host specs for the whole population (e.g. from
        :func:`repro.workloads.population.generate_population`).
    config:
        Campaign schedule, shared by every shard.
    seed:
        Base seed for every shard testbed.  Combined with stable per-site
        seeding, this makes the merged result a pure function of
        ``(specs, config, seed, tests, shards)``; executor choice and worker
        count change wall-clock time, never records.  Shard *count* is also
        irrelevant to the records except for sites behind port-hashing load
        balancers (see the module docstring's determinism notes).
    shards:
        Number of partitions.  Shards beyond ``len(specs)`` are dropped
        rather than left empty.
    executor:
        A backend name from the :mod:`repro.api.backends` registry:
        ``"process"`` (default) for multi-core execution, ``"serial"`` to
        run shards inline, ``"remote"`` for socket workers.  Pool failures
        are the backend's to absorb (see :mod:`repro.api.backends`).
    backend:
        An :class:`~repro.api.backends.ExecutionBackend` *instance* to run
        on, overriding ``executor``.  The runner borrows it (never closes
        it), which is how a :class:`repro.api.Session` shares one warm pool
        across many campaigns and matrix cells.
    scenario:
        Optional scenario name stamped on every record and on the merged
        result, so sweep datasets remain self-describing (the scenario layer
        in :mod:`repro.scenarios` sets this automatically).
    """

    def __init__(
        self,
        specs: Sequence[HostSpec],
        config: Optional[CampaignConfig] = None,
        *,
        seed: int = 1,
        remote_port: int = 80,
        shards: int = 1,
        executor: str = EXECUTOR_PROCESS,
        max_workers: Optional[int] = None,
        scenario: Optional[str] = None,
        backend: Optional["ExecutionBackend"] = None,
    ) -> None:
        if not specs:
            raise MeasurementError("campaign runner requires at least one host spec")
        if shards < 1:
            raise MeasurementError(f"campaign runner needs at least one shard: {shards}")
        if backend is None:
            from repro.api.backends import backend_names

            if executor not in backend_names():
                raise MeasurementError(
                    f"unknown executor {executor!r}; expected one of {backend_names()}"
                )
        self.specs = tuple(specs)
        self.config = config or CampaignConfig()
        self.seed = seed
        self.remote_port = remote_port
        self.shards = shards
        self.executor = backend.name if backend is not None else executor
        self.max_workers = max_workers
        self.scenario = scenario
        self._backend = backend

    @property
    def host_addresses(self) -> tuple[int, ...]:
        """Addresses of the whole population, in spec order."""
        return tuple(spec.address for spec in self.specs)

    def shard_plan(self) -> list[list[HostSpec]]:
        """The partitions the runner will execute, in order."""
        return partition_specs(self.specs, self.shards)

    def plan(
        self,
        tests: Optional[Iterable[TestName]] = None,
        *,
        origin: Optional[dict] = None,
    ) -> "CampaignPlan":
        """The durable-store plan describing exactly this runner's campaign.

        ``origin`` optionally records how the host specs were built (e.g. the
        registry scenario and population size) so a resume can rebuild them
        from the manifest alone; it travels in the store verbatim.
        """
        from repro.store.store import CampaignPlan, specs_digest

        active_tests = tuple(tests) if tests is not None else self.config.tests
        return CampaignPlan(
            seed=self.seed,
            shards=len(self.shard_plan()),
            remote_port=self.remote_port,
            scenario=self.scenario,
            tests=active_tests,
            config=self.config,
            specs_digest=specs_digest(self.specs),
            host_addresses=self.host_addresses,
            origin=origin,
        )

    def execute(
        self,
        tests: Optional[Iterable[TestName]] = None,
        *,
        store: Optional["CampaignStore"] = None,
        resume: bool = False,
        origin: Optional[dict] = None,
        on_checkpoint: Optional[CheckpointHook] = None,
    ) -> CampaignResult:
        """Execute every shard and merge the records into one result.

        With a ``store``, the runner checkpoints each shard's records as the
        shard completes (durable before the next checkpoint fires), so an
        interrupted run can be continued with ``resume=True``: shards the
        store already holds are loaded back instead of re-executed, and the
        merged result is bit-identical — same
        :func:`result_signature` — to an uninterrupted run.  The runner must
        be constructed with the same specs, config, seed, and shard count as
        the original run; the store verifies this against its manifest and
        raises :class:`~repro.net.errors.StoreError` on any mismatch.

        ``on_checkpoint`` fires after every completed shard even without a
        store (progress observation); with a store it fires only after the
        shard is durable.
        """
        active_tests = tuple(tests) if tests is not None else self.config.tests
        tasks = [
            ShardTask(
                index=index,
                specs=tuple(shard),
                config=self.config,
                tests=active_tests,
                seed=self.seed,
                remote_port=self.remote_port,
                scenario=self.scenario,
            )
            for index, shard in enumerate(self.shard_plan())
        ]
        outcomes: list[ShardOutcome] = []
        if store is not None:
            completed = store.begin(self.plan(active_tests, origin=origin), resume=resume)
            # Previously durable shards are read back; shards executed this
            # run merge from memory (the codec is lossless, so both sources
            # yield signature-identical records).
            outcomes = [store.read_shard(index) for index in sorted(completed)]
            tasks = [task for task in tasks if task.index not in completed]
        total = len(outcomes) + len(tasks)
        backend, owned = self._resolve_backend()
        try:
            with closing(self._iter_outcomes(tasks, backend)) as fresh:
                # Completion order; each shard is durable before its hook
                # fires.  Closing the iterator (a hook or store write raised)
                # drops the shards that have not started.
                for outcome in fresh:
                    if store is not None:
                        store.write_shard(outcome)
                    outcomes.append(outcome)
                    if on_checkpoint is not None:
                        on_checkpoint(outcome, len(outcomes), total)
        finally:
            if owned:
                backend.close()
        return self._merge(outcomes, active_tests)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolve_backend(self) -> tuple["ExecutionBackend", bool]:
        """The backend to run on, plus whether this runner owns (closes) it."""
        if self._backend is not None:
            return self._backend, False
        from repro.api.backends import create_backend

        return create_backend(self.executor, self.max_workers), True

    @staticmethod
    def _iter_outcomes(
        tasks: list[ShardTask], backend: "ExecutionBackend"
    ) -> Iterator[ShardOutcome]:
        """Shard outcomes in completion order: the one dispatch path.

        A serial or one-shard campaign runs inline and never pays pool
        spin-up — shard tasks are pure functions, so where they run cannot
        change what they measure.
        """
        if backend.name == EXECUTOR_SERIAL or len(tasks) <= 1:
            return (run_shard_checked(task) for task in tasks)
        return backend.iter_shards(tasks)

    def _merge(
        self, outcomes: Iterable[ShardOutcome], active_tests: tuple[TestName, ...]
    ) -> CampaignResult:
        return merge_records(
            (record for outcome in outcomes for record in outcome.records),
            config=self.config,
            host_addresses=self.host_addresses,
            tests=active_tests,
            scenario=self.scenario,
        )
