"""The benchmark's workloads: inputs from a seed, one op, and a serial replay.

Each workload turns the benchmark seed into the requests it sends; the
program receives only those requests.  One op goes through the front door
(``Session.run`` -> ``CampaignRunner.execute`` -> the session's backend),
then derives the Figure 5 CDF from what the op produced.  The serial
reference and the traced replay compute the same results outside the timed
window, so every op's digests and Figure 5 rates can be checked.

The replay re-executes one op serially in the client through public calls
(``CampaignRequest.normalized``, ``build_scenario_hosts``,
``CampaignRunner.shard_plan``, ``build_testbed``, ``Campaign.run`` with
spans on ``Prober.run`` and ``Simulator.run_for``, ``encode_outcomes`` /
``decode_outcomes``, ``CampaignStore.write_shard`` / ``read_shard``,
``merge_records``, ``result_digest``, ``stream_survey`` /
``survey_from_store``), so the layers that run inside worker processes
during a real op get spans too.  Its digests must equal the reference's.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.analysis.streaming import stream_survey, survey_from_envelope, survey_from_store
from repro.api import CampaignRequest, MatrixRequest, ResumeRequest, Session
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import CampaignRunner, ShardOutcome, merge_records, result_digest
from repro.core.transport import decode_outcomes, encode_outcomes
from repro.scenarios.matrix import MIXED_OS, resolve_scenario
from repro.scenarios.population import build_scenario_hosts
from repro.scenarios.registry import scenario_names
from repro.store import CampaignStore
from repro.workloads.testbed import build_testbed

from bench_trace import TracedStore, Tracer

PAPER_SCENARIO = "imc2002-survey"

PAPER_POPULATION_SEED = 11
"""Population of the paper-survey workload, fixed across benchmark seeds.

The paper re-measured one fixed set of hosts; the benchmark seed varies the
measurement randomness, not which 24 hosts exist.  Serial op time over
populations drawn from different seeds ranged 1.4-2.8 s, a spread wider
than any bound a regression gate could use."""

WARMUP_HOSTS = (4, 7)
"""Indexes into the paper-survey population of the set-up request's hosts."""

TECHNIQUE_SPANS = {test: f"core.{test.value.replace('-', '_')}" for test in TestName}
"""Span (and metric) name of each technique's ``Prober.run``."""

SC_SYN = (TestName.SINGLE_CONNECTION, TestName.SYN)

ANALYSIS_PASSES = 5
"""Times a store-less op derives Figure 5 from its envelope.

One pass takes about 7 ms, close to the machine's scheduling noise; the op
reports the median pass, so a 30-s paper-survey run still rests on some 150
passes rather than 30."""


def derive_seed(workload: str, seed: int) -> int:
    """The campaign seed a workload sends, derived from the benchmark seed."""
    return random.Random(f"{workload}/{seed}").randrange(1, 2**31)


@dataclass
class OpResult:
    """What one op did and produced."""

    campaign_s: float
    resume_s: float
    wall_s: float
    records: int
    digests: tuple[str, ...]
    fig5: dict
    envelopes: tuple = ()
    store_bytes: int = 0
    problems: list = field(default_factory=list)
    traced: bool = False


@dataclass
class ReplayStats:
    """Counts the replay takes at the layer boundaries, per op."""

    meas: dict = field(default_factory=lambda: {test: 0 for test in TestName})
    samples: dict = field(default_factory=lambda: {test: 0 for test in TestName})
    useful: dict = field(default_factory=lambda: {test: 0 for test in TestName})
    sim_events: int = 0
    packets_sent: int = 0
    packets_captured: int = 0
    captured_per_shard_max: int = 0
    testbeds: int = 0
    populations: int = 0
    transport_bytes: int = 0


def _timed_survey(tracer: Tracer, build: Callable[[], object]) -> dict:
    with tracer.span("analysis.survey"):
        survey = build()
    with tracer.span("analysis.fig5"):
        return dict(survey.fig5().per_path_rates)


def _analyse_envelope(tracer: Tracer, envelope) -> tuple[dict, float]:
    """Figure 5 of a finished envelope, and the median time one pass takes."""
    passes = []
    for _ in range(ANALYSIS_PASSES):
        start = time.perf_counter()
        rates = _timed_survey(tracer, lambda: survey_from_envelope(envelope))
        passes.append(time.perf_counter() - start)
    return rates, statistics.median(passes)


def _build_hosts(tracer: Tracer, stats: ReplayStats, scenario, seed: int) -> list:
    with tracer.span("scenarios.build_hosts"):
        specs = build_scenario_hosts(scenario, seed=seed)
    stats.populations += 1
    return specs


def _traced_store(tracer: Tracer, store: TracedStore) -> TracedStore:
    store.tracer = tracer
    return store


def replay_shard(
    tracer: Tracer,
    stats: ReplayStats,
    index: int,
    specs,
    runner: CampaignRunner,
    tests: tuple[TestName, ...],
) -> ShardOutcome:
    """One shard, built and run as ``run_shard`` does.

    ``Campaign.run`` looks up ``prober.run`` and ``sim.run_for`` when it
    starts, so wrapping those two instance attributes puts a span around
    every technique and every stretch of simulated time without copying
    the campaign loop.
    """
    with tracer.span("core.campaign"):
        with tracer.span("workloads.build_testbed"):
            testbed = build_testbed(list(specs), seed=runner.seed, stable_site_seeds=True)
        campaign = Campaign(
            testbed.probe,
            testbed.addresses(),
            runner.config,
            remote_port=runner.remote_port,
            scenario=runner.scenario,
        )
        probe_run = campaign.prober.run
        sim = testbed.probe.sim
        run_for = sim.run_for

        def traced_probe_run(test, address, **kwargs):
            with tracer.span(TECHNIQUE_SPANS[test]):
                return probe_run(test, address, **kwargs)

        def traced_run_for(duration):
            with tracer.span("sim.run_for"):
                run_for(duration)

        campaign.prober.run = traced_probe_run
        sim.run_for = traced_run_for
        result = campaign.run(tests)
    for record in result.records:
        count = record.report.result.sample_count() if record.report.result is not None else 0
        stats.meas[record.test] += 1
        stats.samples[record.test] += count
        stats.useful[record.test] += count > 0
    probe = testbed.probe
    stats.testbeds += 1
    stats.sim_events += sim.processed_events
    stats.packets_sent += probe.packets_sent
    stats.packets_captured += probe.received_count()
    stats.captured_per_shard_max = max(stats.captured_per_shard_max, probe.received_count())
    return ShardOutcome(index=index, host_addresses=result.host_addresses, records=result.records)


def replay_transport(tracer: Tracer, stats: ReplayStats, outcome: ShardOutcome) -> ShardOutcome:
    """Ship one outcome through the worker-to-client codec and back."""
    with tracer.span("core.transport.encode"):
        blob = encode_outcomes([outcome])
    with tracer.span("core.transport.decode"):
        (decoded,) = decode_outcomes(blob)
    stats.transport_bytes += len(blob)
    return decoded


def replay_campaign(
    tracer: Tracer,
    stats: ReplayStats,
    runner: CampaignRunner,
    tests: Optional[tuple[TestName, ...]],
    store: Optional[CampaignStore] = None,
):
    """Every shard of one campaign, shipped, stored, merged and digested."""
    active_tests = tests if tests is not None else runner.config.tests
    outcomes = []
    for index, specs in enumerate(runner.shard_plan()):
        outcome = replay_shard(tracer, stats, index, specs, runner, active_tests)
        outcome = replay_transport(tracer, stats, outcome)
        if store is not None:
            store.write_shard(outcome)
        outcomes.append(outcome)
    return merge_and_digest(tracer, outcomes, runner, active_tests)


def merge_and_digest(tracer: Tracer, outcomes, runner: CampaignRunner, tests):
    with tracer.span("core.runner.merge"):
        result = merge_records(
            (record for outcome in outcomes for record in outcome.records),
            config=runner.config,
            host_addresses=runner.host_addresses,
            tests=tests,
            scenario=runner.scenario,
        )
    with tracer.span("core.runner.digest"):
        return result, result_digest(result)


def request_runner(tracer: Tracer, stats: ReplayStats, request: CampaignRequest):
    """The runner a session builds for ``request`` (population built traced)."""
    if request.scenario is None:
        campaign = request.normalized()
    else:
        with tracer.span("scenarios.build_hosts"):
            campaign = request.normalized()
        stats.populations += 1
    runner = CampaignRunner(
        campaign.specs,
        campaign.config,
        seed=campaign.seed,
        remote_port=campaign.remote_port,
        shards=campaign.shards,
        executor="serial",
        scenario=campaign.label,
    )
    return runner, campaign.tests


class Workload:
    """One named workload: its backend, inputs, op, reference and replay."""

    name: str
    backend: str

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = derive_seed(self.name, seed)
        self.workdir = workdir

    def warmup_request(self) -> CampaignRequest:
        """The first request a fresh session serves during set-up."""
        raise NotImplementedError

    def run_op(self, session: Session, tracer: Tracer) -> OpResult:
        raise NotImplementedError

    def replay(self, tracer: Tracer, stats: ReplayStats) -> tuple[tuple[str, ...], dict]:
        """Serial traced replay of one op: its digests and Figure 5 rates."""
        raise NotImplementedError

    def cleanup_op(self) -> None:
        """Remove what the last op left on disk (outside the timed window)."""

    def cleanup(self) -> None:
        """Remove everything the run left on disk."""


def tiny_campaign(seed: int) -> CampaignRequest:
    """The smallest campaign a pooled backend serves: two one-host shards."""
    return CampaignRequest(
        scenario=PAPER_SCENARIO,
        hosts=2,
        shards=2,
        tests=(TestName.SINGLE_CONNECTION,),
        config=CampaignConfig(rounds=1, samples_per_measurement=1),
        seed=seed,
    )


def _session_run(session: Session, tracer: Tracer, request):
    with tracer.span("api.session"):
        return session.run(request)


class PaperSurvey(Workload):
    name = "paper-survey"
    backend = "process"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        scenario = resolve_scenario(PAPER_SCENARIO).with_population(num_hosts=24)
        self.specs = tuple(build_scenario_hosts(scenario, seed=PAPER_POPULATION_SEED))
        self.config = CampaignConfig(rounds=1, samples_per_measurement=10)

    def request(self, specs) -> CampaignRequest:
        return CampaignRequest(
            specs=specs,
            scenario_label=PAPER_SCENARIO,
            shards=min(8, len(specs)),
            config=self.config,
            seed=self.seed,
        )

    def warmup_request(self) -> CampaignRequest:
        # Same config, seed and label as every op, so the process pool's
        # stashed shard context is the one the ops hit.  Two shards, so the
        # pool serves it; host-004 and host-007 are the population's two
        # fastest hosts to simulate (7 and 15 ms), so set-up time is mostly
        # pool start-up rather than data-transfer.
        return self.request(tuple(self.specs[index] for index in WARMUP_HOSTS))

    def run_op(self, session: Session, tracer: Tracer) -> OpResult:
        start = time.perf_counter()
        envelope = _session_run(session, tracer, self.request(self.specs))
        middle = time.perf_counter()
        rates, resume_s = _analyse_envelope(tracer, envelope)
        return OpResult(
            campaign_s=middle - start,
            resume_s=resume_s,
            wall_s=middle - start + resume_s,
            records=len(envelope.result.records),
            digests=(envelope.result_digest,),
            fig5=rates,
            envelopes=(envelope,),
        )

    def replay(self, tracer: Tracer, stats: ReplayStats):
        runner, tests = request_runner(tracer, stats, self.request(self.specs))
        result, digest = replay_campaign(tracer, stats, runner, tests)
        rates = _timed_survey(
            tracer, lambda: stream_survey(result.records, host_addresses=result.host_addresses)
        )
        return (digest,), rates


class ScenarioSweep(Workload):
    name = "scenario-sweep"
    backend = "process"

    config = CampaignConfig(
        rounds=1, samples_per_measurement=6, inter_measurement_gap=0.2, inter_round_gap=1.0
    )

    def request(self) -> MatrixRequest:
        return MatrixRequest(
            scenarios=scenario_names(),
            os_names=(MIXED_OS,),
            hosts=4,
            shards=2,
            tests=SC_SYN,
            config=self.config,
            seed=self.seed,
        )

    def warmup_request(self) -> CampaignRequest:
        # Unlike every cell, so each cell misses the pool's stashed context
        # and ships whole tasks, as a sweep does.
        return tiny_campaign(self.seed)

    def run_op(self, session: Session, tracer: Tracer) -> OpResult:
        start = time.perf_counter()
        envelope = _session_run(session, tracer, self.request())
        middle = time.perf_counter()
        rates, resume_s = _analyse_envelope(tracer, envelope)
        return OpResult(
            campaign_s=middle - start,
            resume_s=resume_s,
            wall_s=middle - start + resume_s,
            records=sum(len(child.result.records) for child in envelope.children),
            digests=tuple(sorted((child.scenario, child.result_digest) for child in envelope.children)),
            fig5=rates,
            envelopes=(envelope,),
        )

    def replay(self, tracer: Tracer, stats: ReplayStats):
        digests = []
        results = []
        for cell in self.request().normalized().cells:
            # As a session's matrix cell: population rebuilt, shards serial.
            runner = CampaignRunner(
                _build_hosts(tracer, stats, cell.scenario, cell.seed),
                cell.config,
                seed=cell.seed,
                remote_port=cell.remote_port,
                shards=cell.shards,
                executor="serial",
                scenario=cell.label,
            )
            result, digest = replay_campaign(tracer, stats, runner, cell.tests)
            digests.append((cell.label, digest))
            results.append(result)
        # A matrix envelope streams its cells' records in cell order.
        rates = _timed_survey(
            tracer,
            lambda: stream_survey(record for result in results for record in result.records),
        )
        return tuple(sorted(digests)), rates


class CheckpointResume(Workload):
    name = "checkpoint-resume"
    backend = "remote"

    config = CampaignConfig(rounds=2, samples_per_measurement=10)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._ops = 0
        self._root: Optional[Path] = None

    def request(self, store=None) -> CampaignRequest:
        return CampaignRequest(
            scenario=PAPER_SCENARIO,
            hosts=32,
            shards=16,
            tests=SC_SYN,
            config=self.config,
            seed=self.seed,
            store=store,
        )

    def warmup_request(self) -> CampaignRequest:
        return tiny_campaign(self.seed)

    def _fresh_root(self) -> Path:
        self._ops += 1
        self._root = self.workdir / f"store-{self._ops}"
        return self._root

    def run_op(self, session: Session, tracer: Tracer) -> OpResult:
        root = self._fresh_root()
        start = time.perf_counter()
        written = _session_run(
            session, tracer, self.request(_traced_store(tracer, TracedStore(root)))
        )
        middle = time.perf_counter()
        store = _traced_store(tracer, TracedStore.open(root))
        resumed = _session_run(session, tracer, ResumeRequest(store=store))
        rates = _timed_survey(tracer, lambda: survey_from_store(store))
        end = time.perf_counter()
        return OpResult(
            campaign_s=middle - start,
            resume_s=end - middle,
            wall_s=end - start,
            records=len(written.result.records),
            digests=(written.result_digest, resumed.result_digest),
            fig5=rates,
            envelopes=(written, resumed),
            store_bytes=self.segment_bytes(),
        )

    def segment_bytes(self) -> int:
        """Bytes of every file in the last op's store directory."""
        assert self._root is not None
        return sum(path.stat().st_size for path in self._root.iterdir() if path.is_file())

    def replay(self, tracer: Tracer, stats: ReplayStats):
        root = self._fresh_root()
        runner, tests = request_runner(tracer, stats, self.request())
        store = _traced_store(tracer, TracedStore.create(root, runner.plan(tests)))
        _, written = replay_campaign(tracer, stats, runner, tests, store)
        # Resume: rebuild the population from the manifest origin, read
        # every durable shard back, merge, digest and analyse.
        runner, tests = request_runner(tracer, stats, self.request())
        with tracer.span("store.open"):
            reopened = _traced_store(tracer, TracedStore.open(root))
        outcomes = [reopened.read_shard(index) for index in sorted(reopened.completed_shards())]
        _, resumed = merge_and_digest(tracer, outcomes, runner, tests or runner.config.tests)
        rates = _timed_survey(tracer, lambda: survey_from_store(reopened))
        self.cleanup_op()
        return (written, resumed), rates

    def cleanup_op(self) -> None:
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (PaperSurvey, ScenarioSweep, CheckpointResume)
}
