"""Session-layer acceptance: the API front door changes nothing measured.

The hard bar from the redesign: for **every** registry scenario, a campaign
submitted through :class:`repro.api.Session` on the serial and process
backends must produce a ``result_digest`` bit-identical to the
pre-redesign golden digests — and the envelope, job-handle, and backend
surfaces must behave as documented.
"""

from __future__ import annotations

import gc
import threading
import warnings
import weakref

import pytest

from repro.api import (
    CampaignRequest,
    JobCancelled,
    JobStatus,
    MatrixRequest,
    ProbeRequest,
    ProcessBackend,
    SerialBackend,
    Session,
    create_backend,
    unwrap_result,
)
from repro.analysis.streaming import survey_from_envelope
from repro.analysis.survey import summarize_eligibility
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL, CampaignRunner, result_digest
from repro.net.errors import MeasurementError
from repro.scenarios import scenario_names
from repro.scenarios.matrix import derive_cell_seed
from test_golden_signatures import (
    GOLDEN_CONFIG,
    GOLDEN_DIGESTS,
    GOLDEN_HOSTS,
    GOLDEN_SEED,
)

BACKENDS = (EXECUTOR_SERIAL, "process")

# Time-varying layouts measure differently per shard count (documented in
# repro.core.runner), so only the other scenarios pin the shards=1 golden
# digest at shards=2 as well.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})

_REFERENCE_CACHE: dict[str, str] = {}


def _request(name: str, shards: int = 2) -> CampaignRequest:
    return CampaignRequest(
        scenario=name,
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=shards,
    )


def _reference_digest(name: str) -> str:
    """The serial shards=2 digest, computed once per scenario."""
    if name not in _REFERENCE_CACHE:
        with Session(backend=EXECUTOR_SERIAL) as session:
            _REFERENCE_CACHE[name] = session.run(_request(name)).result_digest
    return _REFERENCE_CACHE[name]


# --------------------------------------------------------------------- #
# The acceptance matrix: every scenario x every built-in backend
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_digest_is_backend_invariant(name, backend):
    with Session(backend=backend) as session:
        envelope = session.run(_request(name))
    assert envelope.kind == "campaign"
    assert envelope.version == 1
    assert envelope.scenario == name
    assert envelope.plan_digest
    assert envelope.result_digest == _reference_digest(name), (
        f"scenario {name!r} measured differently on the {backend} backend"
    )
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name], (
            f"scenario {name!r} via the session layer no longer matches the "
            "pre-redesign golden digest"
        )


def test_single_shard_session_matches_golden_digests_exactly():
    """shards=1 is the exact configuration the golden digests were pinned at."""
    for name in sorted(GOLDEN_DIGESTS):
        with Session(backend=EXECUTOR_SERIAL) as session:
            envelope = session.run(_request(name, shards=1))
        assert envelope.result_digest == GOLDEN_DIGESTS[name]


# --------------------------------------------------------------------- #
# Envelopes
# --------------------------------------------------------------------- #


def test_campaign_envelope_carries_identity_and_feeds_analysis():
    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(_request("imc2002-survey"))
    assert envelope.meta["seed"] == GOLDEN_SEED
    assert envelope.meta["shards"] == 2
    assert envelope.meta["backend"] == EXECUTOR_SERIAL
    assert envelope.result_digest == result_digest(envelope.result)
    # The batch helper and the streaming survey both take the envelope as is.
    summary = summarize_eligibility(envelope)
    assert summary.total_hosts == GOLDEN_HOSTS
    survey = survey_from_envelope(envelope)
    assert survey.eligibility().to_table() == summary.to_table()
    assert unwrap_result(envelope) is envelope.payload


def test_probe_request_runs_requested_techniques():
    request = ProbeRequest(
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        samples=20,
        seed=3,
        forward_swap_probability=0.2,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        first = session.run(request)
        second = session.run(request)
    assert first.kind == "probe"
    assert set(first.payload) == {TestName.SINGLE_CONNECTION, TestName.SYN}
    assert all(report.succeeded for report in first.payload.values())
    # Determinism: the digest is a pure function of the request.
    assert first.result_digest == second.result_digest


def test_matrix_request_measures_identically_on_every_backend():
    request = MatrixRequest(
        scenarios=("imc2002-survey", "bursty-loss"),
        config=GOLDEN_CONFIG,
        hosts=3,
        seed=11,
        shards=2,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        sequential = session.run(request)
    with Session(backend="process") as session:
        pooled = session.run(request)
    assert sequential.kind == pooled.kind == "matrix"
    assert sequential.result_digest == pooled.result_digest
    assert {child.scenario for child in sequential.children} == {
        "imc2002-survey/mixed",
        "bursty-loss/mixed",
    }
    # Cell seeds derive from the cell key, independent of execution order.
    for child in sequential.children:
        scenario = child.scenario.split("/")[0]
        assert child.meta["seed"] == derive_cell_seed(11, scenario)
    # Matrix envelopes stream into per-cell scenario slices.
    survey = survey_from_envelope(sequential)
    assert set(survey.scenario_slices()) == set(child.scenario for child in sequential.children)


# --------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------- #


def test_job_handle_lifecycle_and_progress():
    events = []
    with Session(backend=EXECUTOR_SERIAL) as session:
        job = session.submit(_request("imc2002-survey"))
        job.add_progress_callback(events.append)
        envelope = job.result(timeout=120)
    assert job.status() is JobStatus.SUCCEEDED
    assert job.done()
    assert job.error() is None
    assert envelope.result_digest == _reference_digest("imc2002-survey")
    final = job.progress()
    assert final is not None and final.completed == final.total
    assert final.fraction == 1.0


def test_job_failure_reraises_from_result():
    with Session(backend=EXECUTOR_SERIAL) as session:
        job = session.submit(CampaignRequest(scenario="no-such-scenario"))
        with pytest.raises(Exception, match="no-such-scenario"):
            job.result(timeout=60)
    assert job.status() is JobStatus.FAILED
    assert job.error() is not None


def test_cancel_takes_effect_at_the_next_progress_boundary():
    with Session(backend=EXECUTOR_SERIAL) as session:
        cancel_requested = threading.Event()

        def hold_first_shard(outcome, completed, total):
            # Park the worker at its first boundary until cancel() has fired,
            # making the cancellation point deterministic.
            assert cancel_requested.wait(30)

        job = session.submit(
            CampaignRequest(
                scenario="imc2002-survey",
                config=GOLDEN_CONFIG,
                hosts=GOLDEN_HOSTS,
                seed=GOLDEN_SEED,
                shards=2,
                on_checkpoint=hold_first_shard,
            )
        )
        assert job.cancel() is True
        cancel_requested.set()
        with pytest.raises(JobCancelled):
            job.result(timeout=120)
        assert job.status() is JobStatus.CANCELLED


def test_cancel_mid_campaign_stops_at_a_shard_boundary():
    with Session(backend=EXECUTOR_SERIAL) as session:
        job_box = {}

        def cancel_self(event):
            job_box["job"].cancel()

        job = session.submit(_request("imc2002-survey", shards=2))
        job_box["job"] = job
        job.add_progress_callback(cancel_self)
        with pytest.raises(JobCancelled):
            job.result(timeout=120)
        assert job.status() is JobStatus.CANCELLED


def test_cancel_after_completion_returns_false():
    with Session(backend=EXECUTOR_SERIAL) as session:
        job = session.submit(ProbeRequest(samples=5, seed=2))
        job.result(timeout=60)
        assert job.cancel() is False


# --------------------------------------------------------------------- #
# Session and backend plumbing
# --------------------------------------------------------------------- #


def test_session_rejects_unknown_backend_and_closed_submit():
    with pytest.raises(MeasurementError, match="unknown execution backend"):
        Session(backend="gpu")
    session = Session(backend=EXECUTOR_SERIAL)
    session.close()
    with pytest.raises(MeasurementError, match="closed session"):
        session.submit(ProbeRequest())


def test_borrowed_backend_is_not_closed_by_the_session():
    backend = ProcessBackend(max_workers=2)
    try:
        with Session(backend=backend) as session:
            digest = session.run(_request("imc2002-survey")).result_digest
        # The pool survives the session and still executes work.
        with Session(backend=backend) as session:
            again = session.run(_request("imc2002-survey")).result_digest
        assert digest == again == _reference_digest("imc2002-survey")
    finally:
        backend.close()


def test_concurrent_jobs_share_one_backend_safely():
    """Two jobs submitted back-to-back race on the shared warm pool."""
    with Session(backend="process", max_workers=2) as session:
        jobs = [
            session.submit(_request(name))
            for name in ("imc2002-survey", "bursty-loss")
        ]
        digests = [job.result(timeout=300).result_digest for job in jobs]
    assert digests[0] == _reference_digest("imc2002-survey")
    assert digests[1] == _reference_digest("bursty-loss")


def test_session_keeps_no_finished_job():
    """Finished handles and their envelopes belong to the caller alone."""
    request = CampaignRequest(
        scenario="imc2002-survey",
        config=CampaignConfig(rounds=1, samples_per_measurement=2, tests=(TestName.SYN,)),
        hosts=2,
        seed=3,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        for _ in range(3):
            envelope = session.run(request)
        dropped = weakref.ref(envelope)
        del envelope
        # A job thread may still be unwinding after result() returned.
        for thread in threading.enumerate():
            if thread.name.startswith("repro-job-"):
                thread.join(timeout=30)
        gc.collect()
        assert dropped() is None, "the session still holds a finished envelope"
        assert not session._jobs
        running = session.submit(request)
        running.result(timeout=60)
        assert running not in session._jobs


def test_create_backend_resolves_names_and_instances():
    serial = create_backend(EXECUTOR_SERIAL)
    assert isinstance(serial, SerialBackend)
    process = ProcessBackend(max_workers=1)
    assert create_backend(process) is process
    process.close()
    with pytest.raises(MeasurementError, match="unknown execution backend"):
        create_backend("gpu")


def test_campaign_request_validates_population_source():
    with pytest.raises(MeasurementError, match="exactly one population source"):
        CampaignRequest().normalized()
    with pytest.raises(MeasurementError, match="exactly one population source"):
        CampaignRequest(scenario="imc2002-survey", specs=()).normalized()


def test_explicit_spec_campaign_matches_runner_output():
    from repro.core.runner import CampaignRunner
    from repro.workloads.population import PopulationSpec, generate_population

    specs = tuple(generate_population(PopulationSpec(num_hosts=3), seed=5))
    config = CampaignConfig(rounds=1, samples_per_measurement=3)
    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(
            CampaignRequest(specs=specs, config=config, seed=5, shards=2)
        )
    runner = CampaignRunner(specs, config, seed=5, shards=2, executor=EXECUTOR_SERIAL)
    assert envelope.result_digest == result_digest(runner.execute())


# --------------------------------------------------------------------- #
# No deprecated path left behind
# --------------------------------------------------------------------- #

_QUIET_CONFIG = CampaignConfig(
    rounds=1,
    samples_per_measurement=4,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)


def test_modern_surface_emits_no_deprecation_warnings():
    """The session layer (and what it feeds) stays clean under -W error."""
    from repro.workloads.population import PopulationSpec, generate_population

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session(backend=EXECUTOR_SERIAL) as session:
            session.run(ProbeRequest(samples=5, seed=2))
            session.run(
                CampaignRequest(
                    scenario="imc2002-survey", config=_QUIET_CONFIG, hosts=2, seed=3
                )
            )
            session.run(
                MatrixRequest(
                    scenarios=("imc2002-survey",), config=_QUIET_CONFIG, hosts=2, seed=3
                )
            )
        specs = generate_population(PopulationSpec(num_hosts=2), seed=3)
        result = CampaignRunner(
            specs, _QUIET_CONFIG, seed=3, executor=EXECUTOR_SERIAL
        ).execute()
        summarize_eligibility(result)


def test_modern_cli_subcommands_emit_no_deprecation_warnings(capsys):
    from repro.__main__ import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main([
            "run", "--scenario", "imc2002-survey", "--hosts", "2", "--seed", "3",
            "--rounds", "1", "--samples", "4", "--executor", "serial",
        ]) == 0
    capsys.readouterr()
