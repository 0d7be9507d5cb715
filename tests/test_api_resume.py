"""Resume through the session layer: ResumeRequest reproduces golden digests.

Satellite coverage for the API redesign: for **all 7** registry scenarios, a
campaign interrupted mid-run and continued via
``Session.submit(ResumeRequest(...))`` must merge to a ``result_digest``
bit-identical to an uninterrupted run — including the harshest path, a real
``SIGKILL`` through the CLI followed by an in-process API resume.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import CampaignRequest, JobCancelled, JobStatus, ResumeRequest, Session
from repro.core.runner import EXECUTOR_SERIAL
from repro.net.errors import StoreError
from repro.scenarios import scenario_names
from repro.store import CampaignStore
from test_golden_signatures import (
    GOLDEN_CONFIG,
    GOLDEN_DIGESTS,
    GOLDEN_HOSTS,
    GOLDEN_SEED,
)

# Time-varying layouts measure differently per shard count (documented in
# repro.core.runner), so only these scenarios pin the golden digest here.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})

SHARDS = 2


class SimulatedCrash(BaseException):
    """Raised from the checkpoint hook; BaseException so no handler eats it."""


def _crash_after(n: int):
    def hook(outcome, completed, total):
        if completed >= n:
            raise SimulatedCrash(f"injected crash after {completed}/{total} shards")

    return hook


def _request(name: str, store=None, on_checkpoint=None) -> CampaignRequest:
    return CampaignRequest(
        scenario=name,
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        seed=GOLDEN_SEED,
        shards=SHARDS,
        store=store,
        on_checkpoint=on_checkpoint,
    )


def _uninterrupted_digest(name: str) -> str:
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(_request(name)).result_digest


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_resume_request_reproduces_the_uninterrupted_digest(tmp_path, name):
    store_dir = tmp_path / name
    with Session(backend=EXECUTOR_SERIAL) as session:
        job = session.submit(_request(name, store=store_dir, on_checkpoint=_crash_after(1)))
        with pytest.raises(SimulatedCrash):
            job.result(timeout=300)
        assert job.status() is JobStatus.FAILED
    durable = CampaignStore.open(store_dir).completed_shards()
    assert durable and len(durable) < SHARDS, "crash must land mid-campaign"

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.submit(ResumeRequest(store=store_dir)).result(timeout=300)
    assert envelope.kind == "campaign"
    assert envelope.meta["resumed"] is True
    assert envelope.result_digest == _uninterrupted_digest(name)
    assert CampaignStore.open(store_dir).is_complete()
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name], (
            f"API resume of {name!r} no longer matches the pre-redesign "
            "golden digest"
        )


def test_resume_request_on_a_complete_store_reruns_nothing(tmp_path):
    store_dir = tmp_path / "complete"
    with Session(backend=EXECUTOR_SERIAL) as session:
        original = session.run(_request("imc2002-survey", store=store_dir))
    checkpoints = []
    with Session(backend=EXECUTOR_SERIAL) as session:
        resumed = session.run(
            ResumeRequest(
                store=store_dir,
                on_checkpoint=lambda outcome, completed, total: checkpoints.append(
                    outcome.index
                ),
            )
        )
    assert checkpoints == [], "a complete store has no shards left to execute"
    assert resumed.result_digest == original.result_digest


def test_resume_request_reapplies_an_os_name_override(tmp_path):
    """The origin must record os_name, or the rebuilt population mismatches."""
    store_dir = tmp_path / "os-override"
    request = CampaignRequest(
        scenario="imc2002-survey",
        config=GOLDEN_CONFIG,
        hosts=GOLDEN_HOSTS,
        os_name="freebsd-4.4",
        seed=GOLDEN_SEED,
        shards=SHARDS,
        store=store_dir,
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        job = session.submit(
            CampaignRequest(
                **{**request.__dict__, "on_checkpoint": _crash_after(1)}
            )
        )
        with pytest.raises(SimulatedCrash):
            job.result(timeout=300)
    with Session(backend=EXECUTOR_SERIAL) as session:
        resumed = session.run(ResumeRequest(store=store_dir))
    with Session(backend=EXECUTOR_SERIAL) as session:
        uninterrupted = session.run(
            CampaignRequest(**{**request.__dict__, "store": None})
        )
    assert resumed.result_digest == uninterrupted.result_digest


def test_resume_request_rejects_a_store_without_scenario_origin(tmp_path):
    from repro.workloads.population import PopulationSpec, generate_population

    specs = tuple(generate_population(PopulationSpec(num_hosts=2), seed=3))
    with Session(backend=EXECUTOR_SERIAL) as session:
        session.run(
            CampaignRequest(
                specs=specs, config=GOLDEN_CONFIG, seed=3, shards=1,
                store=tmp_path / "raw",
            )
        )
    with Session(backend=EXECUTOR_SERIAL) as session:
        with pytest.raises(StoreError, match="no scenario origin"):
            session.run(ResumeRequest(store=tmp_path / "raw"))


@pytest.mark.skipif(sys.platform == "win32", reason="SIGKILL semantics")
def test_sigkill_via_cli_resumes_through_the_api(tmp_path):
    """A real SIGKILL — no unwinding, no flushing — then an API resume."""
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=repo_src)
    crashed = subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--scenario", "imc2002-survey", "--hosts", "4",
            "--seed", str(GOLDEN_SEED), "--rounds", "1", "--samples", "4",
            "--shards", "2", "--executor", "serial",
            "--store", str(tmp_path / "s"), "--crash-after-shards", "1",
        ],
        env=env, capture_output=True, text=True,
    )
    assert crashed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
    assert not CampaignStore.open(tmp_path / "s").is_complete()

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.submit(ResumeRequest(store=tmp_path / "s")).result(timeout=300)
    assert CampaignStore.open(tmp_path / "s").is_complete()

    # The CLI's config for these flags matches nothing golden, so compare
    # against an in-process uninterrupted run with the same parameters.
    from repro.core.campaign import CampaignConfig

    with Session(backend=EXECUTOR_SERIAL) as session:
        reference = session.run(
            CampaignRequest(
                scenario="imc2002-survey",
                config=CampaignConfig(rounds=1, samples_per_measurement=4),
                hosts=4,
                seed=GOLDEN_SEED,
                shards=2,
            )
        )
    assert envelope.result_digest == reference.result_digest


@pytest.mark.parametrize("backend", ("process",))
def test_cancel_mid_campaign_then_resume_matches_uninterrupted(tmp_path, backend):
    """``JobHandle.cancel()`` at a progress boundary leaves a resumable store.

    The checkpoint hook parks the runner at its first progress boundary;
    cancelling there guarantees the campaign stops with exactly one durable
    shard, whatever the pool raced ahead to compute.
    """
    name = "imc2002-survey"
    store_dir = tmp_path / f"cancelled-{backend}"
    checkpointed = threading.Event()
    release = threading.Event()

    def hold(outcome, completed, total):
        checkpointed.set()
        release.wait(30)

    with Session(backend=backend) as session:
        job = session.submit(_request(name, store=store_dir, on_checkpoint=hold))
        assert checkpointed.wait(120), "campaign never reached a checkpoint"
        job.cancel()
        release.set()
        with pytest.raises(JobCancelled):
            job.result(timeout=300)
        assert job.status() is JobStatus.CANCELLED

    durable = CampaignStore.open(store_dir).completed_shards()
    assert durable and len(durable) < SHARDS, "cancel must land mid-campaign"

    with Session(backend=EXECUTOR_SERIAL) as session:
        envelope = session.run(ResumeRequest(store=store_dir))
    assert envelope.meta["resumed"] is True
    assert envelope.result_digest == _uninterrupted_digest(name)
    assert CampaignStore.open(store_dir).is_complete()
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name]
