"""Crash-injection coverage for checkpointed, resumable campaigns.

The acceptance bar: a campaign interrupted after *any* shard boundary must
resume to a merged result whose ``result_signature`` is bit-identical to an
uninterrupted run — for every registry scenario, at more than one shard
count.  The matrix test kills the runner (via a checkpoint-hook exception)
after k of n shards and resumes through a :class:`repro.api.ResumeRequest`,
which rebuilds the population from the manifest alone.
A subprocess test does the same with a real ``SIGKILL`` through the CLI, so
no Python-level unwinding can be doing the saving.

Scenarios that are shard-count *invariant* additionally keep the golden
digests pinned in ``test_golden_signatures.py``; ``diurnal-congestion`` is
excluded there by design (time-varying paths measure differently under a
different visit layout — see the runner's determinism notes).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import CampaignRequest, ResumeRequest, Session
from repro.core.runner import EXECUTOR_SERIAL, result_digest
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
# repro.core.runner), so only these scenarios pin the shards=1 golden digest.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})


class SimulatedCrash(BaseException):
    """Raised from the checkpoint hook; BaseException so no handler can eat it."""


def _crash_after(n: int):
    def hook(outcome, completed, total):
        if completed >= n:
            raise SimulatedCrash(f"injected crash after {completed}/{total} shards")

    return hook


def _run(name, *, backend=EXECUTOR_SERIAL, **request):
    """One golden-config campaign through the session layer."""
    request.setdefault("config", GOLDEN_CONFIG)
    request.setdefault("hosts", GOLDEN_HOSTS)
    request.setdefault("seed", GOLDEN_SEED)
    with Session(backend=backend) as session:
        return session.run(CampaignRequest(scenario=name, **request))


def _resume(store_dir, **request):
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(ResumeRequest(store=store_dir, **request))


def _uninterrupted_digest(name: str, shards: int) -> str:
    return _run(name, shards=shards).result_digest


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_crash_after_first_shard_resumes_bit_identically(tmp_path, name, shards):
    store_dir = tmp_path / f"{name}-{shards}"
    with pytest.raises(SimulatedCrash):
        _run(name, shards=shards, store=store_dir, on_checkpoint=_crash_after(1))
    store = CampaignStore.open(store_dir)
    durable = store.completed_shards()
    assert durable and len(durable) < shards, "crash must land mid-campaign"

    resumed = _resume(store_dir)
    assert result_digest(resumed.result) == _uninterrupted_digest(name, shards)
    assert CampaignStore.open(store_dir).is_complete()
    if name in SHARD_INVARIANT:
        assert result_digest(resumed.result) == GOLDEN_DIGESTS[name]


def test_crash_at_every_shard_boundary(tmp_path):
    """One scenario, every possible interruption point, including k = n-1."""
    shards = 3
    reference = _uninterrupted_digest("imc2002-survey", shards)
    for crash_after in (1, 2):
        store_dir = tmp_path / f"boundary-{crash_after}"
        with pytest.raises(SimulatedCrash):
            _run(
                "imc2002-survey",
                shards=shards,
                store=store_dir,
                on_checkpoint=_crash_after(crash_after),
            )
        assert len(CampaignStore.open(store_dir).completed_shards()) == crash_after
        resumed = _resume(store_dir)
        assert result_digest(resumed.result) == reference


def test_resume_of_a_complete_store_reruns_nothing(tmp_path):
    store_dir = tmp_path / "complete"
    run = _run("imc2002-survey", shards=2, store=store_dir)
    checkpoints = []
    resumed = _resume(
        store_dir,
        on_checkpoint=lambda outcome, completed, total: checkpoints.append(outcome.index),
    )
    assert checkpoints == [], "a complete store has no shards left to execute"
    assert result_digest(resumed.result) == result_digest(run.result)


def test_resume_refuses_a_different_campaign(tmp_path):
    store_dir = tmp_path / "mismatch"
    with pytest.raises(SimulatedCrash):
        _run("imc2002-survey", shards=2, store=store_dir, on_checkpoint=_crash_after(1))
    with pytest.raises(StoreError, match="differs on"):
        _run(
            "imc2002-survey",
            seed=GOLDEN_SEED + 1,  # a different campaign entirely
            shards=2,
            store=store_dir,
            resume=True,
        )


@pytest.mark.skipif(sys.platform == "win32", reason="SIGKILL semantics")
def test_sigkill_mid_run_resumes_via_cli(tmp_path):
    """A real SIGKILL — no unwinding, no flushing — then a CLI resume."""
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=repo_src)
    base = [
        sys.executable, "-m", "repro", "run",
        "--scenario", "imc2002-survey", "--hosts", "4", "--seed", str(GOLDEN_SEED),
        "--rounds", "1", "--samples", "4", "--shards", "2", "--executor", "serial",
    ]
    crashed = subprocess.run(
        base + ["--store", str(tmp_path / "s"), "--crash-after-shards", "1"],
        env=env, capture_output=True, text=True,
    )
    assert crashed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
    assert not CampaignStore.open(tmp_path / "s").is_complete()

    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "resume", "--store", str(tmp_path / "s"),
         "--executor", "serial"],
        env=env, capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    digest_lines = [l for l in resumed.stdout.splitlines() if l.startswith("result-digest=")]
    assert digest_lines, resumed.stdout
    # The CLI's config for these flags matches nothing golden, so compare
    # against an in-process uninterrupted run with the same parameters.
    from repro.core.campaign import CampaignConfig

    reference = _run(
        "imc2002-survey",
        config=CampaignConfig(rounds=1, samples_per_measurement=4),
        hosts=4,
        shards=2,
    )
    assert digest_lines[0] == f"result-digest={result_digest(reference.result)}"


def test_checkpoint_failures_are_not_swallowed_by_the_pool_fallback(tmp_path):
    """A store-write OSError must propagate, not trigger serial re-execution."""
    from repro.core.campaign import CampaignConfig

    class ExplodingStore(CampaignStore):
        def write_shard(self, outcome):
            if outcome.index == 1:
                raise OSError("disk full")
            super().write_shard(outcome)

    store = ExplodingStore(tmp_path / "s")
    with pytest.raises(OSError, match="disk full"):
        _run("imc2002-survey", backend="process", shards=2, store=store)
    # Only shard 0 can be durable; shard 1's write failed and was not retried.
    assert CampaignStore.open(tmp_path / "s").completed_shards() <= {0}
