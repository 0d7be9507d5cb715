"""Remote-backend conformance: socket distribution changes nothing measured.

The acceptance bar mirrors the other backends': for **every** registry
scenario, a campaign on the ``remote`` backend — 2-worker and 4-worker
fleets, self-spawned or externally launched via ``python -m repro workers``
— must produce a ``result_digest`` bit-identical to serial execution, and
the fault-tolerance surfaces (degradation, quarantine, cancellation, the
envelope's remote report) must behave as documented.  The wire protocol and
chaos-spec plumbing get direct unit coverage here too; fault *injection*
lives in ``test_distributed_chaos``.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import JobCancelled, JobStatus, Session, create_backend
from repro.api.backends import backend_names
from repro.distributed.backend import RemoteBackend
from repro.distributed.chaos import CHAOS_ENV, ChaosSpec
from repro.distributed.coordinator import JOB_DONE, Coordinator
from repro.distributed.protocol import (
    MSG_BATCH,
    MSG_HEARTBEAT,
    pack_shard_errors,
    recv_frame,
    send_frame,
    unpack_shard_errors,
)
from repro.net.errors import MeasurementError, ProtocolError
from repro.scenarios import scenario_names
from test_golden_signatures import GOLDEN_DIGESTS
from _remote_helpers import make_backend, request, serial_digest

# Time-varying layouts measure differently per shard count (documented in
# repro.core.runner), so only these scenarios also pin the golden digest.
SHARD_INVARIANT = sorted(set(GOLDEN_DIGESTS) - {"diurnal-congestion"})


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #


def test_frame_roundtrip_over_a_socketpair():
    left, right = socket.socketpair()
    try:
        send_frame(left, MSG_BATCH, b"payload bytes")
        assert recv_frame(right) == (MSG_BATCH, b"payload bytes")
        send_frame(left, MSG_HEARTBEAT)  # empty payload
        assert recv_frame(right) == (MSG_HEARTBEAT, b"")
    finally:
        left.close()
        right.close()


def test_frame_rejects_bad_magic():
    left, right = socket.socketpair()
    try:
        left.sendall(b"XX\x01\x01\x00\x00\x00\x00")
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_frame_rejects_version_mismatch_and_unknown_type():
    for header, pattern in (
        (b"RW\xff\x01\x00\x00\x00\x00", "version mismatch"),
        (b"RW\x01\xee\x00\x00\x00\x00", "unknown message type"),
    ):
        left, right = socket.socketpair()
        try:
            left.sendall(header)
            with pytest.raises(ProtocolError, match=pattern):
                recv_frame(right)
        finally:
            left.close()
            right.close()


def test_frame_eof_mid_header_raises_protocol_error():
    left, right = socket.socketpair()
    try:
        left.sendall(b"RW")  # two bytes of an eight-byte header, then EOF
        left.close()
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_shard_error_codec_roundtrip():
    failures = [(0, "boom"), (7, "unicode ✗ failure"), (2**40, "")]
    batch_id, decoded = unpack_shard_errors(pack_shard_errors(9, failures))
    assert batch_id == 9
    assert decoded == failures
    assert unpack_shard_errors(pack_shard_errors(0, [])) == (0, [])
    with pytest.raises(ProtocolError, match="malformed shard-error"):
        unpack_shard_errors(b"\x00\x00")


# --------------------------------------------------------------------- #
# Chaos specs (the JSON that reaches worker processes)
# --------------------------------------------------------------------- #


def test_chaos_spec_json_roundtrip():
    spec = ChaosSpec(
        kind="poison-shard",
        workers=(0, 3),
        after_batches=2,
        times=4,
        seed=17,
        delay=0.5,
        poison_shards=(1, 2),
    )
    assert ChaosSpec.from_json(spec.to_json()) == spec


def test_chaos_spec_from_env(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    assert ChaosSpec.from_env() is None
    spec = ChaosSpec(kind="kill", workers=(1,))
    monkeypatch.setenv(CHAOS_ENV, spec.to_json())
    assert ChaosSpec.from_env() == spec


def test_chaos_spec_rejects_unknown_kind_and_malformed_json():
    with pytest.raises(MeasurementError, match="unknown chaos kind"):
        ChaosSpec(kind="meteor-strike")
    with pytest.raises(MeasurementError, match="malformed chaos spec"):
        ChaosSpec.from_json("{not json")


# --------------------------------------------------------------------- #
# Registry and coordinator basics
# --------------------------------------------------------------------- #


def test_remote_backend_is_registered():
    assert "remote" in backend_names()
    backend = create_backend("remote")
    assert isinstance(backend, RemoteBackend)
    backend.close()
    backend.close()  # idempotent


def test_coordinator_rejects_bad_config_and_concurrent_jobs():
    with pytest.raises(MeasurementError, match="max_attempts"):
        Coordinator(max_attempts=0)
    with Coordinator(lease_timeout=0.5) as coordinator:
        job = coordinator.submit_job(())
        assert job.results.get(timeout=5) is JOB_DONE
        with pytest.raises(MeasurementError, match="active job"):
            coordinator.submit_job(())
        stats = coordinator.finish_job(job)
        assert stats["requeues"] == 0 and stats["quarantined"] == []


def test_iter_shards_with_no_tasks_yields_nothing():
    backend = make_backend(spawn_workers=0)
    try:
        assert list(backend.iter_shards(())) == []
    finally:
        backend.close()


def test_iter_shards_runs_on_the_local_fallback():
    backend = make_backend(spawn_workers=0, wait_timeout=0.1, fallback="serial")
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey"))
    finally:
        backend.close()
    assert envelope.result_digest == serial_digest("imc2002-survey")
    assert envelope.meta["remote"]["degraded"] is True
    assert any("local 'serial' execution" in w for w in envelope.meta["warnings"])


# --------------------------------------------------------------------- #
# Conformance: every scenario, 2- and 4-worker fleets
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet2():
    backend = make_backend(spawn_workers=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def fleet4():
    # batch_size=1 forces per-shard leases so all four workers take part.
    backend = make_backend(spawn_workers=4, batch_size=1)
    yield backend
    backend.close()


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_digest_matches_serial_on_two_workers(fleet2, name):
    with Session(backend=fleet2) as session:
        envelope = session.run(request(name))
    assert envelope.result_digest == serial_digest(name), (
        f"scenario {name!r} measured differently on the remote backend"
    )
    remote = envelope.meta["remote"]
    assert remote["backend"] == "remote"
    assert remote["workers"], "the report must name the workers that served"
    assert not remote.get("quarantined")
    assert not remote.get("degraded")
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name], (
            f"scenario {name!r} over sockets no longer matches the golden digest"
        )


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_digest_matches_serial_on_four_workers(fleet4, name):
    with Session(backend=fleet4) as session:
        envelope = session.run(request(name, shards=4))
    assert envelope.result_digest == serial_digest(name, shards=4), (
        f"scenario {name!r} measured differently on a four-worker fleet"
    )
    if name in SHARD_INVARIANT:
        assert envelope.result_digest == GOLDEN_DIGESTS[name]


# --------------------------------------------------------------------- #
# Degradation, quarantine, external workers, cancellation
# --------------------------------------------------------------------- #


def test_degrades_to_local_when_no_worker_connects():
    backend = make_backend(spawn_workers=0, wait_timeout=0.3)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey"))
    finally:
        backend.close()
    assert envelope.result_digest == serial_digest("imc2002-survey")
    remote = envelope.meta["remote"]
    assert remote["degraded"] is True
    assert any("no remote workers" in w for w in envelope.meta["warnings"])


def test_poison_shard_is_quarantined_and_reported():
    chaos = ChaosSpec(kind="poison-shard", workers=(0, 1), poison_shards=(1,))
    backend = make_backend(chaos=chaos, max_attempts=2, batch_size=1)
    try:
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey", shards=4))
    finally:
        backend.close()
    # The campaign completed — a poison shard is reported, never a crash.
    assert envelope.kind == "campaign"
    remote = envelope.meta["remote"]
    (entry,) = remote["quarantined"]
    assert entry["shard"] == 1
    assert entry["attempts"] == 2
    assert "poisoned" in entry["error"]
    assert remote["shard_errors"] >= 2
    assert remote["requeues"] >= 1, "the first failure must requeue before quarantine"
    assert any("quarantined" in w for w in envelope.meta["warnings"])
    # The merge simply lacks the quarantined shard's records.
    assert envelope.result_digest != serial_digest("imc2002-survey", shards=4)


def test_externally_launched_cli_workers_serve_a_campaign():
    backend = make_backend(spawn_workers=0, wait_timeout=25.0)
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=repo_src)
    env.pop(CHAOS_ENV, None)
    proc = None
    try:
        host, port = backend._ensure_coordinator().address
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "workers",
                "--connect", f"{host}:{port}",
                "--workers", "2", "--heartbeat", "0.15",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        with Session(backend=backend) as session:
            envelope = session.run(request("imc2002-survey"))
    finally:
        backend.close()  # drains the workers, so the CLI process exits cleanly
        if proc is not None:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
    assert envelope.result_digest == serial_digest("imc2002-survey")
    assert envelope.meta["remote"]["workers"]


def test_cancel_mid_campaign_leaves_the_backend_reusable():
    backend = make_backend(batch_size=1)
    checkpointed = threading.Event()
    release = threading.Event()

    def hold(outcome, completed, total):
        checkpointed.set()
        release.wait(30)

    try:
        with Session(backend=backend) as session:
            job = session.submit(
                request("imc2002-survey", shards=4, on_checkpoint=hold)
            )
            assert checkpointed.wait(120), "campaign never reached a checkpoint"
            job.cancel()
            release.set()
            with pytest.raises(JobCancelled):
                job.result(timeout=300)
            assert job.status() is JobStatus.CANCELLED
            backend.pop_job_report()  # drop the cancelled job's partial report
            envelope = session.run(request("imc2002-survey", shards=4))
    finally:
        backend.close()
    assert envelope.result_digest == serial_digest("imc2002-survey", shards=4)
