"""Batched binary shard transport: codec exactness and dispatch invariance.

Two guarantees are pinned here.  First, the struct-packed transport codec in
:mod:`repro.core.transport` is *exact*: Hypothesis drives encode → decode over
the full result-type tree and compares against the pickle oracle, so the
binary path can never silently diverge from what pickled objects would have
carried.  Second, execution shape is invisible in the data: a campaign's
``result_digest`` is identical across every backend × batch-size
combination, which is the conformance gate the batched dispatcher must
pass.  The section at the end forces each process-pool failure the
dispatcher survives, and pins that shard code errors are never retried.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import threading
import warnings
from concurrent.futures import BrokenExecutor, Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.backends
import repro.core.runner
from repro.api import CampaignRequest, ProcessBackend, Session
from repro.core.campaign import CampaignConfig, HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.runner import CampaignRunner, ShardOutcome, ShardTask, result_digest
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.core.transport import (
    BATCH_SIZE_ENV,
    MIN_BATCH_SAMPLES,
    decode_outcomes,
    encode_outcomes,
    next_batch_size,
)
from repro.net.errors import MeasurementError, ShardError, TransportError
from repro.workloads.population import (
    PopulationSpec,
    generate_population,
    partition_specs,
)

# ------------------------------------------------------------------ #
# Strategies: the same result-type tree the store round-trip tests use,
# bounded to the codec's wire ranges (u32 sample indexes, u8 uid counts).
# ------------------------------------------------------------------ #

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
short_text = st.text(max_size=24)
addresses = st.integers(min_value=0, max_value=2**32 - 1)
uid_tuples = st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=3).map(tuple)

samples = st.builds(
    ReorderSample,
    index=st.integers(min_value=0, max_value=10_000),
    time=finite_floats,
    spacing=finite_floats,
    forward=st.sampled_from(SampleOutcome),
    reverse=st.sampled_from(SampleOutcome),
    detail=short_text,
    probe_uids=uid_tuples,
    response_uids=uid_tuples,
)

measurements = st.builds(
    MeasurementResult,
    test_name=short_text,
    host_address=addresses,
    start_time=finite_floats,
    end_time=finite_floats,
    spacing=finite_floats,
    samples=st.lists(samples, max_size=6),
    notes=short_text,
)

reports = st.builds(
    ProbeReport,
    test=st.sampled_from(TestName),
    host_address=addresses,
    result=st.none() | measurements,
    error=st.none() | short_text,
    ineligible=st.booleans(),
)

records = st.builds(
    HostRoundResult,
    round_index=st.integers(min_value=0, max_value=500),
    host_address=addresses,
    test=st.sampled_from(TestName),
    time=finite_floats,
    report=reports,
    scenario=st.none() | short_text,
)

outcomes = st.builds(
    ShardOutcome,
    index=st.integers(min_value=0, max_value=1000),
    host_addresses=st.lists(addresses, max_size=4).map(tuple),
    records=st.lists(records, max_size=5),
)


# ------------------------------------------------------------------ #
# Codec round-trips against the pickle oracle
# ------------------------------------------------------------------ #


@settings(max_examples=60, deadline=None)
@given(st.lists(outcomes, max_size=3))
def test_codec_roundtrip_matches_pickle_oracle(batch):
    """decode(encode(batch)) equals what the pickle transport would carry."""
    oracle = pickle.loads(pickle.dumps(batch))
    decoded = decode_outcomes(encode_outcomes(batch))
    assert decoded == oracle == batch


@settings(max_examples=60, deadline=None)
@given(st.lists(outcomes, max_size=3))
def test_codec_accepts_memoryview_blobs(batch):
    """The parent decodes over a memoryview window without copying first."""
    blob = encode_outcomes(batch)
    assert decode_outcomes(memoryview(blob)) == batch


def test_codec_preserves_nan_spacing():
    """A merged measurement's NaN spacing survives the binary transport."""
    measurement = MeasurementResult(
        test_name="syn", host_address=1, start_time=0.0, end_time=1.0, spacing=math.nan
    )
    report = ProbeReport(test=TestName.SYN, host_address=1, result=measurement)
    record = HostRoundResult(
        round_index=0, host_address=1, test=TestName.SYN, time=0.5, report=report
    )
    outcome = ShardOutcome(index=0, host_addresses=(1,), records=[record])
    (decoded,) = decode_outcomes(encode_outcomes([outcome]))
    assert math.isnan(decoded.records[0].report.result.spacing)


def test_codec_rejects_corruption():
    blob = encode_outcomes([ShardOutcome(index=0, host_addresses=(1,), records=[])])
    with pytest.raises(MeasurementError, match="magic"):
        decode_outcomes(b"XX" + blob[2:])
    with pytest.raises(MeasurementError, match="version"):
        decode_outcomes(blob[:2] + b"\xff" + blob[3:])
    with pytest.raises(MeasurementError, match="trailing"):
        decode_outcomes(blob + b"\x00")
    with pytest.raises(MeasurementError, match="truncated|corrupt"):
        decode_outcomes(blob[: len(blob) - 2])


def test_codec_rejects_out_of_range_fields():
    """Values outside the wire ranges fail loudly at encode time."""
    outcome = ShardOutcome(index=-1, host_addresses=(), records=[])
    with pytest.raises(MeasurementError, match="field range"):
        encode_outcomes([outcome])


# ------------------------------------------------------------------ #
# Batch-size schedule
# ------------------------------------------------------------------ #


@given(
    remaining=st.integers(min_value=1, max_value=10_000),
    workers=st.integers(min_value=1, max_value=64),
    shard_cost=st.none() | st.integers(min_value=1, max_value=100_000),
)
def test_next_batch_size_stays_in_range(remaining, workers, shard_cost):
    size = next_batch_size(remaining, workers, shard_cost=shard_cost)
    assert 1 <= size <= remaining


def test_next_batch_size_guided_schedule_shrinks_toward_tail():
    """Repeatedly taking batches drains the queue with a shrinking tail."""
    remaining, sizes = 100, []
    while remaining:
        size = next_batch_size(remaining, workers=4)
        sizes.append(size)
        remaining -= size
    assert sizes[0] == math.ceil(100 / 8)
    assert sizes[-1] == 1
    assert sorted(sizes, reverse=True) == sizes
    assert sum(sizes) == 100


def test_next_batch_size_single_worker_takes_everything():
    assert next_batch_size(37, workers=1) == 37


def test_next_batch_size_respects_cost_floor():
    """Tiny shards are batched up until a batch carries enough samples."""
    size = next_batch_size(1000, workers=4, shard_cost=2)
    assert size * 2 >= MIN_BATCH_SAMPLES


def test_next_batch_size_override_pins():
    assert next_batch_size(100, workers=4, override=7) == 7
    assert next_batch_size(3, workers=4, override=7) == 3
    with pytest.raises(MeasurementError):
        next_batch_size(0, workers=4)


# ------------------------------------------------------------------ #
# Digest invariance: backend × batch size
# ------------------------------------------------------------------ #

_POPULATION = PopulationSpec(
    num_hosts=6, load_balanced_fraction=0.0, reordering_path_fraction=0.5
)
_CONFIG = CampaignConfig(
    rounds=1,
    samples_per_measurement=3,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
)
_SEED = 20260807
_SHARDS = 5


def _digest(executor: str) -> str:
    specs = generate_population(_POPULATION, seed=_SEED)
    runner = CampaignRunner(specs, _CONFIG, seed=_SEED, shards=_SHARDS, executor=executor)
    return result_digest(runner.execute())


def _shard_tasks() -> list[ShardTask]:
    specs = generate_population(_POPULATION, seed=_SEED)
    return [
        ShardTask(
            index=index,
            specs=tuple(shard),
            config=_CONFIG,
            tests=_CONFIG.tests,
            seed=_SEED,
            remote_port=80,
        )
        for index, shard in enumerate(partition_specs(specs, _SHARDS))
    ]


@pytest.fixture(scope="module")
def serial_digest():
    return _digest("serial")


@pytest.mark.parametrize("executor", ["process"])
@pytest.mark.parametrize("batch_size", ["1", "2", "7", str(_SHARDS)])
def test_digest_invariant_across_batch_sizes(
    monkeypatch, serial_digest, executor, batch_size
):
    monkeypatch.setenv(BATCH_SIZE_ENV, batch_size)
    assert _digest(executor) == serial_digest


def test_iter_shards_yields_every_task_exactly_once(monkeypatch):
    """Completion order may interleave batches; no shard is lost or doubled."""
    monkeypatch.setenv(BATCH_SIZE_ENV, "2")
    shard_tasks = _shard_tasks()
    with ProcessBackend(max_workers=2) as backend:
        indexes = [outcome.index for outcome in backend.iter_shards(shard_tasks)]
    assert sorted(indexes) == [task.index for task in shard_tasks]


# ------------------------------------------------------------------ #
# Typed transport faults carry batch context
# ------------------------------------------------------------------ #


def _two_outcome_blob() -> bytes:
    return encode_outcomes(
        [
            ShardOutcome(index=3, host_addresses=(1,), records=[]),
            ShardOutcome(index=9, host_addresses=(2,), records=[]),
        ]
    )


def test_transport_error_carries_offset_and_shard_context():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(blob[:-3], shard_indexes=(3, 9))
    error = excinfo.value
    assert isinstance(error, MeasurementError), "must stay catchable as before"
    assert error.shard_indexes == (3, 9)
    assert error.offset is not None and 0 <= error.offset <= len(blob)
    assert error.lost_indexes, "a truncated blob must lose at least one shard"
    assert set(error.decoded_indexes) | set(error.lost_indexes) == {3, 9}
    assert not set(error.decoded_indexes) & set(error.lost_indexes)


def test_transport_error_at_the_magic_has_nothing_decoded():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(b"XX" + blob[2:], shard_indexes=(3, 9))
    error = excinfo.value
    assert error.offset == 0
    assert error.decoded_indexes == ()
    assert error.lost_indexes == (3, 9)


def test_transport_error_after_trailing_bytes_lost_nothing():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(blob + b"\x00", shard_indexes=(3, 9))
    error = excinfo.value
    assert error.offset == len(blob)
    assert error.decoded_indexes == (3, 9)
    assert error.lost_indexes == ()


def test_transport_error_without_batch_context_defaults_empty():
    blob = _two_outcome_blob()
    with pytest.raises(TransportError) as excinfo:
        decode_outcomes(blob[: len(blob) - 2])
    error = excinfo.value
    assert error.shard_indexes == ()
    assert error.lost_indexes == ()


def test_enum_wire_tables_pin_definition_order():
    """Definition order IS the wire protocol for enum fields.

    The transport ships ``TestName`` and ``SampleOutcome`` members as their
    index in the definition-order tuple, so reordering, inserting, or
    removing a member silently changes every id on the wire.  Pinning the
    member order here turns that into a loud failure instead.
    """
    assert list(TestName) == [
        TestName.SINGLE_CONNECTION,
        TestName.DUAL_CONNECTION,
        TestName.SYN,
        TestName.DATA_TRANSFER,
    ]
    assert list(SampleOutcome) == [
        SampleOutcome.IN_ORDER,
        SampleOutcome.REORDERED,
        SampleOutcome.AMBIGUOUS,
        SampleOutcome.LOST,
    ]


# ------------------------------------------------------------------ #
# The one pool fallback, forced; shard errors are never retried
# ------------------------------------------------------------------ #


class _FlakyProcessBackend(ProcessBackend):
    """The first ``breaks`` batch submissions come back as broken futures."""

    def __init__(self, breaks: int) -> None:
        super().__init__(max_workers=2)
        self.breaks = breaks

    def _submit(self, pool, batch):
        if self.breaks > 0:
            self.breaks -= 1
            broken: Future = Future()
            broken.set_exception(BrokenExecutor("injected worker death"))
            return broken
        return super()._submit(pool, batch)


def _session_envelope(backend):
    specs = tuple(generate_population(_POPULATION, seed=_SEED))
    with Session(backend=backend) as session:
        return session.run(
            CampaignRequest(specs=specs, config=_CONFIG, seed=_SEED, shards=_SHARDS)
        )


def _assert_degraded(envelope, serial_digest):
    assert envelope.result_digest == serial_digest
    assert any("unfinished shard(s) inline" in w for w in envelope.meta["warnings"])
    assert envelope.meta["process"]["degraded"] is True


def test_broken_pool_runs_unfinished_shards_inline(monkeypatch, serial_digest):
    """A pool death mid-campaign: a warning, the rest inline, the same digest.

    Outcomes are compared by digest, not object equality — probe uids come
    from a process-global allocator, so re-running a shard in the same
    process yields equal measurements under different uids.
    """
    monkeypatch.setenv(BATCH_SIZE_ENV, "1")
    with _FlakyProcessBackend(breaks=1) as backend:
        with pytest.warns(RuntimeWarning, match="unfinished shard"):
            envelope = _session_envelope(backend)
        assert backend.breaks == 0, "the injected break must actually have fired"
        assert backend._pool is None, "a broken pool must not serve later campaigns"
    _assert_degraded(envelope, serial_digest)


def test_persistently_broken_pool_degrades_with_a_warning(monkeypatch, serial_digest):
    """Every submission broken: one warning, the envelope says it degraded."""
    monkeypatch.setenv(BATCH_SIZE_ENV, "1")
    with _FlakyProcessBackend(breaks=1_000) as backend:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            envelope = _session_envelope(backend)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    _assert_degraded(envelope, serial_digest)


def test_pool_creation_failure_runs_inline_with_a_warning(monkeypatch, serial_digest):
    """No semaphores, say: the pool cannot even be built."""

    def no_pool(*args, **kwargs):
        raise OSError("no semaphores in this sandbox")

    monkeypatch.setattr(repro.api.backends, "ProcessPoolExecutor", no_pool)
    with pytest.warns(RuntimeWarning, match="no semaphores"):
        envelope = _session_envelope("process")
    _assert_degraded(envelope, serial_digest)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched shard function reaches pool workers only by fork",
)
@pytest.mark.parametrize("error", [RuntimeError, OSError])
def test_shard_error_runs_once_and_names_its_shard(monkeypatch, tmp_path, error):
    """A shard's own exception is a ShardError, not a pool failure to retry."""
    monkeypatch.setenv(BATCH_SIZE_ENV, "1")
    runs = tmp_path / "runs"
    real_run_shard = repro.core.runner.run_shard

    def explode_on_shard_2(task):
        if task.index != 2:
            return real_run_shard(task)
        with open(runs, "a") as log:
            log.write(f"{task.index}\n")
        raise error("shard code bug")

    monkeypatch.setattr(repro.core.runner, "run_shard", explode_on_shard_2)
    specs = generate_population(_POPULATION, seed=_SEED)
    with ProcessBackend(max_workers=2) as backend:
        runner = CampaignRunner(specs, _CONFIG, seed=_SEED, shards=_SHARDS, backend=backend)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ShardError, match="shard 2 failed") as excinfo:
                runner.execute()
    assert excinfo.value.index == 2
    assert isinstance(excinfo.value.cause, error)
    assert runs.read_text().split() == ["2"], "the failing shard must run exactly once"


def test_shard_error_pickles_even_when_its_cause_cannot():
    cause = RuntimeError("carries a lock")
    cause.lock = threading.Lock()
    error = pickle.loads(pickle.dumps(ShardError(4, cause)))
    assert isinstance(error, ShardError)
    assert error.index == 4
    assert "RuntimeError: carries a lock" in str(error)
