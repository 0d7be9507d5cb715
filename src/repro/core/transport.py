"""Compact binary transport for shard results: one blob per batch.

Worker-to-parent result transport used to be :mod:`pickle` of whole
:class:`~repro.core.runner.ShardOutcome` objects, one future per shard.  This
module provides the other half of the batched execution data path (see
:mod:`repro.api.backends` for the dispatch side): a worker encodes *all* of a
batch's outcomes into a single ``bytes`` blob with a struct-packed columnar
layout, and the parent decodes it with ``struct.unpack_from`` over one
:class:`memoryview` — no per-record intermediate buffers, no pickle class
lookups, and a wire image a later remote (socket) backend can speak verbatim.

Layout
------
The field set is exactly the lossless layout of :mod:`repro.store.codec`
(every field the JSON store persists travels here too), but packed binary:

* integers are fixed-width big-endian (``Q`` for values, ``I`` for counts),
* floats are IEEE-754 doubles (``d``), which round-trip exactly — including
  the NaN spacing a merged measurement can carry,
* enums travel as indexes into their definition-order member tuples,
* strings are UTF-8 with a ``u32`` length prefix,
* per-measurement sample fields are packed **columnar** (all indexes, then
  all times, then all spacings, ...) so a measurement costs a handful of
  ``struct`` calls instead of fifteen per sample.

The codec is versioned by :data:`TRANSPORT_VERSION` in the blob header.  It
is a *transport*, not a storage format: encoder and decoder always run the
same code revision (two ends of one pool or socket), so the version byte is
a corruption guard rather than a compatibility promise.

Oracle
------
:mod:`pickle` of the same objects is the codec's test oracle: the
Hypothesis round-trip tests compare ``decode(encode(batch))`` against a
pickle round-trip of the batch.  It is never a run-time transport.
``REPRO_BATCH_SIZE=n`` pins the adaptive batch size to ``n`` shards per IPC
round-trip (the digest-invariance tests sweep it).
"""

from __future__ import annotations

import math
import os
import struct
from typing import Any, Optional, Sequence, Union

from repro.core.campaign import HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.runner import ShardOutcome
from repro.core.sample import MeasurementResult, ReorderSample, SampleOutcome
from repro.net.errors import MeasurementError, TransportError

BATCH_SIZE_ENV = "REPRO_BATCH_SIZE"
"""Set to a positive integer to pin the shards-per-batch instead of adapting."""

TRANSPORT_MAGIC = b"RB"
TRANSPORT_VERSION = 1

Buffer = Union[bytes, bytearray, memoryview]

# Definition-order member tables: a member's position is its wire id.
_TESTS: tuple[TestName, ...] = tuple(TestName)
_TEST_INDEX = {test: index for index, test in enumerate(_TESTS)}
_OUTCOMES: tuple[SampleOutcome, ...] = tuple(SampleOutcome)
_OUTCOME_INDEX = {outcome: index for index, outcome in enumerate(_OUTCOMES)}

_HEADER = struct.Struct("!2sBxI")  # magic, version, pad, outcome count
_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_OUTCOME_FIXED = struct.Struct("!QII")  # shard index, n addresses, n records
_RECORD_FIXED = struct.Struct("!QQdBB")  # round, host, time, test id, flags
_MEASUREMENT_FIXED = struct.Struct("!QdddI")  # host, start, end, spacing, n samples

# Report flag bits.
_REPORT_HAS_RESULT = 0x01
_REPORT_HAS_ERROR = 0x02
_REPORT_INELIGIBLE = 0x04
# Record flag bits.
_RECORD_HAS_SCENARIO = 0x01


def batch_size_override() -> Optional[int]:
    """The pinned shards-per-batch from the environment, if any."""
    raw = os.environ.get(BATCH_SIZE_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise MeasurementError(
            f"{BATCH_SIZE_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise MeasurementError(f"{BATCH_SIZE_ENV} must be >= 1, got {value}")
    return value


MIN_BATCH_SAMPLES = 64
"""Cost floor: a batch should carry at least this many probe samples.

One packet-pair sample simulates in roughly 100 µs; an IPC round-trip
(submit + pickle + queue hops + result) costs a few hundred µs.  Batching at
least ~64 samples keeps the per-round-trip overhead under a few percent of
the work it ships, which is what lets a sweep of *tiny* shards (the E10
tiny cells) stop drowning in dispatch."""


def next_batch_size(
    remaining: int,
    workers: int,
    shard_cost: Optional[int] = None,
    override: Optional[int] = None,
) -> int:
    """How many shards the next batch should carry.

    The guided schedule takes ``ceil(remaining / (2 * workers))`` shards per
    submission, so early batches are large (amortising the per-round-trip
    cost) and the tail shrinks toward single shards — a straggler near the
    end steals at most one small batch of work instead of serialising a
    fixed-size chunk.  Two adjustments bound the ends of the range:

    * ``shard_cost`` (estimated probe samples per shard) imposes the
      :data:`MIN_BATCH_SAMPLES` floor, so campaigns of very small shards
      still ship enough work per round-trip to dwarf the IPC cost;
    * a single worker has nothing to balance, so the whole remainder
      travels as one batch (one IPC round-trip total).

    ``override`` (from :data:`BATCH_SIZE_ENV`) pins the size instead.
    """
    if remaining < 1:
        raise MeasurementError(f"no shards remaining to batch: {remaining}")
    if override is not None:
        return min(override, remaining)
    if workers <= 1:
        return remaining
    size = math.ceil(remaining / (2 * workers))
    if shard_cost is not None and shard_cost > 0:
        size = max(size, math.ceil(MIN_BATCH_SAMPLES / shard_cost))
    return min(remaining, max(1, size))


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #


def _put_str(parts: list[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    parts.append(_U32.pack(len(raw)))
    parts.append(raw)


def _encode_measurement(parts: list[bytes], result: MeasurementResult) -> None:
    samples = result.samples
    count = len(samples)
    parts.append(
        _MEASUREMENT_FIXED.pack(
            result.host_address,
            result.start_time,
            result.end_time,
            result.spacing,
            count,
        )
    )
    _put_str(parts, result.test_name)
    _put_str(parts, result.notes)
    if not count:
        return
    # Columnar sample block: one struct call per field column instead of a
    # dozen per sample.  Order: indexes, times, spacings, forward ids,
    # reverse ids, then the two ragged uid columns and the detail strings.
    outcome_index = _OUTCOME_INDEX
    parts.append(struct.pack(f"!{count}I", *(s.index for s in samples)))
    parts.append(struct.pack(f"!{count}d", *(s.time for s in samples)))
    parts.append(struct.pack(f"!{count}d", *(s.spacing for s in samples)))
    parts.append(struct.pack(f"!{count}B", *(outcome_index[s.forward] for s in samples)))
    parts.append(struct.pack(f"!{count}B", *(outcome_index[s.reverse] for s in samples)))
    for attribute in ("probe_uids", "response_uids"):
        columns = [getattr(s, attribute) for s in samples]
        flat = [uid for uids in columns for uid in uids]
        parts.append(struct.pack(f"!{count}B", *(len(uids) for uids in columns)))
        parts.append(struct.pack(f"!{len(flat)}Q", *flat))
    details = [s.detail.encode("utf-8") for s in samples]
    parts.append(struct.pack(f"!{count}I", *(len(d) for d in details)))
    parts.extend(details)


def _encode_report(parts: list[bytes], report: ProbeReport) -> None:
    flags = 0
    if report.result is not None:
        flags |= _REPORT_HAS_RESULT
    if report.error is not None:
        flags |= _REPORT_HAS_ERROR
    if report.ineligible:
        flags |= _REPORT_INELIGIBLE
    parts.append(_U8.pack(flags))
    parts.append(_U8.pack(_TEST_INDEX[report.test]))
    parts.append(_U64.pack(report.host_address))
    if report.error is not None:
        _put_str(parts, report.error)
    if report.result is not None:
        _encode_measurement(parts, report.result)


def _encode_record(parts: list[bytes], record: HostRoundResult) -> None:
    flags = _RECORD_HAS_SCENARIO if record.scenario is not None else 0
    parts.append(
        _RECORD_FIXED.pack(
            record.round_index,
            record.host_address,
            record.time,
            _TEST_INDEX[record.test],
            flags,
        )
    )
    if record.scenario is not None:
        _put_str(parts, record.scenario)
    _encode_report(parts, record.report)


def encode_outcomes(outcomes: Sequence[ShardOutcome]) -> bytes:
    """Encode a batch of shard outcomes into one self-contained blob.

    Raises :class:`~repro.net.errors.MeasurementError` when a field is
    outside its wire range (negative integers, a uid list longer than 255 —
    nothing a real campaign produces).
    """
    parts: list[bytes] = [_HEADER.pack(TRANSPORT_MAGIC, TRANSPORT_VERSION, len(outcomes))]
    try:
        for outcome in outcomes:
            addresses = outcome.host_addresses
            parts.append(
                _OUTCOME_FIXED.pack(outcome.index, len(addresses), len(outcome.records))
            )
            parts.append(struct.pack(f"!{len(addresses)}Q", *addresses))
            for record in outcome.records:
                _encode_record(parts, record)
    except struct.error as exc:
        raise MeasurementError(f"value outside transport field range: {exc}") from exc
    return b"".join(parts)


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #


class _Reader:
    """A cursor over one blob: every read is ``unpack_from`` on a memoryview."""

    __slots__ = ("view", "offset")

    def __init__(self, view: memoryview) -> None:
        self.view = view
        self.offset = 0

    def fixed(self, fmt: struct.Struct) -> "tuple[Any, ...]":
        values = fmt.unpack_from(self.view, self.offset)
        self.offset += fmt.size
        return values

    def column(self, count: int, code: str) -> "tuple[Any, ...]":
        fmt = f"!{count}{code}"
        values = struct.unpack_from(fmt, self.view, self.offset)
        self.offset += struct.calcsize(fmt)
        return values

    def text(self) -> str:
        (length,) = _U32.unpack_from(self.view, self.offset)
        start = self.offset + 4
        end = start + length
        if end > len(self.view):
            raise MeasurementError("truncated transport blob: string overruns buffer")
        self.offset = end
        return str(self.view[start:end], "utf-8")


def _decode_measurement(reader: _Reader) -> MeasurementResult:
    host, start_time, end_time, spacing, count = reader.fixed(_MEASUREMENT_FIXED)
    test_name = reader.text()
    notes = reader.text()
    result = MeasurementResult(
        test_name=test_name,
        host_address=host,
        start_time=start_time,
        end_time=end_time,
        spacing=spacing,
        notes=notes,
    )
    if not count:
        return result
    indexes = reader.column(count, "I")
    times = reader.column(count, "d")
    spacings = reader.column(count, "d")
    forwards = reader.column(count, "B")
    reverses = reader.column(count, "B")
    uid_columns = []
    for _ in range(2):
        lengths = reader.column(count, "B")
        flat = reader.column(sum(lengths), "Q")
        uids, cursor = [], 0
        for length in lengths:
            uids.append(flat[cursor : cursor + length])
            cursor += length
        uid_columns.append(uids)
    detail_lengths = reader.column(count, "I")
    view, offset = reader.view, reader.offset
    details = []
    for length in detail_lengths:
        details.append(str(view[offset : offset + length], "utf-8"))
        offset += length
    reader.offset = offset
    outcomes = _OUTCOMES
    result.samples = [
        ReorderSample(
            index=indexes[i],
            time=times[i],
            spacing=spacings[i],
            forward=outcomes[forwards[i]],
            reverse=outcomes[reverses[i]],
            detail=details[i],
            probe_uids=uid_columns[0][i],
            response_uids=uid_columns[1][i],
        )
        for i in range(count)
    ]
    return result


def _decode_report(reader: _Reader) -> ProbeReport:
    (flags,) = reader.fixed(_U8)
    (test_id,) = reader.fixed(_U8)
    (host,) = reader.fixed(_U64)
    error = reader.text() if flags & _REPORT_HAS_ERROR else None
    result = _decode_measurement(reader) if flags & _REPORT_HAS_RESULT else None
    return ProbeReport(
        test=_TESTS[test_id],
        host_address=host,
        result=result,
        error=error,
        ineligible=bool(flags & _REPORT_INELIGIBLE),
    )


def _decode_record(reader: _Reader) -> HostRoundResult:
    round_index, host, time, test_id, flags = reader.fixed(_RECORD_FIXED)
    scenario = reader.text() if flags & _RECORD_HAS_SCENARIO else None
    report = _decode_report(reader)
    return HostRoundResult(
        round_index=round_index,
        host_address=host,
        test=_TESTS[test_id],
        time=time,
        report=report,
        scenario=scenario,
    )


def decode_outcomes(
    blob: Buffer, *, shard_indexes: Optional[Sequence[int]] = None
) -> list[ShardOutcome]:
    """Decode one transport blob back into its batch of shard outcomes.

    Any truncation or corruption raises a typed
    :class:`~repro.net.errors.TransportError` carrying the byte ``offset``
    where decoding stopped, the ``shard_indexes`` the caller had in flight
    (when it passed them), and the ``decoded_indexes`` recovered before the
    fault — so a dispatcher can requeue exactly the shards that were lost
    instead of failing the whole campaign.
    """
    expected = tuple(shard_indexes) if shard_indexes is not None else ()
    view = memoryview(blob)

    def fault(message: str, offset: int, decoded: Sequence[ShardOutcome]) -> TransportError:
        return TransportError(
            message,
            offset=offset,
            shard_indexes=expected,
            decoded_indexes=tuple(outcome.index for outcome in decoded),
        )

    if len(view) < _HEADER.size:
        raise fault(f"truncated transport blob: {len(view)} bytes", len(view), ())
    magic, version, count = _HEADER.unpack_from(view, 0)
    if magic != TRANSPORT_MAGIC:
        raise fault(f"bad transport magic: {bytes(magic)!r}", 0, ())
    if version != TRANSPORT_VERSION:
        raise fault(
            f"transport version mismatch: blob v{version}, codec v{TRANSPORT_VERSION}",
            0,
            (),
        )
    reader = _Reader(view)
    reader.offset = _HEADER.size
    outcomes: list[ShardOutcome] = []
    try:
        for _ in range(count):
            index, n_addresses, n_records = reader.fixed(_OUTCOME_FIXED)
            addresses = reader.column(n_addresses, "Q")
            records = [_decode_record(reader) for _ in range(n_records)]
            outcomes.append(
                ShardOutcome(index=index, host_addresses=addresses, records=records)
            )
    except TransportError:
        raise
    except MeasurementError as exc:
        # _Reader.text raises on a string overrunning the buffer; re-wrap it
        # with the batch context the bare message lacks.
        raise fault(str(exc), reader.offset, outcomes) from exc
    except (struct.error, IndexError, ValueError, UnicodeDecodeError) as exc:
        raise fault(
            f"corrupt transport blob: {exc}", reader.offset, outcomes
        ) from exc
    if reader.offset != len(view):
        raise fault(
            f"transport blob has {len(view) - reader.offset} trailing bytes",
            reader.offset,
            outcomes,
        )
    return outcomes


__all__ = [
    "BATCH_SIZE_ENV",
    "MIN_BATCH_SAMPLES",
    "TRANSPORT_VERSION",
    "TransportError",
    "batch_size_override",
    "decode_outcomes",
    "encode_outcomes",
    "next_batch_size",
]
