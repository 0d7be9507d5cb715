"""Exception hierarchy shared by the whole library.

Every error raised by ``repro`` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish packet-format problems, simulation misconfiguration, and
measurement-level failures.
"""

from __future__ import annotations

import pickle


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PacketError(ReproError):
    """Base class for packet construction / format errors."""


class ParseError(PacketError):
    """Raised when a byte buffer cannot be parsed into a packet."""


class SerializationError(PacketError):
    """Raised when a packet model cannot be serialized to bytes."""


class ChecksumError(PacketError):
    """Raised when checksum verification fails on a parsed packet."""


class SimulationError(ReproError):
    """Raised for simulator misconfiguration or invariant violations."""


class TopologyError(SimulationError):
    """Raised when a topology is malformed (unknown host, missing path...)."""


class ClockError(SimulationError):
    """Raised when time moves backwards or an event is scheduled in the past."""


class HostError(ReproError):
    """Base class for endpoint (TCP/IP stack) errors."""


class TcpStateError(HostError):
    """Raised when a TCP endpoint is driven through an illegal transition."""


class MeasurementError(ReproError):
    """Base class for measurement-technique failures."""


class HostNotEligibleError(MeasurementError):
    """Raised when a host fails a precondition for a measurement technique.

    The canonical example is the dual-connection test being run against a
    host whose IPID sequence is not shared and monotonic across connections
    (pseudo-random IPIDs, constant zero IPIDs, or a transparent load
    balancer).
    """


class SampleTimeoutError(MeasurementError):
    """Raised when a measurement sample never completes within its timeout."""


class TransportError(MeasurementError):
    """Raised when a shard-result transport blob cannot be decoded.

    Carries enough context for a dispatcher to requeue the work that was in
    flight when the blob went bad: ``offset`` is the byte offset into the
    blob where decoding stopped, ``shard_indexes`` the shard indexes the
    sender claimed the batch carried (when the receiver knows them), and
    ``decoded_indexes`` the shards that decoded cleanly before the fault —
    everything in ``shard_indexes`` but not ``decoded_indexes`` is lost and
    must be retried.
    """

    def __init__(
        self,
        message: str,
        *,
        offset: "int | None" = None,
        shard_indexes: "tuple[int, ...]" = (),
        decoded_indexes: "tuple[int, ...]" = (),
    ) -> None:
        super().__init__(message)
        self.offset = offset
        self.shard_indexes = tuple(shard_indexes)
        self.decoded_indexes = tuple(decoded_indexes)

    @property
    def lost_indexes(self) -> "tuple[int, ...]":
        """Shards that were in flight but did not survive the decode."""
        decoded = set(self.decoded_indexes)
        return tuple(i for i in self.shard_indexes if i not in decoded)


class ShardError(MeasurementError):
    """Raised when a shard's own code fails, wherever the shard ran.

    Execution backends wrap every exception raised while running a shard in
    this type (``index`` names the shard, ``cause`` is the original
    exception), so a bug in a shard is never mistaken for a pool failure and
    re-run.  Always picklable, so it crosses the process-pool boundary: a
    cause that cannot be pickled travels as a :class:`MeasurementError`
    carrying its type name and message.
    """

    def __init__(self, index: int, cause: BaseException) -> None:
        super().__init__(index, cause)
        self.index = index
        self.cause = cause

    def __str__(self) -> str:
        return f"shard {self.index} failed: {type(self.cause).__name__}: {self.cause}"

    def __reduce__(self) -> "tuple[type[ShardError], tuple[int, BaseException]]":
        cause = self.cause
        try:
            pickle.dumps(cause)
        except Exception:  # any pickling failure: ship a description instead
            cause = MeasurementError(f"{type(cause).__name__}: {cause}")
        return (type(self), (self.index, cause))


class ProtocolError(ReproError):
    """Raised on a malformed or truncated coordinator/worker protocol frame."""


class AnalysisError(ReproError):
    """Raised by the statistics / analysis layer on invalid input."""


class StoreError(ReproError):
    """Raised by the durable campaign store on corrupt or mismatched data.

    Covers manifest/segment corruption, format-version skew, and resuming a
    store with a campaign plan that does not match the one it was created
    with (different specs, config, seed, shard count, or tests).
    """
