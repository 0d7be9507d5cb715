"""Versioned result envelopes: every API result, self-describing.

A :class:`ResultEnvelope` is what :class:`repro.api.Session` hands back for
any request: the payload (a :class:`~repro.core.campaign.CampaignResult`, a
:class:`~repro.scenarios.matrix.MatrixResult`, or a probe's report mapping)
wrapped with its identity — the envelope format version, the scenario label,
a digest of the campaign *plan* that produced it, and the
:func:`~repro.core.runner.result_digest` of the dataset itself.  Two
envelopes with equal ``result_digest`` measured the same thing, regardless
of backend, shard count, worker count, or whether either run was resumed
from a store.

The analysis layer accepts envelopes directly:
:func:`repro.analysis.streaming.survey_from_envelope` streams one, the
``.result`` property satisfies the ``HasCampaignResult`` protocol that
:func:`repro.analysis.scenarios.slice_by_scenario` consumes, and
:func:`unwrap_result` lets batch helpers take either shape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional

from repro.net.errors import MeasurementError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.campaign import CampaignResult, HostRoundResult
    from repro.store.store import CampaignPlan

ENVELOPE_VERSION = 1
"""Version of the envelope contract.  Bumped only on incompatible change."""

KIND_PROBE = "probe"
KIND_CAMPAIGN = "campaign"
KIND_MATRIX = "matrix"


def plan_digest(plan: "CampaignPlan") -> str:
    """sha256 of a campaign plan's canonical JSON form.

    Two campaigns with equal plan digests were *configured* identically
    (specs, config, seed, shards, tests, port, scenario); equal
    ``result_digest`` then follows from the runner's determinism.
    """
    canonical = json.dumps(plan.to_mapping(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True, slots=True, weakref_slot=True)
class ResultEnvelope:
    """One request's result plus everything needed to identify it.

    ``payload`` holds the raw result object for ``kind``:

    ========== =====================================================
    kind       payload
    ========== =====================================================
    probe      ``dict[TestName, ProbeReport]`` (one quick-testbed visit)
    campaign   :class:`~repro.core.campaign.CampaignResult`
    matrix     :class:`~repro.scenarios.matrix.MatrixResult`
    ========== =====================================================

    ``meta`` carries request-shaped context (seed, shards, backend name,
    store path, resolved scenario spec...) so a result can be traced back to
    what produced it without keeping the request object alive.
    """

    kind: str
    payload: Any
    scenario: Optional[str] = None
    plan_digest: Optional[str] = None
    result_digest: Optional[str] = None
    version: int = ENVELOPE_VERSION
    meta: Mapping[str, Any] = field(default_factory=dict)
    children: tuple["ResultEnvelope", ...] = ()
    """Per-cell campaign envelopes, for ``matrix`` results."""

    @property
    def result(self) -> "CampaignResult":
        """The campaign dataset (``HasCampaignResult``-compatible accessor)."""
        if self.kind != KIND_CAMPAIGN:
            raise MeasurementError(
                f"envelope of kind {self.kind!r} has no single campaign result"
            )
        return self.payload

    def iter_records(self) -> Iterator["HostRoundResult"]:
        """Every campaign record in the envelope, across matrix cells too."""
        if self.kind == KIND_CAMPAIGN:
            yield from self.payload.records
        elif self.kind == KIND_MATRIX:
            for child in self.children:
                yield from child.iter_records()
        else:
            raise MeasurementError(
                f"envelope of kind {self.kind!r} carries no campaign records"
            )


def unwrap_result(obj: "CampaignResult | ResultEnvelope") -> "CampaignResult":
    """Accept a campaign result or an envelope wrapping one."""
    if isinstance(obj, ResultEnvelope):
        return obj.result
    return obj


__all__ = [
    "ENVELOPE_VERSION",
    "KIND_CAMPAIGN",
    "KIND_MATRIX",
    "KIND_PROBE",
    "ResultEnvelope",
    "plan_digest",
    "unwrap_result",
]
