"""API-surface snapshot: the public names this library promises.

``repro.__all__`` and ``repro.api.__all__`` are pinned verbatim.  If one of
these tests fails, a PR changed the public surface — either restore the name
(accidental breakage) or update the snapshot *and* the docs in the same
commit (deliberate, versioned change).  Every exported name must also
resolve to a real attribute, so ``__all__`` can never advertise something
imports would fail on.
"""

from __future__ import annotations

import pytest

import repro
import repro.api

REPRO_ALL = [
    "Campaign",
    "CampaignConfig",
    "CampaignRequest",
    "CampaignResult",
    "CampaignRunner",
    "DataTransferTest",
    "Direction",
    "DualConnectionTest",
    "HostSpec",
    "IpidClass",
    "IpidValidationReport",
    "JobHandle",
    "JobStatus",
    "MatrixRequest",
    "MeasurementResult",
    "NetworkScenario",
    "OS_PROFILES",
    "OsProfile",
    "PathSpec",
    "PopulationSpec",
    "ProbeHost",
    "ProbeReport",
    "ProbeRequest",
    "Prober",
    "RemoteHost",
    "ReorderSample",
    "ResultEnvelope",
    "ResumeRequest",
    "SampleOutcome",
    "ScenarioMatrix",
    "Session",
    "Simulator",
    "SingleConnectionTest",
    "SpacingSweep",
    "StripingSpec",
    "SynTest",
    "Testbed",
    "TestName",
    "build_scenario_hosts",
    "build_testbed",
    "generate_population",
    "generate_population_shards",
    "get_scenario",
    "list_scenarios",
    "partition_specs",
    "profile_by_name",
    "quick_testbed",
    "register_scenario",
    "scenario_names",
    "validate_host_ipid",
    "__version__",
]

REPRO_API_ALL = [
    "CampaignRequest",
    "CellPlan",
    "ENVELOPE_VERSION",
    "ExecutionBackend",
    "JobCancelled",
    "JobHandle",
    "JobStatus",
    "MatrixRequest",
    "POOL_FAILURES",
    "ProbeRequest",
    "ProcessBackend",
    "ProgressEvent",
    "Request",
    "ResultEnvelope",
    "ResumeRequest",
    "SerialBackend",
    "Session",
    "backend_names",
    "create_backend",
    "plan_digest",
    "register_backend",
    "unwrap_result",
]

BUILTIN_BACKENDS = ("serial", "process", "remote")


def test_repro_all_is_pinned():
    assert sorted(repro.__all__) == sorted(REPRO_ALL), (
        "repro.__all__ changed; if deliberate, update this snapshot, the "
        "README, and docs/architecture.md together"
    )


def test_repro_api_all_is_pinned():
    assert sorted(repro.api.__all__) == sorted(REPRO_API_ALL), (
        "repro.api.__all__ changed; if deliberate, update this snapshot, the "
        "README, and docs/architecture.md together"
    )


@pytest.mark.parametrize("name", sorted(set(REPRO_ALL)))
def test_repro_export_resolves(name):
    assert hasattr(repro, name), f"repro.__all__ advertises missing name {name!r}"


@pytest.mark.parametrize("name", sorted(set(REPRO_API_ALL)))
def test_repro_api_export_resolves(name):
    assert hasattr(repro.api, name), f"repro.api.__all__ advertises missing {name!r}"


def test_no_duplicate_exports():
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert len(set(repro.api.__all__)) == len(repro.api.__all__)


def test_builtin_backends_are_registered():
    registered = repro.api.backend_names()
    for name in BUILTIN_BACKENDS:
        assert name in registered


def test_envelope_version_is_pinned():
    # Bumping the envelope version is a compatibility event; do it knowingly.
    assert repro.api.ENVELOPE_VERSION == 1
