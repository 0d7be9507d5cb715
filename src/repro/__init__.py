"""repro: single-ended measurement of Internet packet reordering.

A reproduction of "Measuring Packet Reordering" (Bellardo & Savage, IMC 2002)
as a self-contained Python library: the four measurement techniques (single
connection, dual connection, SYN, and TCP data transfer tests), the
packet-pair exchange metric and its time-domain parameterisation, plus the
simulated network substrate (packets, paths, reordering processes, host TCP/IP
stacks, middleboxes) the techniques are validated and evaluated against.

Quickstart
----------

The :mod:`repro.api` session layer is the front door: build a typed request,
submit it to a :class:`~repro.api.session.Session`, read the result envelope.

>>> from repro import Direction, ProbeRequest, Session, TestName
>>> with Session(backend="serial") as session:
...     envelope = session.run(ProbeRequest(samples=50, seed=3,
...                                         forward_swap_probability=0.1))
>>> report = envelope.payload[TestName.SINGLE_CONNECTION]
>>> 0.0 <= report.result.reordering_rate(Direction.FORWARD) <= 1.0
True

The lower layers (``quick_testbed`` + per-technique test classes,
``CampaignRunner``) remain available for direct use.
"""

from repro.api import (
    CampaignRequest,
    JobHandle,
    JobStatus,
    MatrixRequest,
    ProbeRequest,
    ResultEnvelope,
    ResumeRequest,
    Session,
)
from repro.core import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    DataTransferTest,
    Direction,
    DualConnectionTest,
    IpidClass,
    IpidValidationReport,
    MeasurementResult,
    ProbeReport,
    Prober,
    ReorderSample,
    SampleOutcome,
    SingleConnectionTest,
    SpacingSweep,
    SynTest,
    TestName,
    validate_host_ipid,
)
from repro.host import OS_PROFILES, OsProfile, ProbeHost, RemoteHost, profile_by_name
from repro.scenarios import (
    NetworkScenario,
    ScenarioMatrix,
    build_scenario_hosts,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.sim import Simulator
from repro.workloads import (
    HostSpec,
    PathSpec,
    PopulationSpec,
    StripingSpec,
    Testbed,
    build_testbed,
    generate_population,
    generate_population_shards,
    partition_specs,
)

__version__ = "1.0.0"

__all__ = [
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


def quick_testbed(
    forward_swap_probability: float = 0.05,
    reverse_swap_probability: float = 0.02,
    seed: int = 1,
    target_name: str = "target",
) -> Testbed:
    """Build a one-host testbed with adjacent-swap reordering on both paths.

    This is the fastest way to try the measurement techniques: it wires a
    probe host to a single FreeBSD-like web server over a path that swaps
    adjacent packets with the given probabilities.
    """
    from repro.net.flow import parse_address

    spec = HostSpec(
        name=target_name,
        address=parse_address("10.1.0.2"),
        path=PathSpec(
            forward_swap_probability=forward_swap_probability,
            reverse_swap_probability=reverse_swap_probability,
        ),
    )
    return build_testbed([spec], seed=seed)
