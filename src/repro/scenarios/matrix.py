"""Scenario × host-OS sweep matrices.

:class:`ScenarioMatrix` crosses scenarios with host operating systems,
deriving every cell's seed stably from ``(base seed, scenario name, OS
name)`` so a sweep is reproducible cell by cell regardless of execution
order or shard count.  A :class:`repro.api.MatrixRequest` submitted to a
:class:`repro.api.Session` runs the sweep and returns a
:class:`MatrixResult` of per-cell :class:`ScenarioRun` s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import NetworkScenario
from repro.sim.random import SeededRandom

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.campaign import CampaignResult

ScenarioLike = Union[str, NetworkScenario]

MIXED_OS = "mixed"
"""Placeholder OS label for a matrix column using each scenario's own mix."""


def resolve_scenario(scenario: ScenarioLike) -> NetworkScenario:
    """Accept a scenario spec or a registered name."""
    if isinstance(scenario, NetworkScenario):
        return scenario
    return get_scenario(scenario)


def derive_cell_seed(seed: int, scenario_name: str, os_name: str = MIXED_OS) -> int:
    """A stable per-cell seed: a pure function of the base seed and cell key.

    Delegates to :meth:`SeededRandom.derive`, whose cryptographic digest
    keeps the derivation identical across processes and Python invocations.
    """
    return SeededRandom(seed).derive(f"scenario::{scenario_name}::os::{os_name}").seed


@dataclass(slots=True)
class ScenarioRun:
    """One executed scenario: its spec, the seed used, and the records."""

    scenario: NetworkScenario
    seed: int
    result: "CampaignResult"


@dataclass(frozen=True, slots=True)
class MatrixCell:
    """One (scenario, OS) combination of a sweep."""

    scenario: NetworkScenario
    os_name: str = MIXED_OS

    @property
    def label(self) -> str:
        return f"{self.scenario.name}/{self.os_name}"

    def materialized_scenario(self) -> NetworkScenario:
        if self.os_name == MIXED_OS:
            return self.scenario
        return self.scenario.with_os(self.os_name)


@dataclass(frozen=True, slots=True)
class ScenarioMatrix:
    """A sweep grid: scenarios × host operating systems.

    ``os_names`` may include :data:`MIXED_OS` to keep a column with each
    scenario's own OS mix alongside homogeneous-OS columns.
    """

    scenarios: tuple[NetworkScenario, ...]
    os_names: tuple[str, ...] = (MIXED_OS,)

    @classmethod
    def of(
        cls,
        scenarios: Sequence[ScenarioLike],
        os_names: Sequence[str] = (MIXED_OS,),
    ) -> "ScenarioMatrix":
        """Build a matrix from scenario names/specs and OS profile names."""
        return cls(
            scenarios=tuple(resolve_scenario(s) for s in scenarios),
            os_names=tuple(os_names),
        )

    def cells(self) -> list[MatrixCell]:
        """All cells in row-major (scenario-major) order."""
        return [
            MatrixCell(scenario=scenario, os_name=os_name)
            for scenario in self.scenarios
            for os_name in self.os_names
        ]

    def __len__(self) -> int:
        return len(self.scenarios) * len(self.os_names)


@dataclass(slots=True)
class MatrixResult:
    """Every cell's run, keyed by its ``scenario/os`` label."""

    runs: dict[str, ScenarioRun]

    def results(self) -> dict[str, CampaignResult]:
        """The per-cell campaign datasets (the shape analysis slicing takes)."""
        return {label: run.result for label, run in self.runs.items()}

    def total_measurements(self) -> int:
        return sum(len(run.result.records) for run in self.runs.values())
