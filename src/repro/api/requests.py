"""Typed requests: every option normalized once, at the front door.

Each request dataclass captures one kind of work the library can do —
:class:`ProbeRequest` (one quick-testbed visit), :class:`CampaignRequest`
(a sharded survey over a scenario or an explicit population),
:class:`MatrixRequest` (a scenario × host-OS sweep), and
:class:`ResumeRequest` (continue an interrupted campaign from its durable
store) — and owns the normalization that used to be re-implemented by every
entry point: scenario names resolve to specs, population sizes and OS mixes
apply, per-cell seeds derive, and store paths become
:class:`~repro.store.store.CampaignStore` objects, all in one place.

Requests are frozen and carry no execution state; the same request can be
submitted to any :class:`repro.api.Session` (any backend) and, by the
runner's determinism guarantees, produce a result with the identical
:func:`~repro.core.runner.result_digest`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import CheckpointHook
from repro.net.errors import MeasurementError, StoreError
from repro.scenarios.matrix import (
    MIXED_OS,
    ScenarioLike,
    ScenarioMatrix,
    derive_cell_seed,
    resolve_scenario,
)
from repro.scenarios.population import build_scenario_hosts
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import NetworkScenario
from repro.store.store import CampaignStore
from repro.workloads.testbed import HostSpec, PathSpec

StoreLike = Union[CampaignStore, os.PathLike, str]


def as_store(store: StoreLike, *, create: bool) -> CampaignStore:
    """Accept a store object or a directory path (created lazily on run)."""
    if isinstance(store, CampaignStore):
        return store
    if create:
        return CampaignStore(store)  # begin() writes the manifest on first use
    return CampaignStore.open(store)


# --------------------------------------------------------------------- #
# Normalized (execution-ready) forms
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class NormalizedCampaign:
    """A campaign with every front-door option resolved to concrete values."""

    specs: tuple[HostSpec, ...]
    config: CampaignConfig
    seed: int
    shards: int
    remote_port: int
    tests: Optional[tuple[TestName, ...]]
    label: Optional[str]
    scenario_spec: Optional[NetworkScenario]
    store: Optional[CampaignStore]
    resume: bool
    origin: Optional[dict]
    on_checkpoint: Optional[CheckpointHook]


@dataclass(frozen=True)
class CellPlan:
    """One matrix cell, fully materialized and picklable.

    Everything a worker process needs to execute the cell travels here —
    ``scenario`` already carries the population-size and OS overrides — and
    the host specs themselves are rebuilt inside the worker (a pure function
    of ``(scenario, seed)``), keeping the pickled payload small.
    """

    label: str
    scenario: NetworkScenario
    seed: int
    shards: int
    remote_port: int
    config: CampaignConfig
    tests: Optional[tuple[TestName, ...]]


@dataclass(frozen=True)
class NormalizedMatrix:
    """A sweep reduced to an ordered tuple of independent cell plans."""

    cells: tuple[CellPlan, ...]


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProbeRequest:
    """One visit to a single simulated host: the library's "hello world".

    Builds the quick testbed (a lone web server behind an adjacent-swap
    path) — or deploys ``host`` verbatim when given — and runs each
    requested technique once.  The result envelope's payload is a
    ``dict[TestName, ProbeReport]``.
    """

    tests: tuple[TestName, ...] = (TestName.SINGLE_CONNECTION,)
    samples: int = 50
    seed: int = 1
    spacing: float = 0.0
    forward_swap_probability: float = 0.05
    reverse_swap_probability: float = 0.02
    remote_port: int = 80
    host: Optional[HostSpec] = None

    def host_spec(self) -> HostSpec:
        """The host to visit: the explicit spec, or the quick-testbed target."""
        if self.host is not None:
            return self.host
        from repro.net.flow import parse_address

        return HostSpec(
            name="target",
            address=parse_address("10.1.0.2"),
            path=PathSpec(
                forward_swap_probability=self.forward_swap_probability,
                reverse_swap_probability=self.reverse_swap_probability,
            ),
        )


@dataclass(frozen=True)
class CampaignRequest:
    """A sharded survey over a scenario population or explicit host specs.

    Exactly one of ``scenario`` / ``specs`` selects the population.  With a
    ``store`` the run checkpoints every completed shard durably (and records
    a scenario ``origin`` in the manifest so :class:`ResumeRequest` can
    rebuild the population later); ``resume=True`` continues an interrupted
    run in place.
    """

    scenario: Optional[ScenarioLike] = None
    specs: Optional[tuple[HostSpec, ...]] = None
    config: Optional[CampaignConfig] = None
    hosts: Optional[int] = None
    os_name: Optional[str] = None
    seed: int = 7
    shards: int = 1
    remote_port: int = 80
    tests: Optional[tuple[TestName, ...]] = None
    scenario_label: Optional[str] = None
    store: Optional[StoreLike] = None
    resume: bool = False
    on_checkpoint: Optional[CheckpointHook] = None

    def normalized(self) -> NormalizedCampaign:
        if (self.scenario is None) == (self.specs is None):
            raise MeasurementError(
                "CampaignRequest needs exactly one population source: "
                "a scenario (name or spec) or explicit host specs"
            )
        scenario_spec: Optional[NetworkScenario] = None
        origin: Optional[dict] = None
        label = self.scenario_label
        if self.scenario is not None:
            scenario_spec = resolve_scenario(self.scenario)
            if self.hosts is not None:
                scenario_spec = scenario_spec.with_population(num_hosts=self.hosts)
            if self.os_name is not None and self.os_name != MIXED_OS:
                scenario_spec = scenario_spec.with_os(self.os_name)
            specs = tuple(build_scenario_hosts(scenario_spec, seed=self.seed))
            label = label or scenario_spec.name
            if self.store is not None:
                origin = {
                    "kind": "scenario",
                    "scenario": resolve_scenario(self.scenario).name,
                    "hosts": self.hosts,
                    "os_name": self.os_name,
                    "seed": self.seed,
                    "scenario_label": label,
                }
        else:
            if self.hosts is not None or self.os_name is not None:
                raise MeasurementError(
                    "hosts/os_name overrides apply to scenario populations, "
                    "not explicit host specs"
                )
            specs = tuple(self.specs or ())
        store = as_store(self.store, create=True) if self.store is not None else None
        return NormalizedCampaign(
            specs=specs,
            config=self.config or CampaignConfig(),
            seed=self.seed,
            shards=self.shards,
            remote_port=self.remote_port,
            tests=tuple(self.tests) if self.tests is not None else None,
            label=label,
            scenario_spec=scenario_spec,
            store=store,
            resume=self.resume,
            origin=origin,
            on_checkpoint=self.on_checkpoint,
        )


@dataclass(frozen=True)
class MatrixRequest:
    """A scenario × host-OS sweep through the campaign runner.

    Accepts either a prebuilt :class:`~repro.scenarios.matrix.ScenarioMatrix`
    or ``scenarios`` + ``os_names`` to build one.  Every cell's seed derives
    stably from ``(seed, scenario name, OS name)``, so adding or removing
    cells never changes the other cells' datasets.  The session runs the
    cells in order, each one a campaign whose shards share its warm pool.
    """

    scenarios: tuple[ScenarioLike, ...] = ()
    os_names: tuple[str, ...] = (MIXED_OS,)
    matrix: Optional[ScenarioMatrix] = None
    config: Optional[CampaignConfig] = None
    hosts: Optional[int] = None
    seed: int = 7
    shards: int = 1
    remote_port: int = 80
    tests: Optional[tuple[TestName, ...]] = None

    def scenario_matrix(self) -> ScenarioMatrix:
        if self.matrix is not None:
            return self.matrix
        if not self.scenarios:
            raise MeasurementError(
                "MatrixRequest needs a matrix or a non-empty scenario list"
            )
        return ScenarioMatrix.of(self.scenarios, self.os_names)

    def _cell_scenario(self, cell) -> NetworkScenario:
        scenario = cell.materialized_scenario()
        if self.hosts is not None:
            scenario = scenario.with_population(num_hosts=self.hosts)
        return scenario

    def normalized(self) -> NormalizedMatrix:
        matrix = self.scenario_matrix()
        config = self.config or CampaignConfig()
        cells = tuple(
            CellPlan(
                label=cell.label,
                scenario=self._cell_scenario(cell),
                seed=derive_cell_seed(self.seed, cell.scenario.name, cell.os_name),
                shards=self.shards,
                remote_port=self.remote_port,
                config=config,
                tests=tuple(self.tests) if self.tests is not None else None,
            )
            for cell in matrix.cells()
        )
        return NormalizedMatrix(cells=cells)


@dataclass(frozen=True)
class ResumeRequest:
    """Continue an interrupted campaign from its durable store alone.

    The store's manifest records the plan and a scenario ``origin``; the
    population is rebuilt from those (a pure function, so the specs are
    identical), already-durable shards load back, and only the missing
    shards execute.  The merged result is bit-identical — same
    :func:`~repro.core.runner.result_digest` — to an uninterrupted run.
    """

    store: StoreLike
    on_checkpoint: Optional[CheckpointHook] = None

    def normalized(self) -> NormalizedCampaign:
        store = as_store(self.store, create=False)
        plan = store.plan()
        origin = plan.origin or {}
        if origin.get("kind") != "scenario":
            raise StoreError(
                "store was not created from a scenario campaign (no scenario "
                "origin in its manifest); resume it by submitting the original "
                "CampaignRequest with resume=True instead"
            )
        spec = get_scenario(origin["scenario"])
        if origin.get("hosts") is not None:
            spec = spec.with_population(num_hosts=origin["hosts"])
        os_name = origin.get("os_name")
        if os_name is not None and os_name != MIXED_OS:
            spec = spec.with_os(os_name)
        specs = tuple(build_scenario_hosts(spec, seed=origin["seed"]))
        return NormalizedCampaign(
            specs=specs,
            config=plan.config,
            seed=plan.seed,
            shards=plan.shards,
            remote_port=plan.remote_port,
            tests=plan.tests,
            label=plan.scenario,
            scenario_spec=spec,
            store=store,
            resume=True,
            origin=plan.origin,
            on_checkpoint=self.on_checkpoint,
        )


Request = Union[ProbeRequest, CampaignRequest, MatrixRequest, ResumeRequest]


__all__ = [
    "CampaignRequest",
    "CellPlan",
    "MatrixRequest",
    "NormalizedCampaign",
    "NormalizedMatrix",
    "ProbeRequest",
    "Request",
    "ResumeRequest",
    "StoreLike",
    "as_store",
]
