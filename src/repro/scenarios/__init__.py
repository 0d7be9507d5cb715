"""Declarative network scenarios: composable descriptions of path conditions.

This package is the repo's answer to "as many scenarios as you can imagine":
a :class:`NetworkScenario` names a population plus a set of (possibly
time-varying) path-condition processes, a registry holds the built-in
catalogue (the paper's ``imc2002-survey`` population, six pathology
scenarios — bursty loss, route flaps, diurnal congestion, asymmetric paths,
ICMP-hostile, load-balanced-heavy — and the five hostile-internet middlebox
scenarios: nat-timeout, syn-filtered, pmtud-blackhole, icmp-policed,
ecn-bleached), and :class:`ScenarioMatrix` describes scenario × host-OS
sweep grids that a :class:`repro.api.MatrixRequest` runs through the sharded
campaign runner.

Everything is a pure function of ``(scenario, seed)``: same spec, same seed,
same packets — across runs, executors, and shard counts.
"""

from repro.scenarios.matrix import (
    MIXED_OS,
    MatrixCell,
    MatrixResult,
    ScenarioMatrix,
    ScenarioRun,
    derive_cell_seed,
    resolve_scenario,
)
from repro.scenarios.population import DEFAULT_OS_MIX, build_scenario_hosts
from repro.scenarios.registry import (
    LEGACY_SCENARIO,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import (
    BurstyLossCondition,
    ConditionTemplate,
    DiurnalCongestionCondition,
    EcnBleachCondition,
    EcnMarkCondition,
    IcmpPolicerCondition,
    NatTimeoutCondition,
    NetworkScenario,
    PmtudBlackHoleCondition,
    PopulationSpec,
    RouteFlapCondition,
    SynFirewallCondition,
)

__all__ = [
    "BurstyLossCondition",
    "ConditionTemplate",
    "DEFAULT_OS_MIX",
    "DiurnalCongestionCondition",
    "EcnBleachCondition",
    "EcnMarkCondition",
    "IcmpPolicerCondition",
    "LEGACY_SCENARIO",
    "NatTimeoutCondition",
    "PmtudBlackHoleCondition",
    "SynFirewallCondition",
    "MIXED_OS",
    "MatrixCell",
    "MatrixResult",
    "NetworkScenario",
    "PopulationSpec",
    "RouteFlapCondition",
    "ScenarioMatrix",
    "ScenarioRun",
    "build_scenario_hosts",
    "derive_cell_seed",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "resolve_scenario",
    "scenario_names",
]
