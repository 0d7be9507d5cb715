"""Named scenarios and the scenario × host-OS sweep matrix.

Runs every scenario in the built-in catalogue through the sharded campaign
runner, prints the cross-scenario comparison table, then sweeps a small
scenario × OS matrix and shows that a fixed layout reproduces exactly.

Run with:  PYTHONPATH=src python examples/scenario_sweep.py
"""

from __future__ import annotations

from repro import (
    CampaignConfig,
    CampaignRequest,
    MatrixRequest,
    ScenarioMatrix,
    Session,
    TestName,
)
from repro.analysis import compare_scenarios, slice_by_scenario
from repro.scenarios import MIXED_OS, get_scenario, scenario_names

SEED = 11

CONFIG = CampaignConfig(
    rounds=2,
    samples_per_measurement=8,
    tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)


def main() -> None:
    print("== every named scenario, end to end ==")
    with Session(backend="process") as session:
        runs = [
            session.run(CampaignRequest(scenario=name, config=CONFIG,
                                        hosts=8, seed=SEED, shards=2))
            for name in scenario_names()
        ]
    print(compare_scenarios(slice_by_scenario(runs)).to_table())

    print()
    print("== scenario x OS sweep matrix ==")
    matrix = ScenarioMatrix.of(
        ["route-flap", "diurnal-congestion"], [MIXED_OS, "freebsd-4.4", "linux-2.4"]
    )
    with Session(backend="process") as session:
        sweep = session.run(
            MatrixRequest(matrix=matrix, config=CONFIG, hosts=6, seed=SEED, shards=2)
        )
    print(compare_scenarios(sweep.payload.results()).to_table())

    print()
    print("== composition and reproducibility ==")
    custom = (
        get_scenario("bursty-loss")
        .with_population(num_hosts=6, load_balanced_fraction=0.0)
        .renamed("bursty-loss-small")
    )
    with Session(backend="serial") as session:
        one = session.run(CampaignRequest(scenario=custom, config=CONFIG,
                                          seed=SEED, shards=1))
    with Session(backend="process") as session:
        four = session.run(CampaignRequest(scenario=custom, config=CONFIG,
                                           seed=SEED, shards=4))
    assert one.result_digest == four.result_digest
    print("custom scenario dataset identical across 1 and 4 shards "
          f"({len(one.result.records)} records)")


if __name__ == "__main__":
    main()
