"""Tests for the sharded campaign runner and the indexed campaign result."""

from __future__ import annotations

import pytest

from repro.core.campaign import Campaign, CampaignConfig, CampaignResult, HostRoundResult
from repro.core.prober import ProbeReport, TestName
from repro.core.runner import (
    EXECUTOR_PROCESS,
    EXECUTOR_SERIAL,
    CampaignRunner,
    record_signature,
    result_signature,
)
from repro.core.sample import Direction
from repro.net.errors import MeasurementError
from repro.workloads.population import (
    PopulationSpec,
    generate_population,
    generate_population_shards,
    partition_specs,
)
from repro.workloads.testbed import build_testbed

POPULATION = PopulationSpec(num_hosts=6, load_balanced_fraction=0.0, reordering_path_fraction=0.5)
CONFIG = CampaignConfig(
    rounds=2,
    samples_per_measurement=5,
    tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)
SEED = 20260730


@pytest.fixture(scope="module")
def specs():
    return generate_population(POPULATION, seed=SEED)


@pytest.fixture(scope="module")
def serial_reference(specs):
    """The plain single-simulator Campaign over a stable-seeded testbed."""
    testbed = build_testbed(specs, seed=SEED, stable_site_seeds=True)
    return Campaign(testbed.probe, testbed.addresses(), CONFIG).run()


# --------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------- #


def test_partition_single_item():
    assert partition_specs(["a"], 1) == [["a"]]
    assert partition_specs(["a"], 5) == [["a"]]


def test_partition_fewer_items_than_shards():
    assert partition_specs([1, 2, 3], 8) == [[1], [2], [3]]


def test_partition_uneven_split_is_balanced_and_ordered():
    parts = partition_specs(list(range(10)), 4)
    assert parts == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    assert max(map(len, parts)) - min(map(len, parts)) <= 1


def test_partition_empty_and_invalid():
    assert partition_specs([], 3) == []
    with pytest.raises(Exception):
        partition_specs([1], 0)


def test_generate_population_shards_union_matches_full(specs):
    shards = generate_population_shards(POPULATION, seed=SEED, shards=4)
    flattened = [spec for shard in shards for spec in shard]
    assert flattened == specs


def test_runner_shard_plan_covers_population(specs):
    runner = CampaignRunner(specs, CONFIG, seed=SEED, shards=4)
    plan = runner.shard_plan()
    assert len(plan) == 4
    assert [spec for shard in plan for spec in shard] == list(specs)


# --------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------- #


def test_single_shard_matches_serial_campaign_exactly(specs, serial_reference):
    """One shard is literally the serial campaign: same records, same times."""
    result = CampaignRunner(specs, CONFIG, seed=SEED, shards=1, executor=EXECUTOR_SERIAL).execute()
    assert [record.time for record in result.records] == [
        record.time for record in serial_reference.records
    ]
    assert result_signature(result) == result_signature(serial_reference)


def test_sharded_matches_serial_campaign_modulo_ordering(specs, serial_reference):
    """shards=N reproduces the serial records (content, modulo ordering)."""
    for shards in (2, 3, 6):
        result = CampaignRunner(
            specs, CONFIG, seed=SEED, shards=shards, executor=EXECUTOR_SERIAL
        ).execute()
        assert len(result.records) == len(serial_reference.records)
        assert result_signature(result) == result_signature(serial_reference)


def test_parallel_executors_match_serial_fallback(specs):
    """The process pool returns the same dataset as inline execution."""
    serial = CampaignRunner(specs, CONFIG, seed=SEED, shards=3, executor=EXECUTOR_SERIAL).execute()
    processed = CampaignRunner(
        specs, CONFIG, seed=SEED, shards=3, executor=EXECUTOR_PROCESS, max_workers=2
    ).execute()
    assert result_signature(processed) == result_signature(serial)


def test_merged_record_order_is_canonical(specs):
    """Merged records follow (round, host-in-spec-order, test-in-cycle-order)."""
    result = CampaignRunner(specs, CONFIG, seed=SEED, shards=3, executor=EXECUTOR_SERIAL).execute()
    host_order = {spec.address: index for index, spec in enumerate(specs)}
    test_order = {test: index for index, test in enumerate(CONFIG.tests)}
    keys = [
        (record.round_index, host_order[record.host_address], test_order[record.test])
        for record in result.records
    ]
    assert keys == sorted(keys)


def test_sharded_analysis_views_match_serial(specs, serial_reference):
    result = CampaignRunner(specs, CONFIG, seed=SEED, shards=3, executor=EXECUTOR_SERIAL).execute()
    for test in CONFIG.tests:
        assert result.ineligible_hosts(test) == serial_reference.ineligible_hosts(test)
        for direction in Direction:
            assert result.path_rates(test, direction) == pytest.approx(
                serial_reference.path_rates(test, direction)
            )
    assert result.total_measurements() == serial_reference.total_measurements()
    assert (
        result.measurements_with_reordering()
        == serial_reference.measurements_with_reordering()
    )


def test_fixed_shard_layout_reproducible_with_load_balancers():
    """LB sites hash ephemeral ports, so shard *count* may change their
    records — but a fixed layout must reproduce exactly, LB hosts included."""
    lb_specs = generate_population(
        PopulationSpec(num_hosts=8, load_balanced_fraction=0.5), seed=SEED
    )
    config = CampaignConfig(
        rounds=1, samples_per_measurement=4, tests=(TestName.DUAL_CONNECTION,)
    )
    first = CampaignRunner(lb_specs, config, seed=SEED, shards=3, executor=EXECUTOR_SERIAL).execute()
    again = CampaignRunner(lb_specs, config, seed=SEED, shards=3, executor=EXECUTOR_SERIAL).execute()
    assert result_signature(first) == result_signature(again)
    processed = CampaignRunner(
        lb_specs, config, seed=SEED, shards=3, executor=EXECUTOR_PROCESS, max_workers=2
    ).execute()
    assert result_signature(processed) == result_signature(first)


def test_runner_validation(specs):
    with pytest.raises(MeasurementError):
        CampaignRunner([], CONFIG)
    with pytest.raises(MeasurementError):
        CampaignRunner(specs, CONFIG, shards=0)
    with pytest.raises(MeasurementError):
        CampaignRunner(specs, CONFIG, executor="gpu")


# --------------------------------------------------------------------- #
# CampaignResult merge and indexing
# --------------------------------------------------------------------- #


def _record(round_index: int, host: int, test: TestName, time: float) -> HostRoundResult:
    report = ProbeReport(test=test, host_address=host, result=None, error="no samples collected")
    return HostRoundResult(
        round_index=round_index, host_address=host, test=test, time=time, report=report
    )


def test_campaign_result_extend_merges_and_indexes():
    config = CampaignConfig(rounds=1, samples_per_measurement=1)
    result = CampaignResult(config=config, host_addresses=(1, 2))
    shard_a = [_record(0, 1, TestName.SYN, 0.0), _record(1, 1, TestName.SYN, 5.0)]
    shard_b = [_record(0, 2, TestName.SINGLE_CONNECTION, 0.0)]
    result.extend(shard_a)
    result.extend(shard_b)
    assert len(result.records) == 3
    assert result.records_for(1, TestName.SYN) == shard_a
    assert result.records_for(2, TestName.SINGLE_CONNECTION) == shard_b
    assert result.records_for(1, TestName.SINGLE_CONNECTION) == []
    assert result.records_for(host_address=1) == shard_a
    assert result.records_for(test=TestName.SYN) == shard_a
    assert result.records_for() == shard_a + shard_b


def test_campaign_result_constructor_indexes_existing_records():
    config = CampaignConfig(rounds=1, samples_per_measurement=1)
    records = [_record(0, 7, TestName.SYN, 0.0), _record(0, 8, TestName.SYN, 1.0)]
    result = CampaignResult(config=config, host_addresses=(7, 8), records=list(records))
    assert result.records_for(7, TestName.SYN) == [records[0]]
    assert result.records_for(8, TestName.SYN) == [records[1]]


def test_record_signature_ignores_bookkeeping_but_not_content():
    a = _record(0, 1, TestName.SYN, 0.0)
    b = _record(0, 1, TestName.SYN, 123.0)  # same measurement, different clock
    assert record_signature(a) == record_signature(b)
    c = _record(1, 1, TestName.SYN, 0.0)
    assert record_signature(a) != record_signature(c)


def test_ineligible_flag_is_explicit_only():
    """The bool field is authoritative; the error text is never pattern-matched."""
    explicit = ProbeReport(
        test=TestName.DUAL_CONNECTION, host_address=1, result=None,
        error="not eligible: ipid validation failed", ineligible=True,
    )
    assert explicit.ineligible
    string_only = ProbeReport(
        test=TestName.DUAL_CONNECTION, host_address=1, result=None,
        error="not eligible: ipid validation failed",
    )
    assert not string_only.ineligible  # no string sniffing any more
    plain_failure = ProbeReport(
        test=TestName.SYN, host_address=1, result=None, error="handshake timed out"
    )
    assert not plain_failure.ineligible
