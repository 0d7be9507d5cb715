#!/usr/bin/env python3
"""Profile one sharded scenario sweep and print the top cumulative hotspots.

Future performance PRs should start from data, not intuition: this script
runs a small scenario sweep through the sharded campaign runner under
:mod:`cProfile` and prints the top-20 functions by cumulative time.  The
PR 3 hot-path overhaul was driven by exactly this view — the costs were
spread across enum flag operations, event-heap comparisons, per-event
predicate polling, and packet length recomputation rather than concentrated
in one function, which is why that PR touched every layer.

``--backend serial`` (the default) keeps every simulated event inside the
profiled process; ``--backend process`` profiles the *dispatch* side
instead — batch submission, result decoding, pool
bookkeeping — which is the view PR 7's batched transport was tuned against.
The cells run on the main thread (not via a :class:`repro.api.Session`,
whose job-worker thread would hide the work from the profiler), sharing one
warm backend exactly as a session would.

Usage::

    PYTHONPATH=src python examples/profile_campaign.py \
        [--hosts N] [--top K] [--backend serial|process] [--out FILE]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats

from repro.api import MatrixRequest
from repro.api.backends import create_backend
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import CampaignRunner
from repro.scenarios import MIXED_OS, ScenarioMatrix, scenario_names
from repro.scenarios.population import build_scenario_hosts

SEED = 1302


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=4, help="hosts per scenario cell")
    parser.add_argument("--shards", type=int, default=2, help="shards per cell")
    parser.add_argument("--top", type=int, default=20, help="hotspots to print")
    parser.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process"),
        help="execution backend to profile (serial = simulation hot path, "
        "process = batched dispatch and transport overhead)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime"),
        help="pstats sort order",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also dump raw pstats data to this file (for CI artifacts)",
    )
    args = parser.parse_args()

    config = CampaignConfig(
        rounds=1,
        samples_per_measurement=6,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    matrix = ScenarioMatrix.of(scenario_names()[:3], (MIXED_OS,))
    request = MatrixRequest(
        matrix=matrix, config=config, hosts=args.hosts, seed=SEED, shards=args.shards
    )
    cells = request.normalized().cells

    total_measurements = 0
    profiler = cProfile.Profile()
    with create_backend(args.backend) as backend:
        profiler.enable()
        for cell in cells:
            specs = build_scenario_hosts(cell.scenario, seed=cell.seed)
            runner = CampaignRunner(
                specs,
                cell.config,
                seed=cell.seed,
                remote_port=cell.remote_port,
                shards=cell.shards,
                scenario=cell.label,
                backend=backend,
            )
            result = runner.execute(cell.tests)
            total_measurements += sum(
                1 for record in result.records if record.report.result is not None
            )
        profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
    print(
        f"profiled sweep: {len(cells)} cells on backend {args.backend!r}, "
        f"{total_measurements} measurements"
    )
    print(f"top {args.top} functions by {args.sort} time:")
    print(stream.getvalue())
    if args.out:
        print(f"raw pstats written to {args.out}")


if __name__ == "__main__":
    main()
