"""``python -m repro`` — run, resume, and report scenario surveys.

Subcommands::

    python -m repro run --scenario imc2002-survey --hosts 12 --shards 4 --seed 7
    python -m repro run --scenario route-flap --store runs/flap --shards 4
    python -m repro resume --store runs/flap
    python -m repro report --store runs/flap
    python -m repro run --list-scenarios
    python -m repro workers --connect HOST:PORT --workers 4
    python -m repro lint --format json

The CLI is a thin veneer over the :mod:`repro.api` session layer: ``run``
submits a :class:`~repro.api.requests.CampaignRequest` and ``resume`` a
:class:`~repro.api.requests.ResumeRequest` to a
:class:`~repro.api.session.Session`, printing the summary tables plus the
envelope's ``result-digest`` line.  With ``--store`` a run checkpoints every
completed shard durably, so a crashed or killed run continues with
``resume`` from the last durable shard — the resumed result's printed
``result-digest`` is bit-identical to an uninterrupted run's.  ``report``
streams an existing store's records through
:class:`~repro.analysis.streaming.StreamingSurvey` without re-running (or
fully materializing) anything.  Every invocation names its subcommand.

Output is deterministic for a fixed ``(--scenario, --hosts, --seed,
--shards)``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Optional, Sequence

from repro.analysis.middlebox import classify_middleboxes
from repro.analysis.scenarios import compare_scenarios
from repro.analysis.streaming import survey_from_store
from repro.analysis.survey import summarize_eligibility
from repro.api.backends import backend_names
from repro.api.envelope import ResultEnvelope
from repro.api.requests import CampaignRequest, ResumeRequest
from repro.api.session import Session
from repro.core.campaign import CampaignConfig
from repro.core.runner import EXECUTOR_PROCESS, result_digest
from repro.distributed.chaos import ChaosSpec
from repro.distributed.worker import DEFAULT_HEARTBEAT_INTERVAL, run_worker
from repro.net.errors import StoreError
from repro.scenarios.registry import LEGACY_SCENARIO, list_scenarios, scenario_names
from repro.store.store import CampaignStore


def build_parser() -> argparse.ArgumentParser:
    """The ``run`` subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run a named network-scenario survey and print its summary.",
    )
    parser.add_argument(
        "--scenario",
        default=LEGACY_SCENARIO,
        help=f"registered scenario name (default: {LEGACY_SCENARIO})",
    )
    parser.add_argument("--hosts", type=int, default=None, help="override population size")
    parser.add_argument("--shards", type=int, default=1, help="number of campaign shards")
    parser.add_argument("--seed", type=int, default=7, help="base seed for the whole survey")
    parser.add_argument("--rounds", type=int, default=2, help="survey rounds (default: 2)")
    parser.add_argument(
        "--samples", type=int, default=10, help="samples per measurement (default: 10)"
    )
    parser.add_argument(
        "--executor",
        choices=backend_names(),
        default=EXECUTOR_PROCESS,
        help="execution backend (default: process)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="durable campaign store directory: checkpoint each shard as it "
        "completes so the run can be resumed after a crash",
    )
    parser.add_argument(
        "--crash-after-shards",
        type=int,
        default=None,
        metavar="N",
        help=argparse.SUPPRESS,  # crash-injection hook for the CI resume smoke
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list registered scenarios and exit",
    )
    parser.add_argument(
        "--middlebox-report",
        action="store_true",
        help="append the middlebox taxonomy (per-host failure causes) to the summary",
    )
    return parser


def _build_store_parser(prog: str, description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--store", required=True, metavar="DIR", help="campaign store directory"
    )
    return parser


def _list_scenarios() -> None:
    for scenario in list_scenarios():
        conditions = ", ".join(type(c).__name__ for c in scenario.conditions) or "static"
        print(f"{scenario.name:22s} [{conditions}]")
        print(f"  {scenario.description}")


def _print_envelope(
    scenario_name: str,
    seed: int,
    shards: int,
    envelope: ResultEnvelope,
    middlebox_report: bool = False,
) -> None:
    result = envelope.result
    print(
        f"scenario={scenario_name} hosts={len(result.host_addresses)} "
        f"seed={seed} shards={shards} records={len(result.records)}"
    )
    print()
    print(summarize_eligibility(result).to_table())
    print()
    print(compare_scenarios({result.scenario or scenario_name: result}).to_table())
    if middlebox_report:
        print()
        print(classify_middleboxes(result).to_table())
    print()
    print(f"result-digest={envelope.result_digest}")


def _crash_hook(crash_after: Optional[int]):
    """SIGKILL ourselves after N durable shards (CI resume-smoke only).

    A hard kill — not an exception — so the smoke test exercises exactly the
    failure mode the store is built for: no unwind, no flush, no atexit.
    """
    if crash_after is None:
        return None

    def hook(outcome, completed, total):
        if completed >= crash_after:
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def cmd_run(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        _list_scenarios()
        return 0
    if args.scenario not in scenario_names():
        known = ", ".join(scenario_names())
        print(f"unknown scenario {args.scenario!r}; registered: {known}", file=sys.stderr)
        return 2
    if args.crash_after_shards is not None and args.store is None:
        print("--crash-after-shards requires --store", file=sys.stderr)
        return 2

    request = CampaignRequest(
        scenario=args.scenario,
        config=CampaignConfig(rounds=args.rounds, samples_per_measurement=args.samples),
        hosts=args.hosts,
        seed=args.seed,
        shards=args.shards,
        store=args.store,
        on_checkpoint=_crash_hook(args.crash_after_shards),
    )
    try:
        with Session(backend=args.executor) as session:
            envelope = session.run(request)
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 1
    _print_envelope(
        args.scenario, args.seed, args.shards, envelope,
        middlebox_report=args.middlebox_report,
    )
    return 0


def cmd_resume(argv: Sequence[str]) -> int:
    parser = _build_store_parser(
        "python -m repro resume",
        "Continue an interrupted survey from its durable store.",
    )
    parser.add_argument(
        "--executor",
        choices=backend_names(),
        default=EXECUTOR_PROCESS,
        help="execution backend for the remaining shards (default: process)",
    )
    args = parser.parse_args(argv)
    try:
        store = CampaignStore.open(args.store)
        already = len(store.completed_shards())
        plan = store.plan()
        print(f"resuming: {already}/{plan.shards} shard(s) already durable")
        with Session(backend=args.executor) as session:
            envelope = session.run(ResumeRequest(store=store))
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 1
    scenario_name = plan.scenario or envelope.scenario or "unnamed"
    _print_envelope(scenario_name, plan.seed, plan.shards, envelope)
    return 0


def cmd_report(argv: Sequence[str]) -> int:
    parser = _build_store_parser(
        "python -m repro report",
        "Summarise a durable store by streaming its records (no re-run).",
    )
    args = parser.parse_args(argv)
    try:
        store = CampaignStore.open(args.store)
        plan = store.plan()
        survey = survey_from_store(store)
    except StoreError as error:
        print(f"store error: {error}", file=sys.stderr)
        return 1
    durable = len(store.completed_shards())
    status = "complete" if store.is_complete() else "INCOMPLETE"
    print(
        f"store={args.store} scenario={plan.scenario} seed={plan.seed} "
        f"shards={durable}/{plan.shards} ({status}) records={survey.records_observed}"
    )
    print()
    print(survey.eligibility().to_table())
    for name, slice_ in sorted(survey.scenario_slices().items()):
        fig5 = slice_.fig5()
        if fig5.cdf is None:
            continue
        print()
        print(
            f"[{name}] fig5: paths={len(fig5.per_path_rates)} "
            f"reordering={fig5.fraction_with_reordering:.1%} "
            f"median-rate={fig5.cdf.quantile(0.5):.4f} "
            f"p90-rate={fig5.cdf.quantile(0.9):.4f}"
        )
    if store.is_complete():
        print()
        print(f"result-digest={result_digest(store.load_result())}")
    return 0


def cmd_workers(argv: Sequence[str]) -> int:
    """Join a remote coordinator as one or more worker processes.

    ``--workers 1`` (the default, and what
    :class:`~repro.distributed.backend.RemoteBackend` spawns) runs the
    worker loop in this process; ``--workers N`` forks N child processes
    with consecutive ``--index`` values and waits for all of them.  A chaos
    spec in the ``REPRO_CHAOS`` environment variable (JSON, see
    :class:`~repro.distributed.chaos.ChaosSpec`) wraps every worker.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro workers",
        description="Serve shard batches for a remote campaign coordinator.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address, as printed/configured by the remote backend",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes to run (default: 1)"
    )
    parser.add_argument(
        "--index", type=int, default=0, help="index of the first worker (default: 0)"
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
        help=f"heartbeat interval in seconds (default: {DEFAULT_HEARTBEAT_INTERVAL})",
    )
    args = parser.parse_args(argv)
    host, _, raw_port = args.connect.rpartition(":")
    if not host or not raw_port.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}", file=sys.stderr)
        return 2
    port = int(raw_port)
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    chaos = ChaosSpec.from_env()
    if args.workers == 1:
        try:
            return run_worker(
                host,
                port,
                index=args.index,
                heartbeat_interval=args.heartbeat,
                chaos=chaos,
            )
        except OSError as error:
            print(f"worker: cannot reach coordinator at {host}:{port}: {error}",
                  file=sys.stderr)
            return 1
    import multiprocessing

    children = [
        multiprocessing.Process(
            target=run_worker,
            args=(host, port),
            kwargs={
                "index": args.index + offset,
                "heartbeat_interval": args.heartbeat,
                "chaos": chaos,
            },
            daemon=False,
        )
        for offset in range(args.workers)
    ]
    for child in children:
        child.start()
    status = 0
    for child in children:
        child.join()
        status = status or (child.exitcode or 0)
    return status


def cmd_lint(argv: Sequence[str]) -> int:
    """Run the reprolint static analyzer (see :mod:`repro.lint`)."""
    from repro.lint.cli import main as lint_main

    return lint_main(argv)


_COMMANDS = {
    "run": cmd_run,
    "resume": cmd_resume,
    "report": cmd_report,
    "workers": cmd_workers,
    "lint": cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]](argv[1:])
    usage = f"usage: python -m repro {{{','.join(_COMMANDS)}}} [options]"
    if argv[:1] in (["-h"], ["--help"]):
        print(usage)
        return 0
    problem = f"unknown command {argv[0]!r}" if argv else "a command is required"
    print(f"{usage}\npython -m repro: error: {problem}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
