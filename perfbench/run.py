#!/usr/bin/env python3
"""Paper-workload benchmark: three workloads through ``repro.api.Session``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-survey --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload checkpoint-resume --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke [--workload NAME]

One client keeps one request in flight (a closed loop) against one
``Session`` with at most two workers.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from every second op
traced through the session and from a traced serial replay of one op.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs a short form of each workload in both modes
and checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that every digest matches the serial reference and that no op failed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPS = 9
"""Fresh sessions set up per run; ``setup_s`` is their median."""

REPLAY_REPS = 3
"""Traced replays per traced run; medians are reported."""

MIN_OPS = 11
"""Ops a run completes even past ``--seconds``, so the tail has 10 beyond it."""

DEADLINE_S = 150.0
"""Wall time after which a run stops adding ops, to end within 180 s."""

WORKERS = min(2, os.cpu_count() or 1)

CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def descendant_cpu() -> dict[int, float]:
    """CPU seconds used so far by each live descendant process, from /proc."""
    parents: dict[int, int] = {}
    cpu: dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        pid = int(entry)
        parents[pid] = int(fields[1])
        cpu[pid] = (int(fields[11]) + int(fields[12])) / CLOCK_TICK
    me = os.getpid()
    found: dict[int, float] = {}
    frontier = [me]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in found:
                found[pid] = cpu[pid]
                frontier.append(pid)
    return found


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def children_usage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_CHILDREN)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten values beyond it.

    Returns ``(value, percentile, values beyond)``; with ten values or fewer
    there is no such percentile and the maximum is returned with none beyond.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def rss_mb() -> float:
    """The client's resident memory now, from /proc."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Ledger:
    """Ops attempted, and what every completed op measured."""

    attempted: int = 0
    raised: list[str] = field(default_factory=list)
    ops: list = field(default_factory=list)
    worker_cpu: list[float] = field(default_factory=list)
    client_cpu: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    runtime_warnings: int = 0
    remote: dict = field(default_factory=dict)

    def settle(self, expected, pooled_idle: bool) -> tuple[int, bool, list[str]]:
        """Check every op against the serial reference.

        Returns the failed op count, whether every result was correct, and
        the first few reasons.
        """
        correct = True
        for op in self.ops:
            if op.digests != expected.digests:
                op.problems.append(f"digests {op.digests} != serial reference {expected.digests}")
                correct = False
            if op.fig5 != expected.fig5:
                op.problems.append("Figure 5 rates differ from the serial reference")
                correct = False
        reasons = self.raised + [problem for op in self.ops for problem in op.problems]
        failed = len(self.raised) + sum(1 for op in self.ops if op.problems)
        if pooled_idle:
            # The per-op check reads live workers; this one reads the reaped
            # session's whole life, so a fallback nobody warned about shows.
            failed = self.attempted
            reasons.append("the session's workers used no CPU: every shard ran in the client")
        return failed, correct, reasons[:5]


REMOTE_COUNTERS = ("requeues", "evictions", "disconnects", "transport_faults", "shard_errors")


def check_op(op, ledger: Ledger, new_warnings: list, worker_cpu: float, pooled: bool) -> None:
    """Note what made the op degraded; digests are checked in :meth:`Ledger.settle`."""
    for envelope in op.envelopes:
        for meta in [envelope.meta] + [child.meta for child in envelope.children]:
            remote = meta.get("remote", {})
            if meta.get("warnings") or remote.get("degraded"):
                op.problems.append(f"degraded envelope: {meta.get('warnings')}")
            for key in REMOTE_COUNTERS:
                ledger.remote[key] = ledger.remote.get(key, 0) + remote.get(key, 0)
            ledger.remote["quarantined"] = ledger.remote.get("quarantined", 0) + len(
                remote.get("quarantined", ())
            )
            ledger.remote["degraded"] = ledger.remote.get("degraded", 0) + bool(
                remote.get("degraded")
            )
    runtime = [w for w in new_warnings if issubclass(w.category, RuntimeWarning)]
    ledger.runtime_warnings += len(runtime)
    if runtime:
        op.problems.append(f"RuntimeWarning: {runtime[0].message}")
    if pooled and worker_cpu <= 0.0:
        op.problems.append("workers did no work: shards ran in the client")


def run_ops(session, workload, tracer, ledger, seconds, min_ops, caught, pooled, started, trace):
    """Closed loop: one op at a time until ``seconds`` have passed.

    With ``trace``, every second op is traced, so traced and untraced ops
    see the same machine and their difference is the tracing overhead.
    """
    loop_start = time.perf_counter()
    count = 0
    while True:
        now = time.perf_counter()
        if now - started > DEADLINE_S:
            break
        if now - loop_start >= seconds and count >= min_ops:
            break
        count += 1
        ledger.attempted += 1
        tracer.enabled = trace and count % 2 == 0
        seen = len(caught)
        workers_before = descendant_cpu()
        client_before = self_cpu()
        try:
            with tracer.op():
                op = workload.run_op(session, tracer)
        except Exception as exc:  # an op that raised is a failed op, not a crash
            ledger.raised.append(f"raised {type(exc).__name__}: {exc}")
            continue
        finally:
            workload.cleanup_op()
        worker_cpu = cpu_delta(workers_before, descendant_cpu())
        ledger.worker_cpu.append(worker_cpu)
        ledger.client_cpu.append(self_cpu() - client_before)
        check_op(op, ledger, caught[seen:], worker_cpu, pooled)
        # The benchmark keeps only what it checks later, so the client's
        # memory is the program's, not the ledger's.
        op.envelopes = ()
        op.traced = tracer.enabled
        ledger.ops.append(op)
        ledger.rss_mb.append(rss_mb())
        if ledger.attempted == MIN_OPS:
            ledger.peak_rss_mb = peak_rss_mb()


def open_session(workload, tracer):
    """A session on the workload's backend, plus a function that closes both."""
    from repro.api import Session, create_backend

    from bench_trace import TracedBackend

    if tracer is None:
        session = Session(backend=workload.backend, max_workers=WORKERS)
        return session, session.close
    backend = TracedBackend(create_backend(workload.backend, WORKERS), tracer)
    session = Session(backend=backend, max_workers=WORKERS)

    def close() -> None:
        session.close()
        backend.close()

    return session, close


def set_up(workload, tracer):
    """Set up ``SETUP_REPS`` fresh sessions; keep the last one open.

    Set-up is the time from ``Session()`` until the backend has served its
    first request (pool spawn or worker connect, and lazy imports).
    """
    times = []
    for rep in range(SETUP_REPS):
        if rep == SETUP_REPS - 1:
            usage_before = children_usage()
        start = time.perf_counter()
        session, close = open_session(workload, tracer)
        try:
            session.run(workload.warmup_request())
        except BaseException:
            close()
            raise
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPS - 1:
            close()
    return session, close, times, usage_before


def reference(workload):
    """The serial backend's results for one op (computed outside the timed window)."""
    from repro.api import Session

    from bench_trace import Tracer

    tracer = Tracer()
    tracer.enabled = False
    with Session(backend="serial") as session:
        try:
            return workload.run_op(session, tracer)
        finally:
            workload.cleanup_op()


def run(workload_name: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS

    started = time.perf_counter()
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[workload_name](seed, workdir)
    pooled = workload.backend != "serial"
    ledger = Ledger()
    tracer = Tracer()
    tracer.enabled = False
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            session, close, setup_times, usage_before = set_up(workload, tracer if trace else None)
            try:
                run_ops(session, workload, tracer, ledger, seconds, min_ops * (1 + trace),
                        caught, pooled, started, trace)
            finally:
                close()
        usage_after = children_usage()
        if not ledger.peak_rss_mb:
            ledger.peak_rss_mb = peak_rss_mb()
        # The serial reference runs after the timed ops, so its memory is not
        # counted in the client's peak.
        expected = reference(workload)
        child_cpu = (usage_after.ru_utime + usage_after.ru_stime) - (
            usage_before.ru_utime + usage_before.ru_stime
        )
        failed, correct, reasons = ledger.settle(expected, pooled and child_cpu <= 0.0)
        ops = ledger.ops
        print(f"workload={workload_name} backend={workload.backend} workers={WORKERS} seed={seed} "
              f"campaign-seed={workload.seed} ops={len(ops)} attempted={ledger.attempted} failed={failed}")
        digest_set = hashlib.sha256(repr(expected.digests).encode()).hexdigest()
        print(f"serial-reference: {len(expected.digests)} digest(s), sha256 of all {digest_set}")
        for reason in reasons:
            print(f"failure: {reason}")
        print(f"ops_failed_frac = {failed / max(1, ledger.attempted):.6g} ({failed} of {ledger.attempted})")
        if not trace:
            metrics = end_to_end(ledger, setup_times, usage_after)
        else:
            metrics = per_layer(workload, tracer, ledger, expected, seed)
            correct = correct and metrics.pop("_correct")
    finally:
        workload.cleanup()
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": bool(correct and ops),
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end(ledger, setup_times, usage_after) -> dict:
    ops = ledger.ops
    campaign = [op.campaign_s for op in ops]
    wall = sum(op.wall_s for op in ops)
    tail_value, percentile, beyond = tail(campaign) if campaign else (0.0, 100.0, 0)
    print(f"campaign_s_tail is p{percentile:.1f} of {len(campaign)} ops ({beyond} beyond it)")
    if len(ledger.rss_mb) > 1:
        growth = (ledger.rss_mb[-1] - ledger.rss_mb[0]) / (len(ledger.rss_mb) - 1)
        print(f"client RSS {ledger.rss_mb[0]:.1f} MB after the first op, "
              f"{ledger.rss_mb[-1]:.1f} MB after op {len(ledger.rss_mb)} ({growth:+.3f} MB per op)")
    return {
        "meas_per_s": {"value": sum(op.records for op in ops) / wall if wall else 0.0, "unit": "1/s"},
        "campaign_s_p50": {"value": median(campaign), "unit": "s"},
        "campaign_s_tail": {"value": tail_value, "unit": "s"},
        "resume_s_p50": {"value": median(op.resume_s for op in ops), "unit": "s"},
        "setup_s": {"value": median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": ledger.peak_rss_mb, "unit": "MB"},
        "worker_peak_rss_mb": {"value": usage_after.ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(workload, tracer, ledger, expected, seed) -> dict:
    from bench_trace import Tracer, inclusive_times, self_times, spans_of_op
    from bench_workloads import TECHNIQUE_SPANS, ReplayStats

    correct = True
    traced_ops = [op for op in ledger.ops if op.traced]
    untraced_ops = [op for op in ledger.ops if not op.traced]
    # Session phase: per-op sums of the client-side spans.
    session_ops = tracer.ops()
    per_op_incl = [inclusive_times(spans_of_op(tracer.spans, op.op)) for op in session_ops]
    per_op_self = [self_times(spans_of_op(tracer.spans, op.op)) for op in session_ops]
    correct &= spans_sound("session", tracer.spans, session_ops)
    counts = [
        {name: sum(1 for span in spans_of_op(tracer.spans, op.op) if span.name == name)
         for name in ("store.write_shard", "store.read_shard", "analysis.survey")}
        for op in session_ops
    ]

    def session_median(name: str, source=per_op_incl) -> float:
        return median(times.get(name, 0.0) for times in source)

    # Replay phase: the same op executed serially with spans on every layer.
    replay_tracer = Tracer()
    replays = []
    for _ in range(REPLAY_REPS):
        stats = ReplayStats()
        with replay_tracer.op():
            digests, rates = workload.replay(replay_tracer, stats)
        if digests != expected.digests or rates != expected.fig5:
            print(f"failure: replay digests {digests} != serial reference {expected.digests}")
            correct = False
        replays.append(stats)
    replay_ops = replay_tracer.ops()
    replay_self = [self_times(spans_of_op(replay_tracer.spans, op.op)) for op in replay_ops]
    replay_incl = [inclusive_times(spans_of_op(replay_tracer.spans, op.op)) for op in replay_ops]
    correct &= spans_sound("replay", replay_tracer.spans, replay_ops)

    def replay_median(name: str, source=replay_incl) -> float:
        return median(times.get(name, 0.0) for times in source)

    def stat_median(get) -> float:
        return median(get(stats) for stats in replays)

    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"trace-{workload.name}-{seed}-session.jsonl")
    replay_tracer.write(WORK / f"trace-{workload.name}-{seed}-replay.jsonl")
    print_split("replay", replay_self, replay_ops)
    print_split("session", per_op_self, session_ops)

    metrics: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    technique_s = 0.0
    for test, span in TECHNIQUE_SPANS.items():
        seconds = replay_median(span)
        technique_s += seconds
        meas = stat_median(lambda stats: stats.meas[test])
        put(f"{span}_s", seconds, "s")
        put(f"{span}_meas", meas, "count")
        put(f"{span}_samples", stat_median(lambda stats: stats.samples[test]), "count")
        put(f"{span}_useful_ratio",
            stat_median(lambda stats: stats.useful[test] / stats.meas[test] if stats.meas[test] else 0.0),
            "ratio")
    put("core.campaign_s", replay_median("core.campaign", replay_self), "s")
    events = stat_median(lambda stats: stats.sim_events)
    put("sim.events", events, "count")
    put("sim.events_per_s", events / technique_s if technique_s else 0.0, "1/s")
    put("sim.run_for_s", replay_median("sim.run_for"), "s")
    put("host.packets_sent", stat_median(lambda stats: stats.packets_sent), "count")
    put("host.packets_captured", stat_median(lambda stats: stats.packets_captured), "count")
    put("host.captured_per_shard_max", stat_median(lambda stats: stats.captured_per_shard_max), "count")
    put("workloads.build_testbed_s", replay_median("workloads.build_testbed"), "s")
    put("workloads.build_testbed_count", stat_median(lambda stats: stats.testbeds), "count")
    put("scenarios.build_hosts_s", replay_median("scenarios.build_hosts"), "s")
    put("scenarios.build_hosts_count", stat_median(lambda stats: stats.populations), "count")
    put("core.transport.encode_s", replay_median("core.transport.encode"), "s")
    put("core.transport.decode_s", replay_median("core.transport.decode"), "s")
    put("core.transport.bytes", stat_median(lambda stats: stats.transport_bytes), "bytes")
    put("core.runner.merge_s", replay_median("core.runner.merge"), "s")
    put("core.runner.digest_s", replay_median("core.runner.digest"), "s")
    shard_compute = replay_median("core.campaign")
    put("api.shard_compute_s", shard_compute, "s")
    replay_wall = median(op.duration for op in replay_ops)
    put("trace.replay_op_s", replay_wall, "s")
    put("trace.replay_other_s", replay_median("other", replay_self), "s")
    spans_per_op = len(replay_tracer.spans) / len(replay_ops)
    put("trace.replay_span_cost_frac", spans_per_op * span_cost() / replay_wall, "ratio")

    dispatch = session_median("api.dispatch")
    put("api.session_s", session_median("api.session", per_op_self), "s")
    put("api.dispatch_s", dispatch, "s")
    put("api.result_wait_s", session_median("api.result_wait"), "s")
    put("api.parallel_efficiency", shard_compute / (WORKERS * dispatch) if dispatch else 0.0, "ratio")
    worker_cpu = sum(ledger.worker_cpu)
    client_cpu = sum(ledger.client_cpu)
    put("api.worker_cpu_share", worker_cpu / (worker_cpu + client_cpu) if worker_cpu + client_cpu else 0.0, "ratio")
    put("api.fallback_warnings", ledger.runtime_warnings, "count")
    rss = ledger.rss_mb
    put("api.retained_mb_per_op", (rss[-1] - rss[0]) / (len(rss) - 1) if len(rss) > 1 else 0.0, "MB")
    remote = workload.backend == "remote"
    put("distributed.dispatch_s", dispatch if remote else 0.0, "s")
    for key in REMOTE_COUNTERS + ("quarantined", "degraded"):
        put(f"distributed.{key}", ledger.remote.get(key, 0), "count")
    put("store.write_shard_s", session_median("store.write_shard"), "s")
    put("store.read_shard_s", session_median("store.read_shard"), "s")
    put("store.shards_written", median(count["store.write_shard"] for count in counts), "count")
    put("store.shards_read", median(count["store.read_shard"] for count in counts), "count")
    put("store.segment_bytes", median(op.store_bytes for op in traced_ops), "bytes")
    # Store-less ops derive Figure 5 several times; report one pass.
    passes = [max(1, count["analysis.survey"]) for count in counts]
    for name in ("analysis.survey", "analysis.fig5"):
        put(f"{name}_s", median(times.get(name, 0.0) / n for times, n in zip(per_op_incl, passes)), "s")
    put("trace.session_other_s", session_median("other", per_op_self), "s")
    traced_p50 = median(op.wall_s for op in traced_ops)
    untraced_p50 = median(op.wall_s for op in untraced_ops)
    put("trace.session_overhead_frac", traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0, "ratio")
    metrics["_correct"] = correct
    return metrics


def spans_sound(label: str, spans, roots) -> bool:
    """Print the first problem of any op's span tree; True if there is none."""
    from bench_trace import span_problems, spans_of_op

    for root in roots:
        problems = span_problems(spans_of_op(spans, root.op))
        if problems:
            print(f"failure: {label} op {root.op}: {problems[0]} ({len(problems)} problem(s))")
            return False
    return True


def span_cost() -> float:
    """Seconds one span adds, measured on an empty span."""
    from bench_trace import Tracer

    tracer = Tracer()
    rounds = 20000
    start = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / rounds


def print_split(label: str, per_op_self: list[dict], roots) -> None:
    """Median self time per layer per op, and its share of the op's wall time."""
    if not roots:
        return
    wall = median(root.duration for root in roots)
    names = sorted({name for selfs in per_op_self for name in selfs})
    rows = sorted(
        ((median(selfs.get(name, 0.0) for selfs in per_op_self), name) for name in names),
        reverse=True,
    )
    covered = median(sum(selfs.values()) for selfs in per_op_self)
    print(f"{label} layer split (median self time per op; op wall {wall:.4f} s, {len(roots)} ops; "
          f"self times + other sum to {covered:.4f} s per op):")
    for seconds, name in rows:
        print(f"  {name:28s} {seconds:10.5f} s {100.0 * seconds / wall:6.2f}%")


def smoke(names: list[str], seed: int) -> int:
    """Short run of each workload in both modes, checked against BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    problems = []
    for name in names:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run(name, seed, seconds=2.0, trace=trace, min_ops=1)
            metrics = result["metrics"]
            for metric in declared[section]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing or not in {metric['unit']}")
            extra = set(metrics) - {metric["name"] for metric in declared[section]}
            if extra:
                problems.append(f"{name}: undeclared metrics {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: a digest differs from the serial reference")
            if result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} op(s) failed")
    for problem in problems:
        print(f"smoke: {problem}")
    print(f"smoke: {'FAILED' if problems else 'ok'} ({', '.join(names)})")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    if args.smoke:
        return smoke([args.workload] if args.workload else list(WORKLOADS), args.seed)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
