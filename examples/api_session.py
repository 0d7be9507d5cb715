"""The unified session layer: one front door for probes, campaigns, and sweeps.

Demonstrates the ``repro.api`` surface end to end:

1. a ``ProbeRequest`` (the "hello world": one host, one technique),
2. a ``CampaignRequest`` with a durable store plus job-handle progress,
3. a ``ResumeRequest`` over the same store (a no-op here — the run
   completed — but the exact call that continues a crashed campaign),
4. a ``MatrixRequest`` sweeping scenarios × OS columns on one warm pool.

Every result is a versioned ``ResultEnvelope``; equal ``result_digest``
values mean bit-identical measurements, whatever backend ran them.

Run with:
    PYTHONPATH=src python examples/api_session.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    CampaignConfig,
    CampaignRequest,
    MatrixRequest,
    ProbeRequest,
    ResumeRequest,
    Session,
    TestName,
)
from repro.analysis.streaming import survey_from_envelope
from repro.analysis.survey import summarize_eligibility


def main() -> None:
    config = CampaignConfig(
        rounds=1,
        samples_per_measurement=6,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    )
    store = Path(tempfile.mkdtemp()) / "campaign"

    with Session(backend="process") as session:
        # 1. One probe visit; the envelope payload maps technique -> report.
        probe = session.run(
            ProbeRequest(
                tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
                samples=40,
                seed=3,
                forward_swap_probability=0.10,
            )
        )
        print("== probe ==")
        for test, report in probe.payload.items():
            print(f"  {test.value:18s} succeeded={report.succeeded}")
        print(f"  result-digest={probe.result_digest[:16]}…")

        # 2. A sharded, checkpointed campaign driven through a job handle.
        job = session.submit(
            CampaignRequest(
                scenario="bursty-loss",
                config=config,
                hosts=8,
                seed=7,
                shards=4,
                store=store,
            )
        )
        job.add_progress_callback(
            lambda event: print(f"  {event.kind} {event.completed}/{event.total} durable")
        )
        print("== campaign (checkpointed) ==")
        campaign = job.result()
        print(f"  status={job.status().value}")
        print(summarize_eligibility(campaign).to_table())
        print(f"  result-digest={campaign.result_digest[:16]}…")

        # 3. Resume from the store alone.  Had the process above been killed
        #    mid-run, this same call would execute only the missing shards;
        #    either way the digest is bit-identical.
        resumed = session.run(ResumeRequest(store=store))
        print("== resume ==")
        print(f"  digests match: {resumed.result_digest == campaign.result_digest}")

        # 4. A scenario x OS sweep; every cell's shards share the warm pool.
        sweep = session.run(
            MatrixRequest(
                scenarios=("imc2002-survey", "route-flap"),
                os_names=("mixed", "freebsd-4.4"),
                config=config,
                hosts=4,
                seed=7,
            )
        )
        print("== matrix ==")
        survey = survey_from_envelope(sweep)
        for label in sorted(survey.scenario_slices()):
            print(f"  cell {label}")
        print(f"  cells={sweep.meta['cells']} result-digest={sweep.result_digest[:16]}…")


if __name__ == "__main__":
    main()
