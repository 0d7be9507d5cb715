"""Golden-digest determinism tests for the hot-path overhaul.

PR 3 rebuilt the event loop, the wait discipline, and the packet layer for
speed.  The hard constraint was that none of it may change *what is
measured*: for a fixed seed, :func:`repro.core.runner.result_signature` must
be bit-for-bit identical before and after.  These digests were captured from
the pre-overhaul implementation; every scenario in the registry is pinned.

If a future PR changes one of these digests it is changing measurement
semantics (new RNG draws, different event ordering, altered sampling) and
must either fix the regression or consciously re-pin the digest with an
explanation in the commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import CampaignRequest, Session
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL, result_signature
from repro.scenarios import scenario_names

GOLDEN_SEED = 424242
GOLDEN_HOSTS = 4

GOLDEN_CONFIG = CampaignConfig(
    rounds=1,
    samples_per_measurement=4,
    tests=TestName.all(),
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)

# sha256 of repr(result_signature(...)) captured on the pre-PR-3 hot path.
GOLDEN_DIGESTS = {
    "imc2002-survey": "35f97be4fcc283d0279136d3fc0859083f347b4399302869a5965e368e6048fc",
    "bursty-loss": "ba3e6f337a5ede6f8334b9e4f1644bcf58a47583d789d214bf4b88b3fdd03bfc",
    "route-flap": "54f6b9b42a40c3a987147e9dc414457375e221f4cc25641507aa3eebebd0ad2e",
    "diurnal-congestion": "d2be54dd452cb4e9b60182b3e96528a79b2b3e78f94abbf6036752fe1f183eb0",
    "asymmetric-paths": "13ec4f4c101fd53b8cf9505e70cbc91cfb8649fa446c9c0c488a062362abd3da",
    "icmp-hostile": "507dfcae86144dd3416425206a463f5addd812e02b10827a8cbd8fbe0a2655f5",
    "load-balanced-heavy": "33a5d04b309b8799fb2909589f316c632eb78ba7606327674f00070211f75122",
    # The PR 6 hostile-internet middlebox scenarios, pinned at introduction.
    "nat-timeout": "ae1ec86e9cef03aa4a94354f4f2ab4af995f7a9499972e8b948eb397e56e5777",
    "syn-filtered": "d8dbc54290fb9741f4f5895f54ae1a2e620c393b381c1f831ed7e5e7660b8160",
    "pmtud-blackhole": "36251ade4be486e63aec7f4b87e4eaf3d082e4b00e6430bb223061863a8a627c",
    "icmp-policed": "6bb197feacf4bb5f8856da35063eb7afd206d30266e04ba3c0cfc586228a777f",
    "ecn-bleached": "b083b42d8e00afd3d7660056738d23d5ff94578d917280006dcf3d723982c57a",
}


def scenario_digest(name: str) -> str:
    """Run one scenario's tiny campaign at the golden seed and digest it."""
    request = CampaignRequest(
        scenario=name, config=GOLDEN_CONFIG, hosts=GOLDEN_HOSTS, seed=GOLDEN_SEED, shards=1
    )
    with Session(backend=EXECUTOR_SERIAL) as session:
        result = session.run(request).result
    signature = result_signature(result)
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def test_every_registered_scenario_is_pinned():
    assert set(GOLDEN_DIGESTS) == set(scenario_names())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_scenario_signature_matches_golden_digest(name):
    assert scenario_digest(name) == GOLDEN_DIGESTS[name], (
        f"measurement content of scenario {name!r} changed at the golden seed; "
        "this means an intended semantic change (re-pin with justification) "
        "or a determinism regression (fix it)"
    )
