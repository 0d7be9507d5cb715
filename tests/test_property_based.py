"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig
from repro.core.metrics import count_exchanges, n_reordering, reordering_extent, sequence_reordering_probability
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL, CampaignRunner, result_signature
from repro.core.single_connection import SingleConnectionTest
from repro.scenarios import build_scenario_hosts, get_scenario, scenario_names
from repro.workloads.testbed import build_testbed
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.flow import FourTuple, format_address, parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader
from repro.net.seqnum import SEQ_MODULO, seq_add, seq_diff, seq_ge, seq_lt
from repro.net.wire import parse_packet, serialize_packet
from repro.stats.cdf import EmpiricalCdf
from repro.stats.intervals import wilson_interval
from repro.stats.student_t import t_cdf, t_quantile

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)
seqs = st.integers(min_value=0, max_value=0xFFFFFFFF)


@given(st.binary(max_size=256))
def test_checksum_self_verifies(data):
    checksum = internet_checksum(data)
    assert 0 <= checksum <= 0xFFFF
    # Real protocols place the checksum at an even offset; odd-length data is
    # implicitly zero-padded for the computation, so pad before appending.
    if len(data) % 2:
        data += b"\x00"
    assert verify_checksum(data + checksum.to_bytes(2, "big"))


@given(addresses)
def test_address_round_trip(addr):
    assert parse_address(format_address(addr)) == addr


@given(addresses, ports, addresses, ports)
def test_flow_key_symmetry(src, sport, dst, dport):
    tuple_ = FourTuple(src, sport, dst, dport)
    assert tuple_.flow_key() == tuple_.reversed().flow_key()


@given(seqs, st.integers(min_value=0, max_value=2**20))
def test_seq_add_diff_inverse(base, delta):
    other = seq_add(base, delta)
    assert seq_diff(other, base) == delta or delta > SEQ_MODULO // 2
    assert seq_ge(other, base) or delta > SEQ_MODULO // 2


@given(seqs, seqs)
def test_seq_ordering_is_antisymmetric(a, b):
    if a != b and abs(seq_diff(a, b)) != SEQ_MODULO // 2:
        assert seq_lt(a, b) != seq_lt(b, a)


@given(
    addresses,
    addresses,
    ports,
    ports,
    seqs,
    seqs,
    st.integers(min_value=0, max_value=0xFFFF),
    st.binary(max_size=64),
)
@settings(max_examples=60)
def test_wire_round_trip_preserves_tcp_fields(src, dst, sport, dport, seq, ack, ident, payload):
    header = TcpHeader(src_port=sport, dst_port=dport, seq=seq, ack=ack, flags=TcpFlags.ACK | TcpFlags.PSH)
    packet = Packet.tcp_packet(src, dst, header, payload=payload, ident=ident)
    parsed = parse_packet(serialize_packet(packet))
    assert parsed.tcp is not None
    assert (parsed.ip.src, parsed.ip.dst, parsed.ip.ident) == (src, dst, ident)
    assert (parsed.tcp.src_port, parsed.tcp.dst_port) == (sport, dport)
    assert (parsed.tcp.seq, parsed.tcp.ack) == (seq, ack)
    assert parsed.payload == payload


@given(st.lists(st.integers(), min_size=1, max_size=40, unique=True), st.randoms(use_true_random=False))
def test_count_exchanges_bounds_and_identity(send_order, rng):
    arrival = list(send_order)
    assert count_exchanges(send_order, arrival) == 0
    rng.shuffle(arrival)
    n = len(arrival)
    exchanges = count_exchanges(send_order, arrival)
    assert 0 <= exchanges <= n * (n - 1) // 2
    # Exchanges of the reversed arrival complement the original count.
    reversed_arrival = list(reversed(arrival))
    assert count_exchanges(send_order, reversed_arrival) == n * (n - 1) // 2 - exchanges


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=50, unique=True), st.randoms(use_true_random=False))
def test_reordering_extent_properties(expected, rng):
    arrival = list(expected)
    rng.shuffle(arrival)
    extents = reordering_extent(expected, arrival)
    assert len(extents) == len(arrival)
    assert all(extent >= 0 for extent in extents)
    assert n_reordering(expected, arrival) == (max(extents) if extents else 0)
    assert n_reordering(expected, sorted(arrival, key=expected.index)) == 0


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=100))
def test_sequence_probability_monotone_and_bounded(rate, length):
    probability = sequence_reordering_probability(rate, length)
    assert 0.0 <= probability <= 1.0
    longer = sequence_reordering_probability(rate, length + 1)
    assert longer >= probability - 1e-12


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_cdf_is_a_distribution_function(values):
    cdf = EmpiricalCdf(values)
    assert cdf.evaluate(min(values) - 1.0) == 0.0
    assert cdf.evaluate(max(values)) == 1.0
    points = cdf.points()
    fractions = [fraction for _value, fraction in points]
    assert fractions == sorted(fractions)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_wilson_interval_always_contains_point_estimate(successes, extra):
    trials = successes + extra
    low, high = wilson_interval(successes, trials)
    rate = successes / trials
    assert 0.0 <= low <= rate <= high <= 1.0


@given(st.floats(min_value=0.001, max_value=0.999), st.integers(min_value=1, max_value=200))
@settings(max_examples=40)
def test_t_quantile_inverts_cdf(probability, dof):
    value = t_quantile(probability, dof)
    assert abs(t_cdf(value, dof) - probability) < 1e-5


# --------------------------------------------------------------------- #
# Scenario determinism: same spec + seed => identical populations, packet
# traces, and campaign records, including across shard counts.
# --------------------------------------------------------------------- #

scenario_name_strategy = st.sampled_from(scenario_names())
seed_strategy = st.integers(min_value=0, max_value=2**31 - 1)

# Shard-count invariance only holds for scenarios whose path behaviour does
# not depend on absolute simulated time: shard layout determines *when* each
# host is visited, so a diurnal cycle or scheduled flap can legitimately
# measure differently across shard counts (same exception class as
# port-hashing load balancers — see repro.core.runner).
time_invariant_scenario_strategy = st.sampled_from(
    [name for name in scenario_names() if not get_scenario(name).is_time_varying()]
)

_TINY_CONFIG = CampaignConfig(
    rounds=1,
    samples_per_measurement=3,
    tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
    inter_measurement_gap=0.1,
    inter_round_gap=0.5,
)


@given(scenario_name_strategy, seed_strategy)
@settings(max_examples=12, deadline=None)
def test_scenario_population_is_pure_function_of_spec_and_seed(name, seed):
    scenario = get_scenario(name).with_population(num_hosts=4)
    assert build_scenario_hosts(scenario, seed=seed) == build_scenario_hosts(scenario, seed=seed)


@given(scenario_name_strategy, seed_strategy)
@settings(max_examples=5, deadline=None)
def test_scenario_packet_traces_are_identical_across_rebuilds(name, seed):
    """Two testbeds from the same (spec, seed) carry identical packets.

    Packet uids are a process-wide counter, so traces are compared on their
    measurement content: arrival time, addressing, IPID, and TCP sequencing.
    """

    def trace_content():
        scenario = get_scenario(name).with_population(num_hosts=2)
        hosts = build_scenario_hosts(scenario, seed=seed)
        testbed = build_testbed(hosts, seed=seed, stable_site_seeds=True)
        target = hosts[0]
        SingleConnectionTest(testbed.probe, target.address).run(num_samples=4)
        trace = testbed.site(target.name).forward_trace
        return [
            (
                record.time,
                record.packet.ip.src,
                record.packet.ip.dst,
                record.packet.ip.ident,
                record.packet.tcp.seq if record.packet.tcp else None,
                record.packet.tcp.ack if record.packet.tcp else None,
            )
            for record in trace.records
        ]

    first = trace_content()
    assert first  # the measurement must actually have produced traffic
    assert trace_content() == first


@given(time_invariant_scenario_strategy, seed_strategy, st.integers(min_value=2, max_value=4))
@settings(max_examples=5, deadline=None)
def test_scenario_campaign_records_identical_across_shard_counts(name, seed, shards):
    # LB backend selection hashes ephemeral ports, which legitimately depend
    # on shard layout (see repro.core.runner), so shard-count invariance is
    # asserted on an LB-free variant of each scenario.  Time-varying
    # scenarios are excluded entirely (see time_invariant_scenario_strategy).
    scenario = get_scenario(name).with_population(num_hosts=5, load_balanced_fraction=0.0)
    hosts = build_scenario_hosts(scenario, seed=seed)

    def signature(shard_count: int):
        runner = CampaignRunner(
            hosts,
            _TINY_CONFIG,
            seed=seed,
            shards=shard_count,
            executor=EXECUTOR_SERIAL,
            scenario=name,
        )
        return result_signature(runner.execute())

    assert signature(shards) == signature(1)
