"""Equivalence suite: the link-cache fast path vs the naive scan.

The channel's :class:`~repro.phy.LinkCache` is a pure optimisation:
every query it answers must be bit-identical (same values, same order)
to the naive O(N) trig scan it replaces, on static topologies and under
mobility with epoch invalidation, under both reception models (the row
build prunes with each model's audible-candidate mask).  These tests
pin that property, the range and sensitivity edges the mask's slack
guards, the link table's memory bound, plus a full-stack determinism
guard: a complete :class:`~repro.net.NetworkSimulation` run produces
identical results with the fast path on and off.
"""

import math
import random

from repro.dessim import RngRegistry, Simulator, seconds
from repro.experiments.campaign import replicate_topology
from repro.net import NetworkSimulation, TopologyConfig, generate_ring_topology
from repro.phy import (
    Channel,
    OmniAntenna,
    PhyConfig,
    Position,
    Radio,
    SectorAntenna,
    SinrCaptureReception,
    UnitDiskPropagation,
)

RANGE_M = 300.0
MODELS = ("unitdisk", "sinr")


def _reception(model, range_m, **knobs):
    """A fresh reception model; ``None`` is the channel's unit-disk default."""
    if model == "unitdisk":
        return None
    return SinrCaptureReception(
        UnitDiskPropagation(range_m=range_m), RngRegistry(2003), **knobs
    )


def _paired_worlds(positions, range_m=RANGE_M, model="unitdisk", **knobs):
    """Two identical radio fields: one cached channel, one naive.

    Under ``model="sinr"`` each world gets its own model on the same
    registry seed, so both see the same shadowing map.
    """
    worlds = []
    for cached in (True, False):
        sim = Simulator()
        reception = _reception(model, range_m, **knobs)
        channel = Channel(
            sim,
            propagation=None if reception else UnitDiskPropagation(range_m=range_m),
            link_cache=cached,
            reception=reception,
        )
        radios = [
            Radio(sim, node_id, pos, channel)
            for node_id, pos in enumerate(positions)
        ]
        worlds.append((channel, radios))
    (cached_channel, cached_radios), (naive_channel, naive_radios) = worlds
    assert cached_channel.cache is not None
    assert naive_channel.cache is None
    return cached_channel, cached_radios, naive_channel, naive_radios


def _random_positions(rng, count, spread=700.0):
    """A cluster sized so some pairs are in range and some are not."""
    return [
        Position(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        for _ in range(count)
    ]


def _patterns(rng):
    """A sweep of patterns: omni plus beams from sliver to full circle."""
    yield OmniAntenna()
    for beamwidth in (0.05, math.pi / 6, math.pi / 3, math.pi, 2 * math.pi - 1e-9):
        yield SectorAntenna(rng.uniform(-math.pi, math.pi), beamwidth)
    # beamwidth = 2*pi is a SectorAntenna that reports is_omni.
    yield SectorAntenna(rng.uniform(-math.pi, math.pi), 2 * math.pi)


def _assert_equivalent(cached_channel, cached_radios, naive_channel, naive_radios, rng):
    for node_id in range(len(cached_radios)):
        assert cached_channel.neighbors_of(node_id) == naive_channel.neighbors_of(
            node_id
        )
        for pattern in _patterns(rng):
            fast = cached_channel.audible_nodes(cached_radios[node_id], pattern)
            slow = naive_channel.audible_nodes(naive_radios[node_id], pattern)
            assert fast == slow, (node_id, pattern)


def test_audible_sets_identical_on_random_topologies():
    """Cached audible/neighbor sets match the naive scan exactly."""
    for model in MODELS:
        for seed in range(8):
            rng = random.Random(seed)
            positions = _random_positions(rng, rng.randint(2, 25))
            _assert_equivalent(*_paired_worlds(positions, model=model), rng)


def test_link_geometry_matches_naive_channel():
    """Point-cache Links equal the naive channel's inline computation."""
    rng = random.Random(99)
    positions = _random_positions(rng, 12)
    cached_channel, _, naive_channel, _ = _paired_worlds(positions)
    for src in range(len(positions)):
        for dst in range(len(positions)):
            if src == dst:
                continue
            assert cached_channel.link(src, dst) == naive_channel.link(src, dst)
            # Repeat query is a cache hit and still identical.
            assert cached_channel.link(src, dst) == naive_channel.link(src, dst)


def test_beam_straddling_the_wrap_seam():
    """Targets at bearings near +/-pi survive the sector-bin wrap."""
    positions = [Position(0.0, 0.0)]
    # A fan of nodes hugging the +/-pi seam behind the sender, plus a
    # node exactly at bearing pi and one on each beam edge.
    for offset in (-0.3, -0.1, -1e-9, 0.0, 1e-9, 0.1, 0.3):
        bearing = math.pi + offset
        positions.append(
            Position(100.0 * math.cos(bearing), 100.0 * math.sin(bearing))
        )
    cached_channel, cached_radios, naive_channel, naive_radios = _paired_worlds(
        positions
    )
    for boresight in (math.pi, -math.pi, math.pi - 0.2, -math.pi + 0.2):
        for beamwidth in (0.2, 0.6, math.pi / 2):
            pattern = SectorAntenna(boresight, beamwidth)
            fast = cached_channel.audible_nodes(cached_radios[0], pattern)
            slow = naive_channel.audible_nodes(naive_radios[0], pattern)
            assert fast == slow, (boresight, beamwidth)


def test_equivalence_under_mobility():
    """Moves through Radio.position keep the cache exact.

    Random-waypoint mobility assigns ``radio.position``; the setter
    bumps the node's epoch, so every later query must reflect the new
    geometry — applied identically to a naive world.
    """
    for model in MODELS:
        rng = random.Random(4242)
        positions = _random_positions(rng, 15)
        cached_channel, cached_radios, naive_channel, naive_radios = _paired_worlds(
            positions, model=model
        )
        cache = cached_channel.cache
        # Warm every row and pair, then churn: move a random subset,
        # check full equivalence, repeat.  Stale cached geometry would
        # surface as a mismatch on the first post-move round.
        _assert_equivalent(
            cached_channel, cached_radios, naive_channel, naive_radios, rng
        )
        for _ in range(5):
            movers = rng.sample(range(len(positions)), 4)
            for node_id in movers:
                target = Position(rng.uniform(-700, 700), rng.uniform(-700, 700))
                epoch_before = cache.epoch_of(node_id)
                cached_radios[node_id].position = target
                naive_radios[node_id].position = target
                assert cache.epoch_of(node_id) == epoch_before + 1
            _assert_equivalent(
                cached_channel, cached_radios, naive_channel, naive_radios, rng
            )


def _ring_at(distances):
    """A sender at the origin and one receiver per distance.

    Receivers sit on a spread of bearings, so ``math.hypot`` and
    ``np.hypot`` of their offsets may disagree in the last ulp.
    """
    positions = [Position(0.0, 0.0)]
    for index, distance in enumerate(distances):
        angle = 0.1 + 0.37 * index
        positions.append(
            Position(distance * math.cos(angle), distance * math.sin(angle))
        )
    return positions


def _assert_same_verdicts(positions, **world):
    cached_channel, _, naive_channel, _ = _paired_worlds(positions, **world)
    for sender in range(len(positions)):
        assert cached_channel.neighbors_of(sender) == naive_channel.neighbors_of(
            sender
        )
        for receiver in range(len(positions)):
            if receiver != sender:
                assert cached_channel.link(sender, receiver) == naive_channel.link(
                    sender, receiver
                )


def test_unit_disk_range_edge_matches_naive_scan():
    """Pairs at range_m and one ulp either side get the scalar ``<=`` verdict."""
    edges = [
        RANGE_M,
        math.nextafter(RANGE_M, math.inf),
        math.nextafter(RANGE_M, -math.inf),
    ]
    # On the x axis the distances are exact, so the verdicts are known.
    on_axis = [Position(0.0, 0.0)] + [Position(d, 0.0) for d in edges]
    cached_channel, _, _, _ = _paired_worlds(on_axis)
    assert cached_channel.neighbors_of(0) == [1, 3]
    # Off axis, each distance is whatever the scalar hypot rounds to.
    positions = _ring_at(edges * 6)
    _assert_same_verdicts(positions)
    cached_channel, _, _, _ = _paired_worlds(positions)
    origin = positions[0]
    expected = [
        node_id
        for node_id, position in enumerate(positions[1:], start=1)
        if origin.distance_to(position) <= RANGE_M
    ]
    assert cached_channel.neighbors_of(0) == expected
    # A pair whose numpy distance rounds one ulp above the scalar one
    # (np.hypot vs math.hypot on x86-64 glibc), with the range set to
    # the scalar distance: in range, however numpy rounds.
    receiver = Position(258.218, 261.731)
    edge = Position(0.0, 0.0).distance_to(receiver)
    cached_channel, _, naive_channel, _ = _paired_worlds(
        [Position(0.0, 0.0), receiver], range_m=edge
    )
    assert cached_channel.neighbors_of(0) == naive_channel.neighbors_of(0) == [1]


def test_sinr_sensitivity_edge_matches_naive_scan():
    """A budget within 1e-9 dB of sensitivity gets the naive verdict."""
    model = SinrCaptureReception(
        UnitDiskPropagation(range_m=RANGE_M), RngRegistry(0), shadowing_sigma_db=0.0
    )
    # Distance at which the default budget lands exactly on -94 dBm.
    edge = model.reference_distance_m * 10.0 ** (
        (model.tx_power_dbm - model.reference_loss_db - model.sensitivity_dbm)
        / (10.0 * model.pathloss_exponent)
    )
    # 30 * log10(1 + 3e-11) is about 4e-10 dB.
    distances = [
        edge * (1.0 + rel) for rel in (-3e-11, -1e-12, 0.0, 1e-12, 3e-11)
    ] + [math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
    positions = _ring_at(distances * 3)
    for pair in ((0, 1), (0, 5)):
        budget = model.rx_power_dbm(*pair, positions[pair[0]], positions[pair[1]])
        assert abs(budget - model.sensitivity_dbm) < 1e-9
    _assert_same_verdicts(positions, model="sinr", shadowing_sigma_db=0.0)
    # The pair whose numpy distance is one ulp long (see the unit-disk
    # edge test), with the transmit power set so the scalar budget
    # lands on sensitivity: audible, though numpy's budget falls short.
    receiver = Position(258.218, 261.731)
    tx_power_dbm = (
        model.sensitivity_dbm
        + model.reference_loss_db
        + 10.0 * model.pathloss_exponent
        * math.log10(Position(0.0, 0.0).distance_to(receiver))
    )
    cached_channel, _, naive_channel, _ = _paired_worlds(
        [Position(0.0, 0.0), receiver],
        model="sinr",
        shadowing_sigma_db=0.0,
        tx_power_dbm=tx_power_dbm,
    )
    assert cached_channel.neighbors_of(0) == naive_channel.neighbors_of(0) == [1]
    # With shadowing on, put each receiver on its own pair's edge.
    shadowed = SinrCaptureReception(
        UnitDiskPropagation(range_m=RANGE_M), RngRegistry(2003)
    )
    positions = [Position(0.0, 0.0)]
    for node_id in range(1, 13):
        shift_db = shadowed.shadowing_db(0, node_id) + (node_id % 3 - 1) * 1e-10
        distance = edge * 10.0 ** (shift_db / (10.0 * shadowed.pathloss_exponent))
        angle = 0.5 * node_id
        positions.append(
            Position(distance * math.cos(angle), distance * math.sin(angle))
        )
    _assert_same_verdicts(positions, model="sinr")


def test_dense_sinr_link_table_is_linear_in_memory(monkeypatch):
    """No O(N^2) per-pair objects survive a 200-node SINR build.

    The registry holds O(N) streams (none per pair) and the point cache
    holds records for the audible pairs, not for every ordered pair.
    """
    topology = replicate_topology(2003, 8, 0, rings=5)
    nodes = len(topology.positions)
    assert nodes == 200
    requested = []
    stream = RngRegistry.stream

    def recording_stream(self, name):
        requested.append(name)
        return stream(self, name)

    monkeypatch.setattr(RngRegistry, "stream", recording_stream)
    net = NetworkSimulation(
        topology,
        "DRTS-OCTS",
        math.pi / 2,
        seed=11,
        phy_config=PhyConfig(model="sinr"),
    )
    channel = net.channel
    audible_pairs = sum(len(channel.neighbors_of(node)) for node in channel.radios)
    assert not [name for name in requested if name.startswith("shadow-")]
    assert len(set(requested)) <= 3 * nodes
    assert 0 < channel.cache.cached_pairs() <= 2 * audible_pairs
    assert audible_pairs < nodes * (nodes - 1) // 4


def test_move_seq_advances_on_attach_and_move():
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=RANGE_M))
    cache = channel.cache
    assert cache.move_seq == 0
    a = Radio(sim, 0, Position(0, 0), channel)
    Radio(sim, 1, Position(50, 0), channel)
    assert cache.move_seq == 2
    a.position = Position(10, 0)
    assert cache.move_seq == 3
    assert cache.epoch_of(0) == 1
    assert cache.epoch_of(1) == 0


def test_point_cache_reused_across_row_rebuilds():
    """A move rebuilds rows but re-derives only the mover's pairs."""
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=RANGE_M))
    cache = channel.cache
    radios = [
        Radio(sim, i, Position(60.0 * i, 0.0), channel) for i in range(6)
    ]
    for node_id in range(6):
        channel.neighbors_of(node_id)
    warm = cache.cached_pairs()
    assert warm == 6 * 5
    radios[0].position = Position(5.0, 0.0)
    # Requerying one sender's row revalidates that row; pair records
    # between unmoved endpoints are served from cache (the count cannot
    # shrink and grows only by re-derived mover pairs).
    channel.neighbors_of(1)
    assert cache.cached_pairs() == warm


def test_neighbors_of_served_from_cache_not_naive_sweep():
    """neighbors_of routes through the LinkCache, not the O(N) sweep.

    Once the sender's row is warm, a repeat query on a static topology
    must not touch the propagation model at all; the naive channel
    pays N-1 reachability checks per query.  This pins the cache
    routing in ``Channel.neighbors_of`` so it cannot silently regress
    to the trig scan.
    """
    calls = {"cached": 0, "naive": 0}

    class CountingPropagation(UnitDiskPropagation):
        label = ""

        def reaches(self, src, dst):
            calls[self.label] += 1
            return super().reaches(src, dst)

    rng = random.Random(13)
    positions = _random_positions(rng, 10)
    worlds = {}
    for label, link_cache in (("cached", True), ("naive", False)):
        propagation = CountingPropagation(range_m=RANGE_M)
        object.__setattr__(propagation, "label", label)  # frozen dataclass
        sim = Simulator()
        channel = Channel(sim, propagation=propagation, link_cache=link_cache)
        for node_id, pos in enumerate(positions):
            Radio(sim, node_id, pos, channel)
        worlds[label] = channel
    cached_channel, naive_channel = worlds["cached"], worlds["naive"]

    for node_id in range(10):
        assert cached_channel.neighbors_of(node_id) == naive_channel.neighbors_of(
            node_id
        )
    warm_calls = calls["cached"]
    assert calls["naive"] == 10 * 9

    calls["cached"] = calls["naive"] = 0
    for node_id in range(10):
        cached_channel.neighbors_of(node_id)
        naive_channel.neighbors_of(node_id)
    assert calls["cached"] == 0, "warm cache row must not re-run the sweep"
    assert calls["naive"] == 10 * 9
    assert warm_calls <= 10 * 9  # cold build never exceeds the naive cost


def test_full_network_run_identical_with_and_without_cache():
    """Determinism guard: the fast path changes nothing observable.

    Two complete NetworkSimulation runs over the same topology, scheme,
    and seed — one with the link cache, one naive — must agree on every
    MAC counter, the kernel event count, and the derived figures.
    """
    topology = generate_ring_topology(TopologyConfig(n=3), random.Random(7))
    results = []
    sims = []
    for link_cache in (True, False):
        net = NetworkSimulation(
            topology,
            "DRTS-OCTS",
            math.pi / 3,
            seed=11,
            link_cache=link_cache,
        )
        results.append(net.run(seconds(0.05)))
        sims.append(net.sim)
    fast, slow = results
    assert fast.stats == slow.stats
    assert fast.inner_ids == slow.inner_ids
    assert fast.inner_throughput_bps == slow.inner_throughput_bps
    assert fast.inner_mean_delay_s == slow.inner_mean_delay_s
    assert fast.inner_collision_ratio == slow.inner_collision_ratio
    assert sims[0].events_processed == sims[1].events_processed
    assert sims[0].now == sims[1].now
