"""Tests for deterministic random streams."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dessim import RngRegistry, Simulator
from repro.dessim.rng import _MIN_BULK, first_gauss
from repro.phy import (
    Channel,
    Position,
    Radio,
    SinrCaptureReception,
    UnitDiskPropagation,
)


class TestRngRegistry:
    def test_same_seed_same_draws(self):
        a = RngRegistry(42).stream("backoff")
        b = RngRegistry(42).stream("backoff")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("backoff")
        b = RngRegistry(2).stream("backoff")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        reg = RngRegistry(7)
        a = reg.stream("topology")
        b = reg.stream("traffic")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_new_stream_does_not_perturb_existing(self):
        # Draw interleaved with creating unrelated streams; the sequence
        # must equal an uninterrupted run.
        ref_stream = RngRegistry(9).stream("a")
        ref = [ref_stream.random() for _ in range(4)]
        reg = RngRegistry(9)
        stream = reg.stream("a")
        values = [stream.random(), stream.random()]
        reg.stream("unrelated-1")
        reg.stream("unrelated-2")
        values += [stream.random(), stream.random()]
        assert values == ref

    def test_spawn_children_are_independent(self):
        parent = RngRegistry(3)
        child_a = parent.spawn("topo-0")
        child_b = parent.spawn("topo-1")
        assert child_a.master_seed != child_b.master_seed
        va = child_a.stream("place").random()
        vb = child_b.stream("place").random()
        assert va != vb

    def test_spawn_is_reproducible(self):
        a = RngRegistry(3).spawn("topo-0").stream("place").random()
        b = RngRegistry(3).spawn("topo-0").stream("place").random()
        assert a == b

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            RngRegistry("not-a-seed")  # type: ignore[arg-type]


class TestSeedStability:
    """The (master_seed, name) -> stream mapping is a contract.

    These golden values pin the SHA-256 derivation across Python
    versions and refactors: if any of them changes, every published
    number in EXPERIMENTS.md silently stops being reproducible.
    """

    def test_derivation_matches_sha256_spec(self):
        digest = hashlib.sha256(b"2003:backoff").digest()
        expected = int.from_bytes(digest[:8], "big")
        assert expected == 7550964712488899809
        stream = RngRegistry(2003).stream("backoff")
        import random as random_module

        reference = random_module.Random(expected)
        assert [stream.random() for _ in range(4)] == [
            reference.random() for _ in range(4)
        ]

    def test_seed_for_is_the_stream_seed(self):
        registry = RngRegistry(2003)
        assert registry.seed_for("backoff") == 7550964712488899809
        reference = random.Random(registry.seed_for("topology"))
        assert registry.stream("topology").random() == reference.random()

    def test_seed_for_creates_no_stream(self):
        registry = RngRegistry(2003)
        registry.seed_for("backoff")
        assert "backoff" not in repr(registry)

    def test_golden_first_draws(self):
        registry = RngRegistry(2003)
        assert registry.stream("backoff").random() == pytest.approx(
            0.4232310048443786, abs=0.0
        )
        assert registry.stream("topology").random() == pytest.approx(
            0.9688531161006557, abs=0.0
        )

    def test_golden_spawn_seed(self):
        assert RngRegistry(2003).spawn("rep-0").master_seed == 3141594019869248974

    def test_spawn_namespace_is_separate_from_streams(self):
        # spawn("x") and stream("x") must never collide.
        registry = RngRegistry(8)
        child_draw = RngRegistry(8).spawn("x").stream("x").random()
        stream_draw = registry.stream("x").random()
        assert child_draw != stream_draw


class TestStreamIndependence:
    def test_interleaving_does_not_perturb(self):
        # Draws from stream A are identical whether or not B is drawn
        # from in between — consumers cannot observe each other.
        solo = RngRegistry(4).stream("a")
        expected = [solo.random() for _ in range(6)]
        registry = RngRegistry(4)
        a, b = registry.stream("a"), registry.stream("b")
        observed = []
        for _ in range(6):
            observed.append(a.random())
            b.random()  # interleaved draws on another stream
        assert observed == expected

    def test_registration_order_is_irrelevant(self):
        forward = RngRegistry(4)
        forward.stream("a"), forward.stream("b")
        backward = RngRegistry(4)
        backward.stream("b"), backward.stream("a")
        assert forward.stream("a").random() == backward.stream("a").random()

    def test_streams_are_statistically_distinct(self):
        # Crude independence check: no shared prefix and uncorrelated
        # means over a modest sample.
        registry = RngRegistry(123)
        a = [registry.stream("alpha").random() for _ in range(500)]
        b = [registry.stream("beta").random() for _ in range(500)]
        assert a[:10] != b[:10]
        mean_product = sum(x * y for x, y in zip(a, b)) / 500
        # E[XY] = 0.25 for independent U(0,1); generous tolerance.
        assert abs(mean_product - 0.25) < 0.05


def _reference_gauss(seeds):
    return [random.Random(seed).gauss(0.0, 1.0).hex() for seed in seeds]


def _bulk(seeds):
    """``seeds`` repeated until first_gauss takes its vectorised path."""
    return seeds * (_MIN_BULK // len(seeds) + 1)


class TestFirstGauss:
    """first_gauss is random.Random(s).gauss(0.0, 1.0), bit for bit.

    Compared through ``float.hex`` so even a -0.0 / 0.0 slip would show.
    Batches of at least ``_MIN_BULK`` seeds take the vectorised MT19937
    path; smaller ones, and one-word or over-wide seeds in any batch,
    seed ``random.Random`` directly.
    """

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**80 + 12345]

    def test_edge_seeds_small_batch(self):
        values = first_gauss(self.EDGE_SEEDS)
        assert [v.hex() for v in values] == _reference_gauss(self.EDGE_SEEDS)

    def test_edge_seeds_bulk_batch(self):
        seeds = _bulk(self.EDGE_SEEDS)
        assert [v.hex() for v in first_gauss(seeds)] == _reference_gauss(seeds)

    def test_registry_seeds_across_blocks(self):
        # More seeds than one vectorised block holds.
        registry = RngRegistry(2003)
        seeds = [registry.seed_for(f"shadow-{i}") for i in range(5000)]
        assert [v.hex() for v in first_gauss(seeds)] == _reference_gauss(seeds)

    def test_empty(self):
        assert first_gauss([]) == []

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_drawn_64_bit_seeds(self, seeds):
        batch = _bulk(seeds)
        assert [v.hex() for v in first_gauss(batch)] == _reference_gauss(batch)

    def test_sinr_shadowing_is_the_pair_stream_draw(self):
        """The SINR model's bulk shadowing equals the per-pair stream draw."""
        sigma = 6.0
        model = SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0),
            RngRegistry(2003),
            shadowing_sigma_db=sigma,
        )
        sim = Simulator()
        channel = Channel(sim, reception=model)
        rng = random.Random(5)
        ids = rng.sample(range(1000), 30)
        for node_id in ids:
            position = Position(rng.uniform(0, 500), rng.uniform(0, 500))
            Radio(sim, node_id, position, channel)
        # The first row draws all 870 pairs, enough for the vectorised path.
        assert 30 * 29 >= _MIN_BULK
        channel.neighbors_of(ids[0])
        reference = RngRegistry(2003)
        for src in ids:
            for dst in ids:
                if src != dst:
                    stream = reference.stream(f"shadow-{src}-{dst}")
                    expected = stream.gauss(0, 1) * sigma
                    assert model.shadowing_db(src, dst).hex() == expected.hex()
        assert "shadow-" not in repr(model.registry)
