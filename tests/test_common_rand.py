"""Tests for the seeded random-number plumbing."""

import numpy as np

from repro.common.rand import RandomSource, _label_key, spawn_rng


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7).child("x").rng.random(5)
        b = RandomSource(7).child("x").rng.random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(7).child("x").rng.random(5)
        b = RandomSource(8).child("x").rng.random(5)
        assert not np.allclose(a, b)

    def test_different_labels_differ(self):
        root = RandomSource(7)
        a = root.child("arrivals").rng.random(5)
        b = root.child("loss-noise").rng.random(5)
        assert not np.allclose(a, b)

    def test_nested_children_are_stable(self):
        a = RandomSource(3).child("a").child("b").rng.random()
        b = RandomSource(3).child("a").child("b").rng.random()
        assert a == b

    def test_nested_children_independent_of_siblings(self):
        a = RandomSource(3).child("a").child("b").rng.random()
        c = RandomSource(3).child("c").child("b").rng.random()
        assert a != c

    def test_rng_cached(self):
        src = RandomSource(1)
        assert src.rng is src.rng

    def test_child_builds_no_sequence_before_first_draw(self, monkeypatch):
        eager_sequence = np.random.SeedSequence
        built = []

        def counting_sequence(*args, **kwargs):
            built.append(args)
            return eager_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting_sequence)
        node = RandomSource(11).child("job-7").child("epoch-loss")
        assert built == []
        assert not any(
            isinstance(value, (eager_sequence, np.random.Generator))
            for value in vars(node).values()
        )
        drawn = node.rng.random(3)
        assert len(built) == 1
        # The same draws an eagerly built sequence for that path gives.
        path = (11, _label_key("job-7"), _label_key("epoch-loss"))
        eager = np.random.default_rng(eager_sequence(path))
        assert list(drawn) == list(eager.random(3))

    def test_none_seed_records_seed(self):
        src = RandomSource(None)
        assert isinstance(src.seed, int)
        # Replaying with the recorded seed reproduces the stream.
        replay = RandomSource(src.seed)
        assert replay.child("x").rng.random() == RandomSource(src.seed).child("x").rng.random()

    def test_adding_draws_in_one_child_does_not_shift_another(self):
        root1 = RandomSource(5)
        _ = root1.child("a").rng.random(100)  # consume a lot in one subsystem
        b1 = root1.child("b").rng.random()

        root2 = RandomSource(5)
        b2 = root2.child("b").rng.random()  # no draws in "a" at all
        assert b1 == b2


class TestSpawnRng:
    def test_from_int(self):
        assert spawn_rng(3, "x").random() == spawn_rng(3, "x").random()

    def test_from_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert spawn_rng(gen, "anything") is gen

    def test_from_random_source(self):
        src = RandomSource(9)
        a = spawn_rng(src, "lbl").random()
        b = RandomSource(9).child("lbl").rng.random()
        assert a == b

    def test_from_none_is_unseeded(self):
        gen = spawn_rng(None)
        assert isinstance(gen, np.random.Generator)

    def test_labels_partition_streams(self):
        assert spawn_rng(3, "x").random() != spawn_rng(3, "y").random()
