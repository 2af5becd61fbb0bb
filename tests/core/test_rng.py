"""Tests for :mod:`repro.core.rng`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ensure_rng, spawn_rngs
from repro.core.rng import spawn_children


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        first = ensure_rng(42).integers(0, 1000, 5)
        second = ensure_rng(42).integers(0, 1000, 5)
        assert np.array_equal(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_streams_differ(self):
        streams = spawn_rngs(0, 2)
        assert not np.array_equal(
            streams[0].integers(0, 1000, 10), streams[1].integers(0, 1000, 10)
        )

    def test_deterministic_given_seed(self):
        first = [g.integers(0, 1000, 3).tolist() for g in spawn_rngs(7, 3)]
        second = [g.integers(0, 1000, 3).tolist() for g in spawn_rngs(7, 3)]
        assert first == second

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []


class TestSpawnChildren:
    def test_spawns_seed_sequence_children(self):
        children = spawn_children(np.random.default_rng(3), 2)
        expected = np.random.default_rng(3).spawn(2)
        for child, want in zip(children, expected):
            assert child.random(4).tolist() == want.random(4).tolist()

    def test_legacy_seeded_generator_seeds_children_from_its_stream(self):
        def legacy(seed):
            bit_generator = np.random.MT19937()
            bit_generator._legacy_seeding(seed)
            return np.random.Generator(bit_generator)

        first = [child.random(4).tolist() for child in spawn_children(legacy(5), 3)]
        second = [child.random(4).tolist() for child in spawn_children(legacy(5), 3)]
        assert first == second
        assert len({tuple(draws) for draws in first}) == 3
