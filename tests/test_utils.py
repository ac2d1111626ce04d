"""Tests for repro.utils: schedules, RNG handling and math helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.utils import (
    GROWTH_FACTOR,
    MIXING_THRESHOLD,
    as_rng,
    geometric_sizes,
    harmonic_mean,
    linear_sizes,
    log_size,
    safe_ratio,
    spawn_rngs,
    stable_hash,
)


class TestConstants:
    def test_mixing_threshold_is_half_over_e(self):
        assert MIXING_THRESHOLD == pytest.approx(1.0 / (2.0 * math.e))

    def test_growth_factor_is_paper_value(self):
        assert GROWTH_FACTOR == pytest.approx(1.0 + 1.0 / (8.0 * math.e))


class TestRng:
    def test_as_rng_accepts_int(self):
        rng = as_rng(7)
        assert isinstance(rng, np.random.Generator)

    def test_as_rng_passes_through_generator(self):
        generator = np.random.default_rng(1)
        assert as_rng(generator) is generator

    def test_as_rng_same_seed_same_stream(self):
        assert as_rng(5).integers(1 << 30) == as_rng(5).integers(1 << 30)

    def test_spawn_rngs_count_and_independence(self):
        children = spawn_rngs(3, 4)
        assert len(children) == 4
        draws = [child.integers(1 << 30) for child in children]
        assert len(set(draws)) > 1

    def test_spawn_rngs_reproducible(self):
        first = [g.integers(1 << 30) for g in spawn_rngs(3, 3)]
        second = [g.integers(1 << 30) for g in spawn_rngs(3, 3)]
        assert first == second

    def test_spawn_rngs_negative_count_raises(self):
        with pytest.raises(ReproError):
            spawn_rngs(0, -1)


class TestLogSize:
    def test_log_size_examples(self):
        assert log_size(1024) == round(math.log(1024))
        assert log_size(2) >= 1

    def test_log_size_minimum_one(self):
        assert log_size(1) == 1

    def test_log_size_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            log_size(0)


class TestGeometricSizes:
    def test_includes_start_and_stop(self):
        sizes = geometric_sizes(8, 1000)
        assert sizes[0] == 8
        assert sizes[-1] == 1000

    def test_strictly_increasing(self):
        sizes = geometric_sizes(5, 5000)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_growth_factor_respected_for_large_sizes(self):
        sizes = geometric_sizes(100, 100000, factor=2.0)
        ratios = [b / a for a, b in zip(sizes, sizes[1:-1])]
        assert all(ratio <= 2.0 + 1e-9 for ratio in ratios)

    def test_stop_below_start_returns_stop(self):
        assert geometric_sizes(10, 5) == [5]

    def test_invalid_inputs(self):
        with pytest.raises(ReproError):
            geometric_sizes(0, 10)
        with pytest.raises(ReproError):
            geometric_sizes(1, 10, factor=1.0)

    @given(start=st.integers(1, 50), stop=st.integers(1, 5000))
    @settings(max_examples=50, deadline=None)
    def test_covers_range_property(self, start, stop):
        sizes = geometric_sizes(start, stop)
        assert sizes[-1] == stop
        assert all(size >= 1 for size in sizes)
        assert sizes == sorted(set(sizes))


class TestLinearSizes:
    def test_simple_range(self):
        assert linear_sizes(3, 7) == [3, 4, 5, 6, 7]

    def test_step_and_stop_inclusion(self):
        assert linear_sizes(2, 9, step=3) == [2, 5, 8, 9]

    def test_invalid_step(self):
        with pytest.raises(ReproError):
            linear_sizes(1, 5, step=0)


class TestHarmonicMean:
    def test_equal_inputs(self):
        assert harmonic_mean(0.5, 0.5) == pytest.approx(0.5)

    def test_zero_input_gives_zero(self):
        assert harmonic_mean(0.0, 0.9) == 0.0

    def test_matches_f_score_formula(self):
        precision, recall = 0.8, 0.4
        expected = 2 * precision * recall / (precision + recall)
        assert harmonic_mean(precision, recall) == pytest.approx(expected)

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            harmonic_mean(-0.1, 0.5)

    @given(
        a=st.floats(0, 1, allow_subnormal=False),
        b=st.floats(0, 1, allow_subnormal=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_min_and_max(self, a, b):
        value = harmonic_mean(a, b)
        assert 0.0 <= value <= max(a, b) * (1 + 1e-9) + 1e-12
        if a > 0 and b > 0:
            assert value <= min(a, b) * 2 * (1 + 1e-9)


class TestSafeRatio:
    def test_normal_division(self):
        assert safe_ratio(6, 3) == 2

    def test_zero_denominator_default(self):
        assert safe_ratio(1, 0) == 0.0
        assert safe_ratio(1, 0, default=5.0) == 5.0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(12345, 16) == stable_hash(12345, 16)

    def test_within_modulus(self):
        for value in range(100):
            assert 0 <= stable_hash(value, 7) < 7

    def test_spreads_values(self):
        buckets = {stable_hash(v, 8) for v in range(1000)}
        assert buckets == set(range(8))

    def test_invalid_modulus(self):
        with pytest.raises(ReproError):
            stable_hash(1, 0)
