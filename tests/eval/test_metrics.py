"""Evaluation metrics."""

import numpy as np
import pytest

from repro.eval.metrics import (
    improvement_over,
    mean_confidence_interval,
    summarize,
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.count == 3
        assert s.std == pytest.approx(1.0)

    def test_single_sample_std_zero(self):
        assert summarize([5.0]).std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestImprovement:
    def test_greater_than_one_when_method_faster(self):
        assert improvement_over([10.0], [5.0]) == pytest.approx(2.0)

    def test_less_than_one_when_method_slower(self):
        assert improvement_over([5.0], [10.0]) == pytest.approx(0.5)

    def test_equal_is_one(self):
        assert improvement_over([7.0, 7.0], [7.0]) == pytest.approx(1.0)

    def test_uses_means(self):
        assert improvement_over([10.0, 20.0], [10.0, 5.0]) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            improvement_over([], [1.0])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            improvement_over([1.0], [0.0])


class TestConfidenceInterval:
    def test_single_sample_collapses(self):
        mean, lo, hi = mean_confidence_interval([3.0])
        assert mean == lo == hi == 3.0

    def test_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 2.0, size=50)
        mean, lo, hi = mean_confidence_interval(data, confidence=0.99)
        assert lo < mean < hi

    def test_higher_confidence_wider(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=30)
        _, lo99, hi99 = mean_confidence_interval(data, confidence=0.99)
        _, lo90, hi90 = mean_confidence_interval(data, confidence=0.90)
        assert (hi99 - lo99) > (hi90 - lo90)

    def test_more_samples_narrower(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=10)
        large = rng.normal(size=1000)
        _, lo_s, hi_s = mean_confidence_interval(small)
        _, lo_l, hi_l = mean_confidence_interval(large)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_symmetric_around_mean(self):
        data = [1.0, 2.0, 3.0, 4.0]
        mean, lo, hi = mean_confidence_interval(data)
        assert mean - lo == pytest.approx(hi - mean)
