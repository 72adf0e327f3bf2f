import time

import pytest

from repro.obs import Timer


class TestTimer:
    def test_empty_timer(self):
        t = Timer()
        assert t.count == 0
        assert t.total == 0.0
        assert t.mean == 0.0

    def test_records_sample(self):
        t = Timer()
        with t:
            time.sleep(0.002)
        assert t.count == 1
        assert t.total >= 0.002

    def test_accumulates_samples(self):
        t = Timer()
        for _ in range(3):
            with t:
                pass
        assert t.count == 3
        assert t.mean == pytest.approx(t.total / 3)

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.count == 0
        assert t.total == 0.0

    def test_nested_use_after_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        with t:
            pass
        assert t.count == 1

    def test_samples_are_nonnegative(self):
        t = Timer()
        for _ in range(5):
            with t:
                pass
        assert all(s >= 0 for s in t.samples)
