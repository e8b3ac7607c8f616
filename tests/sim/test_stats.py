"""Tests for the instrumentation primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Counter, Tally, TimeWeighted


class TestCounter:
    def test_add_default(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5
        assert int(c) == 5

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_reset(self):
        c = Counter()
        c.add(3)
        c.reset()
        assert c.value == 0


class TestTally:
    def test_basic_moments(self):
        t = Tally()
        for x in (1.0, 2.0, 3.0, 4.0):
            t.observe(x)
        assert t.count == 4
        assert t.mean == pytest.approx(2.5)
        assert t.min == 1.0
        assert t.max == 4.0
        assert t.total == 10.0
        assert t.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))

    def test_empty_tally_nan_mean(self):
        assert math.isnan(Tally().mean)

    def test_single_sample_variance_nan(self):
        t = Tally()
        t.observe(5.0)
        assert math.isnan(t.variance)
        assert math.isnan(t.stdev)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        t = Tally()
        for x in xs:
            t.observe(x)
        assert t.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-9)
        assert t.variance == pytest.approx(
            np.var(xs, ddof=1), rel=1e-6, abs=1e-6
        )


class TestTimeWeighted:
    def test_constant_level(self):
        tw = TimeWeighted(level=3.0)
        assert tw.average(10.0) == 3.0

    def test_step_function(self):
        tw = TimeWeighted()
        tw.set(2.0, now=5.0)   # 0 for [0,5), 2 afterwards
        assert tw.average(10.0) == pytest.approx(1.0)

    def test_adjust_deltas(self):
        tw = TimeWeighted()
        tw.adjust(+1, 0.0)
        tw.adjust(+1, 10.0)
        tw.adjust(-2, 20.0)
        # level: 1 on [0,10), 2 on [10,20), 0 after
        assert tw.average(20.0) == pytest.approx(1.5)
        assert tw.peak == 2

    def test_time_going_backwards_rejected(self):
        tw = TimeWeighted()
        tw.set(1.0, 10.0)
        with pytest.raises(ValueError):
            tw.set(2.0, 5.0)

    def test_zero_span_returns_level(self):
        tw = TimeWeighted(level=7.0)
        assert tw.average(0.0) == 7.0
