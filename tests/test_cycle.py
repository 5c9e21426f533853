"""Solar-cycle phase embedding: anchor values, periodicity, symmetry."""

import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from flarecast import CycleConfig, cycle_phase
from flarecast.core import EPOCH, MICROSECOND
from flarecast.cycle import DEFAULT_BASE_TIME, DEFAULT_PERIOD_HOURS, cycle_phases


def at_hours(delta_hours: float) -> datetime:
    return DEFAULT_BASE_TIME + timedelta(hours=delta_hours)


class TestAnchorValues:
    def test_base_time_is_minimum(self):
        assert cycle_phase(DEFAULT_BASE_TIME) == -1.0

    def test_half_period_is_maximum(self):
        assert cycle_phase(at_hours(DEFAULT_PERIOD_HOURS / 2)) == 1.0

    def test_quarter_period_is_zero(self):
        assert abs(cycle_phase(at_hours(DEFAULT_PERIOD_HOURS / 4))) < 1e-12

    def test_default_period_is_about_eleven_years(self):
        years = DEFAULT_PERIOD_HOURS / (24 * 365.25)
        assert years == pytest.approx(11.0, abs=0.01)


class TestProperties:
    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            t = at_hours(float(rng.uniform(-3e5, 3e5)))
            assert -1.0 <= cycle_phase(t) <= 1.0

    def test_periodicity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            delta = float(rng.uniform(-2e5, 2e5))
            a = cycle_phase(at_hours(delta))
            b = cycle_phase(at_hours(delta + DEFAULT_PERIOD_HOURS))
            assert abs(a - b) < 1e-9

    def test_even_symmetry_about_base(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            delta = float(rng.uniform(0, 2e5))
            assert cycle_phase(at_hours(delta)) == cycle_phase(at_hours(-delta))

    def test_array_form_equals_scalar_form(self):
        rng = np.random.default_rng(3)
        seconds = rng.integers(-2 * 10**9, 4 * 10**9, 500)
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        for cfg in (CycleConfig(), CycleConfig(base_time=datetime(2001, 2, 3, 4, 5, 6, 789, tzinfo=timezone.utc))):
            got = cycle_phases(seconds * 1_000_000, cfg)
            want = [cycle_phase(epoch + timedelta(seconds=int(s)), cfg) for s in seconds]
            assert got.tolist() == want

    def test_custom_config(self):
        cfg = CycleConfig(base_time=datetime(2000, 1, 1, tzinfo=timezone.utc), period_hours=100.0)
        assert cycle_phase(datetime(2000, 1, 1, tzinfo=timezone.utc), cfg) == -1.0
        assert cycle_phase(datetime(2000, 1, 3, 2, tzinfo=timezone.utc), cfg) == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CycleConfig(period_hours=0.0)
        with pytest.raises(ValueError, match="UTC"):
            CycleConfig(base_time=datetime(2000, 1, 1))

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError, match="UTC"):
            cycle_phase(datetime(2020, 1, 1))


class TestPhaseBuffers:
    """cycle_phases works in one int64 and one float64 buffer, with the steps of one expression in its order."""

    times_us = 7200 * 10**6 * np.arange(-8_000, 39_895, dtype=np.int64)  # the reference size on the 2-hour grid

    def test_same_bits_as_one_expression(self):
        rng = np.random.default_rng(4)
        t = np.concatenate([self.times_us, rng.integers(-10**16, 10**16, 20_001)])
        for cfg in (CycleConfig(), CycleConfig(base_time=datetime(2001, 3, 4, 5, tzinfo=timezone.utc), period_hours=1234.5678)):
            base_us = (cfg.base_time - EPOCH) // MICROSECOND
            want = -np.cos(2.0 * np.pi * ((t - base_us) / 1e6 / 3600.0) / cfg.period_hours)
            assert cycle_phases(t, cfg).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_traced_peak_within_two_buffers(self):
        """47,895 times trace 0.83 MB: the int64 difference, the float64 result and the ufunc's 64 KiB cast buffer.
        An expression making a temporary at each step traced 1.15 MB, three n x 8-byte buffers."""
        cycle_phases(self.times_us)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cycle_phases(self.times_us)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * self.times_us.nbytes + 2**17, f"traced peak {peak} B"
