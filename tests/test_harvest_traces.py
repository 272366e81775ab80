"""Unit tests for the PowerTrace container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.harvest.traces import DEFAULT_DT_S, PowerTrace


def make_trace(values, dt=1e-4):
    return PowerTrace(np.asarray(values, dtype=float), dt, source="test")


class TestConstruction:
    def test_basic_properties(self):
        trace = make_trace([1e-6, 2e-6, 3e-6])
        assert len(trace) == 3
        assert trace.duration_s == pytest.approx(3e-4)
        assert trace.mean_power_w == pytest.approx(2e-6)
        assert trace.peak_power_w == pytest.approx(3e-6)
        assert trace.total_energy_j == pytest.approx(6e-6 * 1e-4)

    def test_default_dt_is_100_microseconds(self):
        assert DEFAULT_DT_S == pytest.approx(1e-4)

    @pytest.mark.parametrize(
        "samples,dt",
        [([], 1e-4), ([[1, 2]], 1e-4), ([1.0], 0.0), ([-1.0], 1e-4)],
    )
    def test_invalid_construction(self, samples, dt):
        with pytest.raises(ValueError):
            PowerTrace(np.asarray(samples, dtype=float), dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PowerTrace([1e-5, bad, 2e-5], 1e-4)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_period_rejected(self, dt):
        with pytest.raises(ValueError, match="finite"):
            PowerTrace([1e-5, 2e-5], dt)

    def test_iteration(self):
        assert list(make_trace([1.0, 2.0])) == [1.0, 2.0]

    def test_equality(self):
        assert make_trace([1.0, 2.0]) == make_trace([1.0, 2.0])
        assert make_trace([1.0, 2.0]) != make_trace([1.0, 3.0])


class TestPowerAt:
    def test_zero_order_hold(self):
        trace = make_trace([1.0, 2.0, 3.0])
        assert trace.power_at(0.0) == 1.0
        assert trace.power_at(1.5e-4) == 2.0

    def test_out_of_range(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            trace.power_at(1e-4)
        with pytest.raises(ValueError):
            trace.power_at(-1e-9)


class TestTransforms:
    def test_scaled_to_mean(self):
        trace = make_trace([1.0, 3.0]).scaled_to_mean(10.0)
        assert trace.mean_power_w == pytest.approx(10.0)
        assert trace.samples_w[1] / trace.samples_w[0] == pytest.approx(3.0)

    def test_scaled_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            make_trace([0.0, 0.0]).scaled_to_mean(1.0)

    def test_clipped(self):
        trace = make_trace([1.0, 5.0]).clipped(2.0)
        assert list(trace.samples_w) == [1.0, 2.0]

    def test_slice(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0])
        part = trace.slice(1e-4, 3e-4)
        assert list(part.samples_w) == [2.0, 3.0]

    def test_slice_invalid_bounds(self):
        trace = make_trace([1.0, 2.0])
        with pytest.raises(ValueError):
            trace.slice(1e-4, 1e-4)

    def test_repeated(self):
        trace = make_trace([1.0, 2.0]).repeated(3)
        assert len(trace) == 6
        assert list(trace.samples_w[:4]) == [1.0, 2.0, 1.0, 2.0]

    def test_resampled_halves_samples(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0]).resampled(2e-4)
        assert len(trace) == 2

    def test_resample_preserves_duration_approximately(self):
        trace = make_trace(np.linspace(0, 1, 1000))
        resampled = trace.resampled(3.3e-4)
        assert resampled.duration_s == pytest.approx(trace.duration_s, rel=0.01)

    def test_transforms_do_not_mutate_original(self):
        trace = make_trace([1.0, 5.0])
        trace.clipped(2.0)
        trace.scaled_to_mean(100.0)
        assert list(trace.samples_w) == [1.0, 5.0]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace([1e-6, 2e-6, 3e-6])
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = PowerTrace.load(path)
        assert loaded == trace


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_energy_equals_mean_times_duration(samples, dt):
    trace = PowerTrace(np.asarray(samples), dt)
    assert trace.total_energy_j == pytest.approx(
        trace.mean_power_w * trace.duration_s, rel=1e-9, abs=1e-30
    )
