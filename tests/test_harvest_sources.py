"""Statistical tests for the power-trace generators."""

import numpy as np
import pytest

from repro import native
from repro.harvest import sources
from repro.harvest.outage import DEFAULT_THRESHOLD_W, analyze_outages
from repro.harvest.sources import (
    SOURCE_GENERATORS,
    _ou_process,
    constant_trace,
    hybrid_trace,
    rf_trace,
    solar_trace,
    square_trace,
    standard_profile,
    standard_profiles,
    thermal_trace,
    wristwatch_trace,
)
from repro.harvest.traces import DEFAULT_DT_S


def reference_ou_process(n, dt_s, tau_s, sigma, rng, x0=0.0):
    """The numpy-indexed loop ``_ou_process`` replaced, as its reference."""
    alpha = float(np.exp(-dt_s / tau_s))
    noise_scale = sigma * float(np.sqrt(1.0 - alpha * alpha))
    steps = rng.standard_normal(n) * noise_scale
    x = np.empty(n)
    value = x0
    for i in range(n):
        value = alpha * value + steps[i]
        x[i] = value
    return x


#: The ``(tau_s, sigma)`` pairs the generators pass to ``_ou_process``.
OU_PARAMS = [(4e-3, 1.4), (0.5, 0.6), (5.0, 0.5)]


def bits(samples):
    """The float64 samples' bit patterns, so ``-0.0 != 0.0``."""
    return samples.view(np.uint64)


def generated_traces(seed):
    """One trace per stochastic generator, a hybrid and the profiles."""
    traces = [(name, gen(1.0, seed=seed))
              for name, gen in sorted(SOURCE_GENERATORS.items())]
    traces.append(("hybrid", hybrid_trace(1.0, seed=seed)))
    traces += [(p.source, p) for p in standard_profiles(0.5, seed=seed)]
    return traces


class TestOUProcess:
    """``_ou_process`` runs the recurrence in the ``ou_walk`` kernel
    (C, or its Python twin); the numpy-indexed loop it replaced is the
    reference, bit for bit, on either backend."""

    @pytest.mark.parametrize("n", [1, 7, 100_000])
    @pytest.mark.parametrize("tau_s, sigma", OU_PARAMS)
    @pytest.mark.parametrize("x0", [0.0, 0.3])
    def test_matches_indexed_loop(self, n, tau_s, sigma, x0):
        rng_ref = np.random.default_rng(11)
        rng = np.random.default_rng(11)
        want = reference_ou_process(n, DEFAULT_DT_S, tau_s, sigma, rng_ref, x0)
        got = _ou_process(n, DEFAULT_DT_S, tau_s, sigma, rng, x0)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(bits(got), bits(want))
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("tau_s, sigma", OU_PARAMS)
    def test_reference_backend_matches_indexed_loop(
        self, monkeypatch, tau_s, sigma
    ):
        monkeypatch.setattr(native, "kernels", lambda: native.reference)
        want = reference_ou_process(
            10_000, DEFAULT_DT_S, tau_s, sigma, np.random.default_rng(11), 0.3
        )
        got = _ou_process(
            10_000, DEFAULT_DT_S, tau_s, sigma, np.random.default_rng(11), 0.3
        )
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("seed", [5, 2017])
    def test_generators_unchanged_under_reference_loop(
        self, monkeypatch, seed
    ):
        current = generated_traces(seed)
        used = set()

        def reference(n, dt_s, tau_s, sigma, rng, x0=0.0):
            used.add((tau_s, sigma))
            return reference_ou_process(n, dt_s, tau_s, sigma, rng, x0)

        monkeypatch.setattr(sources, "_ou_process", reference)
        expected = generated_traces(seed)
        assert used == set(OU_PARAMS)
        for (name, got), (_, want) in zip(current, expected):
            assert got.source == want.source, name
            assert np.array_equal(bits(got.samples_w), bits(want.samples_w)), name


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SOURCE_GENERATORS))
    def test_same_seed_same_trace(self, name):
        gen = SOURCE_GENERATORS[name]
        assert gen(0.5, seed=5) == gen(0.5, seed=5)

    @pytest.mark.parametrize("name", sorted(SOURCE_GENERATORS))
    def test_different_seed_different_trace(self, name):
        gen = SOURCE_GENERATORS[name]
        assert gen(0.5, seed=5) != gen(0.5, seed=6)


class TestDeterministicSources:
    def test_constant(self):
        trace = constant_trace(5e-6, 0.01)
        assert trace.mean_power_w == pytest.approx(5e-6)
        assert trace.peak_power_w == pytest.approx(5e-6)

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            constant_trace(-1.0, 0.01)

    def test_square_duty(self):
        trace = square_trace(100e-6, 0.0, period_s=0.01, duty=0.3, duration_s=1.0)
        on_fraction = np.mean(trace.samples_w > 0)
        assert on_fraction == pytest.approx(0.3, abs=0.01)

    def test_square_validation(self):
        with pytest.raises(ValueError):
            square_trace(1.0, 0.0, period_s=0.0, duty=0.5, duration_s=1.0)
        with pytest.raises(ValueError):
            square_trace(1.0, 0.0, period_s=0.1, duty=1.5, duration_s=1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(1.0, 0.0)


class TestWristwatchEnvelope:
    """The generator must reproduce the published wristwatch statistics."""

    @pytest.fixture(scope="class")
    def trace(self):
        return wristwatch_trace(10.0, seed=42)

    def test_mean_in_published_band(self, trace):
        assert 10e-6 <= trace.mean_power_w <= 40e-6

    def test_peak_reaches_published_swings(self, trace):
        assert trace.peak_power_w > 1000e-6
        assert trace.peak_power_w <= 2000e-6

    def test_emergency_count_in_published_band(self, trace):
        """1000-2000 power emergencies per 10 s at the 33 uW threshold."""
        stats = analyze_outages(trace, DEFAULT_THRESHOLD_W)
        assert 800 <= stats.count <= 2500

    def test_outages_mostly_millisecond_scale(self, trace):
        stats = analyze_outages(trace, DEFAULT_THRESHOLD_W)
        durations = np.asarray(stats.durations_s)
        assert np.median(durations) < 50e-3

    def test_requested_mean_is_honoured(self):
        trace = wristwatch_trace(5.0, mean_power_w=18e-6, seed=3)
        assert trace.mean_power_w == pytest.approx(18e-6, rel=0.05)


class TestOtherSources:
    def test_solar_is_smoother_than_wristwatch(self):
        solar = solar_trace(5.0, seed=1)
        watch = wristwatch_trace(5.0, seed=1)
        solar_cv = solar.samples_w.std() / solar.mean_power_w
        watch_cv = watch.samples_w.std() / watch.mean_power_w
        assert solar_cv < watch_cv

    def test_solar_mean(self):
        trace = solar_trace(5.0, mean_power_w=150e-6, seed=2)
        assert trace.mean_power_w == pytest.approx(150e-6, rel=1e-6)

    def test_rf_is_bursty_on_off(self):
        trace = rf_trace(5.0, seed=2)
        median = np.median(trace.samples_w)
        p95 = np.percentile(trace.samples_w, 95)
        assert p95 > 5 * median  # strong on/off contrast

    def test_rf_duty_validation(self):
        with pytest.raises(ValueError):
            rf_trace(1.0, duty=0.0)

    def test_thermal_is_nearly_constant(self):
        trace = thermal_trace(5.0, seed=3)
        cv = trace.samples_w.std() / trace.mean_power_w
        assert cv < 0.2


class TestStandardProfiles:
    def test_five_profiles_by_default(self):
        profiles = standard_profiles(duration_s=0.5)
        assert len(profiles) == 5
        assert [p.source for p in profiles] == [
            f"profile-{i}" for i in range(1, 6)
        ]

    def test_profiles_differ(self):
        profiles = standard_profiles(duration_s=0.5)
        assert profiles[0] != profiles[1]

    def test_profiles_are_deterministic(self):
        a = standard_profiles(duration_s=0.5, seed=9)
        b = standard_profiles(duration_s=0.5, seed=9)
        assert all(x == y for x, y in zip(a, b))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            standard_profiles(count=0)

    @pytest.mark.parametrize("index", range(7))
    def test_standard_profile_is_that_entry(self, index):
        # Seven profiles cover the means cycling past the fifth.
        whole = standard_profiles(0.5, seed=2017, count=7)[index]
        alone = standard_profile(index, 0.5, seed=2017)
        assert alone.source == whole.source == f"profile-{index + 1}"
        assert np.array_equal(bits(alone.samples_w), bits(whole.samples_w))
        assert alone == whole

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="profile index"):
            standard_profile(-1, 0.5)
