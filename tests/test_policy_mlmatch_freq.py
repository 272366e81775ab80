"""Tests for ML config matching and frequency scaling."""

import numpy as np
import pytest

from repro.harvest.sources import (
    constant_trace,
    rf_trace,
    solar_trace,
    thermal_trace,
    wristwatch_trace,
)
from repro.policy.freqscale import (
    PowerAwareFrequencyPolicy,
    best_frequency,
    frequency_sweep,
)
from repro.policy.mlmatch import (
    ConfigMatcher,
    FEATURE_NAMES,
    trace_features,
    train_from_sweeps,
)
from repro.system.result import SimulationResult


class TestTraceFeatures:
    def test_feature_vector_shape(self):
        features = trace_features(wristwatch_trace(1.0, seed=1))
        assert features.shape == (len(FEATURE_NAMES),)

    def test_constant_trace_features(self):
        features = trace_features(constant_trace(100e-6, 1.0))
        mean, std, p95, duty, rate, mean_outage = features
        assert mean == pytest.approx(100e-6)
        assert std == pytest.approx(0.0)
        assert duty == pytest.approx(1.0)
        assert rate == 0.0

    def test_features_separate_source_classes(self):
        watch = trace_features(wristwatch_trace(2.0, seed=1))
        thermal = trace_features(thermal_trace(2.0, seed=1))
        # The wristwatch has far higher variability and outage rate.
        assert watch[1] / watch[0] > 5 * thermal[1] / thermal[0]


class TestConfigMatcher:
    def test_untrained_predict_rejected(self):
        with pytest.raises(RuntimeError):
            ConfigMatcher().predict(np.zeros(6))

    def test_fit_validation(self):
        matcher = ConfigMatcher()
        with pytest.raises(ValueError):
            matcher.fit([], [])
        with pytest.raises(ValueError):
            matcher.fit([np.zeros(6)], [0, 1])

    def test_knn_on_separable_clusters(self):
        rng = np.random.default_rng(0)
        lo = [np.array([1.0, 0.0]) + rng.normal(0, 0.05, 2) for _ in range(10)]
        hi = [np.array([5.0, 4.0]) + rng.normal(0, 0.05, 2) for _ in range(10)]
        matcher = ConfigMatcher(k=3)
        matcher.fit(lo + hi, [0] * 10 + [1] * 10)
        assert matcher.predict(np.array([1.1, 0.1])) == 0
        assert matcher.predict(np.array([4.9, 3.8])) == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ConfigMatcher(k=0)

    def test_train_from_sweeps_labels_by_argmax(self):
        traces = [
            wristwatch_trace(1.0, seed=s) for s in range(3)
        ] + [thermal_trace(1.0, seed=s) for s in range(3)]

        def evaluate(trace, config_index):
            # Config 0 "wins" on bursty traces, config 1 on smooth ones.
            burstiness = trace.samples_w.std() / trace.mean_power_w
            return -abs(config_index - (0 if burstiness > 1 else 1))

        matcher = train_from_sweeps(traces, n_configs=2, evaluate=evaluate, k=1)
        assert matcher.predict_trace(wristwatch_trace(1.0, seed=99)) == 0
        assert matcher.predict_trace(thermal_trace(1.0, seed=99)) == 1

    def test_train_validation(self):
        with pytest.raises(ValueError):
            train_from_sweeps([], n_configs=0, evaluate=lambda t, i: 0.0)


def fake_result(fp: int) -> SimulationResult:
    result = SimulationResult(label="x", duration_s=1.0)
    result.forward_progress = fp
    return result


class TestFrequencySweep:
    def test_sweep_calls_evaluate_per_frequency(self):
        seen = []

        def evaluate(freq):
            seen.append(freq)
            return fake_result(int(freq))

        sweep = frequency_sweep([1e6, 2e6, 4e6], evaluate)
        assert seen == [1e6, 2e6, 4e6]
        assert len(sweep) == 3

    def test_best_frequency(self):
        sweep = [(1e6, fake_result(10)), (2e6, fake_result(30)), (4e6, fake_result(20))]
        freq, result = best_frequency(sweep)
        assert freq == 2e6
        assert result.forward_progress == 30

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            frequency_sweep([], lambda f: fake_result(0))
        with pytest.raises(ValueError):
            best_frequency([])


class TestFrequencyPolicy:
    def test_untrained_rejected(self):
        with pytest.raises(RuntimeError):
            PowerAwareFrequencyPolicy().recommend(10e-6)

    def test_nearest_income_wins(self):
        policy = PowerAwareFrequencyPolicy()
        policy.add_training_point(10e-6, 0.5e6)
        policy.add_training_point(100e-6, 2e6)
        policy.add_training_point(1000e-6, 8e6)
        assert policy.recommend(12e-6) == 0.5e6
        assert policy.recommend(90e-6) == 2e6
        assert policy.recommend(2000e-6) == 8e6

    def test_log_scale_nearest(self):
        policy = PowerAwareFrequencyPolicy()
        policy.add_training_point(10e-6, 1e6)
        policy.add_training_point(1000e-6, 4e6)
        # 100 uW is geometrically equidistant; 99 uW is closer to 10 uW.
        assert policy.recommend(99e-6) == 1e6

    def test_validation(self):
        policy = PowerAwareFrequencyPolicy()
        with pytest.raises(ValueError):
            policy.add_training_point(0.0, 1e6)
        policy.add_training_point(1e-6, 1e6)
        with pytest.raises(ValueError):
            policy.recommend(0.0)

    def test_table(self):
        policy = PowerAwareFrequencyPolicy()
        policy.add_training_point(1e-6, 1e6)
        assert policy.table() == {1e-6: 1e6}
