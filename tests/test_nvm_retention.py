"""Unit tests for retention-shaping policies and the failure model."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nvm.retention import (
    LinearPolicy,
    LogPolicy,
    ParabolaPolicy,
    RetentionPolicy,
    UniformPolicy,
    failure_probability,
    policy_backup_energy_j,
    sample_bit_failures,
)
from repro.nvm.technology import FERAM, STT_MRAM

DAY = 86_400.0
POLICIES = [
    UniformPolicy(DAY),
    LinearPolicy(1e-3, DAY),
    LogPolicy(1e-3, DAY),
    ParabolaPolicy(1e-3, DAY),
]


class TestProfiles:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_profiles_validate(self, policy):
        policy.validate(8)
        policy.validate(16)

    @pytest.mark.parametrize(
        "policy", POLICIES[1:], ids=lambda p: p.name
    )
    def test_msb_gets_full_retention(self, policy):
        assert policy.retention_s(15, 16) == pytest.approx(DAY)

    @pytest.mark.parametrize(
        "policy", POLICIES[1:], ids=lambda p: p.name
    )
    def test_lsb_gets_relaxed_retention(self, policy):
        assert policy.retention_s(0, 16) == pytest.approx(1e-3)

    def test_log_is_most_aggressive_in_the_middle(self):
        linear = LinearPolicy(1e-3, DAY)
        log = LogPolicy(1e-3, DAY)
        parabola = ParabolaPolicy(1e-3, DAY)
        for bit in range(1, 15):
            assert log.retention_s(bit, 16) <= linear.retention_s(bit, 16)
        # Parabola keeps mid bits below linear (conservative shape rises late).
        assert parabola.retention_s(8, 16) < linear.retention_s(8, 16)

    def test_single_bit_word(self):
        assert LinearPolicy(1e-3, DAY).retention_s(0, 1) == pytest.approx(DAY)

    def test_bit_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LinearPolicy(1e-3, DAY).retention_s(16, 16)

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            LinearPolicy(DAY, 1e-3)
        with pytest.raises(ValueError):
            LogPolicy(0.0, DAY)

    def test_uniform_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UniformPolicy(0.0)

    def test_monotonicity_enforced_by_validate(self):
        class Broken(RetentionPolicy):
            name = "broken"

            def retention_s(self, bit, width=16):
                return 10.0 - bit

        with pytest.raises(ValueError, match="monotonic"):
            Broken().validate(4)


class TestFailureModel:
    def test_probability_limits(self):
        assert failure_probability(0.0, 1.0) == 0.0
        assert failure_probability(100.0, 1e-3) == pytest.approx(1.0)

    def test_probability_value(self):
        assert failure_probability(1.0, 1.0) == pytest.approx(1 - math.exp(-1))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            failure_probability(-1.0, 1.0)
        with pytest.raises(ValueError):
            failure_probability(1.0, 0.0)

    def test_sampling_no_outage_no_failures(self, rng):
        mask = sample_bit_failures(LinearPolicy(1e-3, DAY), 0.0, 16, rng)
        assert mask == 0

    def test_sampling_hits_low_bits_first(self, rng):
        """For a 10 ms outage, LSBs (1 ms retention) almost surely relax
        while MSBs (1 day) almost surely survive."""
        policy = LinearPolicy(1e-3, DAY)
        lsb_failures = 0
        msb_failures = 0
        for _ in range(200):
            mask = sample_bit_failures(policy, 10e-3, 16, rng)
            lsb_failures += mask & 1
            msb_failures += (mask >> 15) & 1
        assert lsb_failures > 190
        assert msb_failures == 0


class TestPolicyEnergy:
    def test_relaxation_saves_energy(self):
        precise = policy_backup_energy_j(UniformPolicy(STT_MRAM.retention_s), STT_MRAM)
        relaxed = policy_backup_energy_j(LinearPolicy(1e-3, STT_MRAM.retention_s), STT_MRAM)
        assert relaxed < precise

    def test_energy_ordering_log_cheapest(self):
        t_max = STT_MRAM.retention_s
        linear = policy_backup_energy_j(LinearPolicy(1e-3, t_max), STT_MRAM)
        log = policy_backup_energy_j(LogPolicy(1e-3, t_max), STT_MRAM)
        parabola = policy_backup_energy_j(ParabolaPolicy(1e-3, t_max), STT_MRAM)
        assert log < parabola < linear or log < linear  # log always cheapest
        assert log == min(log, linear, parabola)

    def test_uniform_at_nominal_matches_catalog_energy(self):
        energy = policy_backup_energy_j(UniformPolicy(STT_MRAM.retention_s), STT_MRAM, 16)
        assert energy == pytest.approx(16 * STT_MRAM.write_energy_j_per_bit, rel=1e-9)

    def test_non_relaxable_technology_rejects_relaxation(self):
        with pytest.raises(ValueError, match="retention relaxation"):
            policy_backup_energy_j(LinearPolicy(1e-3, FERAM.retention_s), FERAM)

    def test_non_relaxable_technology_accepts_uniform_nominal(self):
        energy = policy_backup_energy_j(UniformPolicy(FERAM.retention_s), FERAM, 16)
        assert energy == pytest.approx(16 * FERAM.write_energy_j_per_bit, rel=1e-9)


@given(
    outage=st.floats(min_value=0.0, max_value=1e6),
    retention=st.floats(min_value=1e-9, max_value=1e9),
)
def test_failure_probability_in_unit_interval(outage, retention):
    probability = failure_probability(outage, retention)
    assert 0.0 <= probability <= 1.0
