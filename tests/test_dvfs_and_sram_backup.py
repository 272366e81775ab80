"""Tests for the DVFS energy model and SRAM working-set backup."""

import pytest

from repro.core.backup import BackupController
from repro.core.config import NVPConfig
from repro.isa.energy import DEFAULT_FREQUENCY, EnergyModel, InstrClass, dvfs_model
from repro.nvm.retention import LogPolicy, UniformPolicy
from repro.nvm.technology import STT_MRAM


class TestDVFSModel:
    def test_reference_point_matches_default(self):
        model = dvfs_model(DEFAULT_FREQUENCY)
        assert model.vdd == pytest.approx(1.0)
        assert model.frequency_hz == DEFAULT_FREQUENCY

    def test_vdd_grows_with_frequency(self):
        slow = dvfs_model(0.25e6)
        fast = dvfs_model(8e6)
        assert slow.vdd < 1.0 < fast.vdd

    def test_dynamic_energy_grows_with_frequency(self):
        slow = dvfs_model(0.5e6)
        fast = dvfs_model(4e6)
        assert fast.instruction_energy(InstrClass.ALU) > slow.instruction_energy(
            InstrClass.ALU
        )

    def test_leakage_per_instruction_shrinks_with_frequency(self):
        """The countervailing force: at a fixed VDD, leakage per
        instruction falls as 1/f."""
        slow = EnergyModel(frequency_hz=0.25e6)
        fast = EnergyModel(frequency_hz=4e6)
        leak_slow = slow.static_power_w * slow.instruction_time(InstrClass.ALU)
        leak_fast = fast.static_power_w * fast.instruction_time(InstrClass.ALU)
        assert leak_fast < leak_slow

    def test_energy_per_instruction_has_interior_minimum(self):
        """DVFS + leakage create an optimal operating point."""
        freqs = [0.0625e6, 0.25e6, 1e6, 4e6, 16e6]
        energies = [
            dvfs_model(f).instruction_energy(InstrClass.ALU) for f in freqs
        ]
        best = energies.index(min(energies))
        assert 0 < best < len(freqs) - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dvfs_model(0.0)
        with pytest.raises(ValueError):
            dvfs_model(1e6, f_ref_hz=0.0)


class TestSRAMBackup:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NVPConfig(sram_backup_words=-1)

    def test_backup_energy_includes_working_set(self):
        bare = BackupController(NVPConfig(), data_words=8)
        loaded = BackupController(
            NVPConfig(sram_backup_words=1024), data_words=8
        )
        assert (
            loaded.worst_case_backup_energy_j()
            > 10 * bare.worst_case_backup_energy_j()
        )
        assert loaded.total_backup_bits == bare.total_backup_bits + 1024 * 16

    def test_restore_costs_include_working_set(self):
        bare = BackupController(NVPConfig(), data_words=8)
        loaded = BackupController(NVPConfig(sram_backup_words=1024), data_words=8)
        assert loaded.restore_energy_j() > bare.restore_energy_j()
        assert loaded.restore_time_s() > bare.restore_time_s()

    def test_plan_charges_sram_bits(self):
        controller = BackupController(
            NVPConfig(sram_backup_words=64), data_words=8
        )
        plan = controller.plan_backup([0] * 8)
        # control words + 8 register words + 64 sram words.
        assert plan.bits_written >= 64 * 16

    def test_commit_and_read_roundtrip_with_sram(self):
        controller = BackupController(
            NVPConfig(sram_backup_words=16), data_words=8
        )
        words = list(range(8))
        controller.backup(words)
        restored, _, _ = controller.read_image()
        assert restored == words  # only the register words come back

    def test_retention_policy_applies_to_sram_words(self):
        precise = BackupController(
            NVPConfig(technology=STT_MRAM, sram_backup_words=256),
            data_words=8,
        )
        relaxed = BackupController(
            NVPConfig(
                technology=STT_MRAM,
                retention_policy=LogPolicy(1e-3, STT_MRAM.retention_s),
                sram_backup_words=256,
            ),
            data_words=8,
        )
        saving = 1 - (
            relaxed.worst_case_backup_energy_j()
            / precise.worst_case_backup_energy_j()
        )
        # With the image dominated by relaxable words the system saving
        # approaches the device-level saving.
        assert saving > 0.3

    def test_sram_words_age_in_stats(self, rng):
        controller = BackupController(
            NVPConfig(
                technology=STT_MRAM,
                retention_policy=UniformPolicy(1e-3),
                sram_backup_words=128,
            ),
            data_words=8,
        )
        controller.backup([0] * 8)
        flips = controller.age(1.0, rng)  # outage >> retention
        assert flips > 0
