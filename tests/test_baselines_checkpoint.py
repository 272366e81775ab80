"""Scenario tests for the software-checkpointing baselines."""

import numpy as np
import pytest

from repro.baselines.checkpoint import CheckpointConfig, CheckpointPlatform
from repro.core.config import NVPConfig
from repro.core.nvp import NVPPlatform
from repro.harvest.sources import constant_trace, square_trace
from repro.storage.capacitor import Capacitor, ChargeEfficiency
from repro.system.presets import build_checkpoint, standard_rectifier
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload
from repro.workloads.suite import (
    KERNELS,
    build_kernel,
    expected_stream,
    make_functional_workload,
)

DT = 1e-4


def lossless_cap(capacitance=4.7e-6):
    return Capacitor(
        capacitance,
        v_max_v=3.3,
        leak_resistance_ohm=1e18,
        efficiency=ChargeEfficiency(1.0, 1.0, 0.0, 1.0),
    )


def make_platform(config=None, units=None):
    workload = AbstractWorkload(total_units=units, instructions_per_unit=5_000)
    return CheckpointPlatform(workload, lossless_cap(), config)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_words": 0},
            {"instructions_per_word": 0},
            {"margin": 0.5},
            {"boot_time_s": -1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CheckpointConfig(**kwargs)

    def test_rejects_volatile_technology(self):
        from repro.nvm.technology import SRAM_REFERENCE

        with pytest.raises(ValueError):
            CheckpointConfig(technology=SRAM_REFERENCE)


class TestCostModel:
    def test_checkpoint_dearer_than_hardware_backup(self):
        """A software checkpoint (copy loop + conservative RAM window)
        must cost far more than an NVP's distributed hardware backup."""
        checkpoint = make_platform()
        nvp = NVPPlatform(AbstractWorkload(), lossless_cap(), NVPConfig())
        assert (
            checkpoint.checkpoint_energy_j()
            > 5 * nvp.controller.worst_case_backup_energy_j()
        )

    def test_restore_includes_boot(self):
        platform = make_platform()
        assert platform.restore_time_s() >= platform.config.boot_time_s

    def test_bigger_ram_window_costs_more(self):
        small = make_platform(CheckpointConfig(checkpoint_words=32))
        large = make_platform(CheckpointConfig(checkpoint_words=512))
        assert large.checkpoint_energy_j() > 4 * small.checkpoint_energy_j()


class TestVoltageTrigger:
    def run_square(self, duration=2.0):
        # A 0.33 uF reservoir (~1.8 uJ) cannot bridge the 100 ms
        # outages, so every off-period forces a checkpoint.
        workload = AbstractWorkload(instructions_per_unit=5_000)
        platform = CheckpointPlatform(
            workload, lossless_cap(0.33e-6), CheckpointConfig()
        )
        trace = square_trace(
            high_w=1000e-6, low_w=0.0, period_s=0.2, duty=0.5, duration_s=duration
        )
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        return platform, result

    def test_checkpoints_on_energy_droop(self):
        platform, result = self.run_square()
        assert result.backups >= 3
        assert result.restores >= 3
        assert result.forward_progress > 0

    def test_progress_survives_outages(self):
        platform, result = self.run_square()
        assert platform.ledger.persistent > 0
        assert result.rollbacks == 0

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_kernel_finishes_exactly_across_outages(self, name):
        """Each restore resumes from the checkpoint the droop just took,
        so nothing is replayed: every kernel, the histogram's NVM
        read-modify-writes included, ends with its reference outputs."""
        build = build_kernel(name)
        workload = make_functional_workload(build, frames=2)
        # 1.1 ms bursts every 11 ms: each frame spans several outages.
        trace = square_trace(
            high_w=800e-6, low_w=0.0, period_s=0.011, duty=0.1, duration_s=5.0
        )
        result = SystemSimulator(
            trace, build_checkpoint(workload), rectifier=standard_rectifier()
        ).run()
        assert result.completed, result.summary()
        assert result.backups >= 3
        assert result.rollbacks == 0
        outputs = np.array(workload.outputs, dtype=np.uint16)
        assert np.array_equal(outputs, expected_stream(build, frames=2))


class TestStats:
    def test_stats_report_checkpoint_energy(self):
        platform, result = TestVoltageTrigger().run_square(duration=1.0)
        assert result.backup_energy_j > 0
        assert result.restore_energy_j > 0
