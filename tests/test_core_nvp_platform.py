"""Scenario tests for the NVP platform state machine."""

import numpy as np
import pytest

from repro.core.config import NVPConfig
from repro.core.nvp import NVPPlatform
from repro.harvest.sources import constant_trace, square_trace
from repro.storage.capacitor import Capacitor, ChargeEfficiency
from repro.system.simulator import SystemSimulator
from repro.workloads.base import AbstractWorkload
from repro.workloads.suite import (
    KERNELS,
    build_kernel,
    expected_stream,
    make_functional_workload,
)

DT = 1e-4


def lossless_cap(capacitance=1e-6):
    return Capacitor(
        capacitance,
        v_max_v=3.3,
        leak_resistance_ohm=1e18,
        efficiency=ChargeEfficiency(1.0, 1.0, 0.0, 1.0),
    )


def make_platform(workload=None, config=None, capacitance=1e-6):
    workload = workload if workload is not None else AbstractWorkload()
    return NVPPlatform(workload, lossless_cap(capacitance), config, seed=0)


class TestBasicLifecycle:
    def test_starts_off_and_waits_for_energy(self):
        platform = make_platform()
        report = platform.tick(0.0, DT)
        assert report.state == "off"
        assert report.instructions == 0

    def test_wakes_once_start_threshold_reached(self):
        platform = make_platform()
        plan = platform.thresholds(DT)
        # Feed generous power until the platform restores.
        states = []
        for _ in range(200):
            states.append(platform.tick(2000e-6, DT).state)
            if states[-1] == "restore":
                break
        assert "restore" in states
        assert platform.storage.energy_j >= 0
        assert plan.start_threshold_j > plan.backup_threshold_j

    def test_runs_after_restore(self):
        platform = make_platform()
        executed = 0
        for _ in range(500):
            report = platform.tick(2000e-6, DT)
            executed += report.instructions
            if executed > 0:
                break
        assert executed > 0

    def test_first_wake_is_cold_start(self):
        platform = make_platform()
        for _ in range(500):
            if platform.tick(2000e-6, DT).state == "restore":
                break
        # No backup image yet, so no controller restore happened.
        assert platform.controller.restore_count == 0

    def test_abundant_power_needs_no_backups(self):
        platform = make_platform()
        for _ in range(2000):
            platform.tick(2000e-6, DT)
        assert platform.controller.backup_count == 0
        assert platform.ledger.volatile > 0


class TestBackupRestoreCycle:
    def run_square(self, duration=1.0, high=1000e-6):
        trace = square_trace(
            high_w=high, low_w=0.0, period_s=0.1, duty=0.5, duration_s=duration
        )
        platform = make_platform()
        result = SystemSimulator(trace, platform, stop_when_finished=False).run()
        return platform, result

    def test_power_cycles_cause_backups_and_restores(self):
        platform, result = self.run_square()
        assert result.backups >= 5
        assert result.restores >= 5
        # Each off-period triggers one backup (plus possibly threshold
        # oscillation), and one restore on recovery.
        assert result.failed_backups == 0
        assert result.rollbacks == 0

    def test_forward_progress_is_committed_work(self):
        platform, result = self.run_square()
        assert result.forward_progress > 0
        assert result.forward_progress == platform.ledger.persistent
        assert result.lost_instructions == 0

    def test_progress_survives_every_outage(self):
        """Persistent progress must be monotone non-decreasing."""
        trace = square_trace(
            high_w=1000e-6, low_w=0.0, period_s=0.05, duty=0.5, duration_s=0.5
        )
        platform = make_platform()
        last = 0
        for p in trace.samples_w:
            platform.tick(float(p), DT)
            assert platform.ledger.persistent >= last
            last = platform.ledger.persistent

    def test_backup_energy_accounted(self):
        platform, result = self.run_square()
        assert result.backup_energy_j > 0
        assert result.backup_energy_j == pytest.approx(
            platform.controller.total_backup_energy_j
        )


class TestFailureModes:
    def test_crash_without_backup_rolls_back(self):
        """If the tick's run energy exceeds what is stored, volatile
        work is lost."""
        platform = make_platform()
        plan = platform.thresholds(DT)
        # Get the platform running.
        for _ in range(500):
            if platform.tick(2000e-6, DT).state == "run":
                break
        platform.ledger.execute(0)  # no-op, platform is mid-run
        volatile_before = platform.ledger.volatile
        assert volatile_before > 0
        # Starve it: barely above the backup threshold, no income.
        platform.storage.set_energy(plan.backup_threshold_j * 1.0001)
        report = platform.tick(0.0, DT)
        # Either it backed up in time (energy fell to threshold) or the
        # run tick browned out; both must not lose accounting.
        total = (
            platform.ledger.persistent
            + platform.ledger.volatile
            + platform.ledger.lost
        )
        assert total == platform.ledger.total_executed
        assert report.state in ("backup", "run")

    def test_failed_backup_counts_and_rolls_back(self):
        platform = make_platform()
        for _ in range(500):
            if platform.tick(2000e-6, DT).state == "run":
                break
        plan = platform.thresholds(DT)
        # Force stored energy below the backup cost but also below the
        # trigger threshold, so the next tick attempts a backup and fails.
        platform.storage.set_energy(plan.backup_cost_j * 0.1)
        report = platform.tick(0.0, DT)
        assert report.state == "backup"
        assert platform.failed_backups == 1
        assert platform.ledger.rollbacks == 1

    def test_failed_restore_keeps_charging(self):
        platform = make_platform()
        # Simulate a prior successful backup so a restore is attempted.
        snapshot = platform.workload.snapshot()
        words = platform.workload.snapshot_words(snapshot)
        platform.controller.backup(words)
        plan = platform.thresholds(DT)
        # Energy at start threshold but restore draw will be re-checked;
        # make restore fail by setting energy below restore cost.
        restore_cost = platform.controller.restore_energy_j()
        if restore_cost < plan.start_threshold_j:
            pytest.skip("restore cost below start threshold; cannot fail here")

    def test_finished_workload_reports_done(self):
        workload = AbstractWorkload(total_units=1, instructions_per_unit=10)
        platform = make_platform(workload)
        for _ in range(2000):
            report = platform.tick(2000e-6, DT)
            if platform.finished:
                break
        assert platform.finished
        assert platform.tick(0.0, DT).state == "done"


class TestFunctionalUnderIntermittence:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_kernel_completes_exactly_despite_outages(self, name):
        """The headline NVP property: a real program finishes with
        bit-exact outputs across many power interruptions."""
        build = build_kernel(name)
        workload = make_functional_workload(build, frames=4)
        # A 22 nF backup capacitor cannot ride through the ~10 ms
        # outages, so every off-period forces a real backup/restore.
        platform = NVPPlatform(workload, lossless_cap(22e-9), NVPConfig(), seed=1)
        trace = square_trace(
            high_w=800e-6, low_w=0.0, period_s=0.011, duty=0.1, duration_s=10.0
        )
        result = SystemSimulator(trace, platform).run()
        assert result.completed, result.summary()
        assert result.backups >= 3  # it really was interrupted
        outputs = np.array(workload.outputs, dtype=np.uint16)
        assert np.array_equal(outputs, expected_stream(build, frames=4))

    def test_replay_idempotent_kernel_correct_after_rollback(self):
        """Drive a functional workload into a mid-frame restore and
        confirm outputs stay exact (sobel is replay-idempotent)."""
        build = build_kernel("sobel", size=8)
        workload = make_functional_workload(build, frames=1)
        platform = NVPPlatform(workload, lossless_cap(22e-9), NVPConfig(), seed=2)
        # Short on-bursts guarantee several backup/restore cycles per frame.
        trace = square_trace(
            high_w=800e-6, low_w=0.0, period_s=0.005, duty=0.1, duration_s=10.0
        )
        result = SystemSimulator(trace, platform).run()
        assert result.completed
        assert result.restores >= 2
        outputs = np.array(workload.outputs, dtype=np.uint16)
        assert np.array_equal(outputs, build.expected_output)


class TestStats:
    def test_stats_keys_complete(self):
        platform = make_platform()
        platform.tick(100e-6, DT)
        stats = platform.stats()
        for key in (
            "forward_progress", "total_executed", "lost_instructions",
            "units_completed", "backups", "restores", "failed_backups",
            "failed_restores", "rollbacks", "consumed_j",
            "backup_energy_j", "restore_energy_j", "flipped_bits",
            "volatile_at_end",
        ):
            assert key in stats
