"""nvpsim — a behavioral simulation framework for nonvolatile processors.

Reproduction of *"Nonvolatile processors: Why is it trending?"*
(F. Su, K. Ma, X. Li, T. Wu, Y. Liu, V. Narayanan — DATE 2017): an
end-to-end model of batteryless, energy-harvesting IoT systems built
around NVPs, spanning the NVM device layer, the MCU architecture, the
harvesting/storage front end, the system-level power-management state
machine, the conventional baselines, and the adaptive policies the
tutorial surveys.

Quick start::

    from repro import (
        wristwatch_trace, standard_rectifier, AbstractWorkload,
        build_nvp, build_wait_compute, SystemSimulator,
    )

    trace = wristwatch_trace(10.0, seed=1)
    nvp = build_nvp(AbstractWorkload())
    result = SystemSimulator(trace, nvp, rectifier=standard_rectifier()).run()
    print(result.summary())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduced experiment suite.
"""

from repro.core import (
    BackupController,
    CompareAndWriteBackup,
    ForwardProgressLedger,
    FullBackup,
    IncrementalWordBackup,
    NVPConfig,
    NVPPlatform,
    WakeupModel,
)
from repro.baselines import (
    CheckpointConfig,
    CheckpointPlatform,
    OraclePlatform,
    WaitComputePlatform,
)
from repro.harvest import (
    PowerTrace,
    Rectifier,
    analyze_outages,
    combine_traces,
    constant_trace,
    hybrid_trace,
    rf_trace,
    solar_trace,
    square_trace,
    standard_profiles,
    thermal_trace,
    wristwatch_trace,
)
from repro.exp import (
    ExperimentSpec,
    ResultCache,
    RunRecord,
    SweepOutcome,
    SweepRunner,
)
from repro.isa.energy import EnergyModel, dvfs_model
from repro.policy import (
    ConfigMatcher,
    EnergyBandGovernor,
    PowerAwareFrequencyPolicy,
)
from repro.storage.frontend import DualChannelFrontEnd, SingleChannelFrontEnd
from repro.system.peripherals import (
    ADC_10BIT,
    IMAGE_SENSOR,
    Peripheral,
    PeripheralSet,
    RADIO_TRX,
)
from repro.nvm import (
    FERAM,
    LinearPolicy,
    LogPolicy,
    NVMArray,
    NVMTechnology,
    ParabolaPolicy,
    RERAM,
    STT_MRAM,
    TECHNOLOGIES,
    UniformPolicy,
    technology_by_name,
)
from repro.storage import Capacitor, ChargeEfficiency, IdealStorage, TieredStorage
from repro.system import (
    PeriodicTask,
    ScheduleReport,
    SimulationResult,
    SystemSimulator,
    Telemetry,
    plan_thresholds,
    schedule_replay,
)
from repro.system.presets import (
    build_checkpoint,
    build_nvp,
    build_oracle,
    build_wait_compute,
    checkpoint_capacitor,
    nvp_capacitor,
    standard_rectifier,
    supercap,
)
from repro.workloads import AbstractWorkload, FunctionalWorkload, Workload
from repro.workloads.suite import (
    KERNELS,
    build_kernel,
    expected_stream,
    make_functional_workload,
)
from repro.quality import mse, psnr

__version__ = "1.0.0"

__all__ = [
    "ADC_10BIT",
    "AbstractWorkload",
    "BackupController",
    "ConfigMatcher",
    "DualChannelFrontEnd",
    "EnergyBandGovernor",
    "EnergyModel",
    "ExperimentSpec",
    "ResultCache",
    "RunRecord",
    "SweepOutcome",
    "SweepRunner",
    "IMAGE_SENSOR",
    "Peripheral",
    "PeripheralSet",
    "PeriodicTask",
    "PowerAwareFrequencyPolicy",
    "RADIO_TRX",
    "ScheduleReport",
    "SingleChannelFrontEnd",
    "Telemetry",
    "TieredStorage",
    "schedule_replay",
    "combine_traces",
    "dvfs_model",
    "hybrid_trace",
    "Capacitor",
    "ChargeEfficiency",
    "CheckpointConfig",
    "CheckpointPlatform",
    "CompareAndWriteBackup",
    "FERAM",
    "ForwardProgressLedger",
    "FullBackup",
    "FunctionalWorkload",
    "IdealStorage",
    "IncrementalWordBackup",
    "KERNELS",
    "LinearPolicy",
    "LogPolicy",
    "NVMArray",
    "NVMTechnology",
    "NVPConfig",
    "NVPPlatform",
    "OraclePlatform",
    "ParabolaPolicy",
    "PowerTrace",
    "RERAM",
    "Rectifier",
    "STT_MRAM",
    "SimulationResult",
    "SystemSimulator",
    "TECHNOLOGIES",
    "UniformPolicy",
    "WaitComputePlatform",
    "WakeupModel",
    "Workload",
    "analyze_outages",
    "build_checkpoint",
    "build_kernel",
    "build_nvp",
    "build_oracle",
    "build_wait_compute",
    "checkpoint_capacitor",
    "constant_trace",
    "expected_stream",
    "make_functional_workload",
    "mse",
    "nvp_capacitor",
    "plan_thresholds",
    "psnr",
    "rf_trace",
    "solar_trace",
    "square_trace",
    "standard_profiles",
    "standard_rectifier",
    "supercap",
    "technology_by_name",
    "thermal_trace",
    "wristwatch_trace",
]
