"""Kernel registry and workload factories.

``KERNELS`` maps kernel names to their build functions.  Helpers turn
a :class:`~repro.workloads.asmkit.KernelBuild` into a functional
workload, measure a kernel's instruction mix by direct execution, and
derive a statistics-matched abstract twin for fast sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.isa.cpu import CPU
from repro.isa.energy import EnergyModel, InstrClass, classify
from repro.isa.memory import MemoryMap
from repro.workloads import crc, dft, fir, histogram, integral, matmul, median
from repro.workloads import morphology, rle, sobel, strsearch
from repro.workloads.asmkit import KernelBuild
from repro.workloads.base import AbstractWorkload, FunctionalWorkload

#: All registered kernels: name -> build function (keyword arguments
#: are kernel-specific; every builder accepts ``seed``).
KERNELS: Dict[str, Callable[..., KernelBuild]] = {
    "sobel": sobel.build,
    "median": median.build,
    "integral": integral.build,
    "crc": crc.build,
    "fir": fir.build,
    "histogram": histogram.build,
    "rle": rle.build,
    "matmul": matmul.build,
    "strsearch": strsearch.build,
    "dft": dft.build,
    "erode": morphology.build_erode,
    "dilate": morphology.build_dilate,
}

#: Keyword each kernel uses for its primary input array (used by the
#: streaming-workload helper; matmul is excluded — it takes a pair).
KERNEL_INPUT_KEYWORD: Dict[str, str] = {
    "sobel": "image",
    "median": "image",
    "integral": "image",
    "erode": "image",
    "dilate": "image",
    "crc": "data",
    "fir": "data",
    "histogram": "data",
    "rle": "data",
    "strsearch": "data",
    "dft": "data",
}


def build_kernel(name: str, **kwargs) -> KernelBuild:
    """Build a registered kernel by name.

    Raises:
        KeyError: for unknown kernel names.
    """
    if name not in KERNELS:
        raise KeyError(f"unknown kernel {name!r}; known: {sorted(KERNELS)}")
    return KERNELS[name](**kwargs)


def make_functional_workload(
    build: KernelBuild,
    frames: int = 1,
    energy_model: Optional[EnergyModel] = None,
    block_engine: bool = True,
) -> FunctionalWorkload:
    """Wrap a built kernel as a frame-structured functional workload.

    ``block_engine=False`` runs it on the NV16 interpreter (see
    :class:`~repro.workloads.base.FunctionalWorkload`).
    """
    return FunctionalWorkload(
        build.program, total_units=frames, energy_model=energy_model,
        block_engine=block_engine,
    )


def expected_stream(build: KernelBuild, frames: int = 1) -> np.ndarray:
    """The reference MMIO output stream for ``frames`` repetitions."""
    if frames < 1:
        raise ValueError("frames must be positive")
    return np.tile(build.expected_output, frames)


def measure_kernel(
    build: KernelBuild, energy_model: Optional[EnergyModel] = None
) -> Dict[str, float]:
    """Execute one frame to completion and profile it.

    Returns a dict with ``instructions``, ``cycles``, ``energy_j``,
    ``time_s`` and per-class mix fractions under ``mix_<class>`` keys.
    """
    model = energy_model if energy_model is not None else EnergyModel()
    cpu = CPU(build.program.instructions, MemoryMap(), model)
    cpu.memory.load_image(build.program.data_image)
    class_counts: Dict[InstrClass, int] = {}
    while not cpu.state.halted:
        info = cpu.step()
        class_counts[info.instr_class] = class_counts.get(info.instr_class, 0) + 1
        if cpu.instructions_retired > 20_000_000:
            raise RuntimeError(f"kernel {build.name} did not halt")
    total = cpu.instructions_retired
    profile: Dict[str, float] = {
        "instructions": float(total),
        "cycles": float(cpu.cycles),
        "energy_j": cpu.energy_j,
        "time_s": cpu.cycles * model.cycle_time_s,
    }
    for cls, count in class_counts.items():
        profile[f"mix_{cls.value}"] = count / total
    return profile


def measured_mix(build: KernelBuild) -> Dict[InstrClass, float]:
    """Instruction-class mix of a kernel, measured by execution."""
    profile = measure_kernel(build)
    mix: Dict[InstrClass, float] = {}
    for cls in InstrClass:
        key = f"mix_{cls.value}"
        if key in profile:
            mix[cls] = profile[key]
    return mix


def make_streaming_workload(
    name: str,
    inputs,
    energy_model: Optional[EnergyModel] = None,
    **kwargs,
):
    """A functional workload fed a *different* input per frame.

    Builds the kernel once per input (all inputs must share the first
    input's shape so the program is identical) and returns
    ``(workload, expected_stream)`` where the expected stream is the
    concatenation of each frame's reference output.

    Raises:
        KeyError: for unknown kernels or kernels without a single
            input array (``matmul``).
        ValueError: for empty or shape-mismatched input lists.
    """
    if name not in KERNEL_INPUT_KEYWORD:
        raise KeyError(
            f"kernel {name!r} does not support streaming inputs; "
            f"known: {sorted(KERNEL_INPUT_KEYWORD)}"
        )
    if len(inputs) == 0:
        raise ValueError("need at least one input frame")
    keyword = KERNEL_INPUT_KEYWORD[name]
    builds = []
    first_shape = np.asarray(inputs[0]).shape
    for frame in inputs:
        if np.asarray(frame).shape != first_shape:
            raise ValueError("all streamed frames must share one shape")
        builds.append(build_kernel(name, **{keyword: np.asarray(frame)}, **kwargs))
    workload = FunctionalWorkload(
        builds[0].program,
        total_units=len(builds),
        energy_model=energy_model,
        data_images=[build.program.data_image for build in builds],
    )
    expected = np.concatenate([build.expected_output for build in builds])
    return workload, expected.astype(np.uint16)


def abstract_twin(
    build: KernelBuild,
    frames: Optional[int] = None,
    energy_model: Optional[EnergyModel] = None,
) -> AbstractWorkload:
    """An abstract workload statistically matched to a kernel.

    The twin replays the kernel's measured instruction mix and
    per-frame instruction count — the fast path for long sweeps.
    """
    profile = measure_kernel(build, energy_model)
    mix = {
        cls: profile[f"mix_{cls.value}"]
        for cls in InstrClass
        if f"mix_{cls.value}" in profile
    }
    return AbstractWorkload(
        total_units=frames,
        instructions_per_unit=int(profile["instructions"]),
        energy_model=energy_model,
        mix=mix,
    )
