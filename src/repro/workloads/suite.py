"""Kernel registry and workload factories.

``KERNELS`` maps kernel names to their build functions.  Helpers turn
a :class:`~repro.workloads.asmkit.KernelBuild` into a functional
workload and its expected output stream.  A kernel's measured
instruction mix is :func:`repro.analysis.profiler.profile_program`'s.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.isa.energy import EnergyModel
from repro.workloads import crc, dft, fir, histogram, integral, matmul, median
from repro.workloads import morphology, rle, sobel, strsearch
from repro.workloads.asmkit import KernelBuild
from repro.workloads.base import FunctionalWorkload

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
