"""Test corpus: kernels written in NVC and compiled to NV16.

Not part of the package: the compiler tests and the block-engine
diffs use these to drive the compiler path end to end.  They are the
same sensing kernels the assembly suite provides, expressed in the
high-level language, compiled, and packaged as
:class:`~repro.workloads.asmkit.KernelBuild` objects with bit-exact
NumPy references.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.lang.codegen import compile_source
from repro.workloads.asmkit import KernelBuild
from repro.workloads.images import test_image, test_signal


def _int_list(values) -> str:
    return ", ".join(str(int(v) & 0xFFFF) for v in np.asarray(values).ravel())


# ---- moving average ---------------------------------------------------------


def moving_average_reference(signal: np.ndarray, window: int = 4) -> np.ndarray:
    """Reference: truncated mean over a sliding window."""
    data = np.asarray(signal, dtype=np.int64).ravel()
    if len(data) < window:
        raise ValueError("signal shorter than the window")
    out = [
        int(data[i : i + window].sum()) // window
        for i in range(len(data) - window + 1)
    ]
    return np.array(out, dtype=np.uint16)


def moving_average_source(signal: np.ndarray, window: int = 4) -> str:
    """NVC source for the moving-average kernel over ``signal``."""
    n = len(np.asarray(signal).ravel())
    return f"""
int sig[{n}] = {{{_int_list(signal)}}};

func main() {{
    int i; int k; int acc;
    for (i = 0; i <= {n - window}; i = i + 1) {{
        acc = 0;
        for (k = 0; k < {window}; k = k + 1) {{ acc = acc + sig[i + k]; }}
        out(acc / {window});
    }}
}}
"""


def build_moving_average(
    signal: Optional[np.ndarray] = None, length: int = 64, seed: int = 7
) -> KernelBuild:
    """Compile the moving-average kernel for a signal."""
    data = test_signal(length, seed) if signal is None else np.asarray(signal)
    compiled = compile_source(moving_average_source(data))
    return KernelBuild(
        name="nvc-moving-average",
        program=compiled.program,
        expected_output=moving_average_reference(data),
        params={"length": len(data)},
    )


# ---- sobel ---------------------------------------------------------------------


def sobel_source(image: np.ndarray) -> str:
    """NVC source for the Sobel kernel (flat row-major image)."""
    height, width = image.shape
    return f"""
int img[{height * width}] = {{{_int_list(image)}}};

func absval(v) {{
    if (v < 0) {{ return 0 - v; }}   // comparisons are signed
    return v;
}}

func main() {{
    int y; int x; int gx; int gy; int mag; int p;
    for (y = 1; y < {height - 1}; y = y + 1) {{
        for (x = 1; x < {width - 1}; x = x + 1) {{
            p = y * {width} + x;
            gx = img[p - {width} + 1] + 2 * img[p + 1] + img[p + {width} + 1]
               - img[p - {width} - 1] - 2 * img[p - 1] - img[p + {width} - 1];
            gy = img[p + {width} - 1] + 2 * img[p + {width}] + img[p + {width} + 1]
               - img[p - {width} - 1] - 2 * img[p - {width}] - img[p - {width} + 1];
            mag = absval(gx) + absval(gy);
            if (mag > 255) {{ mag = 255; }}
            out(mag);
        }}
    }}
}}
"""


def build_sobel(
    image: Optional[np.ndarray] = None, size: int = 12, seed: int = 7
) -> KernelBuild:
    """Compile the NVC Sobel kernel for an image."""
    from repro.workloads.sobel import reference

    img = test_image(size, seed) if image is None else np.asarray(image)
    compiled = compile_source(sobel_source(img))
    return KernelBuild(
        name="nvc-sobel",
        program=compiled.program,
        expected_output=reference(img),
        params={"height": img.shape[0], "width": img.shape[1]},
    )


# ---- threshold count ----------------------------------------------------------


def threshold_count_reference(image: np.ndarray, threshold: int = 128) -> np.ndarray:
    """Reference: number of pixels strictly above the threshold."""
    data = np.asarray(image, dtype=np.int64).ravel()
    return np.array([int((data > threshold).sum())], dtype=np.uint16)


def threshold_count_source(image: np.ndarray, threshold: int = 128) -> str:
    """NVC source counting pixels above a threshold."""
    flat = np.asarray(image).ravel()
    return f"""
int img[{len(flat)}] = {{{_int_list(flat)}}};

func main() {{
    int i; int count;
    count = 0;
    for (i = 0; i < {len(flat)}; i = i + 1) {{
        if (img[i] > {threshold}) {{ count = count + 1; }}
    }}
    out(count);
}}
"""


def build_threshold_count(
    image: Optional[np.ndarray] = None,
    size: int = 16,
    threshold: int = 128,
    seed: int = 7,
) -> KernelBuild:
    """Compile the threshold-count kernel for an image."""
    img = test_image(size, seed) if image is None else np.asarray(image)
    compiled = compile_source(threshold_count_source(img, threshold))
    return KernelBuild(
        name="nvc-threshold-count",
        program=compiled.program,
        expected_output=threshold_count_reference(img, threshold),
        params={"size": img.size, "threshold": threshold},
    )


#: Compiled-kernel registry (parallel to the hand-written-assembly one).
NVC_KERNELS = {
    "nvc-moving-average": build_moving_average,
    "nvc-sobel": build_sobel,
    "nvc-threshold-count": build_threshold_count,
}
