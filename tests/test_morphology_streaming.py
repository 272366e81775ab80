"""Tests for the morphology kernels."""

import numpy as np
import pytest

from repro.isa.cpu import CPU
from repro.workloads import morphology
from repro.workloads.images import test_image as make_image
from repro.workloads.suite import build_kernel


def execute(build):
    cpu = CPU(build.program.instructions)
    cpu.memory.load_image(build.program.data_image)
    cpu.run(max_instructions=2_000_000)
    assert cpu.state.halted
    return np.array(cpu.memory.output, dtype=np.uint16)


class TestMorphology:
    @pytest.mark.parametrize("op", ["erode", "dilate"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference(self, op, seed):
        build = build_kernel(op, size=10, seed=seed)
        assert np.array_equal(execute(build), build.expected_output)

    def test_erode_shrinks_dilate_grows(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[3:5, 3:5] = 200  # a small bright blob
        eroded = morphology.reference(img, "erode")
        dilated = morphology.reference(img, "dilate")
        assert eroded.sum() < dilated.sum()
        assert eroded.max() == 0       # 2x2 blob fully eroded by 3x3 min
        assert (dilated == 200).sum() >= 4

    def test_flat_image_unchanged(self):
        img = np.full((6, 6), 80, dtype=np.uint8)
        assert np.all(morphology.reference(img, "erode") == 80)
        assert np.all(morphology.reference(img, "dilate") == 80)

    def test_erode_le_dilate_everywhere(self):
        img = make_image(10, seed=4)
        assert np.all(
            morphology.reference(img, "erode")
            <= morphology.reference(img, "dilate")
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            morphology.reference(np.zeros((2, 2)), "erode")
        with pytest.raises(ValueError):
            morphology.reference(np.zeros((5, 5)), "open")
        with pytest.raises(ValueError):
            morphology.assembly(5, 5, op="close")
