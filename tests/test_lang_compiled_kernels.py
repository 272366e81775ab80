"""Compiled-kernel correctness plus a differential compiler fuzzer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.cpu import CPU
from repro.lang.codegen import compile_source
from repro.lang.interp import interpret
from repro.workloads.images import test_image as make_image
from tests.nvc_kernels import (
    NVC_KERNELS,
    build_moving_average,
    build_sobel,
    build_threshold_count,
    moving_average_reference,
)


def execute(build, max_instructions=2_000_000):
    cpu = CPU(build.program.instructions)
    cpu.memory.load_image(build.program.data_image)
    cpu.run(max_instructions=max_instructions)
    assert cpu.state.halted
    return np.array(cpu.memory.output, dtype=np.uint16)


class TestCompiledKernels:
    @pytest.mark.parametrize("name", sorted(NVC_KERNELS))
    def test_matches_reference(self, name):
        build = NVC_KERNELS[name]()
        outputs = execute(build)
        assert np.array_equal(outputs, build.expected_output), name

    def test_nvc_sobel_matches_assembly_sobel(self):
        """The compiled Sobel and the hand-written assembly Sobel must
        agree exactly (both match the shared NumPy reference)."""
        from repro.workloads.sobel import build as asm_build

        img = make_image(10, seed=5)
        compiled = execute(build_sobel(image=img))
        assembly = execute(asm_build(image=img))
        assert np.array_equal(compiled, assembly)

    def test_moving_average_window_values(self):
        signal = np.array([4, 8, 12, 16, 20, 24], dtype=np.uint8)
        build = build_moving_average(signal=signal)
        assert list(execute(build)) == [10, 14, 18]
        assert list(moving_average_reference(signal)) == [10, 14, 18]

    def test_threshold_count_exact(self):
        img = np.array([[100, 200], [128, 129]], dtype=np.uint8)
        build = build_threshold_count(image=img, threshold=128)
        assert list(execute(build)) == [2]

    def test_compiled_kernel_runs_under_intermittent_power(self):
        """A compiled kernel survives NVP power cycling bit-exactly."""
        from repro.core.config import NVPConfig
        from repro.core.nvp import NVPPlatform
        from repro.harvest.sources import square_trace
        from repro.storage.capacitor import Capacitor, ChargeEfficiency
        from repro.system.simulator import SystemSimulator
        from repro.workloads.base import FunctionalWorkload

        build = build_moving_average(length=48, seed=3)
        workload = FunctionalWorkload(build.program, total_units=2)
        cap = Capacitor(
            22e-9, v_max_v=3.3, leak_resistance_ohm=1e18,
            efficiency=ChargeEfficiency(1.0, 1.0, 0.0, 1.0),
        )
        platform = NVPPlatform(workload, cap, NVPConfig(), seed=4)
        trace = square_trace(
            high_w=800e-6, low_w=0.0, period_s=0.011, duty=0.1, duration_s=10.0
        )
        result = SystemSimulator(trace, platform).run()
        assert result.completed
        assert result.backups >= 1
        outputs = np.array(workload.outputs, dtype=np.uint16)
        assert np.array_equal(outputs, np.tile(build.expected_output, 2))


# ---- differential fuzzing --------------------------------------------------------

_NUMS = st.integers(0, 0xFFFF)
_BIN_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
            "==", "!=", "<", "<=", ">", ">=")
_UN_OPS = ("-", "~", "!")


def _expr_strategy():
    def extend(children):
        binary = st.tuples(
            st.sampled_from(_BIN_OPS), children, children
        ).map(lambda t: f"({t[1]} {t[0]} {t[2]})")
        unary = st.tuples(st.sampled_from(_UN_OPS), children).map(
            lambda t: f"({t[0]}{t[1]})"
        )
        logical = st.tuples(
            st.sampled_from(("&&", "||")), children, children
        ).map(lambda t: f"({t[1]} {t[0]} {t[2]})")
        return st.one_of(binary, unary, logical)

    leaves = st.one_of(
        _NUMS.map(str),
        st.sampled_from(("g0", "g1", "a[0]", "a[1]", "a[g0 % 4]")),
    )
    return st.recursive(leaves, extend, max_leaves=12)


@given(
    expr=_expr_strategy(),
    g0=_NUMS,
    g1=_NUMS,
    a=st.lists(_NUMS, min_size=4, max_size=4),
)
@settings(max_examples=120, deadline=None)
def test_differential_expression_fuzz(expr, g0, g1, a):
    """Property: for any generated expression and globals, the compiled
    program and the interpreter produce identical output."""
    source = f"""
    int g0 = {g0};
    int g1 = {g1};
    int a[4] = {{{', '.join(str(v) for v in a)}}};
    func main() {{ out({expr}); }}
    """
    expected = interpret(source).outputs
    compiled = compile_source(source)
    cpu = CPU(compiled.program.instructions)
    cpu.memory.load_image(compiled.program.data_image)
    cpu.run(max_instructions=100_000)
    assert cpu.state.halted
    assert cpu.memory.output == expected, source
