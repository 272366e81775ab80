"""Unit tests for the instruction energy/cycle model."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.energy import (
    DEFAULT_MIX,
    EnergyModel,
    InstrClass,
    classify,
)
from repro.isa.instructions import Instruction, Opcode


class TestClassification:
    @pytest.mark.parametrize(
        "opcode,cls",
        [
            (Opcode.ADD, InstrClass.ALU),
            (Opcode.ADDI, InstrClass.ALU),
            (Opcode.MUL, InstrClass.MUL),
            (Opcode.DIVU, InstrClass.DIV),
            (Opcode.LD, InstrClass.LOAD),
            (Opcode.ST, InstrClass.STORE),
            (Opcode.BEQ, InstrClass.BRANCH),
            (Opcode.JAL, InstrClass.JUMP),
            (Opcode.NOP, InstrClass.NOP),
            (Opcode.HALT, InstrClass.HALT),
        ],
    )
    def test_classify(self, opcode, cls):
        assert classify(Instruction(opcode)) is cls

    def test_every_opcode_has_a_class(self):
        for opcode in Opcode:
            assert classify(Instruction(opcode)) in InstrClass


class TestEnergyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(frequency_hz=0)
        with pytest.raises(ValueError):
            EnergyModel(vdd=0)
        with pytest.raises(ValueError):
            EnergyModel(static_power_w=-1)

    def test_instruction_energy_includes_leakage(self):
        lossless = EnergyModel(static_power_w=0.0)
        leaky = EnergyModel(static_power_w=50e-6)
        assert leaky.instruction_energy(InstrClass.ALU) > lossless.instruction_energy(
            InstrClass.ALU
        )

    def test_leakage_share_shrinks_with_frequency(self):
        slow = EnergyModel(frequency_hz=0.1e6)
        fast = EnergyModel(frequency_hz=10e6)
        assert fast.instruction_energy(InstrClass.ALU) < slow.instruction_energy(
            InstrClass.ALU
        )

    def test_dynamic_energy_scales_with_vdd_squared(self):
        base = EnergyModel(static_power_w=0.0)
        boosted = EnergyModel(static_power_w=0.0, vdd=2.0)
        ratio = boosted.instruction_energy(InstrClass.ALU) / base.instruction_energy(
            InstrClass.ALU
        )
        assert ratio == pytest.approx(4.0)

    def test_instruction_time(self):
        model = EnergyModel(frequency_hz=1e6)
        assert model.instruction_time(InstrClass.ALU) == pytest.approx(1e-6)
        assert model.instruction_time(InstrClass.DIV) == pytest.approx(8e-6)

    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)

    def test_scaled_copy(self):
        base = EnergyModel()
        fast = base.scaled(frequency_hz=8e6)
        assert fast.frequency_hz == 8e6
        assert base.frequency_hz == 1e6  # original untouched
        assert fast.cycles == base.cycles

    def test_scaled_preserves_vdd_by_default(self):
        model = EnergyModel(vdd=1.2).scaled(frequency_hz=2e6)
        assert model.vdd == 1.2
