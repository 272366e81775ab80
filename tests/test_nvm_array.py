"""Unit tests for the behavioral NVM array."""

import numpy as np
import pytest

from repro.nvm.array import NVMArray
from repro.nvm.ecc import CODEWORD_BITS
from repro.nvm.retention import LinearPolicy, UniformPolicy
from repro.nvm.technology import FERAM, STT_MRAM


def reference_power_outage(array, duration_s, rng):
    """The per-bit loops ``NVMArray.power_outage`` replaced, as its
    reference."""
    if duration_s < 0:
        raise ValueError("outage duration cannot be negative")
    array.stats.outages += 1
    valid_idx = np.flatnonzero(array._valid)
    if len(valid_idx) == 0 or duration_s == 0.0:
        return 0
    p_relax = 1.0 - np.exp(-duration_s / array._retention_profile)
    relaxed = rng.random((len(valid_idx), array.word_bits)) < p_relax
    flips = relaxed & (rng.random(relaxed.shape) < 0.5)
    for bit in range(array.word_bits):
        array.stats.bit_failures[bit] += int(relaxed[:, bit].sum())
    if not flips.any():
        return 0
    flip_masks = np.zeros(len(valid_idx), dtype=np.uint32)
    for bit in range(array.word_bits):
        flip_masks |= flips[:, bit].astype(np.uint32) << bit
    array._words[valid_idx] ^= flip_masks
    return int(flips.sum())


class TestBasicOps:
    def test_write_read_roundtrip(self, rng):
        array = NVMArray(8)
        array.write(3, 0xABCD)
        assert array.read(3) == 0xABCD

    def test_values_truncated_to_word_bits(self):
        array = NVMArray(4, word_bits=8)
        array.write(0, 0x1FF)
        assert array.read(0) == 0xFF

    def test_uninitialised_read_rejected(self):
        array = NVMArray(4)
        with pytest.raises(ValueError, match="never been written"):
            array.read(0)

    def test_block_ops(self):
        array = NVMArray(8)
        array.write_block(2, [1, 2, 3])
        assert array.read_block(2, 3) == [1, 2, 3]

    def test_address_bounds(self):
        array = NVMArray(4)
        with pytest.raises(ValueError):
            array.write(4, 0)
        with pytest.raises(ValueError):
            array.write(-1, 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NVMArray(0)
        with pytest.raises(ValueError):
            NVMArray(4, word_bits=0)


class TestAccounting:
    def test_write_energy_charged_per_word(self):
        array = NVMArray(8, FERAM)
        array.write(0, 1)
        array.write(1, 2)
        assert array.stats.writes == 2
        assert array.stats.write_energy_j == pytest.approx(
            2 * array.word_write_energy_j
        )

    def test_precise_word_energy_matches_catalog(self):
        array = NVMArray(8, FERAM, word_bits=16)
        assert array.word_write_energy_j == pytest.approx(
            16 * FERAM.write_energy_j_per_bit, rel=1e-9
        )

    def test_relaxed_policy_cheaper_writes(self):
        precise = NVMArray(8, STT_MRAM)
        relaxed = NVMArray(8, STT_MRAM, policy=LinearPolicy(1e-3, STT_MRAM.retention_s))
        assert relaxed.word_write_energy_j < precise.word_write_energy_j

    def test_read_energy_charged(self):
        array = NVMArray(8, FERAM)
        array.write(0, 1)
        array.read(0)
        assert array.stats.read_energy_j == pytest.approx(
            16 * FERAM.read_energy_j_per_bit
        )


class TestOutages:
    def test_precise_array_survives_long_outage(self, rng):
        array = NVMArray(16, FERAM)
        array.write_block(0, list(range(16)))
        flips = array.power_outage(3600.0, rng)  # one hour
        assert flips == 0
        assert array.read_block(0, 16) == list(range(16))

    def test_relaxed_array_corrupts_low_bits(self, rng):
        array = NVMArray(
            64, STT_MRAM, policy=LinearPolicy(1e-4, STT_MRAM.retention_s)
        )
        array.write_block(0, [0] * 64)
        array.power_outage(0.5, rng)
        # LSB relaxations recorded; MSB untouched.
        assert array.stats.bit_failures[0] > 0
        assert array.stats.bit_failures[15] == 0
        # Values changed only in low bits.
        for value in array.read_block(0, 64):
            assert value & 0x8000 == 0

    def test_outage_on_empty_array_is_noop(self, rng):
        array = NVMArray(4, STT_MRAM, policy=LinearPolicy(1e-4, 1.0))
        assert array.power_outage(10.0, rng) == 0

    def test_zero_duration_outage_is_noop(self, rng):
        array = NVMArray(4, STT_MRAM, policy=LinearPolicy(1e-4, 1.0))
        array.write(0, 0xFFFF)
        assert array.power_outage(0.0, rng) == 0
        assert array.read(0) == 0xFFFF

    def test_negative_duration_rejected(self, rng):
        array = NVMArray(4)
        with pytest.raises(ValueError):
            array.power_outage(-1.0, rng)

    def test_outage_counter_increments(self, rng):
        array = NVMArray(4)
        array.power_outage(1.0, rng)
        array.power_outage(1.0, rng)
        assert array.stats.outages == 2

    def test_flip_count_matches_value_changes(self, rng):
        array = NVMArray(32, STT_MRAM, policy=UniformPolicy(1e-3))
        original = list(range(32))
        array.write_block(0, original)
        flips = array.power_outage(1.0, rng)  # outage >> retention
        changed_bits = sum(
            bin(a ^ b).count("1")
            for a, b in zip(original, array.read_block(0, 32))
        )
        assert changed_bits == flips
        assert flips > 0


class TestOutageMatchesReference:
    """``power_outage`` ages all bits in one pass; the per-bit loops it
    replaced are the reference, call for call."""

    @pytest.mark.parametrize("word_bits", [1, 16, CODEWORD_BITS, 32])
    @pytest.mark.parametrize("policy", [
        UniformPolicy(STT_MRAM.retention_s), LinearPolicy(1e-4, 1e-2),
    ], ids=["precise", "relaxed-linear"])
    @pytest.mark.parametrize("stride", [1, 3], ids=["full", "partly-written"])
    def test_twin_arrays_agree(self, word_bits, policy, stride):
        arrays = [
            NVMArray(24, STT_MRAM, policy=policy, word_bits=word_bits)
            for _ in range(2)
        ]
        values = np.random.default_rng(5).integers(0, 1 << word_bits, 24)
        for array in arrays:
            for address in range(0, 24, stride):
                array.write(address, int(values[address]))
        new, ref = arrays
        rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        retention = policy.retention_s(word_bits // 2, word_bits)
        durations = [0.0, 1e-6, retention, 1e9]
        for k in range(200):
            duration = durations[k % len(durations)]
            assert new.power_outage(duration, rng_new) == reference_power_outage(
                ref, duration, rng_ref
            )
            assert np.array_equal(new._words, ref._words)
            assert new.stats.bit_failures == ref.stats.bit_failures
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        assert new.stats.outages == ref.stats.outages == 200
