"""Unit tests for the behavioral NVM array."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.array import ArrayStats, NVMArray
from repro.nvm.ecc import CODEWORD_BITS
from repro.nvm.retention import (
    LinearPolicy,
    UniformPolicy,
    failure_probability,
    policy_backup_energy_j,
)
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
    words = np.array(array._words, dtype=np.uint32)
    words[valid_idx] ^= flip_masks
    array._words[:] = words.tolist()
    return int(flips.sum())


class NumpyStore:
    """The numpy-backed store ``NVMArray`` kept before it moved to
    Python lists, as its reference: one word per call, and two outage
    draws."""

    def __init__(self, size_words, technology, policy, word_bits,
                 enforce_endurance):
        self.technology = technology
        self.word_bits = word_bits
        self.enforce_endurance = enforce_endurance
        self.size_words = size_words
        self._words = np.zeros(size_words, dtype=np.uint32)
        self._valid = np.zeros(size_words, dtype=bool)
        self._write_counts = np.zeros(size_words, dtype=np.int64)
        self.stats = ArrayStats(bit_failures=[0] * word_bits)
        self.word_write_energy_j = policy_backup_energy_j(
            policy, technology, word_bits
        )
        self._retention_profile = np.array(
            policy.retention_profile(word_bits), dtype=float
        )

    def write(self, address, value):
        assert 0 <= address < self.size_words
        self.stats.writes += 1
        self.stats.write_energy_j += self.word_write_energy_j
        self._write_counts[address] += 1
        if (
            self.enforce_endurance
            and self._write_counts[address] > self.technology.endurance_cycles
        ):
            self.stats.worn_writes += 1
            return
        self._words[address] = value & ((1 << self.word_bits) - 1)
        self._valid[address] = True

    def write_block(self, base, values):
        for offset, value in enumerate(values):
            self.write(base + offset, value)

    def read(self, address):
        assert 0 <= address < self.size_words
        if not self._valid[address]:
            raise ValueError(f"word {address} has never been written")
        self.stats.reads += 1
        self.stats.read_energy_j += (
            self.technology.read_energy_j_per_bit * self.word_bits
        )
        return int(self._words[address])

    def read_block(self, base, count):
        return [self.read(base + offset) for offset in range(count)]

    def power_outage(self, duration_s, rng):
        return reference_power_outage(self, duration_s, rng)

    def wear_report(self):
        return (int(self._write_counts.max()),
                float(self._write_counts.mean()),
                int(np.sum(
                    self._write_counts > self.technology.endurance_cycles)))


def float_bits(value):
    return struct.pack("<d", value)


#: One store operation: a word or block write, a word or block read,
#: or an outage.
store_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 11), st.integers(0, 2**32)),
    st.tuples(st.just("write_block"), st.integers(0, 11),
              st.lists(st.integers(-5, 2**20), max_size=12)),
    st.tuples(st.just("read"), st.integers(0, 11)),
    st.tuples(st.just("read_block"), st.integers(0, 11), st.integers(0, 12)),
    st.tuples(st.just("outage"),
              st.sampled_from([0.0, 1e-6, 3e-3, 0.05, 1e9])),
)


class TestStoreMatchesNumpyTwin:
    """The list-backed store equals the numpy one it replaced, op for
    op: words, flags, write counts, every stats field (the two energy
    floats by bit pattern) and the generator's state."""

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(store_ops, max_size=30),
        word_bits=st.sampled_from([1, 8, 16, CODEWORD_BITS, 32]),
        relaxed=st.booleans(),
        endurance=st.sampled_from([None, 2, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_op_for_op(self, ops, word_bits, relaxed, endurance, seed):
        technology = STT_MRAM
        if endurance is not None:
            technology = dataclasses.replace(
                STT_MRAM, endurance_cycles=endurance
            )
        policy = (
            LinearPolicy(1e-4, 1e-2) if relaxed
            else UniformPolicy(technology.retention_s)
        )
        kwargs = dict(technology=technology, policy=policy,
                      word_bits=word_bits,
                      enforce_endurance=endurance is not None)
        new, old = NVMArray(12, **kwargs), NumpyStore(12, **kwargs)
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        for op, *args in ops:
            if op in ("write_block", "read_block"):
                count = len(args[1]) if op == "write_block" else args[1]
                if args[0] + count > 12:
                    continue  # the twin wrote or read part of the block
            if op in ("read", "read_block"):
                count = 1 if op == "read" else args[1]
                if not old._valid[args[0]:args[0] + count].all():
                    with pytest.raises(ValueError, match="never been"):
                        getattr(new, op)(*args)
                    continue
            if op == "outage":
                got = new.power_outage(args[0], rng_new)
                want = old.power_outage(args[0], rng_old)
            else:
                got = getattr(new, op)(*args)
                want = getattr(old, op)(*args)
            assert got == want, op
            assert new._words == old._words.tolist()
            assert new._valid == old._valid.tolist()
            assert new._write_counts == old._write_counts.tolist()
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            for name in ("writes", "reads", "outages", "worn_writes",
                         "bit_failures"):
                assert getattr(new.stats, name) == getattr(old.stats, name)
            for name in ("write_energy_j", "read_energy_j"):
                assert float_bits(getattr(new.stats, name)) == float_bits(
                    getattr(old.stats, name)
                )
        report = new.wear_report()
        assert (report.max_writes, report.mean_writes,
                report.worn_words) == old.wear_report()


class TestBlockBounds:
    """A block op checks its whole range, and its count, before it
    touches a word or a counter."""

    def snapshot(self, array):
        return (list(array._words), list(array._valid),
                list(array._write_counts), dataclasses.asdict(array.stats))

    @pytest.mark.parametrize("written, call", [
        (4, ("write_block", 2, [1, 2, 3])),
        (4, ("write_block", -1, [1])),
        (4, ("read_block", 3, 2)),
        (4, ("read_block", 0, -3)),
        (4, ("read_block", -1, 1)),
        (2, ("read_block", 0, 3)),  # word 2 was never written
    ])
    def test_rejected_block_changes_nothing(self, written, call):
        array = NVMArray(4)
        array.write_block(0, [7, 8, 9, 10][:written])
        before = self.snapshot(array)
        with pytest.raises(ValueError):
            getattr(array, call[0])(*call[1:])
        assert self.snapshot(array) == before

    def test_empty_blocks_at_the_end_are_allowed(self):
        array = NVMArray(4)
        array.write_block(4, [])
        assert array.read_block(4, 0) == []
        assert array.stats.writes == array.stats.reads == 0


class TestNaNOutage:
    def test_array_rejects_a_nan_outage(self, rng):
        array = NVMArray(4)
        array.write(0, 1)
        with pytest.raises(ValueError, match="duration_s.*nan"):
            array.power_outage(float("nan"), rng)
        assert array.stats.outages == 0

    def test_failure_probability_rejects_nan(self):
        with pytest.raises(ValueError, match="outage_s.*nan"):
            failure_probability(float("nan"), 1.0)


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
