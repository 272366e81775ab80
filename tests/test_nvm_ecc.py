"""Tests for the SECDED backup-image code."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nvm.ecc import (
    CODEWORD_BITS,
    DATA_BITS,
    DecodeStatus,
    decode,
    encode,
    overhead_fraction,
)


class TestEncode:
    def test_codeword_width(self):
        assert CODEWORD_BITS == 22
        assert encode(0xFFFF) < (1 << CODEWORD_BITS)

    def test_rejects_wide_values(self):
        with pytest.raises(ValueError):
            encode(0x10000)
        with pytest.raises(ValueError):
            encode(-1)

    def test_overhead(self):
        assert overhead_fraction() == pytest.approx(6 / 16)

    def test_distinct_words_distinct_codewords(self):
        codewords = {encode(v) for v in range(256)}
        assert len(codewords) == 256


class TestDecode:
    @given(st.integers(0, 0xFFFF))
    @settings(max_examples=200, deadline=None)
    def test_clean_roundtrip(self, value):
        result = decode(encode(value))
        assert result.value == value
        assert result.status is DecodeStatus.CLEAN

    @given(st.integers(0, 0xFFFF), st.integers(0, CODEWORD_BITS - 1))
    @settings(max_examples=300, deadline=None)
    def test_any_single_bit_error_corrected(self, value, bit):
        corrupted = encode(value) ^ (1 << bit)
        result = decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.value == value

    @given(
        st.integers(0, 0xFFFF),
        st.integers(0, CODEWORD_BITS - 1),
        st.integers(0, CODEWORD_BITS - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_double_bit_errors_detected(self, value, bit_a, bit_b):
        if bit_a == bit_b:
            return
        corrupted = encode(value) ^ (1 << bit_a) ^ (1 << bit_b)
        result = decode(corrupted)
        assert result.status is DecodeStatus.DETECTED

    def test_rejects_wide_codewords(self):
        with pytest.raises(ValueError):
            decode(1 << CODEWORD_BITS)
