"""SECDED Hamming code for backup images.

Retention-relaxed backup trades write energy for occasional bit
relaxations; pairing it with a single-error-correct /
double-error-detect (SECDED) code buys most of the energy saving back
while masking the dominant single-bit failures — the standard
reliability pairing in relaxed-retention NVM proposals.

The code is Hamming(21,16) + overall parity: each 16-bit word is
stored as 22 bits (5 parity + 1 overall).  ``decode`` corrects any
single-bit error (data *or* parity) and flags double-bit errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

DATA_BITS = 16
#: Hamming parity bits for 16 data bits (positions 1,2,4,8,16).
HAMMING_PARITY_BITS = 5
#: Total stored bits: 21 Hamming bits + 1 overall parity.
CODEWORD_BITS = DATA_BITS + HAMMING_PARITY_BITS + 1


class DecodeStatus(enum.Enum):
    """Outcome of decoding a codeword."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED = "detected"  # uncorrectable double-bit error


@dataclass(frozen=True)
class DecodeResult:
    """Decoded word plus what the decoder had to do.

    Attributes:
        value: the (possibly corrected) 16-bit data word.
        status: clean / corrected / detected.
    """

    value: int
    status: DecodeStatus


def _data_positions() -> Tuple[int, ...]:
    """Hamming positions (1-based) that carry data bits."""
    return tuple(
        pos for pos in range(1, DATA_BITS + HAMMING_PARITY_BITS + 1)
        if pos & (pos - 1) != 0  # not a power of two
    )


_DATA_POS = _data_positions()
_PARITY_POS = tuple(1 << i for i in range(HAMMING_PARITY_BITS))


def encode(value: int) -> int:
    """Encode a 16-bit word into a 22-bit SECDED codeword.

    Raises:
        ValueError: if the value does not fit in 16 bits.
    """
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"value {value:#x} does not fit in 16 bits")
    # Place data bits into their Hamming positions.
    bits = [0] * (DATA_BITS + HAMMING_PARITY_BITS + 1)  # 1-based positions
    for index, pos in enumerate(_DATA_POS):
        bits[pos] = (value >> index) & 1
    # Compute Hamming parities.
    for parity_pos in _PARITY_POS:
        parity = 0
        for pos in range(1, DATA_BITS + HAMMING_PARITY_BITS + 1):
            if pos & parity_pos and pos != parity_pos:
                parity ^= bits[pos]
        bits[parity_pos] = parity
    # Pack positions 1..21 into bits 0..20, overall parity into bit 21.
    codeword = 0
    for pos in range(1, DATA_BITS + HAMMING_PARITY_BITS + 1):
        codeword |= bits[pos] << (pos - 1)
    overall = bin(codeword).count("1") & 1
    codeword |= overall << (CODEWORD_BITS - 1)
    return codeword


def decode(codeword: int) -> DecodeResult:
    """Decode a 22-bit codeword, correcting a single-bit error.

    Raises:
        ValueError: if the codeword does not fit in 22 bits.
    """
    if not 0 <= codeword < (1 << CODEWORD_BITS):
        raise ValueError(f"codeword {codeword:#x} does not fit in 22 bits")
    overall_stored = (codeword >> (CODEWORD_BITS - 1)) & 1
    hamming = codeword & ((1 << (CODEWORD_BITS - 1)) - 1)
    bits = [0] * (DATA_BITS + HAMMING_PARITY_BITS + 1)
    for pos in range(1, DATA_BITS + HAMMING_PARITY_BITS + 1):
        bits[pos] = (hamming >> (pos - 1)) & 1
    # Syndrome.
    syndrome = 0
    for parity_pos in _PARITY_POS:
        parity = 0
        for pos in range(1, DATA_BITS + HAMMING_PARITY_BITS + 1):
            if pos & parity_pos:
                parity ^= bits[pos]
        if parity:
            syndrome |= parity_pos
    overall_computed = (bin(hamming).count("1") & 1) ^ overall_stored

    status = DecodeStatus.CLEAN
    if syndrome == 0 and overall_computed == 0:
        status = DecodeStatus.CLEAN
    elif overall_computed == 1:
        # Single-bit error (possibly in the overall parity itself).
        status = DecodeStatus.CORRECTED
        if 1 <= syndrome <= DATA_BITS + HAMMING_PARITY_BITS:
            bits[syndrome] ^= 1
    else:
        # Syndrome nonzero but overall parity consistent: double error.
        status = DecodeStatus.DETECTED

    value = 0
    for index, pos in enumerate(_DATA_POS):
        value |= bits[pos] << index
    return DecodeResult(value=value, status=status)


def overhead_fraction() -> float:
    """Storage/energy overhead of the code: extra bits per data bit."""
    return (CODEWORD_BITS - DATA_BITS) / DATA_BITS

