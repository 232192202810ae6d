"""Small bit-twiddling helpers shared across the package.

Conventions used everywhere:

* A *bit string* is a tuple of 0/1 ints in transmission order (index 0 is
  sent first).
* A *pattern* is a python int whose bit r (value 1 << r) is the action in
  round r of a block: 1 beeps, 0 listens.
* A *bitset* over node indices (or IDs) is a numpy uint64 array of words,
  bit i of word i // 64 standing for element i.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64


def words_for(nbits: int) -> int:
    return (nbits + 63) // 64 if nbits > 0 else 1

def popcount(a: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array."""
    return np.bitwise_count(a)


def testbit(words: np.ndarray, i: int) -> bool:
    return bool((int(words[i >> 6]) >> (i & 63)) & 1)


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """(n, nbits) bool -> (n, words) uint64, bit i little-endian."""
    n, nbits = rows.shape
    nwords = words_for(nbits)
    padded = np.zeros((n, nwords * 64), dtype=np.uint8)
    padded[:, :nbits] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(U64)


def unpack_word_rows(words: np.ndarray, nbits: int) -> np.ndarray:
    """(n, words) uint64 -> (n, nbits) bool."""
    flat = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return flat[:, :nbits].view(bool)


def bits_to_int(bits) -> int:
    """Bit string to pattern int (bit j of the result is bits[j])."""
    v = 0
    for j, b in enumerate(bits):
        if b:
            v |= 1 << j
    return v


def int_to_bits(value: int, length: int) -> tuple[int, ...]:
    return tuple((value >> j) & 1 for j in range(length))


def bits_to_hex(bits) -> str:
    """Hex form of a bit string, padded on the right to a nibble boundary.

    The first bit maps to the most significant bit of the first hex digit, so
    (1,0,1,1,0) -> "b0".
    """
    if not bits:
        return "0"
    n = len(bits)
    padded = list(bits) + [0] * (-n % 4)
    digits = []
    for i in range(0, len(padded), 4):
        d = padded[i] << 3 | padded[i + 1] << 2 | padded[i + 2] << 1 | padded[i + 3]
        digits.append("%x" % d)
    return "".join(digits)


def hex_to_bits(hexstr: str, bit_length: int) -> tuple[int, ...]:
    bits = []
    for ch in hexstr:
        d = int(ch, 16)
        bits.extend(((d >> 3) & 1, (d >> 2) & 1, (d >> 1) & 1, d & 1))
    if len(bits) < bit_length:
        raise ValueError(f"hex payload {hexstr!r} shorter than {bit_length} bits")
    if any(bits[bit_length:]):
        raise ValueError(f"hex payload {hexstr!r} has set bits past length {bit_length}")
    return tuple(bits[:bit_length])
