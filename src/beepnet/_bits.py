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

# Bytes of uint64 words that one gather may read: a local-broadcast wire
# chunk's neighbour-OR call (len(indices) * words * 8) and each batch or
# sampled read of validate_trace.  A single block over it is read alone.
# Callers read it through the module at call time, so one patch sets both.
GATHER_BYTES = 1 << 17


def words_for(nbits: int) -> int:
    return (nbits + 63) // 64 if nbits > 0 else 1


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """(n, nbits) bool -> (n, words) uint64, bit i little-endian."""
    n, nbits = rows.shape
    nwords = words_for(nbits)
    padded = np.zeros((n, nwords * 64), dtype=np.uint8)
    padded[:, :nbits] = rows
    return np.packbits(padded, axis=1, bitorder="little").view(U64)


def unpack_word_rows(words: np.ndarray, nbits: int) -> np.ndarray:
    """(n, words) uint64 -> (n, nbits) bool; only the first nbits bits of
    each row are unpacked."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=nbits,
                         bitorder="little").view(bool)


def unpack_word_cols(words: np.ndarray, nbits: int) -> np.ndarray:
    """(n, k * words_for(nbits)) uint64, k fields of nbits bits, each in its
    own words -> (n, k * nbits) bool, field by field; only the first nbits
    bits of each field are unpacked."""
    fields = unpack_word_rows(words.reshape(-1, words_for(nbits)), nbits)
    return fields.reshape(len(words), -1)


# Digit characters to bit values and back, for bytes.translate.
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bits_to_int(bits) -> int:
    """Bit string to pattern int (bit j of the result is bits[j])."""
    return int(bytes(bits)[::-1].translate(_TO_DIGITS) or b"0", 2)


def int_to_bits(value: int, length: int) -> tuple[int, ...]:
    """The low `length` bits of value, bit j as element j (two's complement
    for a negative value)."""
    # a sentinel 1 above bit length-1 keeps the leading zeros; [:0:-1] drops it
    digits = format(value & ((1 << length) - 1) | 1 << length, "b")[:0:-1]
    return tuple(digits.encode().translate(_TO_BITS))
