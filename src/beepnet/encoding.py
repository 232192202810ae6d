"""The extended word code used on the beep channel.

A w-bit payload is sent as 2w beep rounds: the payload bits (big-endian),
then their complement.  Every valid word has exactly w beeps, so the OR of
two or more distinct valid words never decodes, and an all-silent word
means nobody sent.

Patterns are ints with bit r = round r of the word. Payloads are ints read
big-endian: the first transmitted bit is the payload's most significant bit.
The code has four entry points: encode_extended and decode_extended take one
word, encode_extended_rows and decode_extended_rows a whole array of them
under the same rules.
"""

from __future__ import annotations

import numpy as np

MAX_WIDTH = 32   # 2w must fit a uint64 channel word

# _BYTE_REVERSED[b] is byte b with its eight bits in reverse order.
_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)


def id_width(n: int, c: int) -> int:
    """Bits needed for IDs in [1, n^c]."""
    return (n ** c).bit_length()


def _check_width(w: int) -> None:
    if not 1 <= w <= MAX_WIDTH:
        raise ValueError(f"word width {w} outside [1, {MAX_WIDTH}]")


def _reversed_bits(values: np.ndarray, w: int) -> np.ndarray:
    """int64 array of w-bit values with the order of their w bits reversed.

    Reverses the bytes and the bits inside each, then drops the padding the
    reversal moved into the low bits.
    """
    out = _BYTE_REVERSED[values & 0xFF]
    for k in range(1, (w + 7) // 8):
        out = out << 8 | _BYTE_REVERSED[values >> 8 * k & 0xFF]
    return out >> -w % 8


def encode_extended(payload: int, w: int) -> int:
    _check_width(w)
    if not 0 <= payload < (1 << w):
        raise ValueError(f"payload {payload} does not fit {w} bits")
    pattern = 0
    for r in range(w):
        bit = payload >> (w - 1 - r) & 1
        pattern |= bit << r
        pattern |= (bit ^ 1) << (w + r)
    return pattern


def decode_extended(pattern: int, w: int) -> int | None:
    """Payload of a valid extended word, or None for anything else."""
    _check_width(w)
    if pattern < 0 or pattern >> (2 * w):
        return None
    mask = (1 << w) - 1
    first = pattern & mask
    second = pattern >> w & mask
    if second != first ^ mask:
        return None
    payload = 0
    for r in range(w):
        payload |= (first >> r & 1) << (w - 1 - r)
    return payload


def encode_extended_rows(payloads: np.ndarray, w: int) -> np.ndarray:
    """encode_extended over an integer array: uint64 words of its shape."""
    _check_width(w)
    payloads = np.asarray(payloads, dtype=np.int64)
    if payloads.size and (payloads.min() < 0 or payloads.max() >> w):
        raise ValueError(f"payloads do not fit {w} bits")
    first = _reversed_bits(payloads, w).view(np.uint64)
    return first | (first ^ np.uint64((1 << w) - 1)) << np.uint64(w)


def decode_extended_rows(words: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """decode_extended over a uint64 array: (valid, payload) of its shape.

    valid is bool; payload is int64 and 0 wherever the word is not valid.
    """
    _check_width(w)
    words = np.asarray(words, dtype=np.uint64)
    # both halves fit in 63 bits for any w, so int64 reads them unchanged
    first = (words & np.uint64((1 << w) - 1)).view(np.int64)
    rest = (words >> np.uint64(w)).view(np.int64)
    # equal only if bits w..2w-1 complement the first half and none lies above
    valid = rest == first ^ ((1 << w) - 1)
    payload = _reversed_bits(first, w)
    payload *= valid
    return valid, payload
