"""Bit-level codings used on the beep channel.

Two layers live here:

* Extended words: a w-bit payload sent as 2w beep rounds, payload bits
  (big-endian) followed by their complement. Exactly w beeps per valid word,
  so the OR of two or more distinct valid words always decodes as invalid.

* Manchester pairs: each bit occupies two rounds, 1 -> (listen, beep) and
  0 -> (beep, listen). A silent transmitter plus listening receiver can tell
  apart "nobody sent" (all silent pairs), "exactly one sent" (every pair has
  one beep round) and "several sent" (some pair with both rounds noisy).

Patterns are ints with bit r = round r of the word. Payloads are ints read
big-endian: the first transmitted bit is the payload's most significant bit.
decode_extended reads one such int; decode_extended_rows reads a whole uint64
array of channel words at once under the same rules.
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
    # reverse the payload's bytes and the bits inside each, then drop the
    # padding the reversal moved into the low bits
    payload = _BYTE_REVERSED[first & 0xFF]
    for k in range(1, (w + 7) // 8):
        payload = payload << 8 | _BYTE_REVERSED[first >> 8 * k & 0xFF]
    payload >>= -w % 8
    payload *= valid
    return valid, payload


def encode_manchester(payload: int, w: int) -> int:
    """2w-round beep pattern for a w-bit payload, one pair per bit."""
    _check_width(w)
    if not 0 <= payload < (1 << w):
        raise ValueError(f"payload {payload} does not fit {w} bits")
    pattern = 0
    for t in range(w):
        bit = payload >> (w - 1 - t) & 1
        pattern |= 1 << (2 * t + (1 if bit else 0))
    return pattern


EMPTY = "empty"
ONE = "one"
COLLISION = "collision"


def decode_manchester_block(heard: int, w: int) -> tuple[str, int | None]:
    """Classify the OR of zero or more Manchester words.

    heard has bit r set when round r was noisy. Returns (EMPTY, None),
    (ONE, payload) or (COLLISION, None).
    """
    _check_width(w)
    payload = 0
    saw_empty = False
    saw_bit = False
    for t in range(w):
        lo = heard >> (2 * t) & 1
        hi = heard >> (2 * t + 1) & 1
        if lo and hi:
            return (COLLISION, None)
        if not lo and not hi:
            saw_empty = True
        else:
            saw_bit = True
            payload |= hi << (w - 1 - t)
    if saw_empty and saw_bit:
        return (COLLISION, None)
    if saw_empty:
        return (EMPTY, None)
    return (ONE, payload)
