import random

from beepnet._bits import bits_to_int, int_to_bits

LENGTHS = range(201)


def _values(length, rng):
    """Values of every kind a caller may pass: in range, wider than length,
    negative (read in two's complement)."""
    top = (1 << length) - 1
    return [0, top, -1, -(1 << length), -rng.getrandbits(length + 9) - 1,
            rng.getrandbits(length + 70), rng.getrandbits(length) if length else 0]


def test_int_to_bits_lays_bit_j_at_element_j():
    rng = random.Random(1)
    for length in LENGTHS:
        for value in _values(length, rng):
            bits = int_to_bits(value, length)
            assert type(bits) is tuple and len(bits) == length
            assert bits == tuple((value >> j) & 1 for j in range(length)), (value, length)


def test_bits_to_int_reads_element_j_as_bit_j():
    rng = random.Random(2)
    for length in LENGTHS:
        for _ in range(4):
            bits = [rng.randrange(2) for _ in range(length)]
            want = sum(b << j for j, b in enumerate(bits))
            assert bits_to_int(bits) == bits_to_int(tuple(bits)) == want, bits
            assert bits_to_int(int_to_bits(want, length)) == want
