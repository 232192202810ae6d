import numpy as np
import pytest

from beepnet.encoding import (
    MAX_WIDTH,
    decode_extended,
    decode_extended_rows,
    encode_extended,
    encode_extended_rows,
)


def _scalar(words, w):
    got = [decode_extended(int(x), w) for x in words]
    return (np.array([p is not None for p in got]),
            np.array([0 if p is None else p for p in got], dtype=np.int64))


@pytest.mark.parametrize("w", range(1, 11))
def test_rows_decode_every_word_like_the_scalar_decoder(w):
    # every word up to one bit past the extended word's 2w, in two dimensions
    words = np.arange(1 << (2 * w + 1), dtype=np.uint64)
    valid, payload = decode_extended_rows(words.reshape(2, -1), w)
    want_valid, want_payload = _scalar(words, w)
    assert valid.shape == payload.shape == (2, words.size // 2)
    assert np.array_equal(valid.ravel(), want_valid)
    assert np.array_equal(payload.ravel(), want_payload)
    assert valid.sum() == 1 << w


@pytest.mark.parametrize("w", [11, 16, 17, 24, 31, MAX_WIDTH])
def test_rows_decode_random_words_like_the_scalar_decoder(w):
    rng = np.random.default_rng(w)
    payloads = rng.integers(0, 1 << w, size=300, dtype=np.uint64)
    valid_words = np.array([encode_extended(int(p), w) for p in payloads], dtype=np.uint64)
    flips = np.uint64(1) << rng.integers(0, 64, size=300).astype(np.uint64)
    words = np.concatenate([
        valid_words,
        valid_words ^ flips,                                        # one bit off, maybe above 2w
        rng.integers(0, np.iinfo(np.uint64).max, size=300, dtype=np.uint64, endpoint=True),
        np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
    ])
    valid, payload = decode_extended_rows(words, w)
    want_valid, want_payload = _scalar(words, w)
    assert np.array_equal(valid, want_valid)
    assert np.array_equal(payload, want_payload)
    assert valid[:300].all() and np.array_equal(payload[:300], payloads.astype(np.int64))


def test_rows_reject_a_width_the_scalar_decoder_rejects():
    for w in (0, MAX_WIDTH + 1):
        with pytest.raises(ValueError):
            decode_extended_rows(np.zeros(1, dtype=np.uint64), w)


@pytest.mark.parametrize("w, payload", [(0, 0), (MAX_WIDTH + 1, 0), (5, -1), (5, 32), (MAX_WIDTH, 1 << MAX_WIDTH)])
def test_rows_encoder_rejects_what_the_scalar_encoder_rejects(w, payload):
    with pytest.raises(ValueError):
        encode_extended(payload, w)
    with pytest.raises(ValueError):
        encode_extended_rows(np.array([0, payload]), w)
