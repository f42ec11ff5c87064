import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
from flowdistill import streams


def _positions(entropies):
    """Each stream's starting state, read before the next one is taken."""
    return [rng.bit_generator.state for rng in fd.clip_streams(entropies)]


def _reference(entropies):
    return [np.random.default_rng(e).bit_generator.state for e in entropies]


@pytest.mark.parametrize("entropy", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 2,
                                     np.int64(2 ** 40 + 7)],
                         ids=["0", "2^32-1", "2^32", "2^63-2", "np.int64"])
def test_a_stream_is_positioned_and_draws_as_default_rng(entropy):
    (rng,) = fd.clip_streams([entropy])
    ref = np.random.default_rng(entropy)
    assert rng.bit_generator.state == ref.bit_generator.state
    for draw in (lambda g: g.integers(0, 8), lambda g: g.standard_normal(5),
                 lambda g: g.integers(0, 2 ** 63 - 1), lambda g: g.random(3)):
        assert np.array_equal(draw(rng), draw(ref))


def test_word_counts_one_to_seven_mix_in_one_call():
    # Each part under 2**32 is one word, each part up to 2**64 two, so
    # these are entropies of 1 to 7 words; words past the 4th take the
    # tail-mixing loop.
    entropies = [[9], [9, 2 ** 33], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5],
                 [2 ** 32 + 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 7],
                 [2 ** 63 - 2, 11, 3, 3, 0], 5, [5, 0], [5, 0, 0, 0, 0]]
    assert [len(streams._words(e)) for e in entropies] == [
        1, 3, 3, 4, 5, 6, 7, 6, 1, 2, 5]
    assert _positions(entropies) == _reference(entropies)
    # Padding to the pool size is free; padding past it is not.
    assert _positions([5])[0] == _positions([[5, 0]])[0] != _positions([[5, 0, 0, 0, 0]])[0]


def test_a_buffered_32_bit_draw_does_not_leak_into_the_next_clip():
    got = []
    for rng in fd.clip_streams([[1, 2], [1, 3]]):
        got.append(int(rng.integers(0, 8)))  # one 64-bit draw, half kept
        assert rng.bit_generator.state["has_uint32"] == 1
    want = [int(np.random.default_rng(e).integers(0, 8)) for e in ([1, 2], [1, 3])]
    assert got == want


def test_streams_cross_block_boundaries():
    entropies = [[7, 13, i] for i in range(2 * streams.BLOCK + 3)]
    assert _positions(entropies) == _reference(entropies)


def test_entropy_values_are_rejected_as_default_rng_rejects_them():
    for bad, error in ((-1, ValueError), ([3, -2], ValueError), (1.5, TypeError),
                       ([2, 0.5], TypeError)):
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            list(fd.clip_streams([bad]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 70),
                          st.lists(st.integers(0, 2 ** 70), max_size=7)),
                min_size=1, max_size=12))
def test_any_entropies_match_default_rng(entropies):
    assert _positions(entropies) == _reference(entropies)
