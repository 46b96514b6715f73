"""Interval geometry of the affine systems.

The three worked endpoint cases (middle-thirds layout, plus the variant
with the first map reflected) pin the composition order; the rest are
structural invariants over random systems.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantorflip.ifs import Interval, IfsSpec, canonical_spec, dim_C, interval, label_symbols

THIRDS = canonical_spec(2, 1 / 3)
# same layout, first map reflected: f1(x) = (1-x)/3
THIRDS_FLIP = IfsSpec(2, 1 / 3, (0.0, 2 / 3), (-1, 1))


def test_interval_value_object():
    iv = Interval(0.25, 0.5)
    assert iv.right == 0.75
    assert iv.midpoint == 0.5
    with pytest.raises(ValueError):
        Interval(0.0, 0.0)
    with pytest.raises(ValueError):
        Interval(0.9, 0.2)  # right endpoint leaves [0,1]


def test_thirds_depth1():
    assert interval(THIRDS, (1,)).left == pytest.approx(0.0, abs=1e-15)
    assert interval(THIRDS, (1,)).right == pytest.approx(1 / 3, abs=1e-15)
    assert interval(THIRDS, (2,)).left == pytest.approx(2 / 3, abs=1e-15)


def test_thirds_depth2_anchors():
    # orientation-preserving: (1,1) -> [0, 1/9], (1,2) -> [2/9, 3/9]
    iv = interval(THIRDS, (1, 1))
    assert iv.left == pytest.approx(0.0, abs=1e-15)
    assert iv.length == pytest.approx(1 / 9, abs=1e-15)
    iv = interval(THIRDS, (1, 2))
    assert iv.left == pytest.approx(2 / 9, abs=1e-15)
    assert iv.right == pytest.approx(3 / 9, abs=1e-15)


def test_reflected_first_map_swaps_children():
    # with f1 reflected, (1,2) lands where (1,1) does in the plain layout
    iv = interval(THIRDS_FLIP, (1, 2))
    assert iv.left == pytest.approx(0.0, abs=1e-15)
    assert iv.length == pytest.approx(1 / 9, abs=1e-15)
    iv = interval(THIRDS_FLIP, (1, 1))
    assert iv.left == pytest.approx(2 / 9, abs=1e-15)


def test_interval_accepts_label_word():
    iv = interval(THIRDS, [1, 2])
    assert iv.left == pytest.approx(2 / 9)
    with pytest.raises(ValueError, match=r"label symbol 3 outside 1\.\.2"):
        interval(THIRDS, (1, 3))  # symbol outside the alphabet


def test_empty_word_is_unit_interval():
    iv = interval(THIRDS, ())
    assert (iv.left, iv.length) == (0.0, 1.0)


def test_dim_c():
    assert dim_C(THIRDS) == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    assert dim_C(canonical_spec(2, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert dim_C(canonical_spec(3, 1 / 3)) == pytest.approx(1.0, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        IfsSpec(2, 0.6, (0.0, 0.4), (1, 1))  # r > 1/N
    with pytest.raises(ValueError):
        IfsSpec(2, 0.3, (0.0, 0.2), (1, 1))  # overlap
    with pytest.raises(ValueError):
        IfsSpec(2, 0.3, (0.0, 0.3), (1, 1))  # touching but r < 1/2
    with pytest.raises(ValueError):
        IfsSpec(2, 1 / 3, (0.0, 2 / 3), (1, 0))  # bad orientation
    # touching at r = 1/N is the tiling case and is fine
    IfsSpec(2, 0.5, (0.0, 0.5), (1, 1))


def test_spec_roundtrip_dict():
    spec = IfsSpec(3, 0.2, (0.0, 0.4, 0.8), (1, -1, 1))
    assert IfsSpec.from_dict(spec.to_dict()) == spec
    # defaults: canonical translations, all orientations +1
    spec2 = IfsSpec.from_dict({"N": 2, "r": 1 / 3})
    assert spec2 == THIRDS


def _random_spec(rng_draw):
    N, r, orients = rng_draw
    return IfsSpec(N, r, canonical_spec(N, r).translations, orients)


spec_strategy = st.integers(min_value=2, max_value=4).flatmap(
    lambda N: st.tuples(
        st.just(N),
        st.floats(min_value=0.05, max_value=1.0 / N - 1e-6, allow_nan=False),
        st.tuples(*([st.sampled_from((-1, 1))] * N)).map(tuple),
    )
)

word_strategy = st.lists(st.integers(min_value=1, max_value=2), min_size=0, max_size=10)


@settings(max_examples=60)
@given(spec_strategy, st.data())
def test_nesting_and_length(draw, data):
    spec = _random_spec(draw)
    symbols = data.draw(
        st.lists(st.integers(min_value=1, max_value=spec.N), min_size=1, max_size=8)
    )
    child = interval(spec, symbols)
    parent = interval(spec, symbols[:-1])
    assert child.left >= parent.left - 1e-12
    assert child.right <= parent.right + 1e-12
    assert child.length == pytest.approx(spec.r ** len(symbols), rel=1e-9)


@settings(max_examples=40)
@given(spec_strategy, st.integers(min_value=1, max_value=5))
def test_siblings_disjoint_and_ordered(draw, depth):
    spec = _random_spec(draw)
    prefix = tuple(1 + (depth + j) % spec.N for j in range(depth - 1))
    children = [interval(spec, prefix + (s,)) for s in range(1, spec.N + 1)]
    children.sort(key=lambda iv: iv.left)
    for a, b in zip(children, children[1:]):
        assert a.right <= b.left + 1e-12


def _scalar_interval(spec, w):
    """The one-word loop ``interval`` ran before it took stacks, verbatim."""
    symbols = label_symbols(w, spec.N)
    a, c = 1.0, 0.0  # current composition x -> a*x + c
    for s in symbols:
        b = spec.translations[s - 1]
        if spec.orientations[s - 1] == 1:
            a, c = a * spec.r, c + a * b
        else:
            a, c = -a * spec.r, c + a * (b + spec.r)
    left = c + a if a < 0 else c
    return Interval(left, abs(a))


def _bits(iv):
    # float.hex tells every double apart, -0.0 from 0.0 included
    return float(iv.left).hex(), float(iv.length).hex()


STACK_SPECS = {
    "thirds": THIRDS,
    "thirds-flip": THIRDS_FLIP,
    "uneven": IfsSpec(3, 0.2, (0.05, 0.3, 0.8), (1, 1, 1)),
    "tiling": canonical_spec(4, 0.25),
    "mixed": IfsSpec(3, 0.22, (0.03, 0.41, 0.77), (-1, 1, -1)),
}


class TestStackedInterval:
    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    def test_rows_match_scalar_loop_bitwise(self, name):
        spec = STACK_SPECS[name]
        rng = np.random.default_rng(sorted(STACK_SPECS).index(name))
        for length in range(21):
            words = rng.integers(1, spec.N + 1, size=(40, length), dtype=np.int32)
            stack = interval(spec, words)
            assert stack.left.shape == stack.length.shape == (40,)
            for row, w in enumerate(words):
                one = interval(spec, tuple(int(s) for s in w))
                assert type(one.left) is float and type(one.length) is float
                want = _bits(_scalar_interval(spec, tuple(int(s) for s in w)))
                assert _bits(one) == want
                assert _bits(Interval(stack.left[row], stack.length[row])) == want

    def test_midpoints_match_per_word(self):
        spec = STACK_SPECS["mixed"]
        words = np.random.default_rng(5).integers(1, 4, size=(64, 12))
        mids = interval(spec, words).midpoint
        assert [m.hex() for m in mids.tolist()] == [
            _scalar_interval(spec, tuple(w)).midpoint.hex() for w in words.tolist()
        ]

    def test_symbol_outside_alphabet_in_a_stack(self):
        words = np.ones((6, 5), dtype=np.int32)
        words[3, 2] = 4
        with pytest.raises(ValueError, match=r"label symbol 4 outside 1\.\.3"):
            interval(STACK_SPECS["uneven"], words)
        words[3, 2] = 0
        with pytest.raises(ValueError, match=r"label symbol 0 outside 1\.\.3"):
            interval(STACK_SPECS["uneven"], words)

    def test_first_bad_symbol_is_named(self):
        with pytest.raises(ValueError, match=r"label symbol 5 outside 1\.\.2"):
            interval(THIRDS, (1, 5, 3))

    def test_empty_words(self):
        one = interval(THIRDS, ())
        assert type(one.left) is float and (one.left, one.length) == (0.0, 1.0)
        stack = interval(THIRDS, np.empty((3, 0), dtype=np.int32))
        assert stack.left.tolist() == [0.0] * 3 and stack.length.tolist() == [1.0] * 3
        none = interval(THIRDS, np.empty((0, 4), dtype=np.int32))
        assert none.left.shape == none.length.shape == (0,)

    @pytest.mark.parametrize(
        "word, bad",
        [([1.7, 2], "1.7"), ((1, 2.5), "2.5"), (np.array([[1.0, 2.0], [2.0, 1.9]]), "1.9"),
         ([1, math.nan], "nan"), ([math.inf], "inf"), ((2, -math.inf), "-inf")],
    )
    def test_fractional_symbol_is_refused(self, word, bad):
        with pytest.raises(ValueError, match=rf"label symbol {bad} is not a whole number"):
            interval(THIRDS, word)
        with pytest.raises(ValueError, match=rf"label symbol {bad} is not a whole number"):
            label_symbols(np.ravel(word).tolist(), 2)

    def test_whole_floats_and_the_empty_word_are_read(self):
        assert _bits(interval(THIRDS, [1.0, 2.0])) == _bits(interval(THIRDS, (1, 2)))
        stack = interval(THIRDS, np.array([[1.0, 2.0], [2.0, 1.0]]))
        want = interval(THIRDS, np.array([[1, 2], [2, 1]], dtype=np.int32))
        assert stack.left.tolist() == want.left.tolist()
        assert label_symbols([1.0, np.float64(2.0), np.int32(1)], 2) == (1, 2, 1)
        assert label_symbols((), 2) == ()  # interval(spec, ()) is test_empty_words' case

    def test_integer_stacks_are_not_copied(self):
        # an int32 stack, as energy passes it, is read in place: no cast and no
        # symbol-by-symbol check, each of which would allocate at least its size
        words = np.ones((4096, 64), dtype=np.int32)
        interval(THIRDS, words)  # warm up
        tracemalloc.start()
        try:
            interval(THIRDS, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < words.size

    def test_stack_of_more_than_two_dimensions_is_refused(self):
        with pytest.raises(ValueError, match="2-D stack"):
            interval(THIRDS, np.ones((2, 2, 2), dtype=np.int32))
