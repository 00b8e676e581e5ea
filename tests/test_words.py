import pytest

from fareyslice import (
    Letter,
    Slope,
    Word,
    concat_flip,
    cyclic_reduce,
    enumerate_farey,
    farey_word,
    free_reduce,
    mediant,
    parents,
    prefix_conjugacy,
)
from fareyslice import words
from fareyslice.errors import FormalVertex, NotNeighbours, RouteMismatch

from golden_data import WORDS


def S(text):
    return Slope.parse(text)


def test_known_words_golden():
    assert len(WORDS) == 47
    for text, expected in WORDS.items():
        assert str(farey_word(S(text))) == expected


def test_word_shape_invariants_up_to_64():
    for s in enumerate_farey(64):
        w = farey_word(s)
        assert len(w) == 2 * s.q
        for i, letter in enumerate(w.letters, start=1):
            assert letter.generator == ("Y" if i % 2 else "X")
        assert w.letters[-1] == Letter("X", 1)


def test_formal_vertex_has_no_word():
    with pytest.raises(FormalVertex):
        farey_word(S("1/0"))


def test_word_string_roundtrip():
    w = farey_word(S("3/8"))
    assert Word.from_string(str(w)) == w


def test_concat_flip_examples():
    assert str(concat_flip(S("1/2"), S("1/1"))) == "yxyXYX"
    assert concat_flip(S("1/3"), S("2/5")) == farey_word(S("3/8"))
    assert str(concat_flip(S("0/1"), S("1/1"))) == "yxYX"


def test_concat_flip_rejections():
    with pytest.raises(NotNeighbours):
        concat_flip(S("1/3"), S("3/7"))
    with pytest.raises(NotNeighbours):
        concat_flip(S("1/1"), S("1/2"))  # wrong order
    with pytest.raises(FormalVertex):
        concat_flip(S("0/1"), S("1/0"))


def test_concat_flip_raises_when_the_flip_rule_fails(monkeypatch):
    # A failed flip rule raises the package's RouteMismatch, also under
    # python -O, where an assert would vanish.
    monkeypatch.setattr(words, "mediant", lambda a, b: S("1/2"))
    with pytest.raises(RouteMismatch):
        concat_flip(S("1/3"), S("1/2"))


def test_concat_flip_matches_mediant_up_to_64():
    for s in enumerate_farey(64):
        if s.q < 2:
            continue
        a, b = parents(s)
        assert concat_flip(a, b) == farey_word(mediant(a, b))


def test_free_reduce():
    assert str(free_reduce(Word.from_string("xX"))) == ""
    assert str(free_reduce(Word.from_string("yxXY"))) == ""
    word = Word.from_string("yXYx")
    assert free_reduce(word) == word


def test_cyclic_reduce():
    # one end-cancellation gives XYx, whose ends cancel again
    assert str(cyclic_reduce(Word.from_string("yXYxY"))) == "Y"
    assert str(cyclic_reduce(Word.from_string("xYX"))) == "Y"
    already = Word.from_string("XY")
    assert cyclic_reduce(already) == already


def test_prefix_conjugacy_examples():
    assert prefix_conjugacy(S("1/1")) == Letter("Y", 1)
    assert prefix_conjugacy(S("1/3")).generator == "Y"
    assert prefix_conjugacy(S("1/2")).generator == "X"


def test_prefix_conjugacy_parity_up_to_64():
    for s in enumerate_farey(64):
        letter = prefix_conjugacy(s)
        assert letter.generator == ("X" if s.q % 2 == 0 else "Y")
