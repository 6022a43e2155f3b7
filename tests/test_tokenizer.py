"""The text loader's line tokenizer against ``oracles.oracle_tokenize``.

Bare lines are split without a regex and every other line is scanned with
one; both must give what the two-regex tokenizer gave: the same kind and
pairs, or the same ``ParseError`` message and line number.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from axoscheme import samples
from axoscheme.persist import ParseError, save_text
from axoscheme.persist.text import _tokenize
from genschemes import random_scheme
from oracles import oracle_tokenize
from samples_for_tests import build_offset_scheme, build_rich_scheme

DATA = Path(__file__).parent / "data"

# blanks, the characters that mean something to the tokenizer, the escape
# names, whitespace that is not a blank, and letters in and beyond ASCII
PIECES = [" ", "\t", "=", '"', "#", "\\", ",", "\\\\", '\\"', "n", "t", "sl", "sr",
          "deg", "dia", "\r", "\x0b", "\xa0", "a", "x", "1", "ж", "Ду", "é"]


def outcome(tokenize, line: str, no: int):
    try:
        return tokenize(line, no)
    except ParseError as e:
        return str(e), e.line


def assert_same(line: str, no: int = 7) -> None:
    assert outcome(_tokenize, line, no) == outcome(oracle_tokenize, line, no), repr(line)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=24),
       st.sampled_from(["", "point", "set.mode", "a=b", " pipe", "#"]))
def test_tokenizer_matches_the_oracle_on_drawn_lines(pieces, head):
    assert_same(head + "".join(pieces))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", " ", "  ", "\t"]),
                          st.sampled_from(["x", "y", "", "#k", "k\\"]),
                          st.sampled_from(["=", "==", ""]),
                          st.sampled_from(["1", "", "a=b", '"s"', '"a","b"', '"a",',
                                           '"\\deg"', '"\\q"', '"open', "#c", '""x'])),
                max_size=6))
def test_tokenizer_matches_the_oracle_on_drawn_pairs(pairs):
    assert_same("point" + "".join(map("".join, pairs)))


def test_tokenizer_matches_the_oracle_on_saved_documents():
    schemes = [random_scheme(seed) for seed in range(200)]
    schemes += [samples.reference_scheme(), build_rich_scheme(), build_offset_scheme()]
    texts = [save_text(s) for s in schemes]
    texts.append((DATA / "reference40.asts").read_text(encoding="utf-8"))
    for text in texts:
        for no, line in enumerate(text.split("\n"), start=1):
            assert_same(line, no)


def test_tokenizer_cases():
    for line in ["", " ", "\t# c", "point", "point  x=1", "point x=1 ", "point x=1\t",
                 "point x", "point =1", "point x==1", "point x=1 x=2", "point x=a#b",
                 "point x=1 #c", 'point x="a"y=2', 'point x="a" "b"', 'point x="a",b',
                 'point x="a\\"b"', 'point x="\\\\"', "point\x0bx=1", "point x=\xa01",
                 "point x=1\r", "a=b", "#point x=1"]:
        assert_same(line)
