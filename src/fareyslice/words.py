"""Farey words over two generators, and small free-group utilities.

Words are spelled over the alphabet {x, X, y, Y}: uppercase is the
generator, lowercase its inverse.  A Farey word of slope p/q has length
2q, strictly alternates Y-type and X-type letters starting with Y-type,
and ends in X.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormalVertex, NotNeighbours, ReductionFailed
from .slopes import Slope, is_neighbor, mediant

__all__ = [
    "Letter",
    "Word",
    "farey_exponents",
    "farey_word",
    "concat_flip",
    "free_reduce",
    "cyclic_reduce",
    "prefix_conjugacy",
]


@dataclass(frozen=True)
class Letter:
    generator: str  # "X" or "Y"
    exponent: int   # +1 or -1

    def __post_init__(self) -> None:
        if self.generator not in ("X", "Y") or self.exponent not in (1, -1):
            raise ValueError(f"bad letter ({self.generator}, {self.exponent})")

    @property
    def char(self) -> str:
        return self.generator if self.exponent == 1 else self.generator.lower()

    def inverse(self) -> "Letter":
        return Letter(self.generator, -self.exponent)

    @classmethod
    def from_char(cls, c: str) -> "Letter":
        if c.upper() not in ("X", "Y"):
            raise ValueError(f"bad letter character {c!r}")
        return cls(c.upper(), 1 if c.isupper() else -1)


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...]

    def __str__(self) -> str:
        return "".join(l.char for l in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple(l.inverse() for l in reversed(self.letters)))

    @classmethod
    def from_string(cls, text: str) -> "Word":
        return cls(tuple(Letter.from_char(c) for c in text))


def farey_exponents(s: Slope) -> list[int]:
    """The +-1 exponents of the Farey word's 2q letters, in word order.

    Letter i (1-based) is Y-type for odd i and X-type for even i; its
    exponent is +1 exactly when floor(p*i/q) + 1 + i is odd, which encodes
    the rounded line heights of the cutting sequence with integer heights
    rounded up one extra step.
    """
    if s.is_infinite:
        raise FormalVertex("1/0 has no Farey word")
    p, q = s.p, s.q
    return [1 if (p * i // q + 1 + i) % 2 else -1 for i in range(1, 2 * q + 1)]


# The four letters, indexed by [letter index parity][exponent]: a Farey
# word shares these instances (``Letter`` is frozen).
_LETTERS = (
    {1: Letter("X", 1), -1: Letter("X", -1)},
    {1: Letter("Y", 1), -1: Letter("Y", -1)},
)


def farey_word(s: Slope) -> Word:
    """The Farey word of a finite slope, spelled by ``farey_exponents``."""
    return Word(tuple(_LETTERS[i & 1][e] for i, e in enumerate(farey_exponents(s), 1)))


def _check_pair(a: Slope, b: Slope) -> None:
    """Reject a pair that is not finite Farey neighbours a < b."""
    if not is_neighbor(a, b):
        raise NotNeighbours(f"{a} and {b} are not Farey neighbours")
    if a.is_infinite or b.is_infinite:
        raise FormalVertex("1/0 has no Farey word")
    if not a < b:
        raise NotNeighbours(f"expected {a} < {b}")


def concat_flip(a: Slope, b: Slope) -> Word:
    """Concatenate the words of neighbours a < b and flip one exponent.

    The letter at position q_a + q_b changes sign; the result equals the
    Farey word of the mediant.
    """
    _check_pair(a, b)
    joined = list((farey_word(a) * farey_word(b)).letters)
    flip = a.q + b.q - 1
    joined[flip] = joined[flip].inverse()
    word = Word(tuple(joined))
    assert word == farey_word(mediant(a, b))
    return word


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def cyclic_reduce(w: Word) -> Word:
    """Freely reduce, then cancel inverse pairs across the word ends."""
    reduced = free_reduce(w)
    letters = list(reduced.letters)
    while len(letters) >= 2 and letters[0] == letters[-1].inverse():
        letters = letters[1:-1]
    return Word(tuple(letters))


def prefix_conjugacy(s: Slope) -> Letter:
    """Cyclically reduce the first 2q-1 letters of the Farey word.

    The prefix always collapses to a single letter, X-type when q is even
    and Y-type when q is odd; anything else is a fatal inconsistency.
    """
    if s.is_infinite:
        raise FormalVertex("1/0 has no Farey word")
    prefix = Word(farey_word(s).letters[: 2 * s.q - 1])
    collapsed = cyclic_reduce(prefix)
    if len(collapsed) != 1:
        raise ReductionFailed(
            f"prefix of {s} reduced to {collapsed} instead of one letter"
        )
    return collapsed.letters[0]
