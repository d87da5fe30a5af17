"""Fixed-length binary words packed into machine integers.

A word of length n is stored as the integer whose binary expansion, padded
to n digits, reads the word left to right: bit index 1 is the leftmost and
most significant symbol. Length is capped at 64 so that every prefix,
suffix, and overlap test is a couple of shifts and masks on one machine
word. Everything here is a pure function on immutable values.
"""

import re
from dataclasses import dataclass

from .errors import CapacityError, DomainError

MAX_BITS = 64


def _check_length(n: int):
    if n < 1:
        raise DomainError(f"word length must be >= 1, got {n}")
    if n > MAX_BITS:
        raise CapacityError(f"packed words are capped at {MAX_BITS} bits, got {n}")


# int-level primitives; value is assumed to fit in n bits
def int_overlap(u: int, v: int, n: int, t: int) -> bool:
    """t-prefix of u equals t-suffix of v."""
    return (u >> (n - t)) == (v & ((1 << t) - 1))


def int_to_bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending, in time linear in the
    mask's length; a word set held as a mask has bit w set iff w is in it."""
    return [m.start() for m in re.finditer("1", format(mask, "b")[::-1])]


@dataclass(frozen=True, slots=True)
class BitWord:
    """An immutable binary word of fixed length (1..64 bits)."""

    length: int
    value: int

    def __post_init__(self):
        _check_length(self.length)
        if not 0 <= self.value < (1 << self.length):
            raise DomainError(f"value {self.value} does not fit in {self.length} bits")

    def __lt__(self, other):
        if not isinstance(other, BitWord) or other.length != self.length:
            return NotImplemented
        return self.value < other.value

    def __str__(self):
        return int_to_bits(self.value, self.length)

    def __repr__(self):
        return f"BitWord({str(self)!r})"


def parse(text: str) -> BitWord:
    """Inverse of str(): a run of '0'/'1' characters, leftmost first."""
    _check_length(len(text))
    if set(text) - {"0", "1"}:
        raise DomainError(f"word may contain only '0' and '1': {text!r}")
    return BitWord(len(text), int(text, 2))


def prefix(w: BitWord, t: int) -> BitWord:
    if not 1 <= t <= w.length:
        raise DomainError(f"prefix size {t} out of range 1..{w.length}")
    return BitWord(t, w.value >> (w.length - t))


def suffix(w: BitWord, t: int) -> BitWord:
    if not 1 <= t <= w.length:
        raise DomainError(f"suffix size {t} out of range 1..{w.length}")
    return BitWord(t, w.value & ((1 << t) - 1))


def t_overlap(u: BitWord, v: BitWord, t: int) -> bool:
    """True iff the t-prefix of u equals the t-suffix of v (u may be v)."""
    if u.length != v.length:
        raise DomainError(f"length mismatch: {u.length} vs {v.length}")
    if not 1 <= t <= u.length:
        raise DomainError(f"overlap size {t} out of range 1..{u.length}")
    return int_overlap(u.value, v.value, u.length, t)

