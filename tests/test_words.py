import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import (
    BitWord,
    CapacityError,
    DomainError,
    parse,
    prefix,
    suffix,
    t_overlap,
)
from overlapcodes.words import set_bits
from oracles import cyclic_shift


def test_bitword_examples():
    assert str(BitWord(4, 3)) == "0011"
    assert str(BitWord(5, 0)) == "00000"
    assert str(BitWord(6, 11)) == "001011"


def test_bitword_range_errors():
    with pytest.raises(DomainError):
        BitWord(4, 16)
    with pytest.raises(DomainError):
        BitWord(4, -1)
    with pytest.raises(CapacityError):
        BitWord(65, 0)
    with pytest.raises(DomainError):
        BitWord(0, 0)


def test_parse_round_trip():
    for text in ("0", "1", "001011", "1" * 64):
        assert str(parse(text)) == text
    with pytest.raises(DomainError):
        parse("01x1")
    with pytest.raises(DomainError):
        parse("")


def test_prefix_suffix_examples():
    w = parse("0111")
    assert str(prefix(w, 2)) == "01"
    assert str(suffix(w, 2)) == "11"
    assert prefix(w, 4) == w
    assert suffix(w, 4) == w
    with pytest.raises(DomainError):
        prefix(w, 0)
    with pytest.raises(DomainError):
        suffix(w, 5)


def test_t_overlap_examples():
    assert t_overlap(parse("0111"), parse("1101"), 2)
    assert t_overlap(parse("0000"), parse("0000"), 3)
    assert not t_overlap(parse("0011"), parse("0011"), 2)
    with pytest.raises(DomainError):
        t_overlap(parse("01"), parse("011"), 1)
    with pytest.raises(DomainError):
        t_overlap(parse("01"), parse("10"), 3)


def test_cyclic_shift_examples():
    assert str(cyclic_shift(parse("0011"), 1)) == "0110"
    assert cyclic_shift(parse("0011"), 0) == parse("0011")
    assert str(cyclic_shift(parse("1000"), 3)) == "0100"
    with pytest.raises(DomainError):
        cyclic_shift(parse("1000"), 4)


def test_equality_requires_matching_length():
    assert parse("001") != parse("0001")
    assert parse("001") == BitWord(3, 1)
    assert hash(parse("001")) == hash(BitWord(3, 1))
    assert BitWord(3, 1) != (3, 1)


def test_bitword_is_immutable_and_orders_within_one_length():
    w = BitWord(3, 1)
    with pytest.raises(AttributeError):
        w.value = 2
    with pytest.raises(AttributeError):
        w.length = 4
    assert BitWord(3, 1) < BitWord(3, 2) and not BitWord(3, 2) < BitWord(3, 1)
    assert sorted([parse("10"), parse("01")]) == [parse("01"), parse("10")]
    with pytest.raises(TypeError):
        BitWord(3, 1) < BitWord(4, 2)
    with pytest.raises(TypeError):
        BitWord(3, 1) < 2


def test_extractors_agree_with_string_reference_exhaustive():
    # prefix/suffix/overlap reduce to string slicing on the rendered word;
    # checking the extractors on every word of length <= 10 pins the
    # pairwise overlap predicate too, since it compares fixed-width values
    for n in range(1, 11):
        for v in range(1 << n):
            w = BitWord(n, v)
            s = str(w)
            for t in range(1, n + 1):
                assert str(prefix(w, t)) == s[:t]
                assert str(suffix(w, t)) == s[-t:]


def test_t_overlap_matches_string_reference_small():
    for n in range(1, 6):
        for u in range(1 << n):
            for v in range(1 << n):
                su, sv = format(u, f"0{n}b"), format(v, f"0{n}b")
                for t in range(1, n + 1):
                    assert (
                        t_overlap(BitWord(n, u), BitWord(n, v), t)
                        == (su[:t] == sv[-t:])
                    )


def test_prefix_of_integer_is_shifted_integer():
    for k in range(1, 13):
        for m in range(1 << k):
            w = BitWord(k, m)
            for t in range(1, k + 1):
                assert prefix(w, t) == BitWord(t, m >> (k - t))


def test_cyclic_shift_composes():
    for n in range(1, 9):
        for v in range(0, 1 << n, 3 if n > 6 else 1):
            w = BitWord(n, v)
            for i in range(n):
                for j in range(n):
                    assert cyclic_shift(cyclic_shift(w, i), j) == cyclic_shift(
                        w, (i + j) % n
                    )


# dense masks of up to 4096 bits, and sparse ones given by their set bits
masks = st.one_of(
    st.integers(0, 4096).flatmap(lambda n: st.integers(0, (1 << n) - 1)),
    st.sets(st.integers(0, 4095)).map(lambda bits: sum(1 << i for i in bits)),
)


@settings(max_examples=200, deadline=None)
@given(masks)
def test_set_bits_matches_bitwise_listing(mask):
    assert set_bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_set_bits_on_a_million_bit_mask():
    # a lister quadratic in the mask's length takes seconds here, not ms
    mask = random.Random(20).getrandbits(1 << 20) | 1 << (1 << 20)
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    expected = [8 * j + b for j, byte in enumerate(raw) for b in range(8) if byte >> b & 1]
    assert set_bits(mask) == expected
