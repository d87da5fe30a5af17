"""Property tests: the int-tuple code paths against definitions written here."""

import io
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import (
    BitWord,
    Code,
    DomainError,
    PrefixSuffixSystem,
    expand_system,
    is_overlap_free,
    read_code,
    t_overlap,
    write_code,
)

MAX_N = 12


def smallest_overlap(n, values, t1, t2):
    """The least (t, u, v) with prefix_t(u) == suffix_t(v), by brute force."""
    ws = sorted(BitWord(n, v) for v in set(values))
    for t in range(t1, t2 + 1):
        for u in ws:
            for v in ws:
                if t_overlap(u, v, t):
                    return t, u, v
    return None


@st.composite
def codes_and_ranges(draw):
    n = draw(st.integers(2, MAX_N))
    # from 32 distinct words on, the smallest sizes take the checker's other path
    size = draw(st.sampled_from((0, 40)))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=96))
    if n >= 4 and draw(st.booleans()):
        # only a few distinct w-bit heads and tails, so that overlaps of the
        # smallest sizes come and go rather than being near certain
        w = draw(st.integers(1, n // 2))
        side = st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=2)
        heads, tails = draw(side), draw(side)
        middle = (1 << (n - w)) - (1 << w)
        values = [
            heads[i % len(heads)] << (n - w) | v & middle | tails[i // 2 % len(tails)]
            for i, v in enumerate(values)
        ]
    t1 = draw(st.one_of(st.just(1), st.integers(1, n - 1)))
    t2 = draw(st.integers(t1, n - 1))
    return n, values, t1, t2


@st.composite
def systems(draw, max_k=4):
    k = draw(st.integers(1, max_k))
    side = st.lists(st.integers(0, (1 << k) - 1), max_size=1 << k)
    n = draw(st.integers(2 * k, min(MAX_N, 2 * k + 5)))
    return k, draw(side), draw(side), n


def naive_expansion(k, prefixes, suffixes, n):
    mid = n - 2 * k
    return {
        (p << (n - k)) | (x << k) | s
        for p, x, s in product(set(prefixes), range(1 << mid), set(suffixes))
    }


def check_against_definition(code, t1, t2):
    ok, witness = is_overlap_free(code, t1, t2)
    expected = smallest_overlap(code.n, code.words, t1, t2)
    if expected is None:
        assert ok and witness is None
    else:
        assert not ok
        assert (witness.t, witness.u, witness.v) == expected


@settings(max_examples=150, deadline=None)
@given(codes_and_ranges())
def test_overlap_free_matches_pairwise_definition(case):
    n, values, t1, t2 = case
    check_against_definition(Code.from_values(n, values), t1, t2)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.booleans(), st.data())
def test_overlap_free_on_expanded_systems(k, mid, valid, data):
    # Expansions are large, and clean over [1, k] when the system is valid.
    # From 32 words on, the checker cuts the heads and tails of the smallest
    # sizes from wider ones instead of from the words; t1 is drawn small to
    # reach that path.
    n = min(2 * k + mid, MAX_N)
    prefixes = suffixes = range(1 << k)
    extra = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    if valid:
        # parts of a zero-block system, which stays valid
        z = data.draw(st.integers(1, k))
        prefixes = range(1 << (k - z))
        suffixes = [s for s in range(1, 1 << k, 2) if "0" * z not in f"{s:0{k}b}"]
        extra = []
    system = PrefixSuffixSystem.from_values(
        k,
        data.draw(st.lists(st.sampled_from(prefixes), min_size=1)),
        data.draw(st.lists(st.sampled_from(suffixes), min_size=1)),
    )
    # at most 96 words keeps the pairwise oracle quick
    code = Code.from_values(n, expand_system(system, n).words[:96] + tuple(extra))
    t1 = data.draw(st.integers(1, min(3, n - 1)))
    t2 = data.draw(st.integers(t1, max(t1, k) if valid else n - 1))
    check_against_definition(code, t1, t2)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_expand_system_matches_triple_loop(system):
    k, prefixes, suffixes, n = system
    code = expand_system(PrefixSuffixSystem.from_values(k, prefixes, suffixes), n)
    assert code.n == n
    assert code.words == tuple(sorted(naive_expansion(k, prefixes, suffixes, n)))


@settings(max_examples=150, deadline=None)
@given(codes_and_ranges())
def test_write_read_round_trip(case):
    n, values, _, _ = case
    code = Code.from_values(n, values)
    buf = io.StringIO()
    write_code(code, buf)
    assert read_code(io.StringIO(buf.getvalue())) == code


@settings(max_examples=200, deadline=None)
@given(st.integers(1, MAX_N), st.data())
def test_from_values_sorts_merges_and_range_checks(n, data):
    values = data.draw(st.lists(st.integers(-3, (1 << n) + 2), max_size=40))
    if all(0 <= v < 1 << n for v in values):
        expected = tuple(sorted(set(values)))
        assert Code.from_values(n, values).words == expected
        assert Code(n, values).words == expected
        system = PrefixSuffixSystem.from_values(n, values, reversed(values))
        assert system.prefixes == system.suffixes == expected
        assert system.prefix_values() == list(expected)
    else:
        with pytest.raises(DomainError):
            Code.from_values(n, values)
        with pytest.raises(DomainError):
            PrefixSuffixSystem.from_values(n, [], values)
