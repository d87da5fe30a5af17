"""The construction kernels against direct versions written here.

doubling runs on bitsets and splits its duplicates on whole masks;
m-minimum counts its survivors in closed form, finds its best m by a
branch and bound, and lists the survivors by a halving recurrence; the
zero-block and Gilbert-Levenshtein scans over z stop early; the run-free
word lists come from the step-z split. Each is checked against the plain
computation it replaces: doubling on Python sets, the split on the listed
duplicates, a search for each suffix's first killing prefix, a filter of
the death values (tests/oracles.py), the listed survivors, the argmax over
every m and over every z, and a string search for a z-run of zeros in
every candidate word. Past the golden widths, m-minimum and doubling are
pinned to the values they gave before their kernels last changed.
"""

import hashlib
from bisect import bisect_left
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapcodes import constructions, doubling, gilbert_levenshtein, m_minimum, zero_block
from overlapcodes.constructions import (
    PUBLISHED_TIE_BREAKS,
    _alive_count,
    _survivors,
    gl_words,
    run_free_odd_words,
)
from overlapcodes.words import int_overlap
from oracles import survivor_death_values


def set_doubling(k_max, tie_breaks):
    """(|P|, |S|, duplicates, P, S) per width, with the sides as Python sets."""
    p, s = {0}, {1}
    rows = [(1, 1, [], [0], [1])]
    for k in range(2, k_max + 1):
        p2 = {(w << 1) | b for w in p for b in (0, 1)}
        s2 = {(b << (k - 1)) | w for w in s for b in (0, 1)}
        dups = sorted(p2 & s2)
        for d in dups:
            if len(p2) > len(s2):
                p2.remove(d)
            elif len(s2) > len(p2):
                s2.remove(d)
            elif tie_breaks.get((k, d), "S") == "P":
                p2.remove(d)
            else:
                s2.remove(d)
        p, s = p2, s2
        rows.append((len(p), len(s), dups, sorted(p), sorted(s)))
    return rows


def doubling_rows(k_max, tie_breaks):
    steps = doubling(k_max, tie_breaks=tie_breaks)
    bare = doubling(k_max, keep_sets=False, tie_breaks=tie_breaks)
    assert [(s.p_size, s.s_size, s.duplicates) for s in bare] == [
        (s.p_size, s.s_size, s.duplicates) for s in steps
    ]
    return [
        (s.p_size, s.s_size, list(s.duplicates),
         list(s.system.prefixes), list(s.system.suffixes))
        for s in steps
    ]


@pytest.mark.parametrize("tie_breaks", [PUBLISHED_TIE_BREAKS, {}],
                         ids=["published", "suffix-side"])
def test_doubling_equals_set_doubling_to_16(tie_breaks):
    assert doubling_rows(16, tie_breaks) == set_doubling(16, tie_breaks)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_doubling_equals_set_doubling_on_random_tie_breaks(k_max, rng):
    # a side for every word, so that every tie met takes a drawn side
    tie_breaks = {
        (k, w): rng.choice("PS") for k in range(2, k_max + 1) for w in range(1 << k)
    }
    assert doubling_rows(k_max, tie_breaks) == set_doubling(k_max, tie_breaks)


def test_doubling_ignores_tie_breaks_off_the_words():
    strays = {(5, -1): "P", (5, 1 << 5): "P", (9, 1 << 40): "P", (40, 3): "P"}
    tie_breaks = {**PUBLISHED_TIE_BREAKS, **strays}
    assert doubling_rows(10, tie_breaks) == set_doubling(10, tie_breaks)


def test_doubling_split_check_fires_on_a_missed_duplicate(monkeypatch):
    # the larger side keeps the least duplicate it should give up, and the
    # pairs after it shift by one
    low_bits = constructions._low_bits
    monkeypatch.setattr(constructions, "_low_bits",
                        lambda mask, count: (low := low_bits(mask, count)) & (low - 1))
    with pytest.raises(AssertionError):
        doubling(5, keep_sets=False)


def listed_leave_p(both, lead, p_larger, p_ties):
    """_leave_p on the listed duplicates: the first `lead` leave the larger
    side, then each pair's first leaves P iff it is a P tie, else its second
    does; an unpaired last one leaves P iff it is a P tie."""
    dups = [w for w in range(both.bit_length()) if both >> w & 1]
    to_p = dups[:lead] if p_larger else []
    pairs = dups[lead:]
    for j in range(0, len(pairs), 2):
        if pairs[j] in p_ties:
            to_p.append(pairs[j])
        elif j + 1 < len(pairs):
            to_p.append(pairs[j + 1])
    return sum(1 << w for w in to_p)


@st.composite
def split_cases(draw):
    """(both, lead, p_larger, p_ties): a dense or a sparse duplicate mask, a
    lead up to its popcount, and P ties among the duplicates and off them."""
    both = draw(st.integers(0, (1 << 300) - 1)
                | st.sets(st.integers(0, 400)).map(lambda ws: sum(1 << w for w in ws)))
    dups = [w for w in range(both.bit_length()) if both >> w & 1]
    lead = draw(st.integers(0, len(dups)))
    p_ties = draw(st.sets(st.sampled_from(dups))) if dups else set()
    p_ties |= draw(st.sets(st.integers(0, 410), max_size=3))
    return both, lead, draw(st.booleans()), p_ties


@settings(max_examples=300, deadline=None)
@given(split_cases())
@example((0, 0, True, set()))  # no duplicates
@example((0b1011, 0, False, set()))  # no lead, an unpaired last one
@example((0b1011, 0, True, {3}))  # ... that is a P tie
@example((0b110101, 4, True, {0, 4}))  # every duplicate in the lead
# P ties in the lead, on a first, on the unpaired last one and off the duplicates
@example((0b1110101, 2, False, {2, 4, 6, 9}))
def test_mask_split_equals_listed_split(case):
    both, lead, p_larger, p_ties = case
    assert constructions._leave_p(both, lead, p_larger, sum(1 << w for w in p_ties)) == (
        listed_leave_p(both, lead, p_larger, p_ties))


def test_doubling_step_repr_leaves_out_the_duplicate_mask():
    step = doubling(23, keep_sets=False)[-1]
    assert repr(step) == "DoublingStep(k=23, p_size=980682, s_size=980681, system=None)"


def first_killer(s, k):
    """The least prefix m-minimum can draw (below 2^(k-1)) that some t-prefix
    of matches the t-suffix of s; 2^k when there is none."""
    for p in range(1 << (k - 1)):
        if any(int_overlap(p, s, k, t) for t in range(1, k + 1)):
            return p
    return 1 << k


@cache
def first_killers(k):
    return [first_killer(s, k) for s in range(1 << k)]


@pytest.mark.parametrize("k", range(1, 10))
def test_survivor_death_values_equal_first_killers(k):
    assert survivor_death_values(k) == first_killers(k)


@pytest.mark.parametrize("k", range(1, 10))
def test_alive_count_equals_first_killer_count(k):
    killers = first_killers(k)
    for m in range(1, (1 << (k - 1)) + 1):
        assert _alive_count(k, m) == sum(p >= m for p in killers), m


def test_alive_count_equals_death_value_filter():
    for k in range(1, 13):
        deaths = sorted(survivor_death_values(k))
        for m in range(1, (1 << (k - 1)) + 1):
            assert _alive_count(k, m) == len(deaths) - bisect_left(deaths, m), (k, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, 1 << (k - 1)))))
@example((20, 1))  # every odd word survives
@example((20, 1 << 19))  # only the all-ones word survives
@example((20, 81920))  # the best m at k = 20
def test_alive_count_equals_listed_survivors(case):
    k, m = case
    assert _alive_count(k, m) == len(_survivors(k, m))


def test_survivor_recurrence_equals_death_value_filter():
    for k in range(1, 11):
        deaths = survivor_death_values(k)
        for m in range(1, (1 << (k - 1)) + 2):
            assert _survivors(k, m) == [s for s in range(1 << k) if deaths[s] >= m], (k, m)


def test_mmin_scan_takes_the_smallest_best_m():
    # k = 2, 3 and 8 each have two best m
    for k in range(2, 17):
        deaths = sorted(survivor_death_values(k))
        products = [m * (len(deaths) - bisect_left(deaths, m))
                    for m in range(1, (1 << (k - 1)) + 1)]
        best = max(products)
        res = m_minimum(k)
        assert (res.m, res.size.coefficient) == (products.index(best) + 1, best), k


def test_mmin_survivor_check_fires_on_a_dropped_word(monkeypatch):
    survivors = constructions._survivors
    monkeypatch.setattr(constructions, "_survivors", lambda k, m: survivors(k, m)[1:])
    with pytest.raises(AssertionError):
        m_minimum(6)


def digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


# k: (m, |S|, coefficient, digest of the suffixes)
MMIN_PINS = {
    15: (3072, 7949, 24419328,
         "4307149f730b9aa1291503c29c8374ab51f44f0baa119fcf0bbc20adc3076738"),
    16: (6144, 15012, 92233728,
         "258b582aa11c567bc63905fb91b9f17c724d1fedfc2a07f0c13fd84cc68bf0a1"),
    17: (12288, 28350, 348364800,
         "158f2a386ee790b521576a680e736ae572bd82fba66f3e3e92255c84fed13ce5"),
    18: (23552, 55885, 1316203520,
         "b9c8d328227a14e35c87568eb932ddebf608197f70c0bcb449031af8799b1e6a"),
    19: (45056, 110951, 4999008256,
         "de51d784aec2f0f50350adf8519fd26e08e0ec87a751d5c9b24e0144ebcd759c"),
    20: (81920, 232293, 19029442560,
         "f420b5371b17247d64662fcd8ab7c59de58c213bca066a683bbd6f3cb8e8d180"),
}

# widths 1..23: (|P|, |S|, digest of the duplicates)
DOUBLING_PINS = [
    (1, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 1, "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    (3, 2, "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce"),
    (5, 4, "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce"),
    (8, 8, "c8de9652806bb31834426e02b3272c32d3b705446f73358ab25db6839c64a823"),
    (15, 14, "42723e4dccc2c66ba949cac3e611e48420e2c1eea23ace91be53b44b5bb0f52c"),
    (26, 27, "117c8dd80ad89bcbb2f0e1c11656640bde0ede8e10f10901a29d662790ab2f6d"),
    (50, 50, "b432432a3e10df59beb32239f3dae81f5aa87c3fee1964e3ce344816b48c3212"),
    (94, 94, "9b7cb644b246f2cef70b633b0178afc7a9b4a73957fd827ec5eb801d8e2271cd"),
    (180, 179, "868c28f7f6b7c3072bff4fff95d87831c53a28605e53c7c364fe3348269c742a"),
    (343, 343, "65275792f6c5055f929754a697bf4c705e82d17bbf3036e4db66723039058d21"),
    (659, 659, "ab6ac0e6709d99acb5dd6854da957b4c945feb8aaf203d7130475f0f787f8ef7"),
    (1267, 1266, "4af81a190d4490671ac502dcaafdf62c431a99d4d103cc20be0cb37aa907c81c"),
    (2444, 2444, "bc0998c1f70592663f54e0e8cb3f3489ec301f849d64b190eacbdf26268df1ff"),
    (4726, 4725, "91e97bc51f5fc3e620e56edf9bf51640191661cd09f6a255810a4aaf26660df1"),
    (9158, 9157, "25189b5105c9afaabea0f129c596c41c07a37856437efc08a78853343238f27e"),
    (17779, 17779, "43e413222fe6da602d36027310c91d1c0583106eea702bc8bba04a1e78f0e0f7"),
    (34576, 34575, "8832f61a1eceb7a2338fa714e2104ac297eeebf1b19bdd91a735ff708465d6e4"),
    (67340, 67339, "71f9891be80218030b4c3ac8d0a62ba7c7f3e52ab8fa31841daba4b7266c5ef8"),
    (131323, 131323, "75a6c7a8dbaa1fa9c85915386f40ef8950f4f4a0b23f520454da162b2dcb8f95"),
    (256415, 256415, "dc8b3ca63443e52028dabb18771e06da55545d07ee56eecb611d384be971753b"),
    (501207, 501207, "0b03d9df45bb04415149580b930c522dfa9d1dad05fef1093a1a5101a215161a"),
    (980682, 980681, "77ba3477e04100e9e8213b0ed6fb13aa74d6fc523dbcb9242dd9e8b6ae2fea25"),
]


def test_mmin_is_pinned_past_the_golden_widths():
    for k, pin in MMIN_PINS.items():
        res = m_minimum(k)
        suffixes = res.system.suffixes
        assert (res.m, len(suffixes), res.size.coefficient, digest(suffixes)) == pin, k


def test_doubling_is_pinned_to_23():
    steps = doubling(23, keep_sets=False)
    assert [(s.p_size, s.s_size, digest(s.duplicates)) for s in steps] == DOUBLING_PINS


def step_fibonacci(z, length):
    """[F_z(1), ..., F_z(length)] by the step-z recurrence, each term the sum
    of the z before it, with F_z(i) = 0 for -z+2 <= i <= 0 and F_z(1) = 1."""
    terms = [0] * (z - 1) + [1]
    window = 1  # the sum of the last z terms
    for _ in range(length - 1):
        terms.append(window)
        window += window - terms[-1 - z]
    return terms[z - 1:]


def full_argmax(values):
    """(z, value) of the largest value over z = 1, 2, ..., smallest z on ties."""
    best = max(values)
    return values.index(best) + 1, best


def full_zero_block(k, fib):
    return full_argmax([fib(z, k + 1) << (k - z) for z in range(1, k)])


def full_gl(n, fib):
    return full_argmax([fib(z, n - z) for z in range(1, n)])


def test_bounded_z_scans_equal_full_argmax_to_300():
    columns = {z: step_fibonacci(z, 301) for z in range(1, 300)}

    def fib(z, i):
        return columns[z][i - 1]

    for k in range(2, 301):
        res = zero_block(k)
        assert (res.z, res.size.coefficient) == full_zero_block(k, fib)
    for n in range(3, 301):
        res = gilbert_levenshtein(n)
        assert (res.z, res.size) == full_gl(n, fib)


def test_bounded_z_scans_equal_full_argmax_at_1525_and_1975():
    def fib(z, i):
        return step_fibonacci(z, i)[-1]

    res = zero_block(1525)
    assert (res.z, res.size.coefficient) == full_zero_block(1525, fib)
    res = gilbert_levenshtein(1975)
    assert (res.z, res.size) == full_gl(1975, fib)


def string_filtered_odd_words(width, z):
    """Odd width-bit words whose binary string holds no z-run of zeros."""
    run = "0" * z
    return [s for s in range(1, 1 << width, 2) if run not in f"{s:0{width}b}"]


def string_filtered_gl_words(n, z):
    """0^z 1 m 1 over every (n - z - 2)-bit m whose string holds no z-run;
    the single word 0^(n-1) 1 when z = n - 1."""
    if z == n - 1:
        return [1]
    mid = n - z - 2
    return [1 << (mid + 1) | m << 1 | 1 for m in range(1 << mid)
            if mid == 0 or "0" * z not in f"{m:0{mid}b}"]


def test_run_free_words_equal_string_filter():
    for width in range(15):
        for z in range(1, width + 3):
            assert run_free_odd_words(width, z) == string_filtered_odd_words(width, z)
    for k in range(2, 15):
        res = zero_block(k, emit_sets=True)
        assert list(res.system.suffixes) == string_filtered_odd_words(k, res.z)
        assert res.system.prefixes == tuple(range(1 << (k - res.z)))
    for n in range(2, 21):
        for z in range(1, n):
            assert gl_words(n, z) == string_filtered_gl_words(n, z), (n, z)
