"""The construction kernels against direct versions written here.

doubling runs on bitsets, the m-minimum death values come from a halving
recurrence, and the zero-block and Gilbert-Levenshtein scans over z stop
early; the run-free word lists come from the step-z split. Each is checked
against the plain computation it replaces: doubling on Python sets, a search
for each suffix's first killing prefix, the argmax over every z, and a
string search for a z-run of zeros in every candidate word.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import doubling, gilbert_levenshtein, zero_block
from overlapcodes.constructions import (
    PUBLISHED_TIE_BREAKS,
    _survivor_death_values,
    gl_words,
    run_free_odd_words,
)
from overlapcodes.words import int_overlap


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


def first_killer(s, k):
    """The least prefix m-minimum can draw (below 2^(k-1)) that some t-prefix
    of matches the t-suffix of s; 2^k when there is none."""
    for p in range(1 << (k - 1)):
        if any(int_overlap(p, s, k, t) for t in range(1, k + 1)):
            return p
    return 1 << k


@pytest.mark.parametrize("k", range(1, 10))
def test_survivor_death_values_equal_first_killers(k):
    assert _survivor_death_values(k) == [first_killer(s, k) for s in range(1 << k)]


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
