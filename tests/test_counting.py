import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import (
    CapacityError,
    Code,
    DomainError,
    SymbolicSize,
    classic_bounds,
    count_cyclic_run_free,
    count_cyclic_spaced_ones,
    count_no_zero_run,
    fib_nstep,
    gilbert_levenshtein,
    lower_bound_explicit,
    render_decimal,
    upper_bound_1k,
    upper_bound_graph,
    upper_bound_weak,
)
from overlapcodes.constructions import gl_words, zero_block
from overlapcodes.counting import CLASSIC_MAX_N, FIB_MAX_INDEX
from oracles import (
    count_cyclic_run_free_brute,
    count_no_zero_run_brute,
    count_spaced_ones_brute,
    fib_nstep_terms,
)


def test_fib_examples():
    assert fib_nstep(4, 6) == 15
    assert fib_nstep(2, 3) == 2
    assert fib_nstep(3, 5) == 7


def test_fib_base_cases_and_errors():
    assert fib_nstep(3, -1) == 0
    assert fib_nstep(3, 0) == 0
    assert fib_nstep(3, 1) == 1
    with pytest.raises(DomainError):
        fib_nstep(3, -2)
    with pytest.raises(DomainError):
        fib_nstep(0, 5)


def test_fib_closed_forms():
    for z in range(1, 31):
        for i in range(2, z + 2):
            assert fib_nstep(z, i) == 1 << (i - 2)
        assert fib_nstep(z, z + 2) == (1 << z) - 1
        assert fib_nstep(z, z + 3) == (1 << (z + 1)) - 3


def test_fib_nstep_fibonacci_in_any_call_order():
    assert [fib_nstep(2, i) for i in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]
    assert fib_nstep(2, 3) == 2


def test_fib_nstep_refuses_index_above_cap():
    assert fib_nstep(2, 40) == 102334155
    with pytest.raises(CapacityError):
        fib_nstep(3, FIB_MAX_INDEX + 1)
    with pytest.raises(CapacityError):  # a huge step does not get past it
        fib_nstep(10**9, FIB_MAX_INDEX + 1)
    with pytest.raises(CapacityError):
        count_cyclic_run_free(16)  # needs F(2^16)
    assert fib_nstep(10**9, 3) == 2


def test_fib_nstep_matches_list_recurrence():
    for z in range(1, 13):
        terms = fib_nstep_terms(z, 3001)  # terms[i + z - 2] = F(i)
        for i in range(-z + 2, 201):
            assert fib_nstep(z, i) == terms[i + z - 2], (z, i)
        # around multiples of z, where the window wraps
        for x in range(201, 3001, 137):
            m = x - x % z
            for i in (m - 1, m, m + 1):
                assert fib_nstep(z, i) == terms[i + z - 2], (z, i)


def test_count_cyclic_run_free_matches_list_recurrence():
    for a in range(2, 14):
        ell, z = 1 << a, a - 1
        terms = fib_nstep_terms(z, ell)
        want = sum((d + 1) * terms[-1 - d] for d in range(z))
        assert count_cyclic_run_free(a) == want, a


def peak_mib(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_fib_nstep_memory_does_not_grow_with_the_step():
    value, peak = peak_mib(fib_nstep, 10**6, 40)
    assert value == 2**38 and peak < 1


def test_zero_block_scan_memory_stays_small():
    _, peak = peak_mib(zero_block, 8000)
    assert peak < 1


def test_count_no_zero_run_examples():
    assert count_no_zero_run(5, 2) == 13
    assert count_no_zero_run(3, 4) == 8
    for z in range(1, 12):
        assert count_no_zero_run(z, z) == (1 << z) - 1


def test_count_no_zero_run_matches_brute_small():
    for length in range(1, 11):
        for run in range(1, length + 1):
            assert count_no_zero_run(length, run) == count_no_zero_run_brute(
                length, run
            )


def test_spaced_ones_examples():
    for length in range(3, 9):
        for gap in range(1, length):
            assert count_cyclic_spaced_ones(length, 0, gap) == 1
            assert count_cyclic_spaced_ones(length, 1, gap) == length
    assert count_cyclic_spaced_ones(6, 2, 2) == 3


def test_spaced_ones_brute_reference():
    for length in range(2, 17):
        for weight in range(length):
            for gap in range(1, length):
                assert count_cyclic_spaced_ones(
                    length, weight, gap
                ) == count_spaced_ones_brute(length, weight, gap), (length, weight, gap)


def test_spaced_ones_composition_identity():
    # Marking one of the w ones: n places for it, and the n - w zeros split
    # into w gaps of at least `gap` each, read on from the mark.
    for length in range(2, 301):
        for weight in range(1, length):
            for gap in range(1, length):
                phi = count_cyclic_spaced_ones(length, weight, gap)
                if gap * weight >= length:
                    assert phi == 0, (length, weight, gap)
                    break
                assert weight * phi == length * math.comb(
                    length - gap * weight - 1, weight - 1
                ), (length, weight, gap)


def test_spaced_ones_domain_and_capacity():
    with pytest.raises(DomainError):
        count_cyclic_spaced_ones(6, 6, 2)
    with pytest.raises(DomainError):
        count_cyclic_spaced_ones(6, 2, 6)
    # two ones on a cycle of n, both gaps >= g: n (n - 2g - 1) / 2 words
    assert count_cyclic_spaced_ones(25, 2, 2) == 250
    assert count_cyclic_spaced_ones(2000, 2, 1) == 1000 * 1997
    assert count_cyclic_spaced_ones(2000, 500, 2) == 2 * math.comb(1000, 500)
    assert count_cyclic_spaced_ones(2000, 500, 3) == 4  # rotations of (1000)^500
    assert count_cyclic_spaced_ones(2000, 500, 4) == 0


def test_cyclic_run_free_decomposition_matches_brute():
    assert count_cyclic_run_free_brute(2) == 1
    for a in (2, 3, 4):
        assert count_cyclic_run_free(a) == count_cyclic_run_free_brute(a)
    with pytest.raises(CapacityError):
        count_cyclic_run_free_brute(5)


def test_cyclic_run_free_known_values():
    assert count_cyclic_run_free(2) == 1
    assert count_cyclic_run_free(3) == 47
    assert count_cyclic_run_free(4) == 17155


def test_upper_bound_weak():
    assert upper_bound_weak(10, 3, 2) == Fraction(1024, 15)
    assert upper_bound_weak(4, 3, 2) == Fraction(16, 3)
    for n in (5, 9):
        assert upper_bound_weak(n, 1, 3) == Fraction(3**n, 2 * n - 1)
    with pytest.raises(DomainError):
        upper_bound_weak(4, 4, 2)


def test_upper_bound_1k():
    assert upper_bound_1k(14, 7, 2) == Fraction(1 << 14, 14)
    assert upper_bound_1k(16, 8, 2) == 4096
    for k in (2, 5):
        assert upper_bound_1k(2 * k, k, 2) == Fraction(1 << (2 * k), 2 * k)
    with pytest.raises(DomainError):
        upper_bound_1k(13, 7, 2)


def test_upper_bound_graph():
    assert upper_bound_graph(12, 6) == 272
    assert upper_bound_graph(8, 2) == 32
    assert upper_bound_graph(20, 4) == (1 << 16) + (1 << 14)
    with pytest.raises(DomainError):
        upper_bound_graph(5, 1)


def test_lower_bound_variants():
    assert lower_bound_explicit(8, "gen3") == Fraction(1, 32)
    assert lower_bound_explicit(9, "gen2") == Fraction(2, 81)
    assert lower_bound_explicit(8, "gen2") < lower_bound_explicit(8, "gen3")
    assert lower_bound_explicit(5, "gen1") == Fraction(100, 967 * 5)
    with pytest.raises(DomainError):
        lower_bound_explicit(6, "gen3")
    with pytest.raises(DomainError):
        lower_bound_explicit(4, "gen9")


def test_classic_bounds():
    b16 = classic_bounds(16)
    assert b16.nine_n == Fraction(1 << 16, 144)
    assert b16.eight_n == Fraction(1 << 16, 128)
    b12 = classic_bounds(12)
    assert b12.nine_n == Fraction(1 << 12, 108)
    assert b12.eight_n is None
    assert classic_bounds(3).nine_n == Fraction(8, 27)


def test_classic_bounds_refuse_n_past_float_range():
    assert CLASSIC_MAX_N == 1023
    big = classic_bounds(1023)
    assert big.nine_n == Fraction(1 << 1023, 9 * 1023)
    assert big.eight_n is None and big.lev_decimal > 1e300
    with pytest.raises(CapacityError):
        classic_bounds(1024)


def test_symbolic_size_normalized_equality():
    assert SymbolicSize(2, 4) == SymbolicSize(1, 3)
    assert SymbolicSize(216, 12) != SymbolicSize(216, 13)
    assert SymbolicSize(0, 7) == SymbolicSize(0, 99)
    assert hash(SymbolicSize(2, 4)) == hash(SymbolicSize(1, 3))


def test_symbolic_size_comparison_and_eval():
    assert SymbolicSize(208, 12) < SymbolicSize(216, 12)
    assert SymbolicSize(216, 12) <= SymbolicSize(27, 9)
    assert SymbolicSize(216, 12).value_at(12) == 216
    assert SymbolicSize(216, 12).value_at(16) == 216 * 16
    with pytest.raises(DomainError):
        SymbolicSize(216, 12).value_at(11)
    assert SymbolicSize(5, 4).per_word_fraction() == Fraction(5, 16)
    assert SymbolicSize(3, -2).per_word_fraction() == 12


sizes = st.builds(SymbolicSize, st.integers(0, 1 << 70) | st.just(0),
                  st.integers(-8, 80))


@settings(max_examples=300, deadline=None)
@given(sizes, sizes)
def test_symbolic_size_compares_as_integers_on_a_common_offset(a, b):
    top = max(a.offset, b.offset)
    x = a.coefficient << (top - a.offset)
    y = b.coefficient << (top - b.offset)
    assert (a == b) == (x == y) and (a != b) == (x != y)
    assert (a < b) == (x < y) and (a <= b) == (x <= y)
    if x == y:
        assert hash(a) == hash(b)


def test_render_decimal():
    assert render_decimal(Fraction(1 << 14, 14)) == "1170.3"
    assert render_decimal(Fraction(4096)) == "4096"
    assert render_decimal(Fraction(1 << 20, 20)) == "52428.8"
    assert render_decimal(Fraction(25, 1000), 2) == "0.03"
    assert render_decimal(Fraction(-3, 2), 0) == "-2"  # half-up on magnitude
    assert render_decimal(Fraction(1024, 15), 3) == "68.267"


@pytest.mark.parametrize("error, call", [
    pytest.param(DomainError, lambda: Code.from_strings([]), id="empty-code"),
    # 7,555,935 words: refused before any is listed
    pytest.param(CapacityError, lambda: gilbert_levenshtein(30, emit_code=True),
                 id="gl-code-past-cap"),
    pytest.param(DomainError, lambda: gl_words(8, 0), id="gl-words-z0"),
    pytest.param(DomainError, lambda: count_no_zero_run(0, 2), id="no-zero-run-length0"),
    pytest.param(DomainError, lambda: count_cyclic_run_free(1), id="run-free-a1"),
    pytest.param(DomainError, lambda: SymbolicSize(-1, 4), id="negative-size"),
    pytest.param(DomainError, lambda: upper_bound_1k(8, 2, q=1), id="bound-1k-q1"),
    pytest.param(DomainError, lambda: upper_bound_graph(5, 4), id="bound-graph-short"),
    pytest.param(DomainError, lambda: lower_bound_explicit(1, "gen1"), id="lower-k1"),
    pytest.param(DomainError, lambda: classic_bounds(2), id="classic-n2"),
    pytest.param(DomainError, lambda: render_decimal(Fraction(1, 3), -1),
                 id="negative-places"),
])
def test_input_checks_raise_their_documented_errors(error, call):
    with pytest.raises(error):
        call()
