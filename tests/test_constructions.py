import pytest

from overlapcodes import (
    CapacityError,
    DomainError,
    SymbolicSize,
    count_no_zero_run,
    doubling,
    expand_system,
    fib_nstep,
    gilbert_levenshtein,
    is_overlap_free,
    lower_bound_explicit,
    m_minimum,
    validate_system,
    zero_block,
)
from overlapcodes.constructions import PUBLISHED_TIE_BREAKS, gl_words
from overlapcodes.words import int_to_bits
from oracles import adjacent

# reference products per width (doubling construction)
DOUBLING_PRODUCTS = {
    2: 2, 3: 6, 4: 20, 5: 64, 6: 210, 7: 702, 8: 2500, 9: 8836, 10: 32220,
    11: 117649, 12: 434281, 13: 1604022, 14: 5973136,
}

# reference m-minimum rows: (p size, s size, coefficient)
MMIN_ROWS = {
    2: (1, 2, 2), 3: (2, 3, 6), 4: (4, 5, 20), 5: (8, 8, 64),
    6: (12, 18, 216), 7: (24, 31, 744), 8: (44, 60, 2640), 9: (64, 149, 9536),
    10: (128, 274, 35072), 11: (256, 504, 129024), 12: (512, 927, 474624),
    13: (960, 1823, 1750080), 14: (1792, 3644, 6530048),
}

MMIN_K6_SUFFIXES = """
001101 001111 010011 010101 010111 011011 011101 011111 100111
101011 101101 101111 110011 110101 110111 111011 111101 111111
""".split()

MMIN_K7_SUFFIXES = """
0011011 0011101 0011111 0100111 0101011 0101101 0101111 0110011
0110101 0110111 0111011 0111101 0111111 1001101 1001111 1010011
1010101 1010111 1011011 1011101 1011111 1100111 1101011 1101101
1101111 1110011 1110101 1110111 1111011 1111101 1111111
""".split()

# reference zero-block rows: (coefficient, best z)
ZERO_BLOCK_ROWS = {
    2: (2, 1), 3: (6, 2), 4: (20, 2), 5: (64, 2), 6: (208, 2), 7: (704, 3),
    8: (2592, 3), 9: (9536, 3), 10: (35072, 3), 11: (129024, 3),
    12: (474624, 3), 13: (1745920, 3), 14: (6422528, 3),
}

K100_COEFFICIENT = 5745596237141382785608786499535716424326792561835200479232


def test_doubling_products_to_14():
    steps = doubling(14)
    assert steps[0].k == 1
    for s in steps[1:]:
        assert s.product == DOUBLING_PRODUCTS[s.k]


def test_doubling_first_steps_match_worked_narrative():
    by_k = {s.k: s for s in doubling(5)}
    assert by_k[1].system.prefix_values() == [0]
    assert by_k[1].system.suffix_values() == [1]
    assert by_k[2].system.prefix_values() == [0b00, 0b01]
    assert by_k[2].system.suffix_values() == [0b11]
    assert by_k[3].system.prefix_values() == [0b000, 0b001, 0b010]
    assert by_k[3].system.suffix_values() == [0b011, 0b111]
    assert by_k[4].system.prefix_values() == [0, 1, 2, 4, 5]
    assert sorted(int_to_bits(v, 4) for v in by_k[4].system.suffixes) == [
        "0011", "0111", "1011", "1111",
    ]
    assert sorted(int_to_bits(v, 5) for v in by_k[5].system.prefixes) == [
        "00000", "00001", "00010", "00100",
        "00101", "01000", "01001", "01010",
    ]
    assert sorted(int_to_bits(v, 5) for v in by_k[5].system.suffixes) == [
        "00011", "00111", "01011", "01111",
        "10011", "10111", "11011", "11111",
    ]


def test_doubling_duplicates_are_ascending_and_shared():
    for step in doubling(8)[1:]:
        values = list(step.duplicates)
        assert values == sorted(values)


def test_doubling_worked_duplicates():
    by_k = {s.k: s for s in doubling(5)}
    assert [int_to_bits(w, 3) for w in by_k[3].duplicates] == ["011"]
    assert [int_to_bits(w, 4) for w in by_k[4].duplicates] == ["0011"]
    assert [int_to_bits(w, 5) for w in by_k[5].duplicates] == ["00011", "01011"]


def test_doubling_every_intermediate_system_is_valid():
    for step in doubling(14):
        assert validate_system(step.system)[0]


def test_doubling_tie_rule_divergence_is_known():
    # the plain always-drop-suffix tie rule first diverges from the
    # published sizes at width 9, and by more than the single tie flip
    plain = doubling(9, keep_sets=False, tie_breaks={})
    assert plain[-1].product == 8930  # published value is 8836
    flipped = doubling(9, keep_sets=False)
    assert flipped[-1].product == 8836
    assert PUBLISHED_TIE_BREAKS == {(7, 0b0101011): "P"}


def test_doubling_rejects_unknown_tie_break_sides():
    for side in ("p", "s", "", None):
        with pytest.raises(DomainError):
            doubling(9, keep_sets=False, tie_breaks={(7, 0b0101011): side})


def test_doubling_capacity():
    with pytest.raises(CapacityError):
        doubling(24)
    with pytest.raises(DomainError):
        doubling(0)


def test_doubling_keep_sets_flag():
    steps = doubling(10, keep_sets=False)
    assert all(s.system is None for s in steps)
    assert steps[-1].size() == SymbolicSize(32220, 20)


def test_mmin_reference_rows():
    for k, (p, s, coeff) in MMIN_ROWS.items():
        res = m_minimum(k)
        assert res.m == p
        assert len(res.system.suffixes) == s
        assert res.size == SymbolicSize(coeff, 2 * k)


def test_mmin_explicit_sets_k6_k7():
    res6 = m_minimum(6)
    assert res6.m == 12
    assert res6.system.prefix_values() == list(range(12))
    assert sorted(int_to_bits(v, 6) for v in res6.system.suffixes) == sorted(MMIN_K6_SUFFIXES)

    res7 = m_minimum(7)
    assert res7.m == 24
    assert res7.system.prefix_values() == list(range(24))
    assert sorted(int_to_bits(v, 7) for v in res7.system.suffixes) == sorted(MMIN_K7_SUFFIXES)


def test_mmin_systems_are_valid_and_suffixes_maximal():
    for k in range(2, 13):
        res = m_minimum(k)
        assert validate_system(res.system)[0]
        # no excluded suffix could be added back
        chosen = set(res.system.suffix_values())
        for s in range(1 << k):
            if s in chosen:
                continue
            assert any(adjacent(p, s, k) for p in range(res.m))


def test_mmin_capacity():
    with pytest.raises(DomainError):
        m_minimum(1)
    with pytest.raises(CapacityError):
        m_minimum(21)


def test_zero_block_reference_rows():
    for k, (coeff, z) in ZERO_BLOCK_ROWS.items():
        res = zero_block(k)
        assert res.z == z
        assert res.size == SymbolicSize(coeff, 2 * k)
        assert res.size.coefficient == fib_nstep(z, k + 1) << (k - z)


def test_zero_block_k100_and_k200():
    res = zero_block(100)
    assert res.size.coefficient == K100_COEFFICIENT
    assert res.size.offset == 200
    assert zero_block(200).size.coefficient > 0


def test_zero_block_explicit_sets():
    for k in (4, 6, 9):
        res = zero_block(k, emit_sets=True)
        sysm = res.system
        assert len(sysm.prefixes) == 1 << (k - res.z)
        assert len(sysm.suffixes) == fib_nstep(res.z, k + 1)
        assert validate_system(sysm)[0]
        zero_run = "0" * res.z
        for v in sysm.suffixes:
            assert int_to_bits(v, k).endswith("1")
            assert zero_run not in int_to_bits(v, k)
        for v in sysm.prefixes:
            assert int_to_bits(v, k).startswith(zero_run)


def test_zero_block_never_beats_mmin():
    for k in range(2, 15):
        assert zero_block(k).size <= m_minimum(k).size


def test_zero_block_meets_general_lower_bounds():
    for k in range(2, 65):
        res = zero_block(k)
        frac = res.size.per_word_fraction()
        assert frac >= lower_bound_explicit(k, "gen2")
        if k & (k - 1) == 0:
            assert frac >= lower_bound_explicit(k, "gen3")


def test_zero_block_errors():
    with pytest.raises(DomainError):
        zero_block(1)
    with pytest.raises(CapacityError):
        zero_block(25, emit_sets=True)


def test_gl_sizes_and_enumeration_agree():
    for n in range(4, 17):
        sizes = {z: fib_nstep(z, n - z) for z in range(1, n)}
        for z in range(1, n):
            assert len(gl_words(n, z)) == sizes[z]
        res = gilbert_levenshtein(n)
        assert res.size == max(sizes.values())
        assert res.z == min(z for z, v in sizes.items() if v == res.size)


def test_gl_known_sizes():
    got = [gilbert_levenshtein(n).size for n in range(4, 17)]
    assert got == [1, 2, 3, 5, 8, 13, 24, 44, 81, 149, 274, 504, 927]
    assert gilbert_levenshtein(9).size == 13
    assert gilbert_levenshtein(8).z == 2
    assert gilbert_levenshtein(8).size == count_no_zero_run(8 - 2 - 2, 2)


def test_gl_smallest_n_single_word():
    res = gilbert_levenshtein(4, emit_code=True)
    assert res.size == 1
    assert len(res.code) == 1
    assert is_overlap_free(res.code, 1, 3)[0]


def test_gl_emitted_codes_fully_non_overlapping():
    for n in range(4, 17):
        res = gilbert_levenshtein(n, emit_code=True)
        assert len(res.code) == res.size
        assert is_overlap_free(res.code, 1, n - 1)[0]


def test_gl_classic_bounds_hold():
    for n in range(4, 257):
        s = gilbert_levenshtein(n).size
        assert 9 * n * s > (1 << n)
        if n & (n - 1) == 0:
            assert 8 * n * s > (1 << n)


def test_gl_errors():
    with pytest.raises(DomainError):
        gilbert_levenshtein(2)
    with pytest.raises(CapacityError):
        gilbert_levenshtein(33, emit_code=True)


def test_constructions_stay_under_upper_bounds():
    from overlapcodes import upper_bound_1k

    for step in doubling(14, keep_sets=False)[1:]:
        k = step.k
        assert step.product <= upper_bound_1k(2 * k, k, 2)
    for k in range(2, 15):
        assert m_minimum(k).size.coefficient <= upper_bound_1k(2 * k, k, 2)
        assert zero_block(k).size.coefficient <= upper_bound_1k(2 * k, k, 2)


def test_expanded_construction_codes_verify():
    res = m_minimum(5)
    code = expand_system(res.system, 12)
    assert is_overlap_free(code, 1, 5)[0]
    assert len(code) == res.size.value_at(12)
