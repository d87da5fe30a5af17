import hashlib
import io
from fractions import Fraction

import pytest

from overlapcodes import (
    CapacityError,
    Code,
    DomainError,
    PrefixSuffixSystem,
    brute_force_max_code,
    codes,
    doubling,
    expand_system,
    gilbert_levenshtein,
    is_overlap_free,
    m_minimum,
    read_code,
    search,
    symbolic_size,
    upper_bound_1k,
    upper_bound_graph,
    upper_bound_weak,
    validate_system,
    write_code,
    zero_block,
)
from overlapcodes.words import int_overlap, set_bits
from oracles import first_independent_set, labelling_parts, max_degree_refinement


def syst(k, p, s):
    return PrefixSuffixSystem.from_values(k, p, s)


def test_overlap_free_examples():
    ok, witness = is_overlap_free(Code.from_strings(["0011", "0111"]), 1, 2)
    assert ok and witness is None

    ok, witness = is_overlap_free(Code.from_strings(["0101"]), 1, 2)
    assert not ok
    assert (str(witness.u), str(witness.v), witness.t) == ("0101", "0101", 2)

    ok, _ = is_overlap_free(Code.from_values(4, []), 1, 3)
    assert ok


def test_overlap_witness_is_smallest_in_t_u_v_order():
    # both a t=1 and a t=2 violation exist; t=1 with smallest u, then v wins
    code = Code.from_strings(["0110", "0011", "1100"])
    ok, w = is_overlap_free(code, 1, 2)
    assert not ok
    assert w.t == 1
    assert (str(w.u), str(w.v)) == ("0011", "0110")


@pytest.mark.parametrize("strings", [
    ["0101", "0111", "1010"],
    # 0xxxxxx1 and one word ending in 0: the checker's wide-head path
    [f"0{m:06b}1" for m in range(64)] + ["11111110"],
])
def test_overlap_witness_v_can_be_the_largest_word(strings):
    # the only v whose 1-suffix is a 1-prefix of the code (0) is its largest
    ok, w = is_overlap_free(Code.from_strings(strings), 1, 2)
    assert not ok and w.t == 1
    assert (str(w.u), str(w.v)) == (strings[0], strings[-1])


def test_overlap_range_checked():
    code = Code.from_strings(["0011"])
    with pytest.raises(DomainError):
        is_overlap_free(code, 0, 2)
    with pytest.raises(DomainError):
        is_overlap_free(code, 1, 4)


def test_validate_system_examples():
    ok, clash = validate_system(syst(2, [0b00, 0b01], [0b11]))
    assert ok and clash is None

    ok, clash = validate_system(syst(2, [0b00, 0b01], [0b01, 0b11]))
    assert not ok
    assert clash[0] == 2 and str(clash[1]) == "01"

    ok, _ = validate_system(syst(1, [0], [1]))
    assert ok


def test_expand_system_examples():
    code = expand_system(syst(2, [0b00, 0b01], [0b11]), 5)
    assert sorted(str(w) for w in code) == [
        "00011", "00111", "01011", "01111",
    ]
    assert len(code) == 2 * 1 * 2

    code = expand_system(syst(1, [0], [1]), 2)
    assert [str(w) for w in code] == ["01"]

    code = expand_system(syst(3, [0, 1, 2], [3, 7]), 6)
    assert len(code) == 6
    assert is_overlap_free(code, 1, 3)[0]


def test_expand_system_errors():
    with pytest.raises(DomainError):
        expand_system(syst(3, [0], [7]), 5)
    with pytest.raises(CapacityError):
        expand_system(syst(1, [0], [1]), 65)
    with pytest.raises(CapacityError):
        expand_system(syst(1, [0], [1]), 60)  # 2^58 words


def test_symbolic_size_of_system():
    s = symbolic_size(syst(4, range(5), range(12, 16)))
    assert (s.coefficient, s.offset) == (20, 8)
    s = symbolic_size(syst(3, [], [1]))
    assert s.coefficient == 0
    s = symbolic_size(syst(6, range(12), range(46, 64)))
    assert (s.coefficient, s.offset) == (216, 12)


def test_valid_systems_expand_to_overlap_free_codes():
    cases = [
        syst(1, [0], [1]),
        syst(2, [0b00, 0b01], [0b11]),
        syst(3, [0b000, 0b001, 0b010], [0b011, 0b111]),
        syst(4, [0, 1, 2, 4, 5], [0b0011, 0b1011, 0b0111, 0b1111]),
    ]
    for sys_ in cases:
        assert validate_system(sys_)[0]
        for n in range(2 * sys_.k, min(2 * sys_.k + 4, 16) + 1):
            code = expand_system(sys_, n)
            assert is_overlap_free(code, 1, sys_.k)[0]
            assert len(code) == symbolic_size(sys_).value_at(n)


def test_invalid_system_fails_at_reported_overlap_size():
    bad = syst(3, [0b000, 0b011], [0b011, 0b111])
    ok, (t, word) = validate_system(bad)
    assert not ok
    code = expand_system(bad, 6)
    free, witness = is_overlap_free(code, t, t)
    assert not free and witness.t == t


def test_code_file_round_trip(tmp_path):
    code = expand_system(syst(2, [0b00, 0b01], [0b11]), 6)
    buf = io.StringIO()
    write_code(code, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "# n=6 q=2"
    again = read_code(io.StringIO(text))
    assert again == code


def test_code_file_parsing_rules():
    text = "\n# comment\n0011\n\n0111\n"
    code = read_code(io.StringIO(text))
    assert len(code) == 2 and code.n == 4
    with pytest.raises(DomainError):
        read_code(io.StringIO("0011\n012\n"))
    with pytest.raises(DomainError):
        read_code(io.StringIO("0011\n011\n"))
    with pytest.raises(DomainError):
        read_code(io.StringIO("# only a comment\n"))


@pytest.mark.parametrize("word", ["0b11", "0_11", "+011", "01 10", "\uff11\uff10"])
def test_read_code_rejects_non_binary_words(word):
    # int(word, 2) reads most of these; a code file must not
    text = f"# n={len(word)} q=2\n{'1' * len(word)}\n{word}\n"
    with pytest.raises(DomainError, match=r"^line 3: invalid word"):
        read_code(io.StringIO(text))
    with pytest.raises(DomainError):
        Code.from_strings(["1" * len(word), word])


def test_code_rejects_mixed_lengths():
    with pytest.raises(DomainError):
        Code.from_strings(["001", "0011"])
    with pytest.raises(DomainError):
        Code.from_values(3, [8])
    with pytest.raises(DomainError):
        Code.from_strings([""])


def test_oracle_known_optima():
    for (n, t1, t2), expect in [
        ((4, 1, 2), 2),
        ((6, 1, 3), 6),
        ((5, 1, 4), 2),
    ]:
        size, code = brute_force_max_code(n, t1, t2)
        assert size == expect
        assert len(code) == size
        assert is_overlap_free(code, t1, t2)[0]


def test_oracle_single_overlap_size_up_to_half_the_length():
    # the t-heads and t-tails of a code are disjoint, so at most 2^(n-2)
    # words fit when 2t <= n; a search that must prove this takes minutes
    for n in range(2, 11):
        for t in range(1, n // 2 + 1):
            size, code = brute_force_max_code(n, t, t)
            assert size == len(code) == 1 << (n - 2), (n, t)
            assert is_overlap_free(code, t, t)[0], (n, t)


def test_oracle_never_beats_counting_bounds():
    for n, t1, t2 in [(4, 1, 2), (5, 1, 2), (6, 2, 5), (7, 3, 6), (6, 1, 5)]:
        size, _ = brute_force_max_code(n, t1, t2)
        if t2 == n - 1:  # all overlaps >= t1 banned: the weak bound applies
            assert size <= upper_bound_weak(n, t1, 2)
        if t1 == 1 and 2 * t2 <= n:
            assert size <= upper_bound_1k(n, t2, 2)


def test_oracle_optima_lie_between_the_bounds_and_the_constructions():
    # every n <= 6 triple and every n = 7 triple with t1 < t2
    sizes = {(n, t1, t2): brute_force_max_code(n, t1, t2)[0]
             for n in range(2, 8) for t1 in range(1, n)
             for t2 in range(t1 + (n == 7), n)}
    for (n, t1, t2), size in sizes.items():
        where = (n, t1, t2)
        if t2 == n - 1 and 2 * t1 <= n:  # past that, see the next test
            assert size <= upper_bound_weak(n, t1), where
        if t1 == 1 and t2 >= 2 and n >= t2 + 2:
            assert size <= upper_bound_graph(n, t2), where
        if t1 == 1 and 2 * t2 <= n:
            assert size <= upper_bound_1k(n, t2), where
            # the width-t2 systems, expanded to length n
            built = [doubling(t2, keep_sets=False)[-1].product << (n - 2 * t2)]
            if t2 >= 2:
                built += [m_minimum(t2).size.value_at(n), zero_block(t2).size.value_at(n)]
            assert size >= max(built), where
        if (t1, t2) == (1, n - 1) and n >= 3:
            assert size >= gilbert_levenshtein(n).size, where
        # banning more overlap sizes never lets a code grow
        for (m, s1, s2), wider in sizes.items():
            if m == n and s1 <= t1 and t2 <= s2:
                assert wider <= size, (where, (s1, s2))


def test_weak_bound_is_exceeded_past_half_the_length():
    # A known divergence, kept visible: q^n / (2n - 2k + 1) is below the
    # optimum once 2k > n. This 6-word code has no 3-overlap, yet the bound
    # at n = 4, k = 3 is 16/3; the optima below (those with n <= 6 matched
    # by the integer program) exceed it too
    code = Code.from_strings(["0001", "0100", "0101", "0111", "1100", "1101"])
    assert is_overlap_free(code, 3, 3)[0]
    assert len(code) > upper_bound_weak(4, 3) == Fraction(16, 3)
    for (n, t1, t2), size in [((5, 4, 4), 12), ((6, 4, 5), 14), ((6, 5, 5), 27),
                              ((7, 5, 6), 31)]:
        assert brute_force_max_code(n, t1, t2)[0] == size > upper_bound_weak(n, t1)


def test_oracle_conflict_rows_match_pairwise_definition():
    # every signature of width t2, self-conflicting ones included
    for n in range(2, 8):
        for t1 in range(1, n):
            for t2 in range(t1, n):
                sigs = sorted({(w >> (n - t2), w & ((1 << t2) - 1)) for w in range(1 << n)})
                trange = range(t1, t2 + 1)
                expect = [
                    sum(1 << j for j, (vh, vt) in enumerate(sigs)
                        if any(int_overlap(uh, vt, t2, t) or int_overlap(vh, ut, t2, t)
                               for t in trange))
                    for uh, ut in sigs
                ]
                assert codes._conflict_rows(sigs, t1, t2) == expect, (n, t1, t2)


def kept_signatures(n, t1, t2):
    """The oracle's vertices: the width-t2 (head, tail) signatures of the
    words of length n that overlap themselves at no size in t1..t2."""
    sigs = {(w >> (n - t2), w & ((1 << t2) - 1)) for w in range(1 << n)}
    return sorted((h, t) for h, t in sigs
                  if not any(int_overlap(h, t, t2, s) for s in range(t1, t2 + 1)))


def rev(x, width):
    """x read backwards as a width-bit word."""
    return int(format(x, f"0{width}b")[::-1], 2)


def test_oracle_degree_order_renumbers_the_conflict_rows():
    # the searches' graph is the oracle's graph, its classes renumbered by
    # descending degree with ties in reverse signature order
    for n in range(3, 8):
        for t1 in range(1, n):
            for t2 in range(t1 + 1, n):
                sigs = kept_signatures(n, t1, t2)
                adj = codes._conflict_rows(sigs, t1, t2)
                order, ranked, ranked_adj = codes._by_degree(sigs, adj, t1, t2)
                assert sorted(order) == list(range(len(sigs)))
                assert ranked == [sigs[i] for i in order]
                keys = [(adj[i].bit_count(), i) for i in order]
                assert keys == sorted(keys, reverse=True), (n, t1, t2)
                pos = {i: d for d, i in enumerate(order)}
                assert ranked_adj == [sum(1 << pos[j] for j in set_bits(adj[i]))
                                      for i in order], (n, t1, t2)


def test_oracle_symmetries_are_automorphisms():
    # in signature order and in the search's degree order alike
    for n in range(3, 9):
        for t1 in range(1, n):
            for t2 in range(t1 + 1, n):
                sigs = kept_signatures(n, t1, t2)
                adj = codes._conflict_rows(sigs, t1, t2)
                _, ranked, ranked_adj = codes._by_degree(sigs, adj, t1, t2)
                check_symmetries(sigs, adj, t2, (n, t1, t2))
                check_symmetries(ranked, ranked_adj, t2, (n, t1, t2))


def check_symmetries(sigs, adj, t2, where):
    """codes._symmetries(sigs, t2) are reversal, complement and both, each
    an automorphism of the conflict rows adj."""
    flip = (1 << t2) - 1
    mirror, complement, both = codes._symmetries(sigs, t2)
    for perm, want in (
        (mirror, lambda h, t: (rev(t, t2), rev(h, t2))),
        (complement, lambda h, t: (flip ^ h, flip ^ t)),
        (both, lambda h, t: (flip ^ rev(t, t2), flip ^ rev(h, t2))),
    ):
        images = [perm(i) for i in range(len(sigs))]
        assert [sigs[j] for j in images] == [want(*sig) for sig in sigs]
        assert sorted(images) == list(range(len(sigs))), where
        for i, row in enumerate(adj):
            assert adj[images[i]] == sum(
                1 << images[j] for j in range(len(sigs)) if row >> j & 1
            ), (where, i)


def test_oracle_proof_is_unchanged_by_symmetry_pruning():
    # on the degree-ordered graph the oracle's proof runs on
    for n in range(3, 8):
        for t1 in range(1, n):
            for t2 in range(t1 + 1, n):
                sigs = kept_signatures(n, t1, t2)
                _, ranked, adj = codes._by_degree(
                    sigs, codes._conflict_rows(sigs, t1, t2), t1, t2)
                live = (1 << len(sigs)) - 1
                pruned = search.max_independent_set_size(
                    adj, live, codes._symmetries(ranked, t2))
                assert pruned == search.max_independent_set_size(adj, live), (n, t1, t2)


def label_part_cases():
    """(where, conflict rows, classes as bit strings, parts) for every triple
    with n <= 7, t1 <= 3 and t1 < t2, on the degree order the proof runs on."""
    for n in range(3, 8):
        for t1 in range(1, min(n - 1, 4)):
            for t2 in range(t1 + 1, n):
                sigs = kept_signatures(n, t1, t2)
                _, ranked, adj = codes._by_degree(
                    sigs, codes._conflict_rows(sigs, t1, t2), t1, t2)
                parts = codes._label_parts(ranked, t1, t2, codes._symmetries(ranked, t2))
                classes = [(format(h, f"0{t2}b"), format(t, f"0{t2}b")) for h, t in ranked]
                yield (n, t1, t2), adj, classes, parts


def test_oracle_label_parts_have_no_clash_at_t1():
    # a class paired with itself included: no t1-prefix of the part's heads
    # is a t1-suffix of its tails
    for (n, t1, t2), _, classes, parts in label_part_cases():
        for part, _ in parts:
            members = [classes[i] for i in set_bits(part)]
            assert not ({head[:t1] for head, _ in members}
                        & {tail[-t1:] for _, tail in members}), (n, t1, t2)


def test_oracle_label_parts_cover_every_labelling_up_to_symmetry():
    for (n, t1, t2), _, classes, parts in label_part_cases():
        reference = labelling_parts(classes, t1)
        returned = {part for part, _ in parts}
        assert returned <= {part for part, _ in reference.values()}, (n, t1, t2)
        for labelling, (part, images) in reference.items():
            assert part in returned or any(
                reference[image][0] in returned for image in images), (n, t1, t2, labelling)


def test_oracle_label_parts_list_only_symmetries_that_fix_them():
    for (n, t1, t2), _, _, parts in label_part_cases():
        for part, fixing in parts:
            for symmetry in fixing:
                assert sum(1 << symmetry(i) for i in set_bits(part)) == part, (n, t1, t2)


def test_oracle_size_on_label_parts_is_the_whole_graph_size():
    for (n, t1, t2), adj, classes, parts in label_part_cases():
        live = (1 << len(classes)) - 1
        assert search.max_independent_set_size(adj, live, parts=parts) == (
            search.max_independent_set_size(adj, live)), (n, t1, t2)


def test_oracle_size_proofs_visit_the_pinned_nodes(monkeypatch):
    # One clique cover per node of the colour-ordered proof. A slip in the
    # degree numbering or in the cover's direction keeps every output but
    # can cost the proof 6-10x, so the counts are pinned; a stronger bound
    # (ROADMAP item 4) updates these pins on purpose. (9, 3, 8) and
    # (8, 3, 7) run on the head/tail labelling parts (6,239 and 636 nodes
    # without them); (7, 4, 5), with t1 = 4, runs on the whole graph.
    calls, proofs = [0], []
    cover, size = search._clique_cover, search.max_independent_set_size

    def counted_cover(*args):
        calls[0] += 1
        return cover(*args)

    def counted_size(*args, **kwargs):
        before = calls[0]
        result = size(*args, **kwargs)
        proofs.append(calls[0] - before)
        return result

    monkeypatch.setattr(search, "_clique_cover", counted_cover)
    monkeypatch.setattr(search, "max_independent_set_size", counted_size)
    for (n, t1, t2), nodes in (((9, 3, 8), 974), ((7, 4, 5), 754), ((8, 3, 7), 213)):
        proofs.clear()
        brute_force_max_code(n, t1, t2)
        assert proofs == [nodes], (n, t1, t2)


def test_oracle_plain_output_is_pinned():
    # the first optimum in search order, as the plain oracle CLI prints it
    triples = [(n, t1, t2) for n in range(2, 7) for t1 in range(1, n) for t2 in range(t1, n)]
    triples += [(9, 2, 4), (10, 1, 5)]
    # with t1 < t2 the search stops once it reaches the proven optimum; these
    # graphs have long proofs after their first optimum
    triples += [(7, t1, t2) for t1 in range(1, 7) for t2 in range(t1 + 1, 7)]
    triples += [(8, 3, 7), (9, 3, 8)]
    h = hashlib.sha256()
    for n, t1, t2 in triples:
        h.update(f"{n} {t1} {t2}: {brute_force_max_code(n, t1, t2)[1].words}\n".encode())
    assert h.hexdigest() == "2313492aaf5cc1a315c9ec116a19a3cf6f604ea393fe7d08d60a7b64210bc7b0"


def test_oracle_plain_output_is_pinned_where_the_proof_is_long():
    # the proofs of these two take most of a second or more without the
    # symmetry pruning; the digest was taken before it
    h = hashlib.sha256()
    for n, t1, t2 in [(7, 5, 6), (8, 4, 6)]:
        h.update(f"{n} {t1} {t2}: {brute_force_max_code(n, t1, t2)[1].words}\n".encode())
    assert h.hexdigest() == "b9e721ba253ae117f2d0a6db5e5258aad8bbd55cf03eaea240d4d987237c8094"


def test_oracle_plain_output_is_pinned_where_the_labelling_split_cuts_most():
    # the size proofs of these run on the head/tail labelling parts; the
    # digest was taken before the split
    h = hashlib.sha256()
    for (n, t1, t2), size in (((8, 3, 6), 29), ((9, 3, 5), 79), ((9, 3, 7), 47),
                              ((10, 3, 5), 156), ((10, 2, 9), 37)):
        got, code = brute_force_max_code(n, t1, t2)
        assert got == size, (n, t1, t2)
        h.update(f"{n} {t1} {t2}: {code.words}\n".encode())
    assert h.hexdigest() == "6b193249f8d1f20ead454faf2bc4bda7c3f59b423881a2af231dc5f636b78327"


def test_oracle_sizes_match_an_integer_program():
    # an independent optimum: HiGHS on one binary per word and one packing
    # row per pair of words that overlap either way (a self-overlapping word
    # gets 2x <= 1), the overlaps read off bit strings
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    triples = [(n, t1, t2) for n in range(2, 7) for t1 in range(1, n) for t2 in range(t1, n)]
    # n = 7 triples with t1 < t2 whose program HiGHS solves in under a
    # second; (7, 4, 6) takes about 0.9 s too, and (7, 3, 4), (7, 3, 5),
    # (7, 4, 5) and (7, 5, 6) 2-5 s each
    triples += [(7, t1, t2) for t1 in (1, 2) for t2 in range(t1 + 1, 7)] + [(7, 3, 6)]
    for n, t1, t2 in triples:
        strings = [format(w, f"0{n}b") for w in range(1 << n)]
        rows = []
        for u, su in enumerate(strings):
            for v, sv in enumerate(strings[u:], u):
                if any(su[:t] == sv[-t:] or sv[:t] == su[-t:] for t in range(t1, t2 + 1)):
                    row = np.zeros(1 << n)
                    row[u] += 1
                    row[v] += 1
                    rows.append(row)
        res = optimize.milp(
            -np.ones(1 << n), integrality=np.ones(1 << n),
            bounds=optimize.Bounds(0, 1),
            constraints=optimize.LinearConstraint(np.array(rows), -np.inf, 1),
        )
        assert res.status == 0, (n, t1, t2, res.message)
        assert brute_force_max_code(n, t1, t2)[0] == round(-res.fun), (n, t1, t2)


def test_oracle_capacity():
    with pytest.raises(CapacityError):
        brute_force_max_code(11, 1, 2)


def test_oracle_canonical_is_lexicographically_smallest():
    # n = 5 has two-word signature classes (the middle bit is free)
    for n, want in ((4, 2), (5, 4)):
        size, code = brute_force_max_code(n, 1, 2, canonical=True)
        assert size == want
        values = code.values()
        # verify minimality against all optima by direct enumeration
        import itertools

        words = [w for w in range(1 << n)]
        ok_codes = []
        for combo in itertools.combinations(words, size):
            c = Code.from_values(n, combo)
            if is_overlap_free(c, 1, 2)[0]:
                ok_codes.append(sorted(combo))
        assert values == min(ok_codes)


def test_oracle_canonical_keeps_optimum():
    plain, _ = brute_force_max_code(7, 1, 3)
    size, code = brute_force_max_code(7, 1, 3, canonical=True)
    assert size == plain == 12
    assert is_overlap_free(code, 1, 3)[0]


def test_oracle_canonical_is_the_first_optimum_in_class_order():
    # an include-first search over the classes, in order, finds the least
    # optimum outright; the canonical refinement must land on the same one
    for n, t1, t2 in [(8, 4, 4), (9, 4, 4), (10, 4, 4), (8, 3, 4), (9, 1, 8)]:
        size, code = brute_force_max_code(n, t1, t2, canonical=True)
        sigs = kept_signatures(n, t1, t2)
        adj = codes._conflict_rows(sigs, t1, t2)
        free = max(0, n - 2 * t2)  # middle bits of each class
        chosen = first_independent_set(adj, (1 << len(sigs)) - 1, size >> free)
        want = sorted(head << (n - t2) | m << t2 | tail
                      for i, (head, tail) in enumerate(sigs) if chosen >> i & 1
                      for m in range(1 << free))
        assert list(code.words) == want, (n, t1, t2)


def test_oracle_plain_output_is_the_max_degree_refinement():
    # an independent reference for which optimum the plain oracle prints:
    # its first-optimum search branches on the class with the most live
    # conflicts, taking it first, so it keeps a class iff an optimum still
    # extends the choice
    triples = [(n, t1, t2) for n in range(2, 7) for t1 in range(1, n) for t2 in range(t1, n)]
    triples += [(7, t1, t2) for t1 in range(1, 7) for t2 in range(t1 + 1, 7)]
    triples += [(8, 3, 7), (8, 4, 4), (9, 1, 8), (9, 2, 4), (9, 3, 8), (10, 1, 5)]
    # the rest of the benchmark's plain oracle list, and a t1 == t2 > n/2
    # triple, whose search runs untargeted
    triples += [(8, 2, 5), (8, 2, 6), (9, 1, 6), (8, 3, 5), (9, 3, 4), (10, 1, 9),
                (9, 2, 8), (7, 4, 4)]
    for n, t1, t2 in triples:
        size, code = brute_force_max_code(n, t1, t2)
        sigs = kept_signatures(n, t1, t2)
        adj = codes._conflict_rows(sigs, t1, t2)
        free = max(0, n - 2 * t2)  # middle bits of each class
        chosen = max_degree_refinement(adj, (1 << len(sigs)) - 1, size >> free)
        want = sorted(head << (n - t2) | m << t2 | tail
                      for i, (head, tail) in enumerate(sigs) if chosen >> i & 1
                      for m in range(1 << free))
        assert list(code.words) == want, (n, t1, t2)
