from itertools import combinations

import pytest

from overlapcodes import (
    BitWord,
    CapacityError,
    DomainError,
    SymbolicSize,
    build_overlap_graph,
    max_cardinality_search,
    max_product_search,
    mis_matching_certificate,
    t_overlap,
)
from overlapcodes.graph import _result
from overlapcodes.search import two_sided_search
from oracles import adjacent

# reference per-k optima: cardinality of the best-product set, product
PUBLISHED = {1: (2, 1), 2: (3, 2), 3: (5, 6), 4: (9, 20), 5: (16, 64), 6: (30, 216)}


def test_rows_match_pairwise_overlap_predicate():
    for k in range(1, 9):
        g = build_overlap_graph(k)
        for p in range(1 << k):
            row = g.rows[p]
            for s in range(1 << k):
                expect = any(
                    t_overlap(BitWord(k, p), BitWord(k, s), t)
                    for t in range(1, k + 1)
                )
                assert ((row >> s) & 1 == 1) == expect


def test_rows_match_shifted_period_masks():
    # reference formula: row(p) is the union over t of the mask of the
    # multiples of 2^t below 2^k, shifted up by the t-prefix of p
    for k in range(9, 13):
        size = 1 << k
        periods = [sum(1 << s for s in range(0, size, 1 << t)) for t in range(1, k + 1)]
        rows = build_overlap_graph(k).rows
        for p in range(size):
            row = 0
            for t in range(1, k + 1):
                row |= periods[t - 1] << (p >> (k - t))
            assert rows[p] == row, (k, p)


def test_result_rejects_non_independent_pair():
    # 010 / 110 meet at t = 1 only, 011 / 011 at t = 3 only
    for xs, ys in (([0b010], [0b110]), ([0b011], [0b011])):
        with pytest.raises(AssertionError):
            _result(3, xs, ys, optimal=True)
    assert _result(3, [0b000], [0b001], optimal=True).cardinality == 2


def test_graph_examples():
    g = build_overlap_graph(2)
    assert g.has_edge(0b00, 0b00) and g.has_edge(0b00, 0b10)
    assert not g.has_edge(0b00, 0b11)
    assert not g.has_edge(0b00, 0b01)
    for k in (1, 3, 5):
        g = build_overlap_graph(k)
        for p in range(1 << k):
            assert g.has_edge(p, p)


def test_graph_capacity():
    with pytest.raises(CapacityError):
        build_overlap_graph(17)
    with pytest.raises(CapacityError):
        mis_matching_certificate(17)
    for k in (0, -1):
        with pytest.raises(DomainError):
            build_overlap_graph(k)
    for k in (1, 0):
        with pytest.raises(DomainError):
            mis_matching_certificate(k)


def test_product_search_reference_values():
    for k, (card, product) in PUBLISHED.items():
        res = max_product_search(build_overlap_graph(k))
        assert res.product == product
        assert res.cardinality == card
        assert res.optimal
        assert res.code_size() == SymbolicSize(product, 2 * k)


def test_product_search_k6_shape():
    res = max_product_search(build_overlap_graph(6))
    assert sorted((res.x_size, res.y_size)) == [12, 18]


def test_cardinality_search_attains_matching_ceiling():
    # the outright maximum is 2^(k-1) + 1, strictly above the published
    # best-product cardinality for k = 5, 6
    for k in range(1, 7):
        res = max_cardinality_search(build_overlap_graph(k))
        assert res.cardinality == (1 << (k - 1)) + 1
        assert res.optimal


def test_search_results_verified_independent():
    for k in (3, 5, 6):
        res = max_product_search(build_overlap_graph(k))
        for p in res.prefix_words:
            for s in res.suffix_words:
                assert not adjacent(p.value, s.value, k)
        assert res.x_size >= 1 and res.y_size >= 1


def test_search_matches_raw_subset_enumeration():
    # independent oracle: enumerate every subset of the prefix side and
    # take all compatible suffixes, over the unreduced vertex sets
    for k in (1, 2, 3, 4):
        best_prod, best_card = 0, 0
        words = list(range(1 << k))
        for mask in range(1, 1 << len(words)):
            xs = [p for i, p in enumerate(words) if (mask >> i) & 1]
            ys = [s for s in words if not any(adjacent(p, s, k) for p in xs)]
            if not ys:
                continue
            best_prod = max(best_prod, len(xs) * len(ys))
            best_card = max(best_card, len(xs) + len(ys))
        g = build_overlap_graph(k)
        assert max_product_search(g).product == best_prod
        assert max_cardinality_search(g).cardinality == best_card


def test_reduction_soundness_small_k():
    # the engine on every prefix and every suffix, without the reduction to
    # X_0 u Y_1, finds the same optimal (objective, other objective) pair
    for k in range(1, 6):
        g = build_overlap_graph(k)
        words = list(range(1 << k))
        for objective, reduced in (
            ("product", max_product_search),
            ("cardinality", max_cardinality_search),
        ):
            full, xs, ymask, finished = two_sided_search(
                g.rows, objective, words, (1 << (1 << k)) - 1
            )
            red = reduced(g)
            pair = (red.product, red.cardinality)
            assert finished
            assert full == (pair if objective == "product" else pair[::-1])
            ys = [s for s in words if ymask >> s & 1]
            assert full[0] == (len(xs) * len(ys) if objective == "product"
                               else len(xs) + len(ys))
            assert not any(adjacent(p, s, k) for p in xs for s in ys)


def test_complement_and_reversal_symmetries():
    # complementing every word preserves independence side by side;
    # reverse-complement preserves it with the two sides exchanged
    def rev(v, k):
        return int(format(v, f"0{k}b")[::-1], 2)

    for k in (2, 3, 4, 5):
        res = max_product_search(build_overlap_graph(k))
        mask = (1 << k) - 1
        for p in res.prefix_words:
            for s in res.suffix_words:
                assert not adjacent(p.value ^ mask, s.value ^ mask, k)
                assert not adjacent(
                    rev(s.value ^ mask, k), rev(p.value ^ mask, k), k
                )


def test_cardinality_never_exceeds_matching_bound():
    for k in range(2, 11):
        if k <= 6:
            res = max_cardinality_search(build_overlap_graph(k))
            assert res.cardinality <= (1 << (k - 1)) + 1
        cert = mis_matching_certificate(k)
        assert cert.extremal.cardinality == (1 << (k - 1)) + 1


def test_product_never_exceeds_graph_bound():
    for k in range(2, 7):
        res = max_product_search(build_overlap_graph(k))
        assert res.product <= ((1 << (k - 2)) + 1) * (1 << (k - 2))


def test_matching_certificate_structure():
    for k in range(2, 17):
        cert = mis_matching_certificate(k)
        pairs = cert.matching
        assert len(pairs) == (1 << (k - 1)) - 1
        assert len({p for p, _ in pairs}) == len(pairs)
        assert len({s for _, s in pairs}) == len(pairs)
        for p, s in pairs:
            assert p.value < (1 << (k - 1))  # prefix side starts 0
            assert s.value & 1  # suffix side ends 1
            assert any(t_overlap(p, s, t) for t in range(1, k + 1))
        ext = cert.extremal
        assert ext.x_size == 1 and str(ext.prefix_words[0]) == "0" * k
        assert ext.y_size == 1 << (k - 1)
        assert ext.cardinality == (1 << (k - 1)) + 1
        for s in ext.suffix_words:
            assert not adjacent(0, s.value, k)


def test_certificate_examples():
    assert len(mis_matching_certificate(3).matching) == 3
    assert mis_matching_certificate(3).extremal.cardinality == 5
    assert len(mis_matching_certificate(4).matching) == 7
    assert mis_matching_certificate(4).extremal.cardinality == 9
    cert6 = mis_matching_certificate(6)
    assert len(cert6.matching) == 31
    assert cert6.extremal.cardinality == 33  # exceeds the best-product 30


def test_canonical_product_search_prefix_side():
    res = max_product_search(build_overlap_graph(6), canonical=True)
    assert res.product == 216
    # the all-zero prefix extends to an optimum, so canonical starts at 0
    assert res.prefix_words[0].value == 0
    values = [w.value for w in res.prefix_words]
    assert values == sorted(values)


def test_canonical_search_matches_brute_force():
    # every X inside X_0 with Y all compatible suffixes ending 1: the best
    # (objective, other objective) pair, then the least sorted prefix list,
    # a missing entry sorting after every word
    for k in range(1, 5):
        g = build_overlap_graph(k)
        odd = range(1, 1 << k, 2)
        sets = []
        for size in range(1, (1 << (k - 1)) + 1):
            for xs in combinations(range(1 << (k - 1)), size):
                ys = [s for s in odd if not any(adjacent(p, s, k) for p in xs)]
                if ys:
                    sets.append((xs, ys))
        for objective, search in (
            ("product", max_product_search),
            ("cardinality", max_cardinality_search),
        ):
            def key(xy):
                a, b = len(xy[0]), len(xy[1])
                best = (a * b, a + b) if objective == "product" else (a + b, a * b)
                return (-best[0], -best[1], list(xy[0]) + [1 << k])

            xs, ys = min(sets, key=key)
            res = search(g, canonical=True)
            assert res.optimal
            assert [w.value for w in res.prefix_words] == list(xs)
            assert [w.value for w in res.suffix_words] == ys


def test_node_budget_stops_deterministically():
    g = build_overlap_graph(8)
    res = max_product_search(g, node_budget=1000)
    assert not res.optimal
    assert 1 <= res.product < 2640  # stopped short of the k = 8 optimum
    assert res.product == res.x_size * res.y_size
    for p in res.prefix_words:
        for s in res.suffix_words:
            assert not adjacent(p.value, s.value, 8)
    assert max_product_search(g, node_budget=1000) == res
    full = max_product_search(build_overlap_graph(7))
    assert full.optimal and full.product == 744
    one = max_product_search(g, node_budget=1)
    assert not one.optimal and one.x_size == 1 and one.y_size == 128
    for bad in (0, -1):
        with pytest.raises(DomainError):
            max_cardinality_search(g, node_budget=bad)
