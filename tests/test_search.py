"""The exact searches: properties on random graphs, and the pinned outputs
of the canonical refinements built on them."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import (
    brute_force_max_code,
    build_overlap_graph,
    max_cardinality_search,
    max_product_search,
)
from overlapcodes.search import (
    _clique_cover,
    first_max_independent_set,
    max_independent_set_size,
)
from overlapcodes.words import set_bits
from oracles import (
    clique_cover_size,
    first_independent_set,
    max_degree_refinement,
    max_independent_set_brute,
)


@st.composite
def graphs(draw):
    """Bitmask rows of a loop-free undirected graph on up to 40 vertices,
    with a set of live vertices."""
    n = draw(st.integers(0, 40))
    density = draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    full = (1 << n) - 1
    live = draw(st.one_of(st.just(full), st.integers(0, full)))
    return adj, live


@st.composite
def symmetric_graphs(draw):
    """A graph as graphs() draws it, but left fixed by a random involution
    pi: edges come in orbit pairs {i, j}, {pi[i], pi[j]}, and the live set is
    a union of orbits. Returns (adj, live, pi)."""
    n = draw(st.integers(0, 36))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pi = list(range(n))
    order = rng.sample(range(n), n)
    for a, b in zip(order[::2], order[1::2]):
        if rng.random() < 0.8:  # else both stay fixed points
            pi[a], pi[b] = b, a
    adj = [0] * n
    for _ in range(draw(st.integers(0, n * n // 3))):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            for u, v in ((i, j), (pi[i], pi[j])):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    live = 0
    for v in range(n):
        if v <= pi[v] and rng.random() < 0.85:
            live |= 1 << v | 1 << pi[v]
    return adj, live, pi


def is_independent(adj, mask):
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        if adj[v] & mask:
            return False
        rest &= rest - 1
    return True


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_colour_ordered_size_is_the_exhaustive_optimum(graph):
    adj, live = graph
    assert max_independent_set_size(adj, live) == max_independent_set_brute(adj, live)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_colour_ordered_size_does_not_depend_on_the_numbering(graph, data):
    # the search colours in the order it is given, so any order must do;
    # graphs() draws live as any subset, so rows carry bits outside it
    adj, live = graph
    n = len(adj)
    pi = data.draw(st.permutations(range(n)))

    def image(mask):
        return sum(1 << pi[v] for v in set_bits(mask))

    relabelled = [0] * n
    for v, row in enumerate(adj):
        relabelled[pi[v]] = image(row)
    single = 1 << data.draw(st.integers(0, n - 1)) if n else 0
    for mask in (live, 0, single):
        want = max_independent_set_size(adj, mask)
        assert max_independent_set_size(relabelled, image(mask)) == want
        assert want == max_independent_set_brute(adj, mask)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_first_optimum_is_unchanged_by_stopping_at_the_optimum(graph):
    adj, live = graph
    size, mask = first_max_independent_set(adj, live)
    assert size == mask.bit_count() == max_independent_set_brute(adj, live)
    assert mask & ~live == 0 and is_independent(adj, mask)
    assert first_max_independent_set(adj, live, size) == (size, mask)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_first_optimum_search_decides_each_target_up_to_the_optimum(graph):
    # at the optimum itself the set is the untargeted one, as the test above
    # checks
    adj, live = graph
    size, _ = first_max_independent_set(adj, live)
    for target in range(1, size + 1):
        got, chosen = first_max_independent_set(adj, live, target)
        assert got == chosen.bit_count() >= target
        assert chosen & ~live == 0 and is_independent(adj, chosen)
    with pytest.raises(AssertionError):
        first_max_independent_set(adj, live, size + 1)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_first_optimum_is_the_max_degree_refinement(graph):
    adj, live = graph
    size, mask = first_max_independent_set(adj, live)
    assert mask == max_degree_refinement(
        adj, live, size, lambda rest, need: max_independent_set_brute(adj, rest) >= need)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_first_optimum_follows_its_tie_key_through_a_renumbering(graph, data):
    # ties go to the least key[v], so a renumbered graph keyed by the old
    # numbers gives the image of the old set; the oracle's printed code,
    # searched on its degree numbering keyed by signature index, rests on it
    adj, live = graph
    n = len(adj)
    pi = data.draw(st.permutations(range(n)))

    def image(mask):
        return sum(1 << pi[v] for v in set_bits(mask))

    relabelled, key = [0] * n, [0] * n
    for v, row in enumerate(adj):
        relabelled[pi[v]], key[pi[v]] = image(row), v
    size, _ = first_max_independent_set(adj, live)
    for target in (None, *range(1, size + 1)):
        got, mask = first_max_independent_set(adj, live, target)
        assert first_max_independent_set(relabelled, image(live), target, key) == (
            got, image(mask)), target


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, 12), st.integers(0, 14))
def test_clique_cover_lists_its_cliques_after_the_skipped_ones(graph, skip, stop):
    adj, live = graph
    n = len(adj)
    bits = [1 << v for v in range(n)]
    order, cover, count = _clique_cover(adj, bits, live, 0)

    def flip(mask):
        return sum(1 << (n - 1 - v) for v in set_bits(mask))

    # the reference grows its cliques from the lowest vertex, so it covers
    # the graph numbered backwards in the same cliques
    backwards = [flip(adj[n - 1 - v]) for v in range(n)]
    assert count == clique_cover_size(backwards, flip(live))
    assert count >= max_independent_set_brute(adj, live)
    assert sorted(order) == set_bits(live)
    for k in range(1, count + 1):
        clique = [v for v, c in zip(order, cover) if c == k]
        assert all(adj[u] >> v & 1 for u, v in combinations(clique, 2))
    kept = [(v, c) for v, c in zip(order, cover) if c > skip]
    assert _clique_cover(adj, bits, live, skip) == ([v for v, _ in kept],
                                                    [c for _, c in kept], count)
    # stopped after stop cliques: the same cliques up to there
    kept = [(v, c) for v, c in kept if c <= stop]
    assert _clique_cover(adj, bits, live, skip, stop) == ([v for v, _ in kept],
                                                          [c for _, c in kept],
                                                          min(count, stop))


@settings(max_examples=150, deadline=None)
@given(symmetric_graphs())
def test_root_symmetry_pruning_keeps_the_optimum(graph):
    adj, live, pi = graph
    for u, row in enumerate(adj):  # pi is an automorphism, as the search needs
        assert adj[pi[u]] == sum(1 << pi[v] for v in range(len(adj)) if row >> v & 1)
    want = max_independent_set_brute(adj, live)
    assert max_independent_set_size(adj, live, [pi.__getitem__]) == want


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_colour_ordered_size_over_parts_is_the_optimum(graph, data):
    # split on a vertex v: every independent set leaves v out or lies among
    # v and its non-neighbours; the parts carry bits outside live
    adj, live = graph
    n = len(adj)
    v = data.draw(st.integers(0, n - 1)) if n else 0
    without = ~(1 << v)
    parts = [(without, []), (~adj[v] if n else 0, [])]
    want = max_independent_set_brute(adj, live)
    assert max_independent_set_size(adj, live, parts=parts) == want
    assert max_independent_set_size(adj, live, parts=parts[::-1]) == want


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, 12))
def test_colour_ordered_search_stops_at_the_target(graph, target):
    adj, live = graph
    want = max_independent_set_brute(adj, live)
    got = max_independent_set_size(adj, live, target=target)
    # the size of an independent set it found, and the optimum if that is short
    assert target <= got <= want if target <= want else got == want


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_include_first_reference_is_the_least_optimum(graph):
    adj, live = graph
    live &= (1 << 14) - 1  # few enough vertices to list every subset
    size = max_independent_set_brute(adj, live)
    least = next(sum(1 << v for v in c) for c in combinations(set_bits(live), size)
                 if is_independent(adj, sum(1 << v for v in c)))
    assert first_independent_set(adj, live, size) == least
    assert first_independent_set(adj, live, size + 1) is None


def test_canonical_outputs_are_pinned():
    # the least optimum of each canonical refinement, oracle and graph; the
    # digest was taken before the refinements stopped their sub-searches at
    # the value still needed
    triples = [(n, t1, t2) for n in range(2, 7) for t1 in range(1, n) for t2 in range(t1, n)]
    triples += [(7, t1, t2) for t1 in range(1, 7) for t2 in range(t1 + 1, 7)]
    triples += [(8, 2, 7), (9, 1, 5), (9, 1, 8)]
    h = hashlib.sha256()
    for n, t1, t2 in triples:
        code = brute_force_max_code(n, t1, t2, canonical=True)[1]
        h.update(f"{n} {t1} {t2}: {code.words}\n".encode())
    for k in range(1, 8):
        g = build_overlap_graph(k)
        for name, run in (("product", max_product_search),
                          ("cardinality", max_cardinality_search)):
            res = run(g, canonical=True)
            xs = [w.value for w in res.prefix_words]
            ys = [w.value for w in res.suffix_words]
            h.update(f"{name} {k}: {xs} {ys}\n".encode())
    assert h.hexdigest() == "270af2ffccc681ad0aa23d69b3a6a6465c8eb8678444e58a6a293498dc5af846"
