"""Property tests: the independent-set searches on random graphs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes.search import first_max_independent_set, max_independent_set_size
from oracles import max_independent_set_brute


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
@given(graphs())
def test_first_optimum_is_unchanged_by_stopping_at_the_optimum(graph):
    adj, live = graph
    size, mask = first_max_independent_set(adj, live)
    assert size == mask.bit_count() == max_independent_set_brute(adj, live)
    assert mask & ~live == 0 and is_independent(adj, mask)
    assert first_max_independent_set(adj, live, size) == (size, mask)


@settings(max_examples=150, deadline=None)
@given(symmetric_graphs())
def test_root_symmetry_pruning_keeps_the_optimum(graph):
    adj, live, pi = graph
    for u, row in enumerate(adj):  # pi is an automorphism, as the search needs
        assert adj[pi[u]] == sum(1 << pi[v] for v in range(len(adj)) if row >> v & 1)
    want = max_independent_set_brute(adj, live)
    assert max_independent_set_size(adj, live, [pi.__getitem__]) == want
