"""Exact branch-and-bound searches on graphs given as bitmask neighbour rows.

The two-sided search runs on the bipartite prefix/suffix graph. Two
independent-set searches run on the oracle's signature-class graph: a
colour-ordered one that proves the optimum's size, and a max-degree one that
returns the first optimum in its own order. Both bound a node by one greedy
clique cover, `_clique_cover`: no independent set among the candidates holds
more vertices than the cover has cliques. Each search takes a target and
returns as soon as its incumbent reaches it. In the colour-ordered search
that cuts the proof and nothing else, so the canonical refinements (in the
callers) ask each sub-search only whether an optimum still extends the
candidate on trial. The colour-ordered search colours in the index order
it is given: the oracle numbers its classes by ascending degree once per
call, and each of its searches picks its vertices by a live mask in that
numbering. The first-optimum search, given the optimum's size,
is a decision search for it: it also cuts every subtree whose cover cannot
reach that size, which changes no returned set.

The colour-ordered search can prune its root by automorphisms of the graph.
Once the root branch on v has finished, no independent set through v beats
the incumbent. An automorphism σ maps an independent set through σ(v) to
one of the same size through v, so none through σ(v) beats it either, and
σ(v) is dropped from the root's candidates with v (orbital branching,
Ostrowski et al., Math. Programming 2011, applied at the root only). The
dropped set is never branched on again, so it need not be closed under the
group.
"""

from .words import set_bits

# Search nodes before the two-sided search gives up. Every reduced search up
# to k = 8 finishes well inside it (k = 8 product takes 6.1e5 nodes); a k = 9
# product search stops after about a minute (about 11 us a node under
# CPython 3.11 on a 2-core x86-64 VM).
NODE_BUDGET = 5_000_000


def two_sided_search(rows, objective, candidates, ymask, xcount=0,
                     node_budget=None, target=None):
    """Maximize (objective, the other objective) lexicographically over
    pairs (X, Y): X the xcount preset prefixes plus a subset of the
    candidates, Y the suffixes in ymask compatible with every prefix in X.

    rows[p] is the mask of suffix words adjacent to prefix p, and ymask must
    already exclude the neighbours of the preset prefixes. Returns (best
    value pair, chosen candidates, y mask, finished); finished is False when
    node_budget search nodes ran out, and the result is then the best found
    so far. Given target, a value pair, the search returns as soon as its
    best reaches it. The suffix side is forced maximal, which never hurts
    either objective; candidates whose live neighbourhoods are empty are
    pulled in for the same reason.
    """
    nbr = [rows[p] & ymask for p in candidates]
    m = len(candidates)
    order = sorted(range(m), key=lambda i: -nbr[i].bit_count())
    nbr = [nbr[i] for i in order]
    product_first = objective == "product"
    left = float("inf") if node_budget is None else node_budget
    stop = (float("inf"),) if target is None else target

    best = [(0, 0), [], 0]

    def value(xc: int, yc: int):
        return (xc * yc, xc + yc) if product_first else (xc + yc, xc * yc)

    def dfs(i: int, xcount: int, xset: list[int], ymask: int):
        nonlocal left
        left -= 1
        if left < 0 or not ymask:
            return
        free = [j for j in range(i, m) if nbr[j] & ymask == 0]
        xc = xcount + len(free)
        yc = ymask.bit_count()
        if xc:
            v = value(xc, yc)
            if v > best[0]:
                best[0], best[1], best[2] = v, xset + free, ymask
        if value(xcount + m - i, yc) <= best[0]:
            return
        for j in range(i, m):
            if best[0] >= stop:
                return
            live = nbr[j] & ymask
            if not live:
                continue
            ahead = [f for f in free if f < j]
            dfs(j + 1, xcount + len(ahead) + 1, xset + ahead + [j], ymask & ~live)

    dfs(0, xcount, [], ymask)
    xs = [candidates[order[i]] for i in best[1]]
    return best[0], xs, best[2], left >= 0


def _clique_cover(
    nbr: list[int], cand: int, skip: int, stop: float = float("inf")
) -> tuple[list[int], list[int], int]:
    """Greedy clique cover of the vertices in cand, so the number of cliques
    bounds every independent set among them. Each clique grows from the
    lowest vertex left, adding the lowest vertex adjacent to all it holds.
    Rows must be loop-free: no vertex is in its own row. The cover stops
    once it has stop cliques, for a caller that asks only whether the bound
    reaches stop.

    Returns (order, cover, count): order holds, as single-bit masks, the
    vertices of the cliques after the first skip, cover[i] is the number of
    the clique holding order[i] (from 1), and count is the number of cliques.
    """
    order, cover = [], []
    rest, count = cand, 0
    while rest and count < stop:
        count += 1
        clique = rest
        while clique:
            low = clique & -clique
            rest ^= low
            clique &= nbr[low.bit_length() - 1]
            if count > skip:
                order.append(low)
                cover.append(count)
    return order, cover, count


def max_independent_set_size(
    adj: list[int], live: int, symmetries=(), target: int | None = None
) -> int:
    """Size of a largest independent set among the live vertices, or, given
    target, the first size found that reaches it.

    Colour-ordered branch and bound on bitmasks (MCQ of Tomita and Seki,
    DMTCS 2003, run on the complement graph). Each node covers its
    candidates greedily by cliques in index order, and branches on the
    vertices of the last cliques first, stopping once the clique count can
    no longer beat the incumbent. The search renumbers nothing: callers
    number the vertices by ascending degree, as MCQ does, once for all the
    searches they run on the graph. Row bits outside live are ignored.

    symmetries are maps from vertex to vertex, each an automorphism of the
    graph induced on the live vertices. When the root branch on v finishes,
    every independent set through v is ruled out, so every set through the
    image of v under a symmetry is too (the symmetry's inverse maps it to
    one through v); those images leave the root's candidates with v.
    """
    best = 0
    stop = float("inf") if target is None else target

    def expand(cand: int, size: int, symmetries=()):
        nonlocal best
        # the first best - size cliques can never lead to a gain, so their
        # vertices are not listed
        order, cover, _ = _clique_cover(adj, cand, best - size)
        for i in range(len(order) - 1, -1, -1):
            if size + cover[i] <= best or best >= stop:
                return
            low = order[i]
            if not cand & low:
                continue  # dropped at the root as the image of a finished branch
            v = low.bit_length() - 1
            sub = cand & ~adj[v] & ~low
            if sub:
                expand(sub, size + 1)
            elif size >= best:
                best = size + 1
            cand ^= low
            for image in symmetries:
                cand &= ~(1 << image(v))

    expand(live, 0, symmetries)
    return best


def first_max_independent_set(
    adj: list[int], live: int, target: int | None = None
) -> tuple[int, int]:
    """The first maximum independent set among the live vertices in this
    search's order, as (size, chosen bitmask).

    Branch and bound on bitmasks: branch on the highest-degree live vertex
    (the lowest index among equals), taking it first; bound by the greedy
    clique cover of the size proof. The incumbent changes only on a strict
    gain, so once it reaches the optimum it is the answer. Given target, it
    cuts every subtree whose cover cannot reach target and returns the
    first incumbent that reaches it, which the untargeted search meets
    first too; at the optimum's size, that is its answer. target must not
    exceed the optimum: a search that finishes short of it raises
    AssertionError.
    """
    best = 0
    best_mask = 0
    stop = float("inf") if target is None else target

    def dfs(mask: int, acc: int, chosen: int):
        nonlocal best, best_mask
        if acc > best:
            best, best_mask = acc, chosen
        if not mask or best >= stop:
            return
        # the cover must reach the target, else a strict gain; skipping
        # len(adj) cliques lists no vertex, since only the count is needed
        need = (best + 1 if target is None else target) - acc
        if _clique_cover(adj, mask, len(adj), need)[2] < need:
            return
        vs = set_bits(mask)
        degs = [(adj[u] & mask).bit_count() for u in vs]
        top = max(degs)
        if not top:
            # remaining vertices are pairwise compatible: take them all, a
            # gain, since the cover of one clique each reached need
            best, best_mask = acc + len(vs), chosen | mask
            return
        v = vs[degs.index(top)]
        dfs(mask & ~(adj[v] | (1 << v)), acc + 1, chosen | (1 << v))
        dfs(mask & ~(1 << v), acc, chosen)

    dfs(live, 0, 0)
    if target is not None and best < target:
        raise AssertionError(f"no independent set of size {target}: target above the optimum")
    return best, best_mask
