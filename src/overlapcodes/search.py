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
candidate on trial. Neither search renumbers the graph: the oracle numbers
its classes by descending degree once per call, the covers walk down from
the top index and so meet them by ascending degree, and the first-optimum
search breaks degree ties by the signature order it is given as a key.
Given the optimum's size, that search is a decision search for it: it
also cuts every subtree whose cover cannot reach that size, which changes
no returned set.

The colour-ordered search can prune its root by automorphisms of the graph.
Once the root branch on v has finished, no independent set through v beats
the incumbent. An automorphism σ maps an independent set through σ(v) to
one of the same size through v, so none through σ(v) beats it either, and
σ(v) is dropped from the root's candidates with v (orbital branching,
Ostrowski et al., Math. Programming 2011, applied at the root only). The
dropped set is never branched on again, so it need not be closed under the
group.

It can also run on parts of the graph, given a caller's argument that
every independent set lies inside one of them up to an automorphism: the
oracle splits its class graph on head/tail labellings, whose parts hold no
size-t1 edge, so the cover bounds them far more tightly than the whole
graph. The parts share one incumbent, largest part first, and each prunes
its root by the symmetries that map it onto itself.
"""

from functools import lru_cache

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
    nbr: list[int], bits: tuple[int, ...], cand: int, skip: int, stop: float = float("inf")
) -> tuple[list[int], list[int], int]:
    """Greedy clique cover of the vertices in cand, so the number of cliques
    bounds every independent set among them. Each clique grows from the
    highest vertex left, adding the highest vertex adjacent to all it holds:
    bit_length finds it and bits[v] is 1 << v, so no one-bit mask is built
    (San Segundo et al., Computers & OR 2011, scan bitsets by index too).
    Rows must be loop-free: no vertex is in its own row. The cover stops
    once it has stop cliques, for a caller that asks only whether the bound
    reaches stop.

    Returns (order, cover, count): order holds the vertices of the cliques
    after the first skip, cover[i] is the number of the clique holding
    order[i] (from 1), and count is the number of cliques.
    """
    rest, count, quiet = cand, 0, min(skip, stop)
    while rest and count < quiet:  # the skipped cliques: nothing to list
        count += 1
        clique = rest
        while clique:
            v = clique.bit_length() - 1
            rest ^= bits[v]
            clique &= nbr[v]
    order, cover = [], []
    while rest and count < stop:
        count += 1
        clique = rest
        while clique:
            v = clique.bit_length() - 1
            rest ^= bits[v]
            clique &= nbr[v]
            order.append(v)
            cover.append(count)
    return order, cover, count


@lru_cache(maxsize=1)
def _bits(n: int) -> tuple[int, ...]:
    """1 << v for each v below n, shared by successive searches on one graph."""
    return tuple(1 << v for v in range(n))


def max_independent_set_size(
    adj: list[int], live: int, symmetries=(), target: int | None = None, parts=None
) -> int:
    """Size of a largest independent set among the live vertices, or, given
    target, the first size found that reaches it.

    Colour-ordered branch and bound on bitmasks (MCQ of Tomita and Seki,
    DMTCS 2003, run on the complement graph). Each node covers its
    candidates greedily by cliques from the top index down, and branches on
    the vertices of the last cliques first, stopping once the clique count
    can no longer beat the incumbent. The search renumbers nothing: callers
    number the vertices by descending degree, so that the cover takes them
    in MCQ's ascending order, once for all the searches they run on the
    graph. Row bits outside live are ignored.

    symmetries are maps from vertex to vertex, each an automorphism of the
    graph induced on the live vertices. When the root branch on v finishes,
    every independent set through v is ruled out, so every set through the
    image of v under a symmetry is too (the symmetry's inverse maps it to
    one through v); those images leave the root's candidates with v.

    parts, if given, is a sequence of (part, fixing) pairs, part a vertex
    mask and fixing a list of symmetries as above that map part onto
    itself. Every independent set of live must lie inside some part, up to
    one of the graph's automorphisms, so the largest set inside a part is
    the largest of all. The search then runs on part & live in place of
    live, with fixing in place of symmetries, for each part, largest first;
    the parts share the incumbent and the target, and a part no larger
    than the incumbent is skipped.
    """
    best = 0
    stop = float("inf") if target is None else target
    bits = _bits(len(adj))

    def expand(cand: int, size: int, symmetries=()):
        nonlocal best
        # the first best - size cliques can never lead to a gain, so their
        # vertices are not listed
        order, cover, _ = _clique_cover(adj, bits, cand, best - size)
        for i in range(len(order) - 1, -1, -1):
            if size + cover[i] <= best or best >= stop:
                return
            v = order[i]
            if symmetries and not cand & bits[v]:
                continue  # dropped at the root as the image of a finished branch
            sub = cand & ~(adj[v] | bits[v])
            if sub:
                expand(sub, size + 1)
            elif size >= best:
                best = size + 1
            cand ^= bits[v]
            for image in symmetries:
                cand &= ~bits[image(v)]

    parts = [(live, symmetries)] if parts is None else parts
    for part, fixing in sorted(((part & live, fixing) for part, fixing in parts),
                               key=lambda pair: pair[0].bit_count(), reverse=True):
        if part.bit_count() <= best or best >= stop:
            break  # so is every later part
        expand(part, 0, fixing)
    return best


def first_max_independent_set(
    adj: list[int], live: int, target: int | None = None, key=None
) -> tuple[int, int]:
    """The first maximum independent set among the live vertices in this
    search's order, as (size, chosen bitmask).

    Branch and bound on bitmasks: branch on the highest-degree live vertex,
    ties to the least key[v] (by default, the lowest index), taking it
    first; bound by the greedy clique cover of the size proof. The
    incumbent changes only on a strict gain, so once it reaches the optimum
    it is the answer. Given target, it cuts every subtree whose cover
    cannot reach target and returns the first incumbent that reaches it,
    which the untargeted search meets first too; at the optimum's size,
    that is its answer. target must not exceed the optimum: a search that
    finishes short of it raises AssertionError.
    """
    best = 0
    best_mask = 0
    stop = float("inf") if target is None else target
    bits = _bits(len(adj))
    key = range(len(adj)) if key is None else key

    def dfs(mask: int, acc: int, chosen: int):
        nonlocal best, best_mask
        if acc > best:
            best, best_mask = acc, chosen
        if not mask or best >= stop:
            return
        # the cover must reach the target, else a strict gain; skipping
        # len(adj) cliques lists no vertex, since only the count is needed
        need = (best + 1 if target is None else target) - acc
        if _clique_cover(adj, bits, mask, len(adj), need)[2] < need:
            return
        vs = set_bits(mask)
        degs = [(adj[u] & mask).bit_count() for u in vs]
        top = max(degs)
        if not top:
            # remaining vertices are pairwise compatible: take them all, a
            # gain, since the cover of one clique each reached need
            best, best_mask = acc + len(vs), chosen | mask
            return
        v = min((u for u, d in zip(vs, degs) if d == top), key=key.__getitem__)
        dfs(mask & ~(adj[v] | bits[v]), acc + 1, chosen | bits[v])
        dfs(mask ^ bits[v], acc, chosen)

    dfs(live, 0, 0)
    if target is not None and best < target:
        raise AssertionError(f"no independent set of size {target}: target above the optimum")
    return best, best_mask
