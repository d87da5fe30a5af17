"""Reference counts and predicates straight from the definitions.

The package computes these by recurrences and closed forms; the tests
check those against the plain enumerations here. Each enumeration is
capped so that a test cannot ask for an exponential run by accident.
"""

from itertools import combinations, product

from overlapcodes import BitWord, CapacityError, DomainError
from overlapcodes.words import int_overlap

NO_ZERO_RUN_BRUTE_CAP = 20
SPACED_ONES_BRUTE_CAP = 20
NU_BRUTE_CAP = 4
DEATH_VALUES_CAP = 20


def adjacent(p: int, s: int, k: int) -> bool:
    """Edge predicate of the incompatibility graph: some t-prefix of p
    equals the t-suffix of s."""
    return any(int_overlap(p, s, k, t) for t in range(1, k + 1))


def first_clash(width: int, heads, tails, t1: int, t2: int):
    """The least (t, x), t in [t1, t2], such that x is the t-prefix of a
    width-bit word in heads and the t-suffix of one in tails; None if none
    is. Each size's prefixes and suffixes come straight from every word."""
    for t in range(t1, t2 + 1):
        hits = {h >> (width - t) for h in heads} & {s & ((1 << t) - 1) for s in tails}
        if hits:
            return t, min(hits)
    return None


def survivor_death_values(k: int) -> list[int]:
    """death[s] = the least prefix below 2^(k-1) that overlaps the k-bit
    word s, or the sentinel 2^k when none does.

    Prefixes from 0 up first meet the t-suffix x of s at x * 2^(k-t), and
    only when x starts with 0. Dropping the top bit of s doubles every such
    value with t < k, and t = k adds s itself when its top bit is 0, so the
    values for width k follow from those for width k - 1.
    """
    if k > DEATH_VALUES_CAP:
        raise CapacityError(f"death values capped at k = {DEATH_VALUES_CAP}")
    deaths = [0, 2]
    for _ in range(k - 1):
        doubled = [d << 1 for d in deaths]
        deaths = [i if i < d else d for i, d in enumerate(doubled)] + doubled
    return deaths


def cyclic_shift(w: BitWord, j: int) -> BitWord:
    """Rotate left by j: a1..an -> a(j+1)..an a1..aj."""
    if not 0 <= j < w.length:
        raise DomainError(f"shift {j} out of range 0..{w.length - 1}")
    n = w.length
    v = ((w.value << j) | (w.value >> (n - j))) & ((1 << n) - 1)
    return BitWord(n, v)


def fib_nstep_terms(z: int, last: int) -> list[int]:
    """The step-z Fibonacci terms F(-z+2)..F(last), one list entry each:
    z - 1 zeros, a one, then each term the sum of the z before it."""
    terms = [0] * (z - 1) + [1]
    while len(terms) < last + z - 1:
        terms.append(sum(terms[-z:]))
    return terms


def count_no_zero_run_brute(length: int, run: int) -> int:
    """Words of the given length with no run of `run` consecutive 0s."""
    if length > NO_ZERO_RUN_BRUTE_CAP:
        raise CapacityError(f"brute force capped at length {NO_ZERO_RUN_BRUTE_CAP}")
    forbidden = "0" * run
    return sum(
        1 for w in range(1 << length) if forbidden not in format(w, f"0{length}b")
    )


def count_spaced_ones_brute(length: int, weight: int, gap: int) -> int:
    """Weight-`weight` words whose cyclically consecutive ones are separated
    by at least `gap` zeros, one combination of positions at a time."""
    if length > SPACED_ONES_BRUTE_CAP:
        raise CapacityError(f"enumeration capped at length {SPACED_ONES_BRUTE_CAP}")
    if weight <= 1:
        return 1 if weight == 0 else length
    count = 0
    for pos in combinations(range(length), weight):
        wrap = length - pos[-1] + pos[0] - 1
        if wrap >= gap and all(b - a > gap for a, b in zip(pos, pos[1:])):
            count += 1
    return count


def max_cyclic_zero_run(value: int, length: int) -> int:
    """Longest run of 0s in the length-bit word, read cyclically."""
    if value == 0:
        return length
    bits = format(value, f"0{length}b")
    lead = len(bits) - len(bits.lstrip("0"))
    trail = len(bits) - len(bits.rstrip("0"))
    inner = max(len(r) for r in bits.split("1"))
    return max(inner, lead + trail)


def count_cyclic_run_free_brute(a: int) -> int:
    """Words of length 2**a with no cyclic run of a-1 or more zeros."""
    if a < 2:
        raise DomainError("need a >= 2")
    if a > NU_BRUTE_CAP:
        raise CapacityError(f"brute force capped at a = {NU_BRUTE_CAP}")
    ell, z = 1 << a, a - 1
    return sum(1 for w in range(1 << ell) if max_cyclic_zero_run(w, ell) < z)


LABELLING_BRUTE_CAP = 3


def labelling_parts(classes: list[tuple[str, str]], t1: int) -> dict:
    """For each labelling A of the t1-bit words, a frozenset of bit strings
    (A the head words, the rest the tail words): the mask of the classes,
    (head, tail) pairs of equal-width bit strings, whose t1-prefix of head
    is in A and whose t1-suffix of tail is not, and the images of A under
    reversal (rev of the tail words, since reversing a word swaps its ends),
    complement (every bit flipped) and both. Returns {A: (mask, images)}."""
    if t1 > LABELLING_BRUTE_CAP:
        raise CapacityError(f"labellings capped at t1 = {LABELLING_BRUTE_CAP}")
    words = ["".join(bits) for bits in product("01", repeat=t1)]
    flip = str.maketrans("01", "10")
    parts = {}
    for size in range(len(words) + 1):
        for labelling in map(frozenset, combinations(words, size)):
            mask = sum(1 << i for i, (head, tail) in enumerate(classes)
                       if head[:t1] in labelling and tail[-t1:] not in labelling)
            mirror = frozenset(w[::-1] for w in words if w not in labelling)
            images = (mirror, frozenset(w.translate(flip) for w in labelling),
                      frozenset(w.translate(flip) for w in mirror))
            parts[labelling] = mask, images
    return parts


MIS_BRUTE_CAP = 48


def max_independent_set_brute(adj: list[int], live: int) -> int:
    """Largest independent set among the live vertices of a graph given by
    bitmask rows: the lowest live vertex is either in the set or out of it,
    with each live set solved once."""
    if live.bit_length() > MIS_BRUTE_CAP:
        raise CapacityError(f"brute force capped at {MIS_BRUTE_CAP} vertices")
    memo = {0: 0}

    def best(mask: int) -> int:
        if mask not in memo:
            low = mask & -mask
            rest = mask ^ low
            v = low.bit_length() - 1
            memo[mask] = max(1 + best(rest & ~adj[v]),
                             best(rest) if adj[v] & rest else 0)
        return memo[mask]

    return best(live)


def clique_cover_size(adj: list[int], live: int) -> int:
    """Cliques in a greedy cover of the live vertices, lowest vertex first:
    no independent set among them is larger."""
    count = 0
    while live:
        clique = live & -live
        cand = live & adj[clique.bit_length() - 1]
        while cand:
            low = cand & -cand
            clique |= low
            cand &= adj[low.bit_length() - 1]
        live &= ~clique
        count += 1
    return count


def first_independent_set(adj: list[int], live: int, size: int) -> int | None:
    """The first independent set of the given size among the live vertices,
    as a bitmask, or None: the lowest live vertex is taken before it is left
    out, so with size the optimum this is the least optimum compared vertex
    by vertex, an absent vertex sorting after every present one. A branch
    stops once a clique cover of what is left holds fewer cliques than the
    vertices still needed."""

    def extend(live: int, chosen: int, need: int) -> int | None:
        if not need:
            return chosen
        while clique_cover_size(adj, live) >= need:
            low = live & -live
            live ^= low
            found = extend(live & ~adj[low.bit_length() - 1], chosen | low, need - 1)
            if found is not None:
                return found
        return None

    return extend(live, 0, size)


def max_degree_refinement(adj: list[int], live: int, size: int, holds=None) -> int:
    """The first independent set of the given size, the optimum, in the
    order of an include-first branch and bound on the live vertex with the
    most live neighbours (the lowest among equals), as a bitmask. That
    vertex is kept iff the vertices it leaves live still hold an independent
    set of the size still needed, as holds(live, need) tells;
    first_independent_set tells it by default."""
    if holds is None:
        def holds(rest: int, need: int) -> bool:
            return first_independent_set(adj, rest, need) is not None
    chosen = 0
    while live:
        v = max((u for u in range(live.bit_length()) if live >> u & 1),
                key=lambda u: (adj[u] & live).bit_count())
        live &= ~(1 << v)
        after = live & ~adj[v]
        if holds(after, size - 1):
            chosen, live, size = chosen | 1 << v, after, size - 1
    return chosen
