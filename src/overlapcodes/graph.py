"""The bipartite prefix/suffix incompatibility graph and exact searches on it.

For a width k, prefix vertices x_p and suffix vertices y_s (p, s ranging
over all k-bit words) are joined when some prefix of p equals a suffix of
s: such a pair can never serve as the outer ends of codewords in a code
forbidding overlaps of size <= k. Independent sets with vertices on both
sides therefore describe codes, of size |X| * |Y| * 2^(n-2k).

The searches exploit the two-sided reduction: a non-trivial independent
set lies (up to complementing every bit) inside X_0 u Y_1, the prefixes
starting 0 and suffixes ending 1, and the suffix side can always be taken
maximal. Enumeration is over subsets of X_0 only, with the branch and
bound of the search module reading its neighbour masks from the graph rows.
"""

from dataclasses import dataclass

from . import search
from .codes import PrefixSuffixSystem, validate_system
from .counting import SymbolicSize
from .errors import CapacityError, DomainError
from .search import NODE_BUDGET
from .words import BitWord, int_overlap, set_bits

GRAPH_MAX_K = 16


@dataclass(frozen=True, eq=False)
class OverlapGraph:
    """Adjacency of the incompatibility graph, one 2^k-bit row per prefix:
    rows[p] is the bitmask over the suffix words adjacent to x_p."""

    k: int
    rows: list[int]

    def has_edge(self, p: int, s: int) -> bool:
        return (self.rows[p] >> s) & 1 == 1


def build_overlap_graph(k: int) -> OverlapGraph:
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    if k > GRAPH_MAX_K:
        raise CapacityError(f"adjacency table covers 1 <= k <= {GRAPH_MAX_K}")
    # row(p) = union over t of the periodic mask {s : s mod 2^t == prefix_t(p)},
    # so for t-bit prefixes a, row_t(a) = row_{t-1}(a >> 1) | period_t << a.
    # Level t overwrites level t - 1 in place, a running down so that only
    # one table is ever held and a >> 1 is read before it is rewritten.
    periods = [1]  # period_t: bits at the multiples of 2^t below 2^k, t = k..1
    for t in range(k - 1, 0, -1):
        periods.append(periods[-1] | periods[-1] << (1 << t))
    rows = [0] * (1 << k)
    for t, period in enumerate(reversed(periods), 1):
        for a in range((1 << t) - 1, -1, -1):
            rows[a] = rows[a >> 1] | period << a
    return OverlapGraph(k, rows)


@dataclass(frozen=True)
class SearchResult:
    """A verified two-sided independent set plus its objective values."""

    k: int
    prefix_words: tuple[BitWord, ...]
    suffix_words: tuple[BitWord, ...]
    product: int
    cardinality: int
    optimal: bool = True

    @property
    def x_size(self) -> int:
        return len(self.prefix_words)

    @property
    def y_size(self) -> int:
        return len(self.suffix_words)

    def code_size(self) -> SymbolicSize:
        return SymbolicSize(self.product, 2 * self.k)


def _result(k, xs, ys, optimal):
    # an independent set is exactly a valid prefix/suffix system (X, Y)
    system = PrefixSuffixSystem(k, xs, ys)
    ok, clash = validate_system(system)
    if not ok:
        t, word = clash
        raise AssertionError(
            f"search produced a non-independent set: {word} is a {t}-prefix and a {t}-suffix"
        )
    xs, ys = system.prefixes, system.suffixes
    return SearchResult(
        k=k,
        prefix_words=tuple(BitWord(k, p) for p in xs),
        suffix_words=tuple(BitWord(k, s) for s in ys),
        product=len(xs) * len(ys),
        cardinality=len(xs) + len(ys),
        optimal=optimal,
    )


def _run_search(
    g: OverlapGraph, objective: str, node_budget: int, canonical: bool
) -> SearchResult:
    if objective not in ("product", "cardinality"):
        raise DomainError(f"unknown objective {objective!r}")
    if node_budget < 1:  # one node already finds a non-trivial set
        raise DomainError(f"need a node budget >= 1, got {node_budget}")
    k, rows = g.k, g.rows
    candidates = list(range(1 << (k - 1)))  # words starting 0
    universe = int("10" * (1 << (k - 1)), 2)  # bits 1, 3, 5, ...: words ending 1
    target, xs, ymask, finished = search.two_sided_search(
        rows, objective, candidates, universe, node_budget=node_budget
    )
    if canonical and finished:
        # decide the prefixes in order (candidates[p] is p), keeping one iff
        # the undecided ones after it and the suffixes it leaves still reach
        # the optimum; each sub-search stops once it does
        xs, ymask = [], universe
        for p in candidates:
            trial = ymask & ~rows[p]
            if search.two_sided_search(rows, objective, candidates[p + 1:], trial,
                                       len(xs) + 1, target=target)[0] >= target:
                xs, ymask = xs + [p], trial
        if search.two_sided_search(rows, objective, [], ymask, len(xs))[0] != target:
            raise AssertionError("canonical refinement lost the optimum")
    return _result(k, xs, set_bits(ymask), optimal=finished)


def max_product_search(
    g: OverlapGraph,
    node_budget: int = NODE_BUDGET,
    canonical: bool = False,
) -> SearchResult:
    """Non-trivial independent set maximizing |X| * |Y|.

    Among product-optimal sets the one of largest cardinality is returned,
    so .cardinality is the published per-k reference cardinality. The
    search stops after node_budget search nodes (the default finishes for
    every k <= 8); a stopped search returns the best set found so far with
    optimal=False. With canonical=True the prefix side of a finished search
    is additionally the lexicographically smallest one attaining the
    optimum.
    """
    return _run_search(g, "product", node_budget, canonical)


def max_cardinality_search(
    g: OverlapGraph,
    node_budget: int = NODE_BUDGET,
    canonical: bool = False,
) -> SearchResult:
    """Non-trivial independent set maximizing |X| + |Y| outright.

    The optimum equals 2^(k-1) + 1 (see mis_matching_certificate, whose
    extremal set attains the matching upper bound); the search recovers it
    independently for small k. node_budget and canonical act as in
    max_product_search.
    """
    return _run_search(g, "cardinality", node_budget, canonical)


# ---------------------------------------------------------------------------
# explicit matching certificate for the cardinality ceiling 2^(k-1) + 1


@dataclass(frozen=True)
class MatchingCertificate:
    """A perfect-but-two matching of X_0 x Y_1 plus the extremal set.

    The matching (size 2^(k-1) - 1, every pair an edge) shows any
    independent set inside X_0 u Y_1 has at most 2^(k-1) + 1 vertices: each
    matched edge contributes at most one vertex, plus the two unmatched
    ones. The extremal set {all-zeros prefix} u Y_1 attains that, so the
    two halves pin the non-trivial maximum exactly.
    """

    k: int
    matching: tuple[tuple[BitWord, BitWord], ...]
    extremal: SearchResult


def mis_matching_certificate(k: int) -> MatchingCertificate:
    if k < 2:
        raise DomainError(f"need k >= 2, got k={k}")
    if k > GRAPH_MAX_K:
        raise CapacityError(f"certificate covers 2 <= k <= {GRAPH_MAX_K}")
    # (prefix, suffix, overlap size); identity part: p starts 0 and ends 1,
    # matched with its own suffix vertex
    pairs = [(p, p, k) for p in range(1, 1 << (k - 1), 2)]
    # swap part: p = v || 1 || 0^m (v starting 0, m >= 1 trailing zeros)
    # pairs with s = 1^m || v || 1. The edge is the full shared block v || 1
    # (overlap size k - m), and (m, v) is recoverable from s because the
    # leading 1-run of s has length exactly m, so the map is injective.
    for p in range(2, 1 << (k - 1), 2):
        m = (p & -p).bit_length() - 1
        v = p >> (m + 1)
        s = (((1 << m) - 1) << (k - m)) | (v << 1) | 1
        pairs.append((p, s, k - m))
    for p, s, t in pairs:
        if not int_overlap(p, s, k, t):
            raise AssertionError(f"certificate pair ({p:0{k}b}, {s:0{k}b}) is not an edge")
        if p >> (k - 1) or not s & 1:
            raise AssertionError("certificate pair escapes X_0 x Y_1")
    if len({p for p, _, _ in pairs}) != len(pairs) or len({s for _, s, _ in pairs}) != len(pairs):
        raise AssertionError("certificate pairs do not form a matching")
    if len(pairs) != (1 << (k - 1)) - 1:
        raise AssertionError("certificate matching has the wrong size")

    extremal = _result(k, [0], range(1, 1 << k, 2), optimal=True)
    return MatchingCertificate(
        k=k,
        matching=tuple(
            (BitWord(k, p), BitWord(k, s)) for p, s, _ in sorted(pairs)
        ),
        extremal=extremal,
    )
