"""The four named code constructions.

doubling        inductive prefix/suffix growth, one width at a time
m_minimum       prefixes = first m integers, suffixes = survivors, best m
zero_block      prefixes = everything starting with z zeros, suffixes =
                run-free words ending 1, best z, sized by the z-step
                Fibonacci numbers
gilbert_levenshtein
                the classical fully non-overlapping family 0^z 1 m 1

The first two return explicit systems; the last two are symbolic first,
with explicit sets/codes on request under capacity caps.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .codes import EXPANSION_CAP, Code, PrefixSuffixSystem
from .counting import SymbolicSize, fib_nstep
from .errors import CapacityError, DomainError
from .words import set_bits

DOUBLING_MAX_K = 23
MMIN_MAX_K = 20
ZERO_BLOCK_EMIT_MAX_K = 24
GL_EMIT_MAX_N = 32

# When deleting a duplicate leaves the two sides equally large either copy
# balances, and which one goes changes the duplicates seen at later widths.
# Dropping the suffix copy everywhere except width 7, duplicate 0101011,
# reproduces the published reference sizes exactly for every width up to 17;
# no single fixed side does (first divergence at width 9 for both).
PUBLISHED_TIE_BREAKS = {(7, 0b0101011): "P"}

# byte b -> the low (high) nibble of b with every bit doubled, bit i going
# to bits 2i and 2i + 1: one output byte per nibble.
_NIBBLES = [sum(3 << 2 * i for i in range(4) if n >> i & 1) for n in range(16)]
_SPREAD_LO = bytes(_NIBBLES[b & 15] for b in range(256))
_SPREAD_HI = bytes(_NIBBLES[b >> 4] for b in range(256))


@dataclass(frozen=True)
class DoublingStep:
    k: int
    p_size: int
    s_size: int
    # bit w set iff word w was on both doubled sides; a mask of 2^k bits has
    # too many digits for repr (CPython's int-to-str limit), so it is left out
    _duplicates: int = field(repr=False)
    system: Optional[PrefixSuffixSystem]

    @property
    def duplicates(self) -> tuple[int, ...]:
        """The words on both doubled sides, ascending, listed when read."""
        return tuple(set_bits(self._duplicates))

    @property
    def product(self) -> int:
        return self.p_size * self.s_size

    def size(self) -> SymbolicSize:
        return SymbolicSize(self.product, 2 * self.k)


def _spread(mask: int) -> int:
    """Bit w of mask moved to bits 2w and 2w + 1: the set {2w, 2w + 1}."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LO)
    out[1::2] = raw.translate(_SPREAD_HI)
    return int.from_bytes(out, "little")


def _low_bits(mask: int, count: int) -> int:
    """The lowest `count` set bits of mask, found by bisecting on the cut."""
    cut = bisect_left(range(mask.bit_length() + 1), count,
                      key=lambda x: (mask & ((1 << x) - 1)).bit_count())
    return mask & ((1 << cut) - 1)


def _prefix_parity(mask: int) -> int:
    """Below the mask's length, bit w set iff mask has an odd number of set
    bits at w and below; the bits above are left over from the shifts. One
    shift-xor step per bit of the length (Warren, Hacker's Delight, 2nd ed.)."""
    for i in range(mask.bit_length().bit_length()):
        mask ^= mask << (1 << i)
    return mask


def _word_mask(k: int, words) -> int:
    """The k-bit words among `words` as a mask: bit w set iff w is one."""
    raw = bytearray(1 << max(0, k - 3))
    for w in words:
        if 0 <= w < 1 << k:
            raw[w >> 3] |= 1 << (w & 7)
    return int.from_bytes(raw, "little")


def _leave_p(both: int, lead: int, p_larger: bool, p_ties: int) -> int:
    """The duplicates (the set bits of both) that leave P, as a mask.

    The lowest `lead` leave the larger side and the rest pair up in
    ascending order: the first of a pair leaves P iff it is in the mask
    p_ties and the second leaves the other side; an unpaired last one
    counts as a first.
    """
    head = _low_bits(both, lead)
    rest = both ^ head
    runs = _prefix_parity(rest)  # set from each first of a pair up to its second
    firsts = rest & runs
    seconds = rest ^ firsts
    # a first that leaves P swaps sides with its second: adding the first to
    # its run carries onto the second
    swap = firsts & p_ties
    swap |= (runs + swap) & seconds
    return ((head if p_larger else 0) | seconds) ^ swap


def doubling(
    k_max: int,
    keep_sets: bool = True,
    tie_breaks: Optional[dict] = None,
) -> list[DoublingStep]:
    """Grow (P, S) from ({0}, {1}) by appending to P and prepending to S.

    At each width the doubled sides are intersected; duplicates are removed
    one copy each, in ascending numeric order, always from the currently
    larger side. `tie_breaks` maps (k, duplicate value) to "P" or "S" for
    the equal-size case; unlisted ties drop the suffix copy. The default is
    PUBLISHED_TIE_BREAKS; pass {} for the plain suffix-side rule.

    Each side is a bitset: bit w of the int is set iff word w is on it, and
    the duplicates are split between the sides as whole masks.
    """
    if k_max < 1:
        raise DomainError(f"need k_max >= 1, got {k_max}")
    if k_max > DOUBLING_MAX_K:
        raise CapacityError(f"doubling capped at k_max = {DOUBLING_MAX_K}")
    if tie_breaks is None:
        tie_breaks = PUBLISHED_TIE_BREAKS
    if any(side not in ("P", "S") for side in tie_breaks.values()):
        raise DomainError('tie_breaks values must be "P" or "S"')
    p_ties = {}  # k -> the k-bit words whose tie side is P
    for (k, w), side in tie_breaks.items():
        if side == "P":
            p_ties.setdefault(k, []).append(w)
    p, s = 0b01, 0b10  # P = {0}, S = {1}
    p_size = s_size = 1
    first = PrefixSuffixSystem(1, [0], [1]) if keep_sets else None
    steps = [DoublingStep(1, 1, 1, 0, first)]
    for k in range(2, k_max + 1):
        p = _spread(p)
        s |= s << (1 << (k - 1))
        p_size, s_size = 2 * p_size, 2 * s_size
        both = p & s
        n_dups = both.bit_count()
        lead = min(abs(p_size - s_size), n_dups)
        ties = _word_mask(k, p_ties[k]) if k in p_ties else 0
        to_p = _leave_p(both, lead, p_size > s_size, ties)
        p &= ~to_p
        s &= ~(both & ~to_p)
        # the same rule counted: one of each pair leaves P, and so does an
        # unpaired last duplicate whose tie side is P
        leave_p = (lead if p_size > s_size else 0) + (n_dups - lead) // 2
        if (n_dups - lead) % 2 and tie_breaks.get((k, both.bit_length() - 1)) == "P":
            leave_p += 1
        p_size -= leave_p
        s_size -= n_dups - leave_p
        if (p.bit_count(), s.bit_count()) != (p_size, s_size) or p & s:
            raise AssertionError("doubling's split disagrees with its counted rule")
        system = PrefixSuffixSystem(k, set_bits(p), set_bits(s)) if keep_sets else None
        steps.append(DoublingStep(k, p_size, s_size, both, system))
    return steps


@dataclass(frozen=True)
class MMinResult:
    k: int
    m: int
    system: PrefixSuffixSystem
    size: SymbolicSize


def _alive_count(k: int, m: int) -> int:
    """How many k-bit words no prefix below m overlaps, for 1 <= m <= 2^(k-1).

    A prefix overlaps s when some t-prefix of it is the t-suffix x of s, and
    the least prefix with that t-prefix is x * 2^(k-t), below 2^(k-1) only
    when x starts with 0. So s survives iff s mod 2^t >= c_t = ((m - 1) >>
    (k - t)) + 1 for every t in 1..k; an x that starts with 1 is at least
    2^(t-1) >= c_t.

    alive[j] counts the j-bit words that meet the bound at every t <= j: a
    walk down c_j's bits counts those >= c_j. Where bit i of c_j is 0 the
    word may take a 1 above any word of alive[i], and once c_j mod 2^i is
    below c_i every word of alive[i] exceeds it.
    """
    cuts = [((m - 1) >> (k - t)) + 1 for t in range(k + 1)]
    alive = [1]
    for c in cuts[1:]:
        total = 0
        i = len(alive)
        while i:
            i -= 1
            if not c >> i & 1:
                total += alive[i]
            if c & ~(-1 << i) < cuts[i]:
                total += alive[i]
                break
        alive.append(total)
    return alive[k]


def _survivors(k: int, m: int) -> list[int]:
    """The k-bit words that no prefix below min(m, 2^(k-1)) overlaps, ascending.

    s survives iff s mod 2^t > (m - 1) >> (k - t) for every t (see
    _alive_count), and (m - 1) >> 1 = ceil(m / 2) - 1, so the width-k
    survivors at m are the width-(k-1) survivors at ceil(m / 2) from m up,
    then the same words with a leading 1.
    """
    if k == 1:  # the one prefix, 0, overlaps the word 0
        return [1]
    alive = _survivors(k - 1, -(-m // 2))
    return alive[bisect_left(alive, m):] + list(map((1 << (k - 1)).__or__, alive))


def m_minimum(k: int) -> MMinResult:
    """Best prefix count m: P = first m integers, S = unaffected suffixes.

    The survivor count never rises with m, so hi * count(lo) bounds the
    product on [lo, hi]: a depth-first search halves [1, 2^(k-1)], counts
    at each midpoint by _alive_count and drops every interval that cannot
    beat the best m so far; smallest m wins ties. The survivors at the best
    m are listed by their width recurrence.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if k > MMIN_MAX_K:
        raise CapacityError(f"m-minimum scan capped at 2 <= k <= {MMIN_MAX_K}")
    top = 1 << (k - 1)
    first, last = _alive_count(k, 1), _alive_count(k, top)
    best_m, best_alive = (1, first) if first >= top * last else (top, last)
    stack = [(1, first, top)]  # (lo, count(lo), hi), both ends counted
    while stack:
        lo, lo_alive, hi = stack.pop()
        if hi - lo < 2 or (hi * lo_alive, -lo) <= (best_m * best_alive, -best_m):
            continue
        mid = (lo + hi) // 2
        mid_alive = _alive_count(k, mid)
        if (mid * mid_alive, -mid) > (best_m * best_alive, -best_m):
            best_m, best_alive = mid, mid_alive
        stack += [(mid, mid_alive, hi), (lo, lo_alive, mid)]
    system = PrefixSuffixSystem(k, range(best_m), _survivors(k, best_m))
    # the recurrence's survivors against the closed count
    if len(system.suffixes) != best_alive:
        raise AssertionError("m-minimum survivor count disagrees with the search")
    return MMinResult(k, best_m, system, SymbolicSize(best_m * best_alive, 2 * k))


@dataclass(frozen=True)
class ZeroBlockResult:
    k: int
    z: int
    size: SymbolicSize
    system: Optional[PrefixSuffixSystem]


def zero_block(k: int, emit_sets: bool = False) -> ZeroBlockResult:
    """Best zero-run parameter z for the explicit zero-block system.

    The suffix count for a given z is fib_nstep(z, k + 1), so the family
    size is fib_nstep(z, k+1) * 2^(k-z) words of weight 2^(n-2k) each; the
    scan is symbolic and fast for very large k. Smallest z wins ties.
    fib_nstep(z, k+1) counts (k-1)-bit words, so no z' >= z has a
    coefficient above 2^(2k-1-z): the scan stops once that cannot win.
    """
    if k < 2:
        raise DomainError("need k >= 2")
    best_z, best_coeff = None, -1
    for z in range(1, k):
        if 1 << (2 * k - 1 - z) <= best_coeff:
            break
        coeff = fib_nstep(z, k + 1) << (k - z)
        if coeff > best_coeff:
            best_z, best_coeff = z, coeff
    size = SymbolicSize(best_coeff, 2 * k)
    system = None
    if emit_sets:
        if k > ZERO_BLOCK_EMIT_MAX_K:
            raise CapacityError(
                f"explicit sets capped at k = {ZERO_BLOCK_EMIT_MAX_K}"
            )
        z = best_z
        suffixes = run_free_odd_words(k, z)
        if len(suffixes) != fib_nstep(z, k + 1):
            raise AssertionError("zero-block suffix count disagrees with F(z, k+1)")
        system = PrefixSuffixSystem(
            k, range(1 << (k - z)), suffixes
        )
    return ZeroBlockResult(k, best_z, size, system)


@dataclass(frozen=True)
class GLResult:
    n: int
    z: int
    size: int
    code: Optional[Code]


def gilbert_levenshtein(n: int, emit_code: bool = False) -> GLResult:
    """Largest fully non-overlapping family 0^z 1 m 1, over z.

    Counts are fib_nstep(z, n - z); the word list exists for every z (for
    z = n-1 it degenerates to the single word 0^(n-1) 1). Smallest z wins
    ties. No z' >= z has more than 2^max(0, n-z-2) words, so the scan stops
    once that cannot win.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    best_z, best_size = None, -1
    for z in range(1, n):
        if 1 << max(0, n - z - 2) <= best_size:
            break
        size = fib_nstep(z, n - z)
        if size > best_size:
            best_z, best_size = z, size
    code = None
    if emit_code:
        if n > GL_EMIT_MAX_N:
            raise CapacityError(f"explicit code capped at n = {GL_EMIT_MAX_N}")
        if best_size > EXPANSION_CAP:
            raise CapacityError(
                f"code would have {best_size} words (cap {EXPANSION_CAP})"
            )
        code = Code(n, gl_words(n, best_z))
    return GLResult(n, best_z, best_size, code)


def gl_words(n: int, z: int) -> list[int]:
    """All words 0^z 1 m 1 with no z-run of zeros inside m."""
    if not 1 <= z <= n - 1:
        raise DomainError(f"need 1 <= z <= n-1, got z={z}")
    if z == n - 1:
        return [1]
    # the 1 that ends the zero block, then "m 1": a run-free word ending in 1
    return list(map((1 << (n - z - 1)).__or__, run_free_odd_words(n - z - 1, z)))


def run_free_odd_words(width: int, z: int) -> list[int]:
    """All width-bit words that end in 1 and hold no run of z zeros, ascending.

    A run-free word is 0^j 1 v with j < z and v run-free, or all zeros and
    shorter than z: that step-z split lists the run-free words of up to half
    the width. A full word joins a run-free head to an odd run-free tail
    whose zeros meet in fewer than z, so no list but the result is longer
    than about its square root.
    """
    low = (width + 1) // 2
    short = [[0]]  # short[m]: the run-free m-bit words, ascending
    for m in range(1, low + 1):
        ws = [0] if m < z else []
        for j in range(min(z, m) - 1, -1, -1):
            ws += map((1 << (m - j - 1)).__or__, short[m - j - 1])
        short.append(ws)
    tails = [t for t in short[low] if t & 1]
    # after a head with b trailing zeros a tail may lead with fewer than z - b
    # zeros: every tail from 2^(low - z + b) up
    starts = [bisect_left(tails, 1 << max(low - z + b, 0)) for b in range(z)]
    words = []
    for head in short[width - low]:
        b = (head & -head).bit_length() - 1 if head else width - low
        words += map((head << low).__or__, tails[starts[b]:])
    return words
