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

from dataclasses import dataclass
from typing import Optional

from .codes import EXPANSION_CAP, Code, PrefixSuffixSystem
from .counting import SymbolicSize, fib_nstep
from .errors import CapacityError, DomainError
from .words import BitWord, int_to_bits

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


@dataclass(frozen=True)
class DoublingStep:
    k: int
    p_size: int
    s_size: int
    duplicates: tuple[BitWord, ...]
    system: Optional[PrefixSuffixSystem]

    @property
    def product(self) -> int:
        return self.p_size * self.s_size

    def size(self) -> SymbolicSize:
        return SymbolicSize(self.product, 2 * self.k)


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
    """
    if not 1 <= k_max <= DOUBLING_MAX_K:
        raise CapacityError(f"doubling capped at k_max = {DOUBLING_MAX_K}")
    if tie_breaks is None:
        tie_breaks = PUBLISHED_TIE_BREAKS
    p, s = {0}, {1}
    steps = [
        DoublingStep(
            1, 1, 1, (),
            PrefixSuffixSystem.from_values(1, p, s) if keep_sets else None,
        )
    ]
    for k in range(2, k_max + 1):
        p2 = {(w << 1) | b for w in p for b in (0, 1)}
        s2 = {(b << (k - 1)) | w for w in s for b in (0, 1)}
        dups = sorted(p2 & s2)
        for d in dups:
            if len(p2) > len(s2):
                p2.remove(d)
            elif len(s2) > len(p2):
                s2.remove(d)
            elif tie_breaks.get((k, d), "S") == "P":
                p2.remove(d)
            else:
                s2.remove(d)
        p, s = p2, s2
        steps.append(
            DoublingStep(
                k,
                len(p),
                len(s),
                tuple(BitWord(k, d) for d in dups),
                PrefixSuffixSystem.from_values(k, p, s) if keep_sets else None,
            )
        )
    return steps


@dataclass(frozen=True)
class MMinResult:
    k: int
    m: int
    system: PrefixSuffixSystem
    size: SymbolicSize


def _survivor_death_values(k: int) -> list[int]:
    """death[s] = smallest prefix integer whose inclusion kills suffix s.

    A prefix p kills s when some t-prefix of p equals the t-suffix of s.
    Over prefixes drawn from 0, 1, 2, ... in order, the first killer of s
    is min over t of (t-suffix of s) * 2^(k-t), restricted to t-suffixes
    starting with 0 (others never match a prefix below 2^(k-1)). Suffixes
    with no such t (e.g. all ones) never die; they get sentinel 2^k.
    """
    sentinel = 1 << k
    deaths = []
    for s in range(1 << k):
        d = sentinel
        bit = 1
        tail = 0
        for t in range(1, k + 1):
            tail |= s & bit
            bit <<= 1
            if not s & (1 << (t - 1)):
                cand = tail << (k - t)
                if cand < d:
                    d = cand
        deaths.append(d)
    return deaths


def m_minimum(k: int) -> MMinResult:
    """Best prefix count m: P = first m integers, S = unaffected suffixes.

    Scans every m up to 2^(k-1) keeping survivor counts incrementally via
    precomputed death times; smallest m wins ties.
    """
    if not 2 <= k <= MMIN_MAX_K:
        raise CapacityError(f"m-minimum scan capped at 2 <= k <= {MMIN_MAX_K}")
    deaths = _survivor_death_values(k)
    top = 1 << (k - 1)
    hist = [0] * (top + 1)
    tail = 0  # suffixes dying at m > top, or never
    for d in deaths:
        if d > top:
            tail += 1
        else:
            hist[d] += 1
    alive = sum(hist) + tail - hist[0]
    best_m, best_prod, best_alive = 1, 1 * alive, alive
    cnt = alive
    for m in range(2, top + 1):
        cnt -= hist[m - 1]
        prod = m * cnt
        if prod > best_prod:
            best_m, best_prod, best_alive = m, prod, cnt
    system = PrefixSuffixSystem.from_values(
        k,
        range(best_m),
        (s for s in range(1 << k) if deaths[s] >= best_m),
    )
    if len(system.suffixes) != best_alive:
        raise AssertionError("m-minimum survivor count disagrees with the scan")
    return MMinResult(k, best_m, system, SymbolicSize(best_prod, 2 * k))


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
    """
    if k < 2:
        raise DomainError("need k >= 2")
    best_z, best_coeff = None, -1
    for z in range(1, k):
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
        run = "0" * z
        suffixes = [
            s for s in range(1, 1 << k, 2) if run not in int_to_bits(s, k)
        ]
        if len(suffixes) != fib_nstep(z, k + 1):
            raise AssertionError("zero-block suffix count disagrees with F(z, k+1)")
        system = PrefixSuffixSystem.from_values(
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
    ties.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    best_z, best_size = None, -1
    for z in range(1, n):
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
        code = Code.from_values(n, gl_words(n, best_z))
    return GLResult(n, best_z, best_size, code)


def gl_words(n: int, z: int) -> list[int]:
    """All words 0^z 1 m 1 with no z-run of zeros inside m."""
    if not 1 <= z <= n - 1:
        raise DomainError(f"need 1 <= z <= n-1, got z={z}")
    if z == n - 1:
        return [1]
    mid = n - z - 2
    run = "0" * z
    out = []
    head = 1 << (mid + 1)  # the 1 separating the zero block from m
    for m in range(1 << mid):
        if mid and run in format(m, f"0{mid}b"):
            continue
        out.append(head | (m << 1) | 1)
    return out
