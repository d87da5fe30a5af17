"""Step-z Fibonacci numbers, run-constrained word counts, and code-size bounds.

All counts are exact Python integers; all bounds are exact Fractions.
Decimal output goes through render_decimal, which rounds half-up, so golden
values in published tables can be compared as strings.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityError, DomainError

# Reaching term i takes i additions of numbers of up to i bits, so this cap
# bounds time. A call holds min(z, i) terms and frees them on return: well
# under 1 MiB for the small steps the constructions scan, 69 MiB at z = i.
FIB_MAX_INDEX = 1 << 15


def _fib_window(z: int, i: int) -> deque:
    """The terms F(i - z + 1)..F(i) of the step-z sequence, for 1 <= z <= i.

    One walk of the recurrence from its seed F(-z+2)..F(1) = 0, ..., 0, 1,
    keeping only the last z terms and their sum.
    """
    if i > FIB_MAX_INDEX:
        raise CapacityError(f"index {i} above the table cap {FIB_MAX_INDEX}")
    window = deque([0] * (z - 1) + [1], maxlen=z)
    total = 1
    for _ in range(i - 1):
        term = total
        total = (total << 1) - window[0]
        window.append(term)
    return window


def fib_nstep(z: int, i: int) -> int:
    """F_i of the z-step Fibonacci sequence, exact.

    F(i) = 0 for -z+2 <= i <= 0, F(1) = 1, and each later term is the sum
    of the z preceding terms. F(j) = 2^(j-2) for 2 <= j <= z + 1, the same
    under every step from j - 1 up, so F_z(i) = F_min(z, i)(i): the walk
    keeps min(z, i) terms.
    """
    if z < 1:
        raise DomainError(f"step must be >= 1, got {z}")
    if i < -z + 2:
        raise DomainError(f"index {i} below first defined term {-z + 2}")
    if i < 1:
        return 0
    return _fib_window(min(z, i), i)[-1]


def count_no_zero_run(length: int, run: int) -> int:
    """Binary words of the given length with no run of `run` consecutive 0s.

    Equals fib_nstep(run, length + 2); brute-force checked in the tests for
    length <= 16.
    """
    if length < 1 or run < 1:
        raise DomainError("length and run must be >= 1")
    return fib_nstep(run, length + 2)


def count_cyclic_spaced_ones(length: int, weight: int, gap: int) -> int:
    """Fixed-weight binary words where cyclically consecutive ones are
    separated by at least `gap` zeros.

    Kaplansky's gap-g lemma: n / (n - g w) * C(n - g w, w) for w >= 1, and 0
    once the w ones and their g w zeros do not fit. The tests check it
    against the enumeration in tests/oracles.py.
    """
    if not 1 <= gap < length:
        raise DomainError(f"gap must satisfy 1 <= gap < length, got {gap}")
    if not 0 <= weight < length:
        raise DomainError(f"weight must satisfy 0 <= weight < length, got {weight}")
    if weight == 0:
        return 1
    free = length - gap * weight
    if free < weight:
        return 0
    return length * math.comb(free, weight) // free


def count_cyclic_run_free(a: int) -> int:
    """Words of length 2**a with no cyclic run of a-1 or more zeros.

    Closed form: with z = a - 1, the sum over d < z of (d + 1) F_z(2^a - d).
    It decomposes on the lengths of the leading and trailing zero blocks: a
    word with some 1 splits as 0^i 1 (interior) 1 0^j, the wrap run is
    d = i + j, and interior segments are counted by the step-z recurrence.
    The tests check it against the enumeration in tests/oracles.py for
    a <= 4.
    """
    if a < 2:
        raise DomainError("need a >= 2 so the forbidden run length is >= 1")
    # the z terms F(2^a - z + 1)..F(2^a), newest first, from one walk
    window = reversed(_fib_window(a - 1, 1 << a))
    return sum((d + 1) * f for d, f in enumerate(window))


# ---------------------------------------------------------------------------
# symbolic sizes: coefficient * 2^(n - offset) for a symbolic length n


@dataclass(frozen=True, order=True)
class SymbolicSize:
    """Exact code-family size coefficient * 2**(n - offset), n symbolic.

    Equality, hashing and order go through the exact size per 2**n, so
    2 x 2^(n-4) equals 1 x 2^(n-3).
    """

    coefficient: int = field(compare=False)
    offset: int = field(compare=False)
    _per_word: Fraction = field(init=False, repr=False)

    def __post_init__(self):
        if self.coefficient < 0:
            raise DomainError("coefficient must be non-negative")
        c, e = self.coefficient, self.offset
        object.__setattr__(
            self, "_per_word", Fraction(c << max(0, -e), 1 << max(0, e))
        )

    def value_at(self, n: int) -> int:
        if n < self.offset:
            raise DomainError(f"need n >= {self.offset} to evaluate, got {n}")
        return self.coefficient << (n - self.offset)

    def per_word_fraction(self) -> Fraction:
        """size / 2**n as an exact fraction."""
        return self._per_word

    def __str__(self):
        return f"{self.coefficient} x 2^(n-{self.offset})"


# ---------------------------------------------------------------------------
# closed-form bounds


def upper_bound_weak(n: int, k: int, q: int = 2) -> Fraction:
    """Ceiling q^n / (2n - 2k + 1) on codes forbidding overlaps of size >= k."""
    if not 1 <= k <= n - 1:
        raise DomainError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if q < 2:
        raise DomainError("alphabet size must be >= 2")
    return Fraction(q**n, 2 * n - 2 * k + 1)


def upper_bound_1k(n: int, k: int, q: int = 2) -> Fraction:
    """Ceiling q^n / 2k on codes forbidding overlaps of size <= k (k <= n/2)."""
    if k < 1 or 2 * k > n:
        raise DomainError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    if q < 2:
        raise DomainError("alphabet size must be >= 2")
    return Fraction(q**n, 2 * k)


def upper_bound_graph(n: int, k: int) -> int:
    """Binary ceiling 2^(n-4) + 2^(n-k-2) from the bipartite-graph argument."""
    if k < 2:
        raise DomainError("need k >= 2")
    if n < k + 2:
        raise DomainError(f"need n >= k+2, got n={n}")
    return (1 << (n - 4)) + (1 << (n - k - 2))


def lower_bound_explicit(k: int, variant: str) -> Fraction:
    """Guaranteed-achievable fraction of 2^n for the zero-block family.

    gen1: 1/(9.67k) for all k >= 2 (the 9.67 is exactly 967/100);
    gen2: 2/(9k) for all k >= 2; gen3: 1/(4k) for k a power of two.
    """
    if k < 2:
        raise DomainError("need k >= 2")
    if variant == "gen1":
        return Fraction(100, 967 * k)
    if variant == "gen2":
        return Fraction(2, 9 * k)
    if variant == "gen3":
        if k & (k - 1):
            raise DomainError("gen3 applies only to powers of two")
        return Fraction(1, 4 * k)
    raise DomainError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class ClassicBounds:
    """Lower bounds for fully non-overlapping binary codes of length n."""

    nine_n: Fraction            # 2^n / (9n), always
    eight_n: Fraction | None    # 2^n / (8n) when n is a power of two
    lev_decimal: float          # display-only evaluation of 2^n/(2en)


# 2^n is past the largest float from n = 1024 on, so lev_decimal stops here
CLASSIC_MAX_N = 1023


def classic_bounds(n: int) -> ClassicBounds:
    if n < 3:
        raise DomainError("need n >= 3")
    if n > CLASSIC_MAX_N:
        raise CapacityError(f"2^n/(2en) as a float capped at n = {CLASSIC_MAX_N}")
    power_of_two = n & (n - 1) == 0
    return ClassicBounds(
        nine_n=Fraction(1 << n, 9 * n),
        eight_n=Fraction(1 << n, 8 * n) if power_of_two else None,
        lev_decimal=float((1 << n) / (2 * math.e * n)),
    )


def render_decimal(x: Fraction, places: int = 1) -> str:
    """Round half-up to `places` digits; integral results drop the point."""
    if places < 0:
        raise DomainError("places must be >= 0")
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    scaled, rem = divmod(num * 10**places, den)
    if 2 * rem >= den:
        scaled += 1
    digits = str(scaled).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    whole, frac = digits[:-places], digits[-places:]
    frac = frac.rstrip("0")
    return sign + whole + ("." + frac if frac else "")
