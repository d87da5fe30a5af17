"""Reference values the benchmark checks the package against.

Everything here is computed without calling the package: the golden JSON
is read as plain data, and every identity is a separate formula or
recurrence, so a wrong answer from the package cannot also be the
expected one.
"""

import json
import math
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

# Every MISMATCH cell of the five published tables when this benchmark was added.
# Table I: the doubling tie-break is under-determined (README); Table V:
# the published width-14 upper bound is a transcription error. A new
# mismatch, or one of these turning into a match, fails the op.
KNOWN_MISMATCHES = frozenset(
    [("I", k, cell) for k in (18, 21, 22, 23) for cell in ("sizes", "product")]
    + [("V", 14, "upper")]
)
TABLE_RANGES = {"I": (2, 23), "II": (1, 6), "III": (2, 14), "IV": (2, 14), "V": (2, 14)}
TABLE_COLUMNS = {"I": 2, "II": 2, "III": 3, "IV": 3, "V": 4}

# README: the divergent doubling products differ from the published ones
# by at most 0.003%.
DOUBLING_DIVERGENCE = Fraction(3, 100000)


def load_golden(root: Path) -> dict:
    path = root / "src" / "overlapcodes" / "data" / "golden_tables.json"
    return json.loads(path.read_text())


def fib_step(z: int, i: int) -> int:
    """F_i of the z-step Fibonacci numbers by a sliding window.

    F(i) = 0 for -z+2 <= i <= 0, F(1) = 1, later terms sum the z before.
    """
    if i <= 0:
        return 0
    window = [0] * (z - 1) + [1]  # F(2-z) .. F(1)
    total = 1
    for _ in range(i - 1):
        window.append(total)
        total += total - window[-1 - z]
    return window[-1]


def zero_block_coefficient(k: int, z: int) -> int:
    return fib_step(z, k + 1) << (k - z)


def gl_size(n: int, z: int) -> int:
    return fib_step(z, n - z)


def best_zero_block(k: int) -> tuple[int, int]:
    """(z, coefficient) maximising the zero-block size; smallest z on ties."""
    best = (0, -1)
    for z in range(1, k):
        c = zero_block_coefficient(k, z)
        if c > best[1]:
            best = (z, c)
    return best


def best_gl(n: int) -> tuple[int, int]:
    best = (0, -1)
    for z in range(1, n):
        c = gl_size(n, z)
        if c > best[1]:
            best = (z, c)
    return best


def is_local_best(value_of, z: int, zmax: int) -> bool:
    """z beats z-1 strictly and is not beaten by z+1 (smallest z wins ties)."""
    here = value_of(z)
    if z > 1 and value_of(z - 1) >= here:
        return False
    return not (z < zmax and value_of(z + 1) > here)


def spaced_ones_closed_form(n: int, w: int, g: int) -> int:
    """Cyclic length-n words of weight w whose ones are g zeros apart.

    Kaplansky's gap-g lemma: n / (n - g w) * C(n - g w, w) for w >= 1.
    """
    if w == 0:
        return 1
    if n < w * (g + 1):
        return 0
    num = n * math.comb(n - g * w, w)
    if num % (n - g * w):
        raise ArithmeticError("Kaplansky count is not integral")
    return num // (n - g * w)


def cyclic_run_free_count(length: int, z: int) -> int:
    """Cyclic binary words of the given length with no cyclic run of z zeros.

    Power sums of the roots of x^z = x^(z-1) + ... + 1 (z-step Lucas
    numbers): 2^n - 1 for n <= z, then each term sums the z before.
    """
    terms = [(1 << n) - 1 for n in range(1, z + 1)]
    if length <= z:
        return terms[length - 1]
    total = sum(terms)
    for _ in range(length - z):
        terms.append(total)
        total += total - terms[-1 - z]
    return terms[-1]


def survives_mmin(s: int, m: int, k: int) -> bool:
    """Suffix s meets no t-prefix of the prefixes 0 .. m-1, for t in 1..k."""
    for t in range(1, k + 1):
        if s & ((1 << t) - 1) <= (m - 1) >> (k - t):
            return False
    return True


def is_edge(p: int, s: int, k: int) -> bool:
    """Some t-prefix of the k-bit word p equals the t-suffix of s."""
    return any(p >> (k - t) == s & ((1 << t) - 1) for t in range(1, k + 1))


def decimal_half_up(x: Fraction, places: int) -> str:
    """Half-up rounding of an exact fraction, trailing zeros dropped."""
    with localcontext() as ctx:
        ctx.prec = len(str(x.numerator)) + len(str(x.denominator)) + places + 10
        q = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(
            Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP
        )
    text = format(q, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def bound_values(n: int, k: int) -> dict:
    """Every closed-form bound the package offers at (n, k), q = 2."""
    out = {"upper_weak": Fraction(1 << n, 2 * n - 2 * k + 1)}
    if 2 * k <= n:
        out["upper_1k"] = Fraction(1 << n, 2 * k)
    if k >= 2 and n >= k + 2:
        out["upper_graph"] = Fraction((1 << (n - 4)) + (1 << (n - k - 2)))
    if k >= 2:
        out["gen1"] = Fraction(100, 967 * k)
        out["gen2"] = Fraction(2, 9 * k)
        if k & (k - 1) == 0:
            out["gen3"] = Fraction(1, 4 * k)
    out["nine_n"] = Fraction(1 << n, 9 * n)
    return out
