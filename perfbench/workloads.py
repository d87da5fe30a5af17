"""Seeded op lists for the three workloads.

An op is a (kind, params) pair of plain data; the package only ever sees
inputs derived from these params. A workload is a sequence of rounds. Every
round holds the same slots (one op per slot, parameters drawn from the
slot's fixed range, order shuffled), so any number of whole rounds has the
same mix and the figures of different seeds stay comparable.
"""

import math
import random

from identities import best_gl, best_zero_block

WORKLOADS = ("codebook", "search", "reproduce")

# Each round holds one expected refusal, cycling through these in a
# seeded order so that five consecutive rounds meet all of them.
REFUSALS = ("expand", "oracle", "graph", "mmin", "zero_block")

# codebook: one op per slot, (target words, source, falsify mode). Targets
# are log-spaced; the largest stops at 1.5e5 words because a 561k-word op
# takes about 8 s and would leave too few rounds per run (calibrate.py times
# that case). Source and falsify mode are fixed per slot so that every
# round costs about the same; "cli" runs zeroblock --emit and verify --file.
CODEBOOK_SLOTS = (
    (1.0e4, "gl", "inject"),
    (1.15e4, "subset", "widen"),
    (1.3e4, "mmin", "inject"),
    (1.5e4, "zero_block", "widen"),
    (1.75e4, "doubling", "inject"),
    (2.0e4, "subset", "inject"),
    (2.4e4, "cli", None),
    (2.8e4, "zero_block", "widen"),
    (3.5e4, "mmin", "inject"),
    (5.0e4, "doubling", "widen"),
    (7.0e4, "subset", "inject"),
    (1.0e5, "mmin", "widen"),
    (1.5e5, "zero_block", "inject"),
)
CODEBOOK_K = range(5, 13)
CODEBOOK_MAX_N = 30
SIZE_TOLERANCE = 0.05

# search: every round runs the whole oracle list. Plain sizes are pinned
# from the package when this benchmark was added; each canonical entry
# must match its plain twin.
ORACLE_SIZES = {
    (7, 3, 5): 19, (8, 2, 5): 26, (9, 2, 4): 64, (9, 1, 8): 14,
    (10, 1, 5): 64, (8, 3, 5): 39, (9, 3, 4): 98, (7, 4, 5): 31,
    (10, 1, 9): 24, (8, 3, 7): 20, (9, 2, 8): 21, (9, 3, 8): 33,
    (7, 2, 6): 8, (8, 2, 7): 13, (9, 1, 5): 32, (6, 1, 3): 6, (6, 2, 4): 8,
    (7, 3, 4): 24, (7, 3, 6): 13, (8, 2, 6): 21, (9, 1, 6): 26,
}
ORACLE_PLAIN = (
    (7, 3, 4), (7, 3, 5), (7, 3, 6), (8, 2, 5), (8, 2, 6), (9, 1, 6),
    (9, 2, 4), (9, 1, 8), (10, 1, 5), (8, 3, 5), (9, 3, 4), (7, 4, 5),
    (10, 1, 9), (8, 3, 7), (9, 2, 8), (9, 3, 8),
)
ORACLE_CANONICAL = ((7, 2, 6), (8, 2, 7), (9, 1, 5), (9, 1, 8))
TINY_ORACLE_PLAIN = ((6, 1, 3), (6, 2, 4))
TINY_ORACLE_CANONICAL = ((6, 1, 3),)


def rounds(workload: str, seed: int, golden: dict, tiny: bool = False):
    """Yield the op list of each round of the workload, without end."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"codebook": _codebook, "search": _search, "reproduce": _reproduce}[workload]
    sizes = _system_sizes(golden) if workload == "codebook" else None
    refusals = rng.sample(REFUSALS, len(REFUSALS))
    r = 0
    while True:
        ops = make(rng, tiny, sizes)
        ops.append(_refusal(rng, refusals[r % len(refusals)]))
        ops.append(("smoke", {}))
        rng.shuffle(ops)
        yield ops
        r += 1


def _refusal(rng, what):
    params = {"what": what}
    if what == "expand":
        params["n"] = rng.randint(27, 40)  # 2^(n-4) words > EXPANSION_CAP
    elif what == "oracle":
        t1 = rng.randint(1, 9)
        params["t"] = (t1, rng.randint(t1, 10))
    elif what == "graph":
        params["k"] = rng.randint(17, 20)
    elif what == "mmin":
        params["k"] = rng.randint(21, 24)
    else:
        params["k"] = rng.randint(25, 30)
    return ("refuse", params)


# ---------------------------------------------------------------------------
# codebook


def _system_sizes(golden):
    """(|P|, |S|) of every base system, from golden data and identities."""
    sizes = {}
    for k in range(2, 15):
        g3, g1 = golden["table_iii"][str(k)], golden["table_i"][str(k)]
        sizes["mmin", k] = (g3["p"], g3["s"])
        sizes["doubling", k] = (g1["p"], g1["s"])
        z, coeff = best_zero_block(k)
        sizes["zero_block", k] = (1 << (k - z), coeff >> (k - z))
    return sizes


def _codebook(rng, tiny, sizes):
    ks = range(3, 8) if tiny else CODEBOOK_K
    ops = []
    for target, source, falsify in CODEBOOK_SLOTS:
        target /= 100 if tiny else 1
        if source == "cli":
            ops.append(_cli_zero_block(rng, target, ks, sizes))
        else:
            ops.append(_expansion(rng, target, source, falsify, ks, sizes))
    return ops


def _near(size, target):
    return abs(size - target) <= SIZE_TOLERANCE * target


def _full_candidates(source, target, ks, sizes, widen=False):
    """(k, n) whose full expansion is near target; mid >= k if widen."""
    out = []
    for k in ks:
        p, s = sizes[source, k]
        for mid in range(k if widen else 0, CODEBOOK_MAX_N - 2 * k + 1):
            if _near(p * s << mid, target):
                out.append((k, 2 * k + mid))
    return out


def _cli_zero_block(rng, target, ks, sizes):
    cands = _full_candidates("zero_block", target, ks, sizes)
    if not cands:
        # nearest achievable size, in log space
        cands = [min(
            ((k, 2 * k + mid) for k in ks
             for mid in range(CODEBOOK_MAX_N - 2 * k + 1)),
            key=lambda kn: abs(math.log(
                math.prod(sizes["zero_block", kn[0]]) << (kn[1] - 2 * kn[0])
            ) - math.log(target)),
        )]
    k, n = rng.choice(cands)
    p, s = sizes["zero_block", k]
    return ("cli_codebook", {"k": k, "n": n, "words": p * s << (n - 2 * k)})


def _expansion(rng, target, source, falsify, ks, sizes):
    """An expansion op near target words. A widened falsify range needs a
    middle of at least k bits (see ops._falsify_widened); when no shape
    allows it the op injects a word instead."""
    pick = rng.getrandbits(32)
    if source == "gl":
        n = next(n for n in range(3, 64) if best_gl(n)[1] >= target)
        size = best_gl(n)[1]
        keep = None if _near(size, target) else round(target)
        return ("expand", {
            "source": "gl", "n": n, "subset": keep,
            "pick": pick, "falsify": "inject", "words": keep or size,
        })
    widen = falsify == "widen"
    if source == "subset":
        source = rng.choice(("mmin", "zero_block", "doubling"))
        shape = _subset_shape(rng, source, target, ks, sizes, widen)
    else:
        cands = _full_candidates(source, target, ks, sizes, widen)
        if not cands and widen:
            widen = False
            cands = _full_candidates(source, target, ks, sizes)
        if cands:
            k, n = rng.choice(cands)
            p, s = sizes[source, k]
            shape = k, n, None, p * s << (n - 2 * k)
        else:
            shape = _subset_shape(rng, source, target, ks, sizes, widen)
    k, n, keep, words = shape
    return ("expand", {
        "source": source, "k": k, "n": n, "subset": keep, "pick": pick,
        "falsify": "widen" if widen and n - 2 * k >= k else "inject",
        "words": words,
    })


def _subset_shape(rng, source, target, ks, sizes, widen):
    """A (k, n) and subset sizes (a, b) with a * b * 2^(n-2k) near target."""
    options = []
    for k in ks:
        p, s = sizes[source, k]
        mid = max(k if widen else 0, math.ceil(math.log2(target / (p * s))))
        if 2 * k + mid <= CODEBOOK_MAX_N and target >= 1 << mid:
            options.append((k, mid))
    k, mid = rng.choice(options)
    p, s = sizes[source, k]
    want = target / (1 << mid)
    a = min(p, max(1, round(p * math.sqrt(want / (p * s)))))
    b = min(s, max(1, round(want / a)))
    return k, 2 * k + mid, (a, b), a * b << mid


# ---------------------------------------------------------------------------
# search


def _search(rng, tiny, _sizes):
    # Cheap, mid and k = 14 slots. k = 14 has its own slot because its 32 MB
    # adjacency table sets the peak memory. The counts of cheap ops put the
    # round's median inside the cluster of 20-50 ms oracle calls and its
    # 90th percentile inside the canonical ones, not at the edge of a gap.
    ranges = ((3, 4),) * 3 + ((5, 5), (6, 6)) if tiny else ((8, 11),) * 3 + ((12, 13), (14, 14))
    ops = []
    for lo, hi in ranges:
        ops.append(("graph", {"k": rng.randint(lo, hi), "pick": rng.getrandbits(32)}))
        ops.append(("certificate", {"k": rng.randint(lo, hi)}))
    for objective in ("product", "cardinality"):
        for lo, hi in ((2, 3),) * 3 + ((4, 5),) if tiny else ((4, 5),) * 3 + ((6, 7),):
            k = rng.randint(lo, hi)
            ops.append(("graph_search", {
                "k": k, "objective": objective,
                "canonical": k <= 6 and rng.random() < 0.5,
            }))
    plain = TINY_ORACLE_PLAIN if tiny else ORACLE_PLAIN
    canonical = TINY_ORACLE_CANONICAL if tiny else ORACLE_CANONICAL
    ops += [("oracle", {"t": t, "canonical": False}) for t in plain]
    ops += [("oracle", {"t": t, "canonical": True}) for t in canonical]
    return ops


# ---------------------------------------------------------------------------
# reproduce

# Argument ranges of the symbolic scans, one op per range. The ranges are
# narrow, so that every round costs about the same whatever the seed, and
# the low ones cost 50-150 ms, like tables III-V: the middle of a round is
# then a cluster of similar ops, not a gap between cheap and heavy ones.
# n = 16 is the one GL code that is emitted and verified (927 words).
REPRODUCE_SLOTS = {
    "mmin": ((14, 15), (17, 17), (18, 18)),
    "doubling": ((19, 20), (22, 22), (23, 23)),
    "zero_block": ((500, 600), (1500, 1550)),
    "gl": ((16, 16), (700, 800), (1950, 2000)),
}
TINY_REPRODUCE_SLOTS = {
    "mmin": ((5, 8),), "doubling": ((6, 10),),
    "zero_block": ((5, 60),), "gl": ((8, 12), (20, 60)),
}


def _reproduce(rng, tiny, _sizes):
    ops = []
    for table in ("I", "II", "III", "IV", "V"):
        via = rng.choices(("api", "tsv", "json"), weights=(3, 1, 1))[0]
        kmax = {"I": 12, "II": 4, "III": 8, "IV": 8, "V": 8}[table] if tiny else None
        ops.append(("table", {"id": table, "via": via, "kmax": kmax}))
    slots = TINY_REPRODUCE_SLOTS if tiny else REPRODUCE_SLOTS
    for kind, ranges in slots.items():
        for lo, hi in ranges:
            ops.append((kind, {"arg": rng.randint(lo, hi)}))
    for lo, hi in ((1e2, 1e3), (1e3, 3e3)) if tiny else ((1e2, 3e3), (5e4, 8e4)):
        # enumeration cost follows C(length, weight)
        length, weight = rng.choice([
            (n, w) for n in range(8, 23) for w in range(2, n // 2)
            if lo <= math.comb(n, w) <= hi
        ])
        ops.append(("spaced", {"length": length, "weight": weight, "gap": rng.randint(1, 3)}))
    ops.append(("fib", {
        "z": rng.randint(2, 12), "i": rng.randint(50, 3000), "a": rng.randint(2, 13),
    }))
    cases = []
    for _ in range(12):
        n = rng.randint(7, 40)
        cases.append((n, rng.randint(2, n - 1), rng.randint(0, 3)))
    ops.append(("bounds", {"cases": cases}))
    return ops
