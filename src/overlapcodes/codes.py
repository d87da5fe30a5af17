"""Codes, prefix/suffix systems, overlap verification, and the exact oracle.

A code is a set of equal-length words; it is overlap-free for a range
[t1, t2] when no ordered pair of codewords (a word paired with itself
included) has a t-prefix of one equal to a t-suffix of the other for any t
in the range. Prefix/suffix systems (P, S) generate such codes as
p || middle || s; they are valid exactly when no t-prefix of P meets a
t-suffix of S.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, islice
from operator import lt
from struct import pack, unpack
from typing import Iterable, Optional, TextIO

from . import search
from .counting import SymbolicSize
from .errors import CapacityError, DomainError
from .words import MAX_BITS, BitWord, int_overlap, set_bits

# refuse to materialize codes larger than this
EXPANSION_CAP = 1 << 22
ORACLE_MAX_N = 10


def _words(bits: int, values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as a strictly increasing tuple of bits-bit ints, repeats merged."""
    if not 1 <= bits <= MAX_BITS:
        raise DomainError(f"{what} {bits} out of range 1..{MAX_BITS}")
    words = sorted(values)
    if not all(map(lt, words, islice(words, 1, None))):
        words = sorted(set(words))
    if words and (words[0] < 0 or words[-1] >> bits):
        raise DomainError(f"words {words[0]}..{words[-1]} do not fit in {bits} bits")
    return tuple(words)


@dataclass(frozen=True)
class Code:
    """A set of distinct binary words of one length n, as sorted ints."""

    n: int
    words: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", _words(self.n, self.words, "word length"))

    @classmethod
    def from_values(cls, n: int, values: Iterable[int]) -> "Code":
        return cls(n, values)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "Code":
        strings = list(strings)
        if not strings:
            raise DomainError("cannot infer length of an empty code")
        n = len(strings[0])
        for s in strings:
            if len(s) != n or s.strip("01"):
                raise DomainError(f"word {s!r} is not a binary word of length {n}")
        return cls(n, (int(s, 2) for s in strings))  # n is checked first

    def values(self) -> list[int]:
        return list(self.words)

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return (BitWord(self.n, v) for v in self.words)


@dataclass(frozen=True)
class OverlapWitness:
    """A pair falsifying overlap-freeness: prefix_t(u) == suffix_t(v)."""

    u: BitWord
    v: BitWord
    t: int

    def __str__(self):
        return f"prefix_{self.t}({self.u}) == suffix_{self.t}({self.v})"


def _first_clash(
    width: int, heads: tuple[int, ...], tails: tuple[int, ...], t1: int, t2: int
) -> Optional[tuple[int, int]]:
    """The least (t, x), t in [t1, t2], such that x is the t-head of a
    width-bit word in heads and the t-tail of one in tails; None if none is.

    heads must be sorted. Its distinct base-width heads are then read by
    bisection, one step each, and there are at most 2^base <= len/16 of
    them, len the size of the larger side.
    """
    # Size-t clashes depend only on the words' t-bit heads and tails. Up to
    # width `base` they are cut from the base-width tails, a set made from
    # every word of tails, and from the distinct base-width heads, bisected
    # from heads; wider ones come straight from the words.
    base = min(t2, max(len(heads), len(tails)).bit_length() - 5)
    if base >= t1:
        shift, mask = width - base, (1 << base) - 1
        wide_heads, i = [], 0
        while i < len(heads):
            h = heads[i] >> shift
            wide_heads.append(h)
            i = bisect_left(heads, (h + 1) << shift, i + 1)
        wide = base, wide_heads, {x & mask for x in tails}
    for t in range(t1, t2 + 1):
        w, t_heads, t_tails = wide if t <= base else (width, heads, tails)
        shift, mask = w - t, (1 << t) - 1
        t_tails = {x & mask for x in t_tails}
        # the heads ascend, so the first hit is the least
        hits = [y for x in t_heads if (y := x >> shift) in t_tails]
        if hits:
            return t, hits[0]
    return None


def is_overlap_free(
    code: Code, t1: int, t2: int
) -> tuple[bool, Optional[OverlapWitness]]:
    """Check every ordered pair (u, v), u == v allowed, for t in [t1, t2].

    On failure the witness is the smallest violation under (t, u, v) order.
    """
    n, words = code.n, code.words
    if not 1 <= t1 <= t2 <= n - 1:
        raise DomainError(f"need 1 <= t1 <= t2 <= n-1, got t1={t1}, t2={t2}, n={n}")
    clash = _first_clash(n, words, words, t1, t2)
    if clash is None:
        return True, None
    # words are sorted by head: u is the first word with the least hit
    t, hit = clash
    mask = (1 << t) - 1
    u = words[bisect_left(words, hit << (n - t))]
    v = next(v for v in words if v & mask == hit)
    return False, OverlapWitness(BitWord(n, u), BitWord(n, v), t)


@dataclass(frozen=True)
class PrefixSuffixSystem:
    """A pair (P, S) of k-bit word sets, as sorted ints, for p || x || s."""

    k: int
    prefixes: tuple[int, ...]
    suffixes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefixes", _words(self.k, self.prefixes, "width"))
        object.__setattr__(self, "suffixes", _words(self.k, self.suffixes, "width"))

    @classmethod
    def from_values(cls, k: int, p: Iterable[int], s: Iterable[int]):
        return cls(k, p, s)

    def prefix_values(self) -> list[int]:
        return list(self.prefixes)

    def suffix_values(self) -> list[int]:
        return list(self.suffixes)


def validate_system(
    sys: PrefixSuffixSystem,
) -> tuple[bool, Optional[tuple[int, BitWord]]]:
    """True iff no t-prefix of P equals a t-suffix of S for any t in [1, k].

    On failure, returns the smallest t and the smallest colliding t-word.
    """
    clash = _first_clash(sys.k, sys.prefixes, sys.suffixes, 1, sys.k)
    if clash is None:
        return True, None
    return False, (clash[0], BitWord(*clash))


def symbolic_size(sys: PrefixSuffixSystem):
    """|P| * |S| * 2^(n-2k) as a SymbolicSize."""
    return SymbolicSize(len(sys.prefixes) * len(sys.suffixes), 2 * sys.k)


def expand_system(sys: PrefixSuffixSystem, n: int) -> Code:
    """Materialize { p || x || s } for all middles x of length n - 2k."""
    k = sys.k
    if n < 2 * k:
        raise DomainError(f"need n >= 2k = {2 * k}, got n={n}")
    if n > MAX_BITS:
        raise CapacityError(
            f"explicit expansion needs n <= {MAX_BITS}; use symbolic_size instead"
        )
    total = len(sys.prefixes) * len(sys.suffixes) << (n - 2 * k)
    if total > EXPANSION_CAP:
        raise CapacityError(
            f"expansion would create {total} words (cap {EXPANSION_CAP})"
        )
    # p ascending, then the middle, then s: the words come out sorted
    top, step = n - k, 1 << k
    return Code(n, [body | s for p in sys.prefixes
                    for body in range(p << top, (p + 1) << top, step)
                    for s in sys.suffixes])


# ---------------------------------------------------------------------------
# file format: optional "# n=<int> q=2" header, one word per line
#
# A word is one w-bit field, w the narrowest of 8, 16, 32 and 64 of at least
# n. write_code packs a block of fields big-endian into one int and slices
# the int's binary string into the lines, one bit column at a time;
# _unpack_words inverts that, building the fields byte by byte from the
# lines' digit columns. Blocks keep the transient buffers a few hundred KiB
# large.

# write_code writes IO_BLOCK words at a time; read_code reads chunks of
# IO_BLOCK lines of n digits. A chunk laid out exactly as write_code writes
# it converts as it stands, any other goes through the line rules first
IO_BLOCK = 8192
# n -> (w, struct format character) of the narrowest field holding n bits
_FIELDS = [min(f for f in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if f[0] >= n)
           for n in range(MAX_BITS + 1)]
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def write_code(code: Code, fh: TextIO):
    n, words = code.n, code.words
    fh.write(f"# n={n} q=2\n")
    width, fmt = _FIELDS[n]
    for start in range(0, len(words), IO_BLOCK):
        block = words[start:start + IO_BLOCK]
        count = len(block)
        packed = int.from_bytes(pack(f">{count}{fmt}", *block), "big")
        bits = format(packed, f"0{width * count}b").encode()
        # byte i of each line is bit column i of the low n bits of its field
        lines = bytearray(b"\n" * ((n + 1) * count))
        for i in range(n):
            lines[i::n + 1] = bits[width - n + i::width]
        fh.write(lines.decode())


def _unpack_words(data: bytes, n: int, count: int) -> tuple[int, ...]:
    """The words of data, count lines of n binary digits and a newline each.

    Digit column i of the lines is bit width - n + i of the fields, counted
    from the top. A column, one 0/1 byte a word, read as one big int and
    shifted to its place in its field byte cannot carry into the next word's
    byte, so byte j of every field is the OR of its <= 8 columns.
    """
    width, fmt = _FIELDS[n]
    bits, size = data.translate(_DIGITS), width // 8
    planes = [0] * size
    for i in range(n):
        j, r = divmod(width - n + i, 8)
        planes[j] |= int.from_bytes(bits[i::n + 1], "big") << (7 - r)
    fields = bytearray(size * count)
    for j, plane in enumerate(planes):
        fields[j::size] = plane.to_bytes(count, "big")
    return unpack(f">{count}{fmt}", fields)


def _first_bad_line(lines: list[str], lineno: int, n: int):
    """Raise for the first word line (numbered from lineno + 1) that is not a
    binary word of length n."""
    for lineno, line in enumerate(lines, lineno + 1):
        if line and line[0] != "#":
            if line.strip("01"):
                raise DomainError(f"line {lineno}: invalid word {line!r}")
            if len(line) != n:
                raise DomainError(f"line {lineno}: word length {len(line)} != {n}")
    raise AssertionError("bulk word check and line rules disagree")


def read_code(fh: TextIO) -> Code:
    """Parse a code file: "#" lines are comments, and the first of them
    before any word that reads "# n=<int>" fixes the length; blank lines are
    skipped and every other line, stripped, must be a binary word."""
    n, lineno = None, 0
    while n is None:  # the header or the first word fixes the length
        first = fh.readline()
        if not first:
            raise DomainError("no words and no header in code file")
        lineno += 1
        line = first.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n = int(body.split()[0][2:])
                except ValueError as exc:
                    raise DomainError(f"line {lineno}: bad header {line!r}") from exc
            first = ""
        elif line:
            n, lineno = len(line), lineno - 1  # the word opens the first chunk
    values, size = [], IO_BLOCK * (min(max(n, 1), MAX_BITS) + 1)
    while data := first + fh.read(size):
        first = ""
        if data[-1] != "\n":  # end the chunk at the end of a line
            data += fh.readline()
            if data[-1] != "\n":  # the file's last line, without a newline
                data += "\n"
        raw = data.encode("ascii", "replace")
        count = raw.count(b"\n")
        if (1 <= n <= MAX_BITS and len(raw) == count * (n + 1)
                and raw[n::n + 1] == b"\n" * count and not raw.translate(None, b"01\n")):
            values += _unpack_words(raw, n, count)  # write_code's own layout
            lineno += count
            continue
        lines = [line.strip() for line in data[:-1].split("\n")]
        words = [line for line in lines if line and line[0] != "#"]
        if words:
            stray = "".join(words).encode("ascii", "replace").translate(None, b"01")
            if stray or set(map(len, words)) != {n}:
                _first_bad_line(lines, lineno, n)
            if n <= MAX_BITS:  # else Code refuses n below, whatever the words
                values += _unpack_words(("\n".join(words) + "\n").encode(), n, len(words))
        lineno += len(lines)
    return Code(n, values)


# ---------------------------------------------------------------------------
# exact maximum-code oracle for small n


def _conflict_rows(sigs: list[tuple[int, int]], t1: int, t2: int) -> list[int]:
    """Conflict bitmasks of width-t2 (head, tail) signatures: bit j of row i
    is set iff for some t in [t1, t2] the t-head of one of signatures i, j
    equals the t-tail of the other (so a self-conflicting i gets bit i).
    Each t buckets the signatures by t-head and by t-tail as index masks."""
    adj = [0] * len(sigs)
    for t in range(t1, t2 + 1):
        mask, shift = (1 << t) - 1, t2 - t
        keys = [(head >> shift, tail & mask) for head, tail in sigs]
        heads, tails = {}, {}
        for i, (head, tail) in enumerate(keys):
            heads[head] = heads.get(head, 0) | 1 << i
            tails[tail] = tails.get(tail, 0) | 1 << i
        for i, (head, tail) in enumerate(keys):
            adj[i] |= tails.get(head, 0) | heads.get(tail, 0)
    return adj


def _by_degree(sigs: list[tuple[int, int]], adj: list[int], t1: int, t2: int):
    """The classes renumbered by descending degree, ties in reverse sigs'
    order, so that covers walking down from the top index meet them as MCQ
    colours, by ascending degree: (order, signatures, conflict rows), class
    d of the new numbering being class order[d] of sigs."""
    order = sorted(range(len(sigs)), key=lambda i: adj[i].bit_count())[::-1]
    ranked = [sigs[i] for i in order]
    return order, ranked, _conflict_rows(ranked, t1, t2)


def _symmetries(sigs: list[tuple[int, int]], t2: int) -> tuple:
    """Reversal, complement and both, as maps on the indices of the
    width-t2 signatures sigs, in any order, which must be closed under both.

    Reversing a word turns its head into its reversed tail and its tail
    into its reversed head, (head, tail) -> (rev tail, rev head), and
    complementing it keeps every equality between heads and tails. Each map
    thus sends a code free of overlaps sized t1..t2 to another, and
    preserves the conflict rows. The search maps only its root branches, so
    each image is looked up when asked for.
    """
    rev = [0] * (1 << t2)
    for x in range(1, 1 << t2):
        rev[x] = rev[x >> 1] >> 1 | (x & 1) << (t2 - 1)
    flip = (1 << t2) - 1
    index = {sig: i for i, sig in enumerate(sigs)}

    def mirror(i: int) -> int:
        head, tail = sigs[i]
        return index[rev[tail], rev[head]]

    def complement(i: int) -> int:
        head, tail = sigs[i]
        return index[head ^ flip, tail ^ flip]

    return mirror, complement, lambda i: complement(mirror(i))


def _label_parts(ranked: list[tuple[int, int]], t1: int, t2: int, symmetries) -> list:
    """The size proof's parts: one (part, fixing) pair per labelling A of
    the t1-bit words up to reversal and complement, A the head words and
    the rest the tail words.

    A code's t1-heads and t1-tails are disjoint, so the code lies in the
    part of its own head set: the classes of ranked, width-t2 signatures,
    whose t1-head is in A and whose t1-tail is not. No two classes of a
    part clash at size t1. symmetries are the class maps of `_symmetries`,
    in its order; they send the part of A onto the part of rev(Ā) (mirror),
    of {x ^ mask} (complement) and of both images, so only the least
    labelling of each orbit is kept, and fixing lists the maps that send it
    to itself. Labellings grow by their highest word, one OR each for the
    heads, the tails and every image.
    """
    words, flip = 1 << t1, (1 << t1) - 1
    full = (1 << words) - 1
    heads, tails = [0] * words, [0] * words
    for i, (head, tail) in enumerate(ranked):
        heads[head >> (t2 - t1)] |= 1 << i
        tails[tail & flip] |= 1 << i
    rev = [int(format(x, f"0{t1}b")[::-1], 2) for x in range(words)]
    # per labelling a: its classes by head and by tail, and the labellings
    # rev a, a ^ mask and rev a ^ mask; the labellings whose highest word is
    # x extend those below 2^x by x, one OR each
    masks = h, t, r, c, rc = [0], [0], [0], [0], [0]
    for x in range(words):
        for m, add in zip(masks, (heads[x], tails[x], 1 << rev[x], 1 << (x ^ flip),
                                  1 << (rev[x] ^ flip))):
            m += [y | add for y in m]
    mirror, both = [full ^ y for y in r], [full ^ y for y in rc]
    return [(h[a] & ~t[a], list(compress(symmetries, (mi == a, co == a, bo == a))))
            for a, mi, co, bo in zip(range(len(h)), mirror, c, both)
            if a <= mi and a <= co and a <= bo]


def brute_force_max_code(
    n: int, t1: int, t2: int, canonical: bool = False
) -> tuple[int, Code]:
    """Exact largest code of length n free of overlaps sized t1..t2.

    Words sharing the (t2-prefix, t2-suffix) signature conflict identically,
    so the conflict graph is collapsed to one vertex per signature before the
    exact independent-set search; every class holds the same number of
    words, written out in closed form from its signature. Self-conflicting
    signatures are dropped up front: such words can never appear in any
    code. Every optimum is a union of whole signature classes, hence with
    canonical=True the greedy by smallest member word yields the
    lexicographically smallest optimal code.

    With t1 < t2 the colour-ordered search proves the optimum's size first,
    for t1 <= 3 on the parts of `_label_parts`, one per head/tail
    labelling of the t1-words up to symmetry (2^(2^t1) labellings; the
    16,448 orbits at t1 = 4 cost the n = 7 proofs more than they save).
    The printed code comes from the searches that the proven size stops,
    not from the proof.
    """
    if not 1 <= t1 <= t2 <= n - 1:
        raise DomainError(f"need 1 <= t1 <= t2 <= n-1, got t1={t1}, t2={t2}, n={n}")
    if n > ORACLE_MAX_N:
        raise CapacityError(f"oracle capped at n = {ORACLE_MAX_N}")

    sigs = sorted({(w >> (n - t2), w & ((1 << t2) - 1)) for w in range(1 << n)})
    sigs = [(head, tail) for head, tail in sigs
            if not any(int_overlap(head, tail, t2, t) for t in range(t1, t2 + 1))]
    # every search runs on the degree numbering; sigs' rows only rank it
    order, ranked, adj = _by_degree(sigs, _conflict_rows(sigs, t1, t2), t1, t2)
    live = (1 << len(sigs)) - 1
    # the optimum's class count, where it is cheap to know, stops the
    # first-optimum search there. With t1 == t2 = t <= n/2 the t-heads and
    # t-tails of a code are disjoint, so at most 2^(2t-2) classes fit (heads
    # starting 0, tails starting 1); with t1 < t2 the colour-ordered search
    # proves it fast, but with t1 == t2 its bound stalls
    if t1 == t2 and 2 * t2 <= n:
        target = 1 << (2 * t2 - 2)
    elif t1 < t2:
        symmetries = _symmetries(ranked, t2)
        parts = (_label_parts(ranked, t1, t2, symmetries) if t1 <= 3
                 else [(live, symmetries)])
        target = search.max_independent_set_size(adj, live, parts=parts)
    else:
        target = None
    if canonical and target is not None:
        count = target  # the refinement below picks the set
    else:
        # ties go to the lowest signature index, as in sigs' own numbering
        count, chosen = search.first_max_independent_set(adj, live, target, order)

    if canonical:
        # classes are disjoint, every optimum uses whole classes and all
        # optima hold the same number of words, so deciding classes in order
        # of their smallest member gives the least sorted word list; sorted
        # (head, tail) signatures are already in that order. The lowest
        # undecided class is kept iff the later ones it leaves live still
        # hold need - 1 more, and the sub-search stops once it finds them.
        chosen, rest, need = 0, live, count
        for d in sorted(range(len(order)), key=order.__getitem__):
            if rest >> d & 1:
                rest ^= 1 << d
                after = rest & ~adj[d]
                if search.max_independent_set_size(adj, after, target=need - 1) >= need - 1:
                    chosen, rest, need = chosen | 1 << d, after, need - 1
        if need:
            raise AssertionError("canonical refinement lost the optimum")

    # a class is the words head || m || tail for every middle m of n - 2*t2
    # bits; when n < 2*t2, head and tail agree where they overlap and fix
    # one word
    middles = range(1 << max(0, n - 2 * t2))
    return len(middles) * count, Code(n, [
        head << (n - t2) | m << t2 | tail
        for head, tail in map(ranked.__getitem__, set_bits(chosen)) for m in middles
    ])
