"""Property tests: the int-tuple code paths against definitions written here."""

import io
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes import (
    BitWord,
    Code,
    DomainError,
    PrefixSuffixSystem,
    codes,
    expand_system,
    is_overlap_free,
    read_code,
    t_overlap,
    validate_system,
    write_code,
)
from overlapcodes.words import int_overlap
from oracles import first_clash

MAX_N = 12


def smallest_overlap(n, values, t1, t2):
    """The least (t, u, v) with prefix_t(u) == suffix_t(v), by brute force."""
    ws = sorted(BitWord(n, v) for v in set(values))
    for t in range(t1, t2 + 1):
        for u in ws:
            for v in ws:
                if t_overlap(u, v, t):
                    return t, u, v
    return None


@st.composite
def codes_and_ranges(draw):
    n = draw(st.integers(2, MAX_N))
    # from 32 distinct words on, the smallest sizes take the checker's other path
    size = draw(st.sampled_from((0, 40)))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=96))
    if n >= 4 and draw(st.booleans()):
        # only a few distinct w-bit heads and tails, so that overlaps of the
        # smallest sizes come and go rather than being near certain
        w = draw(st.integers(1, n // 2))
        side = st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=2)
        heads, tails = draw(side), draw(side)
        middle = (1 << (n - w)) - (1 << w)
        values = [
            heads[i % len(heads)] << (n - w) | v & middle | tails[i // 2 % len(tails)]
            for i, v in enumerate(values)
        ]
    t1 = draw(st.one_of(st.just(1), st.integers(1, n - 1)))
    t2 = draw(st.integers(t1, n - 1))
    return n, values, t1, t2


@st.composite
def systems(draw, max_k=4):
    k = draw(st.integers(1, max_k))
    side = st.lists(st.integers(0, (1 << k) - 1), max_size=1 << k)
    n = draw(st.integers(2 * k, min(MAX_N, 2 * k + 5)))
    return k, draw(side), draw(side), n


def naive_expansion(k, prefixes, suffixes, n):
    mid = n - 2 * k
    return {
        (p << (n - k)) | (x << k) | s
        for p, x, s in product(set(prefixes), range(1 << mid), set(suffixes))
    }


def check_against_definition(code, t1, t2):
    ok, witness = is_overlap_free(code, t1, t2)
    expected = smallest_overlap(code.n, code.words, t1, t2)
    if expected is None:
        assert ok and witness is None
    else:
        assert not ok
        assert (witness.t, witness.u, witness.v) == expected


@settings(max_examples=150, deadline=None)
@given(codes_and_ranges())
def test_overlap_free_matches_pairwise_definition(case):
    n, values, t1, t2 = case
    check_against_definition(Code.from_values(n, values), t1, t2)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.booleans(), st.data())
def test_overlap_free_on_expanded_systems(k, mid, valid, data):
    # Expansions are large, and clean over [1, k] when the system is valid.
    # From 32 words on, the checker cuts the heads and tails of the smallest
    # sizes from wider ones instead of from the words; t1 is drawn small to
    # reach that path.
    n = min(2 * k + mid, MAX_N)
    prefixes = suffixes = range(1 << k)
    extra = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    if valid:
        # parts of a zero-block system, which stays valid
        z = data.draw(st.integers(1, k))
        prefixes = range(1 << (k - z))
        suffixes = [s for s in range(1, 1 << k, 2) if "0" * z not in f"{s:0{k}b}"]
        extra = []
    system = PrefixSuffixSystem.from_values(
        k,
        data.draw(st.lists(st.sampled_from(prefixes), min_size=1)),
        data.draw(st.lists(st.sampled_from(suffixes), min_size=1)),
    )
    # at most 96 words keeps the pairwise oracle quick
    code = Code.from_values(n, expand_system(system, n).words[:96] + tuple(extra))
    t1 = data.draw(st.integers(1, min(3, n - 1)))
    t2 = data.draw(st.integers(t1, max(t1, k) if valid else n - 1))
    check_against_definition(code, t1, t2)


def least_clash(system):
    """The least t, then the least t-word, that is the t-prefix of a word of
    P and the t-suffix of one of S, pair by pair; None if there is none."""
    k = system.k
    for t in range(1, k + 1):
        hits = [p >> (k - t) for p in system.prefixes for s in system.suffixes
                if int_overlap(p, s, k, t)]
        if hits:
            return t, BitWord(t, min(hits))
    return None


@st.composite
def wide_systems(draw):
    """Systems of width 6..9 with at least 32 words a side, so that the
    clash scan cuts the heads and tails of size 1 from wider ones. P starts
    0 and S ends 1, bar up to one stray word a side. At widths 8 and 9 half
    the draws lie in a zero-block system, valid unless a stray word breaks
    it; the other half clash at some size."""
    k = draw(st.integers(6, 9))
    pools = range(1 << (k - 1)), range(1, 1 << k, 2)
    if k >= 8 and draw(st.booleans()):
        z = draw(st.integers(2, 3))
        pools = range(1 << (k - z)), [s for s in pools[1] if "0" * z not in f"{s:0{k}b}"]
    sides = []
    for pool in pools:
        drop = draw(st.sets(st.sampled_from(pool), max_size=len(pool) - 32))
        stray = draw(st.sets(st.integers(0, (1 << k) - 1), max_size=1))
        sides.append(set(pool) - drop | stray)
    return PrefixSuffixSystem(k, *sides)


@settings(max_examples=100, deadline=None)
@given(wide_systems())
def test_validate_system_matches_pairwise_definition(system):
    clash = least_clash(system)
    assert validate_system(system) == (clash is None, clash)


def bit_patterns(bits):
    """bits-bit ints, 0 and 2^bits - 1 among them."""
    return st.integers(0, (1 << bits) - 1) | st.sampled_from((0, (1 << bits) - 1))


@st.composite
def patterned_words(draw, width, role, z, edges):
    """One side of a clash check, its heads, its tails or both: a single
    word, or 2^e to 2^(e+1) - 1 random width-bit words, e in 9..12, whose
    hb-bit heads come from up to three patterns, so that there are few
    distinct heads of the checker's base width, e - 4. With z = 0 the tails
    come from up to three patterns too, and clashes of small sizes come and
    go. With z > 0 the side has the shape of a zero-block system, clean as
    far as the tails reach: the heads start with z zeros, and every z-th
    bit of a tails side, or of the last tb bits of both, is set, so that no
    run of z zeros can meet a head. Up to two of edges join a quarter of the
    sides."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if not rng.randrange(5):
        return [rng.getrandbits(width)]
    e = draw(st.integers(9, min(12, width - 1)))
    # at least e + 1 random bits keep most words distinct
    room = max(1, width - e - 1)
    hb = draw(st.integers(1, room))
    heads = draw(st.lists(bit_patterns(hb), min_size=1, max_size=3))
    keep, ones, tb, tails = (1 << width) - 1, 0, 0, [0]
    if not z:
        tb = draw(st.integers(0, room - hb))
        tails = draw(st.lists(bit_patterns(tb), min_size=1, max_size=3))
    elif role == "tails":
        ones = sum(1 << i for i in range(0, width, z))
    else:
        keep >>= z
        if role == "both":
            ones = sum(1 << i for i in range(0, draw(st.integers(0, width - hb)), z))
    middle = (1 << (width - hb)) - (1 << tb)
    words = [(rng.choice(heads) << (width - hb) | rng.getrandbits(width) & middle
              | rng.choice(tails)) & keep | ones
             for _ in range(rng.randrange(1 << e, 2 << e))]
    return words + rng.sample(edges, rng.choice((0, 0, 0, 0, 0, 0, 1, 2)))


def planted(rng, width, heads, size):
    """A random word whose size-bit tail is the size-bit head of a random
    word of heads, of one whose size-bit head ends in 1 if there is one;
    with size None, a word that starts and ends in 1 and is not below any
    word of heads."""
    if size is None:
        return max(heads) | 1 << (width - 1) | 1
    u = rng.choice([h for h in heads if h >> (width - size) & 1] or heads)
    return rng.getrandbits(width - size) << size | u >> (width - size)


def reference_witness(n, words, t1, t2):
    """(t, u, v) of the least clash by the reference scan: u the least word
    with the hit as its t-prefix, v the least with it as its t-suffix."""
    clash = first_clash(n, words, words, t1, t2)
    if clash is None:
        return None
    t, hit = clash
    return (t, min(u for u in words if u >> (n - t) == hit),
            min(v for v in words if v & ((1 << t) - 1) == hit))


@settings(max_examples=100, deadline=None)
@given(st.integers(10, 20), st.booleans(), st.data())
def test_clash_scan_matches_reference_on_large_sides(width, two_sides, data):
    # Up to 8,191 words a side, so that the checker cuts the sizes up to its
    # base width, 5-8 or t2 when smaller, from the distinct base-width heads.
    # One word may be added that clashes with a head at a drawn size, or
    # that has the greatest head, the last one the checker's bisection
    # reads; on a zero-block shape the latter is the one clash of size 1.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    z = data.draw(st.sampled_from((2, 3, 1, 0)))
    plant = data.draw(st.booleans())
    size = data.draw(st.none() | st.integers(1, 8) | st.integers(1, width - 1))
    if two_sides:
        edges = (0, 1, (1 << width) - 2, (1 << width) - 1)
        prefixes = data.draw(patterned_words(width, "heads", z, edges))
        suffixes = data.draw(patterned_words(width, "tails", z, edges))
        if plant:
            word = planted(rng, width, prefixes, size)
            (suffixes if size else prefixes).append(word)
        # one-word sides too, as mis_matching_certificate's P = {0}: the
        # checker then takes its base width from the other side
        for system in (PrefixSuffixSystem(width, prefixes, suffixes),
                       PrefixSuffixSystem(width, [0], suffixes),
                       PrefixSuffixSystem(width, prefixes, [rng.choice(suffixes)])):
            clash = first_clash(width, system.prefixes, system.suffixes, 1, width)
            expected = (True, None) if clash is None else (False, (clash[0], BitWord(*clash)))
            assert validate_system(system) == expected
    else:
        # 0 and 2^width - 1 would clash with themselves at every size
        words = data.draw(patterned_words(width, "both", z, (1, (1 << width) - 2)))
        if plant:
            words.append(planted(rng, width, words, size))
        code = Code(width, words)
        t2 = data.draw(st.integers(3, 8) | st.integers(3, width - 1))
        t1 = data.draw(st.integers(1, min(t2, 4)) | st.integers(1, t2))
        ok, witness = is_overlap_free(code, t1, t2)
        expected = reference_witness(width, code.words, t1, t2)
        assert ok == (expected is None)
        if witness is not None:
            assert (witness.t, witness.u.value, witness.v.value) == expected


@settings(max_examples=150, deadline=None)
@given(systems())
def test_expand_system_matches_triple_loop(system):
    k, prefixes, suffixes, n = system
    code = expand_system(PrefixSuffixSystem.from_values(k, prefixes, suffixes), n)
    assert code.n == n
    assert code.words == tuple(sorted(naive_expansion(k, prefixes, suffixes, n)))


@settings(max_examples=150, deadline=None)
@given(codes_and_ranges())
def test_write_read_round_trip(case):
    n, values, _, _ = case
    code = Code.from_values(n, values)
    buf = io.StringIO()
    write_code(code, buf)
    assert read_code(io.StringIO(buf.getvalue())) == code


@settings(max_examples=200, deadline=None)
@given(st.integers(1, MAX_N), st.data())
def test_from_values_sorts_merges_and_range_checks(n, data):
    values = data.draw(st.lists(st.integers(-3, (1 << n) + 2), max_size=40))
    if all(0 <= v < 1 << n for v in values):
        expected = tuple(sorted(set(values)))
        assert Code.from_values(n, values).words == expected
        assert Code(n, values).words == expected
        system = PrefixSuffixSystem.from_values(n, values, reversed(values))
        assert system.prefixes == system.suffixes == expected
        assert system.prefix_values() == list(expected)
    else:
        with pytest.raises(DomainError):
            Code.from_values(n, values)
        with pytest.raises(DomainError):
            PrefixSuffixSystem.from_values(n, [], values)


# ---------------------------------------------------------------------------
# code files: the bulk reader and writer against the per-line versions they
# replaced, kept here as oracles


def line_write_code(code, fh):
    line = f"{{:0{code.n}b}}\n".format
    fh.writelines([f"# n={code.n} q=2\n", *map(line, code.words)])


def line_read_code(fh):
    n = None
    values = []
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if line.strip("01"):  # a comment or header, else not a binary word
            if not line.startswith("#"):
                raise DomainError(f"line {lineno}: invalid word {line!r}")
            body = line[1:].strip()
            if n is None and not values and body.startswith("n="):
                try:
                    n = int(body.split()[0][2:])
                except ValueError as exc:
                    raise DomainError(f"line {lineno}: bad header {line!r}") from exc
        elif line:
            if len(line) != n:
                if n is not None:
                    raise DomainError(f"line {lineno}: word length {len(line)} != {n}")
                n = len(line)
            values.append(int(line, 2))
    if n is None:
        raise DomainError("no words and no header in code file")
    return Code(n, values)


def outcome(read, text):
    """read's Code for the file text, or the message of its DomainError."""
    try:
        return read(io.StringIO(text))
    except DomainError as exc:
        return f"DomainError: {exc}"


def write_text(write, code):
    buf = io.StringIO()
    write(code, buf)
    return buf.getvalue()


# every field width and the widths on either side of it
FIELD_EDGES = (1, 7, 8, 9, 16, 17, 32, 33, 63, 64)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELD_EDGES), st.data())
def test_write_code_matches_line_writer(n, data):
    # from the empty code up to several words per bit column
    size = data.draw(st.sampled_from((0, 1, n, 2 * n - 1, 2 * n, 2 * n + 5, 5 * n)))
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size,
                                max_size=size))
    code = Code(n, values)
    block = data.draw(st.sampled_from((1, 7, 64, codes.IO_BLOCK)))
    with mock.patch.object(codes, "IO_BLOCK", block):
        text = write_text(write_code, code)
    assert text == write_text(line_write_code, code)
    assert read_code(io.StringIO(text)) == code


def test_write_code_matches_line_writer_for_every_length():
    rng = random.Random(7)
    for n in range(1, 65):
        for size in (0, 1, n - 1, n, 3 * n + 1, 300):
            code = Code(n, (rng.getrandbits(n) for _ in range(size)))
            assert write_text(write_code, code) == write_text(line_write_code, code)


def padded(line, draw):
    pad = st.sampled_from(("", " ", "\t", " \t ", "\x0c"))
    return draw(pad) + line + draw(pad)


@st.composite
def code_files(draw):
    """Messy code file text: headers, comments, blank lines, padding, CRLF
    and sometimes a bad line, in any order, between runs of clean lines."""
    n = draw(st.one_of(st.integers(1, 20), st.sampled_from(FIELD_EDGES)))
    word = st.integers(0, (1 << n) - 1).map(f"{{:0{n}b}}".format)
    good = st.one_of(
        word, word, word,
        st.just(""),
        st.sampled_from(("# a comment", "#", "#n=", "# q=2", "#0101")),
        st.integers(-1, 22).map("# n={} q=2".format),
    )
    bad = st.one_of(
        st.integers(0, 22).filter(lambda m: m != n).map(lambda m: "1" * m),
        st.tuples(word, st.sampled_from("2ab_+ ")).map(lambda p: p[0][:-1] + p[1]),
        st.sampled_from(("0b11", "# n=x", "# n=3.0", "\uff11\uff10", "1 0")),
    )
    lines = draw(st.lists(st.one_of(good, bad) if draw(st.booleans()) else good,
                          max_size=40))
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n")), min_size=len(lines),
                         max_size=len(lines)))
    pieces = [padded(line, draw) + end for line, end in zip(lines, ends)]
    # runs laid out as write_code writes them, for the bulk route
    runs = st.lists(word, min_size=1, max_size=30).map(lambda ws: "\n".join(ws) + "\n")
    for run in draw(st.lists(runs, max_size=3)):
        pieces.insert(draw(st.integers(0, len(pieces))), run)
    text = "".join(pieces)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last line
    return text


@settings(max_examples=400, deadline=None)
@given(code_files(), st.sampled_from((1, 2, 3, 7, codes.IO_BLOCK)))
def test_read_code_matches_line_reader(text, block):
    # small blocks put headers, first words and bad lines on block edges
    with mock.patch.object(codes, "IO_BLOCK", block):
        assert outcome(read_code, text) == outcome(line_read_code, text)


@pytest.mark.parametrize("bad", ["0120", "011", "01101", "# n=x"])
@pytest.mark.parametrize("lineno", [codes.IO_BLOCK, codes.IO_BLOCK + 1,
                                    codes.IO_BLOCK + 2, 20000])
def test_read_code_reports_bad_lines_past_the_first_block(bad, lineno):
    lines = [f"{i % 16:04b}" if i % 5 else "# comment" for i in range(lineno + 20)]
    lines[lineno - 1] = bad
    text = "\r\n".join(lines)
    expected = outcome(line_read_code, text)
    assert outcome(read_code, text) == expected
    if bad != "# n=x":  # an ignored header once the length is known
        assert expected.startswith(f"DomainError: line {lineno}: ")
    # with only comments before it, the header is the first of the file
    text = "\n".join(["# leading"] * (lineno - 1) + [bad, "0101"])
    assert outcome(read_code, text) == outcome(line_read_code, text)


def test_read_code_edge_files():
    for text in ("", "\n\n", "# only a comment\n", "# n=5 q=2", "# n=5 q=2\n",
                 "# n=0 q=2\n", "# n=65 q=2\n", "# n=70\n" + "1" * 70, "0101",
                 "# n=3\n# n=4\n0101\n", "0101\n# n=3\n", "# n=4\n0101\n# n=x"):
        assert outcome(read_code, text) == outcome(line_read_code, text), text
    # n = 1 with blank lines: every stride position is a newline, but the
    # digits are not on their own lines
    text = "\n1\n\n\n0\n1\n1\n0\n"
    assert outcome(read_code, text) == outcome(line_read_code, text)
    # a short and a long word of the right total length and newline count
    for text in ("# n=4\n010\n01011\n", "0101\n010\n01011\n"):
        assert outcome(read_code, text) == outcome(line_read_code, text), text


class RecordedReads(io.StringIO):
    """A StringIO that keeps the size of every read() call."""

    def __init__(self, text):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("n", [-1, 0, 65, 1000000000])
@pytest.mark.parametrize("body", ["0101", "1" * 65, "# a comment", ""])
def test_read_code_reads_bounded_chunks_after_any_header(n, body):
    text = f"# n={n} q=2\n" + f"{body}\n" * 200
    fh = RecordedReads(text)
    with mock.patch.object(codes, "IO_BLOCK", 2):
        assert outcome(lambda _: read_code(fh), text) == outcome(line_read_code, text)
        assert all(0 < size <= 2 * (codes.MAX_BITS + 1) < len(text) for size in fh.sizes)


@pytest.mark.parametrize("index", [0, codes.IO_BLOCK - 1, codes.IO_BLOCK,
                                   2 * codes.IO_BLOCK - 1, 2 * codes.IO_BLOCK,
                                   2 * codes.IO_BLOCK + 2])
@pytest.mark.parametrize("kind", ["padded", "crlf", "comment", "bad"])
def test_read_code_irregular_line_at_a_chunk_edge(index, kind):
    # a write_code file of two full chunks and three more words, one of
    # them, the first or last of a chunk, made irregular
    rng = random.Random(index)
    code = Code(16, rng.sample(range(1 << 16), 2 * codes.IO_BLOCK + 3))
    header, *lines = write_text(write_code, code).split("\n")[:-1]
    word = lines[index]
    lines[index] = {"padded": f" {word}\t", "crlf": word + "\r", "comment": "# c",
                    "bad": word[:-1] + "2"}[kind]
    text = "\n".join([header, *lines])  # no newline after the last line
    expected = outcome(line_read_code, text)
    assert outcome(read_code, text) == expected
    if kind == "bad":
        assert expected.startswith(f"DomainError: line {index + 2}: ")
    elif kind != "comment":
        assert expected == code
