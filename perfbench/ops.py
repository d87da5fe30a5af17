"""Executors for every op kind, each with the checks on its output.

An executor calls the package through `Context` (so each call becomes a
span when tracing is on), checks what comes back against an independent
reference, raises CheckFailed on any disagreement, and returns the number
of codewords it verified.
"""

import bisect
import contextlib
import io
import json
import random
from time import perf_counter

from identities import (
    DOUBLING_DIVERGENCE,
    KNOWN_MISMATCHES,
    TABLE_COLUMNS,
    TABLE_RANGES,
    best_zero_block,
    bound_values,
    cyclic_run_free_count,
    decimal_half_up,
    fib_step,
    gl_size,
    is_edge,
    is_local_best,
    spaced_ones_closed_form,
    survives_mmin,
    zero_block_coefficient,
)
from workloads import ORACLE_SIZES

# An expected refusal must arrive within this many seconds.
REFUSAL_PROMPT_S = 0.5
# Table I widths whose doubling product diverges from the published one.
DOUBLING_DIVERGENT = frozenset(k for t, k, _ in KNOWN_MISMATCHES if t == "I")


class CheckFailed(Exception):
    """An op's output disagreed with its reference."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def reset_memo(memo_modules):
    """Empty the package's memo tables, as a fresh CLI process has them."""
    counting, tables = memo_modules
    for name in ("_fib_tables", "_gap_hist_cache"):
        memo = getattr(counting, name, None)
        if memo is not None:
            memo.clear()
    if hasattr(tables, "_golden_cache"):
        tables._golden_cache = None


class Context:
    """What an executor needs: the package API, the CLI and the tracer."""

    def __init__(self, api, cli_main, tracer, golden, tmp_dir, memo_modules):
        self.api = api
        self.cli_main = cli_main
        self.tr = tracer
        self.golden = golden
        self.tmp = tmp_dir
        self.memo_modules = memo_modules

    def construct(self, kind, fn, *args, **kwargs):
        self.tr.count("constructions.calls")
        return self.tr.call("constructions", kind, fn, *args, **kwargs)

    def count(self, kind, fn, *args, **kwargs):
        self.tr.count("counting.calls")
        return self.tr.call("counting", kind, fn, *args, **kwargs)

    def build_graph(self, k):
        self.tr.count("graph.build_calls")
        return self.tr.call("graph", "build", self.api.build_overlap_graph, k)

    def cli(self, argv, files=()) -> str:
        """Run the CLI in-process; returns its standard output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.tr.call("cli", "busy", self.cli_main, argv)
        check(rc == 0, f"cli {argv[:4]} exited {rc}: {err.getvalue().strip()}")
        text = out.getvalue()
        self.tr.count("cli.calls")
        self.tr.count(
            "cli.bytes_out", len(text) + sum(f.stat().st_size for f in files)
        )
        return text

    def verify(self, code, t1, t2) -> int:
        ok, witness = self.tr.call(
            "codes", "verify", self.api.is_overlap_free, code, t1, t2
        )
        check(ok and witness is None, f"code fails over [{t1}, {t2}]: {witness}")
        self.tr.count("codes.verify_words", len(code))
        return len(code)


def run_op(cx: Context, kind: str, params: dict) -> int:
    return EXECUTORS[kind](cx, params)


# ---------------------------------------------------------------------------
# codebook


def _expand(cx, p):
    api, tr = cx.api, cx.tr
    n, rng = p["n"], random.Random(p["pick"])
    if p["source"] == "gl":
        code = cx.construct("gl", api.gilbert_levenshtein, n, emit_code=True).code
        t1, t2 = 1, n - 1
        if p["subset"]:
            full = tr.call("codes", "values", code.values)
            keep = rng.sample(full, p["subset"])
            code = tr.call("codes", "expand", api.Code.from_values, n, keep)
    else:
        k = p["k"]
        system = _base_system(cx, p["source"], k)
        if p["subset"]:
            a, b = p["subset"]
            pv = tr.call("codes", "values", system.prefix_values)
            sv = tr.call("codes", "values", system.suffix_values)
            system = tr.call(
                "codes", "expand", api.PrefixSuffixSystem.from_values,
                k, rng.sample(pv, a), rng.sample(sv, b),
            )
        valid, clash = tr.call("codes", "verify", api.validate_system, system)
        check(valid, f"system from {p['source']}({k}) is invalid: {clash}")
        code = tr.call("codes", "expand", api.expand_system, system, n)
        t1, t2 = 1, k
    values = tr.call("codes", "values", code.values)
    check(len(values) == p["words"], f"{len(values)} words, expected {p['words']}")
    cx.verify(code, t1, t2)
    if p["falsify"] == "widen":
        _falsify_widened(cx, code, values, p["k"], n)
    else:
        _falsify_injected(cx, values, n, t1, t2, rng)
    buf = io.StringIO()
    tr.call("codes", "write", api.write_code, code, buf)
    back = tr.call("codes", "read", api.read_code, io.StringIO(buf.getvalue()))
    check(back.n == n, f"round trip changed n to {back.n}")
    check(tr.call("codes", "values", back.values) == values, "round trip changed the words")
    tr.count("codes.io_words", len(values))
    return len(values)


def _base_system(cx, source, k):
    api = cx.api
    if source == "mmin":
        return cx.construct("mmin", api.m_minimum, k).system
    if source == "zero_block":
        return cx.construct("zero_block", api.zero_block, k, emit_sets=True).system
    return cx.construct("doubling", api.doubling, k)[-1].system


def _member(values, v):
    i = bisect.bisect_left(values, v)
    return i < len(values) and values[i] == v


def _check_witness(cx, w, t1, t2, in_code):
    check(w is not None, "falsify returned no witness")
    check(t1 <= w.t <= t2, f"witness size {w.t} outside [{t1}, {t2}]")
    check(cx.api.t_overlap(w.u, w.v, w.t), f"witness {w} is not an overlap")
    check(in_code(w.u.value) and in_code(w.v.value), f"witness {w} not in the code")


def _falsify_widened(cx, code, values, k, n):
    """Overlaps of sizes k+1..n-1 exist once the middle has >= k bits: with
    t = n-k, u = p || x and v = x' || s match for x' = p || x[:mid-k] and
    x ending in s, so a full search over that range must find a witness."""
    ok, w = cx.tr.call("codes", "falsify", cx.api.is_overlap_free, code, k + 1, n - 1)
    check(not ok, f"no overlap found in [{k + 1}, {n - 1}]")
    _check_witness(cx, w, k + 1, n - 1, lambda v: _member(values, v))


def _falsify_injected(cx, values, n, t1, t2, rng):
    """Add a word whose t-suffix is the t-prefix of a codeword. The code was
    clean on [t1, t2], so the word is new and every witness involves it."""
    u = values[rng.randrange(len(values))]
    t = rng.randint(t1, t2)
    v = (rng.getrandbits(n - t) << t) | (u >> (n - t))
    bad = cx.tr.call("codes", "falsify", cx.api.Code.from_values, n, values + [v])
    ok, w = cx.tr.call("codes", "falsify", cx.api.is_overlap_free, bad, t1, t2)
    check(not ok, "injected conflict not detected")
    _check_witness(cx, w, t1, t2, lambda x: x == v or _member(values, x))
    check(v in (w.u.value, w.v.value), f"witness {w} misses the injected word")


def _cli_codebook(cx, p):
    k, n = p["k"], p["n"]
    path = cx.tmp / f"zero_block_{k}_{n}.txt"
    try:
        out = cx.cli(
            ["zeroblock", "--k", str(k), "--emit", str(path), "--n", str(n)],
            files=[path],
        )
        header, row = (line.split("\t") for line in out.splitlines())
        row = dict(zip(header, row))
        z, coeff = best_zero_block(k)
        check(row["coefficient"] == str(coeff), f"zeroblock {k} row {row}")
        check(json.loads(row["params"]) == {"z": z}, f"zeroblock {k} row {row}")
        report = json.loads(cx.cli([
            "--format", "json", "verify", "--file", str(path),
            "--t1", "1", "--t2", str(k),
        ]))
    finally:
        path.unlink(missing_ok=True)
    check(report["ok"] is True, f"verify rejected zeroblock {k}: {report}")
    check(report["words"] == p["words"] and report["n"] == n, f"verify {report}")
    cx.tr.count("codes.verify_words", report["words"])
    return report["words"]


# ---------------------------------------------------------------------------
# search


def _graph(cx, p):
    k = p["k"]
    g = cx.build_graph(k)
    rng = random.Random(p["pick"])
    for _ in range(64):
        a, b = rng.randrange(1 << k), rng.randrange(1 << k)
        check(g.has_edge(a, b) == is_edge(a, b, k), f"graph {k} edge ({a}, {b})")
    return 0


def _certificate(cx, p):
    k = p["k"]
    cert = cx.tr.call("graph", "certificate", cx.api.mis_matching_certificate, k)
    half = 1 << (k - 1)
    pairs = [(a.value, b.value) for a, b in cert.matching]
    check(len(pairs) == half - 1, f"certificate {k} has {len(pairs)} pairs")
    check(len({a for a, _ in pairs}) == len({b for _, b in pairs}) == half - 1,
          f"certificate {k} is not a matching")
    check(all(is_edge(a, b, k) for a, b in pairs), f"certificate {k} has a non-edge")
    ext = cert.extremal
    check(ext.cardinality == half + 1, f"certificate {k} extremal {ext.cardinality}")
    check([w.value for w in ext.prefix_words] == [0]
          and all(w.value & 1 for w in ext.suffix_words),
          f"certificate {k} extremal set is not 0 plus odd suffixes")
    return 0


def _graph_search(cx, p):
    api, k, canonical = cx.api, p["k"], p["canonical"]
    g = cx.build_graph(k)
    fn = api.max_product_search if p["objective"] == "product" else api.max_cardinality_search
    res = cx.tr.call("graph", "canonical" if canonical else "search", fn, g, canonical=canonical)
    cx.tr.count("graph.search_calls")
    if res.optimal:
        cx.tr.count("graph.optimal")
    check(res.optimal, f"search k={k} not proven optimal")
    xs = [w.value for w in res.prefix_words]
    ys = [w.value for w in res.suffix_words]
    check(res.product == len(xs) * len(ys) and res.cardinality == len(xs) + len(ys),
          f"search k={k} objective values disagree with its sets")
    check(not any(is_edge(a, b, k) for a in xs for b in ys), f"search k={k} not independent")
    if p["objective"] == "cardinality":
        check(res.cardinality == (1 << (k - 1)) + 1, f"cardinality k={k}: {res.cardinality}")
    elif k <= 6:
        g2 = cx.golden["table_ii"][str(k)]
        check(res.product << g2["offset"] == g2["coefficient"] << (2 * k)
              and res.cardinality == g2["independent"],
              f"product search k={k}: {res.product}, {res.cardinality}")
    else:
        check(res.product == 744, f"product search k=7: {res.product}")
    return 0


def _oracle(cx, p):
    n, t1, t2 = p["t"]
    cx.tr.count("codes.oracle_calls")
    size, code = cx.tr.call(
        "codes", "oracle", cx.api.brute_force_max_code, n, t1, t2,
        canonical=p["canonical"],
    )
    check(size == len(code) == ORACLE_SIZES[n, t1, t2],
          f"oracle {p['t']} canonical={p['canonical']}: size {size}, {len(code)} words")
    return cx.verify(code, t1, t2)


# ---------------------------------------------------------------------------
# reproduce


def _table(cx, p):
    tid, kmax = p["id"], p["kmax"]
    lo, hi = TABLE_RANGES[tid]
    hi = kmax or hi
    if p["via"] == "api":
        report = cx.tr.call("tables", "reproduce", cx.api.reproduce_table, tid, kmax=kmax)
        rows = [(r.k, [(c.name, c.match) for c in r.cells]) for r in report.rows]
    else:
        argv = ["--format", p["via"], "tables", "--id", tid]
        if kmax:
            argv += ["--kmax", str(kmax)]
        out = cx.cli(argv)
        rows = _parse_tsv_table(out) if p["via"] == "tsv" else _parse_json_table(out)
    check([k for k, _ in rows] == list(range(lo, hi + 1)), f"table {tid} rows")
    check(all(len(cells) == TABLE_COLUMNS[tid] for _, cells in rows), f"table {tid} columns")
    seen = {(tid, k, name) for k, cells in rows for name, ok in cells if not ok}
    known = {c for c in KNOWN_MISMATCHES if c[0] == tid and lo <= c[1] <= hi}
    check(seen == known, f"table {tid}: new {sorted(seen - known)}, gone {sorted(known - seen)}")
    cx.tr.count("tables.cells", sum(len(cells) for _, cells in rows))
    if cx.tr.enabled:
        cx.tr.mismatch_cells |= seen
    return 0


def _parse_tsv_table(out):
    lines = out.splitlines()
    names = lines[0].split("\t")[1:-1]
    rows = []
    for line in lines[1:]:
        k, *cells, status = line.split("\t")
        flags = [not c.startswith("MISMATCH(") for c in cells]
        check(status == ("MATCH" if all(flags) else "MISMATCH"), f"row status {line!r}")
        rows.append((int(k), list(zip(names, flags))))
    return rows


def _parse_json_table(out):
    payload = json.loads(out)
    rows = [(r["k"], [(name, c["match"]) for name, c in r["cells"].items()])
            for r in payload["rows"]]
    check(payload["match"] == all(ok for _, cells in rows for _, ok in cells),
          "table match flag")
    return rows


def _mmin(cx, p):
    k = p["arg"]
    res = cx.construct("mmin", cx.api.m_minimum, k)
    m, n_suffixes = res.m, len(res.system.suffixes)
    check(res.size.coefficient == m * n_suffixes and res.size.offset == 2 * k
          and len(res.system.prefixes) == m, f"m_minimum({k}) sizes disagree")
    if k <= 14:
        g = cx.golden["table_iii"][str(k)]
        check((m, n_suffixes, res.size.coefficient) == (g["p"], g["s"], g["coefficient"]),
              f"m_minimum({k}) against Table III")
    else:
        suffixes = res.system.suffix_values()
        rng = random.Random(k)
        for s in (rng.randrange(1 << k) for _ in range(64)):
            check(_member(suffixes, s) == survives_mmin(s, m, k),
                  f"m_minimum({k}) suffix {s}")
    return 0


def _doubling(cx, p):
    k = p["arg"]
    steps = cx.construct("doubling", cx.api.doubling, k, keep_sets=False)
    check([s.k for s in steps] == list(range(1, k + 1)), f"doubling({k}) widths")
    for s in steps[1:]:
        want = cx.golden["table_i"][str(s.k)]["product"]
        if s.k in DOUBLING_DIVERGENT:
            check(s.product != want and abs(s.product - want) <= DOUBLING_DIVERGENCE * want,
                  f"doubling width {s.k}: known divergence changed ({s.product})")
        else:
            check(s.product == want, f"doubling width {s.k}: {s.product} != {want}")
    return 0


def _zero_block(cx, p):
    k = p["arg"]
    res = cx.construct("zero_block", cx.api.zero_block, k)
    value = lambda z: zero_block_coefficient(k, z)  # noqa: E731
    check(res.size.coefficient == value(res.z) and res.size.offset == 2 * k,
          f"zero_block({k}) coefficient")
    check(is_local_best(value, res.z, k - 1), f"zero_block({k}) z={res.z} not best")
    return 0


def _gl(cx, p):
    n = p["arg"]
    emit = n <= 16
    res = cx.construct("gl", cx.api.gilbert_levenshtein, n, emit_code=emit)
    value = lambda z: gl_size(n, z)  # noqa: E731
    check(res.size == value(res.z), f"gilbert_levenshtein({n}) size")
    check(is_local_best(value, res.z, n - 1), f"gilbert_levenshtein({n}) z={res.z}")
    if not emit:
        return 0
    check(len(res.code) == res.size, f"gilbert_levenshtein({n}) code size")
    return cx.verify(res.code, 1, n - 1)


def _spaced(cx, p):
    args = p["length"], p["weight"], p["gap"]
    got = cx.count("spaced", cx.api.count_cyclic_spaced_ones, *args)
    check(got == spaced_ones_closed_form(*args), f"spaced ones {args}: {got}")
    return 0


def _fib(cx, p):
    got = cx.count("fib", cx.api.fib_nstep, p["z"], p["i"])
    check(got == fib_step(p["z"], p["i"]), f"fib_nstep({p['z']}, {p['i']})")
    a = p["a"]
    got = cx.count("fib", cx.api.count_cyclic_run_free, a)
    check(got == cyclic_run_free_count(1 << a, a - 1), f"cyclic run-free {a}")
    return 0


def _bounds(cx, p):
    api = cx.api
    for n, k, places in p["cases"]:
        want = bound_values(n, k)
        got = {"upper_weak": cx.count("bounds", api.upper_bound_weak, n, k)}
        if "upper_1k" in want:
            got["upper_1k"] = cx.count("bounds", api.upper_bound_1k, n, k)
        if "upper_graph" in want:
            got["upper_graph"] = cx.count("bounds", api.upper_bound_graph, n, k)
        for variant in ("gen1", "gen2", "gen3"):
            if variant in want:
                got[variant] = cx.count("bounds", api.lower_bound_explicit, k, variant)
        got["nine_n"] = cx.count("bounds", api.classic_bounds, n).nine_n
        check(got == want, f"bounds ({n}, {k}): {got}")
        for name, value in got.items():
            text = cx.count("bounds", api.render_decimal, value, places)
            check(text == decimal_half_up(value, places), f"render {name} ({n}, {k}): {text}")
    return 0


# ---------------------------------------------------------------------------
# every workload


def _refuse(cx, p):
    api, what = cx.api, p["what"]
    if what == "expand":
        tiny = api.PrefixSuffixSystem.from_values(2, [0], [3])
        call = ("codes", "expand", api.expand_system, tiny, p["n"])
    elif what == "oracle":
        call = ("codes", "oracle", api.brute_force_max_code, 11, *p["t"])
    elif what == "graph":
        call = ("graph", "build", api.build_overlap_graph, p["k"])
    elif what == "mmin":
        call = ("constructions", "mmin", api.m_minimum, p["k"])
    else:
        call = ("constructions", "zero_block", api.zero_block, p["k"])
    kwargs = {"emit_sets": True} if what == "zero_block" else {}
    start = perf_counter()
    try:
        cx.tr.call(*call, **kwargs)
    except api.CapacityError:
        elapsed = perf_counter() - start
        check(elapsed <= REFUSAL_PROMPT_S, f"refusal {what} took {elapsed:.3f} s")
        return 0
    raise CheckFailed(f"{what} {p} was not refused")


def _smoke(cx, _p):
    """One tiny call into every layer, each checked; keeps no layer idle."""
    api, tr, golden = cx.api, cx.tr, cx.golden
    system = tr.call("codes", "expand", api.PrefixSuffixSystem.from_values, 2, [0], [3])
    code = tr.call("codes", "expand", api.expand_system, system, 6)
    values = tr.call("codes", "values", code.values)
    check(values == [0b000011, 0b000111, 0b001011, 0b001111], f"smoke expansion {values}")
    words = cx.verify(code, 1, 2)
    _falsify_widened(cx, code, values, 2, 6)
    buf = io.StringIO()
    tr.call("codes", "write", api.write_code, code, buf)
    back = tr.call("codes", "read", api.read_code, io.StringIO(buf.getvalue()))
    check(back.values() == values, "smoke round trip")
    words += _oracle(cx, {"t": (6, 1, 3), "canonical": False})

    g = cx.build_graph(3)
    for kind, canonical in (("search", False), ("canonical", True)):
        res = tr.call("graph", kind, api.max_product_search, g, canonical=canonical)
        tr.count("graph.search_calls")
        tr.count("graph.optimal", res.optimal)
        check(res.product == golden["table_ii"]["3"]["coefficient"], "smoke search")
    cert = tr.call("graph", "certificate", api.mis_matching_certificate, 3)
    check(len(cert.matching) == 3, "smoke certificate")

    check(cx.construct("mmin", api.m_minimum, 4).size.coefficient
          == golden["table_iii"]["4"]["coefficient"], "smoke m_minimum")
    check(cx.construct("doubling", api.doubling, 4, keep_sets=False)[-1].product
          == golden["table_i"]["4"]["product"], "smoke doubling")
    check(cx.construct("zero_block", api.zero_block, 4).size.coefficient
          == golden["table_iv"]["4"]["zero_block"], "smoke zero_block")
    gl = cx.construct("gl", api.gilbert_levenshtein, 6)
    check(gl.size == gl_size(6, gl.z), "smoke gilbert_levenshtein")

    check(cx.count("fib", api.fib_nstep, 3, 20) == fib_step(3, 20), "smoke fib")
    check(cx.count("spaced", api.count_cyclic_spaced_ones, 10, 3, 1)
          == spaced_ones_closed_form(10, 3, 1), "smoke spaced")
    bound = cx.count("bounds", api.upper_bound_weak, 8, 3)
    check(cx.count("bounds", api.render_decimal, bound, 2)
          == decimal_half_up(bound, 2), "smoke render")

    report = tr.call("tables", "reproduce", api.reproduce_table, "II", kmax=2)
    check(report.match and len(report.rows) == 2, "smoke table")
    tr.count("tables.cells", 4)
    out = json.loads(cx.cli(["--format", "json", "fib", "--z", "2", "--i", "30"]))
    check(out["value"] == str(fib_step(2, 30)), "smoke cli")
    return words


EXECUTORS = {
    "expand": _expand,
    "cli_codebook": _cli_codebook,
    "graph": _graph,
    "certificate": _certificate,
    "graph_search": _graph_search,
    "oracle": _oracle,
    "table": _table,
    "mmin": _mmin,
    "doubling": _doubling,
    "zero_block": _zero_block,
    "gl": _gl,
    "spaced": _spaced,
    "fib": _fib,
    "bounds": _bounds,
    "refuse": _refuse,
    "smoke": _smoke,
}
