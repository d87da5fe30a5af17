"""Command-line front end.

Each command builds its result once, and `_emit` prints it in the form
--format selects: json, one document with indent=1 (only `fib` prints its
object on a single line), or tsv, text lines, with a header row of column
names wherever the result is a table. Exit statuses: 0 success, 1
falsified verification (witness printed), 2 usage/domain error, 3
capacity error. All numeric output is exact: decimal strings for big
integers, num/den pairs for rationals.
"""

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain

from . import codes, constructions, counting, graph, tables
from .errors import CapacityError, DomainError

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# `bounds` prints q^n-sized fractions and `places` digits exactly; these caps
# keep one call near a second (CPython's int-to-str is quadratic in digits)
BOUNDS_MAX_BITS = 100_000  # bits of q^n
BOUNDS_MAX_PLACES = 100_000


def _fraction_json(f: Fraction, places: int) -> dict:
    return {
        "num": str(f.numerator),
        "den": str(f.denominator),
        "decimal": counting.render_decimal(f, places),
    }


def _emit(args, payload, lines):
    """Print payload as indented JSON under --format json, else the text
    lines, which may be an iterator so that JSON mode never builds them."""
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for line in lines:
            print(line)


def _tsv(header: list[str], rows):
    """Tab-separated lines: the header, then one line per row of strings."""
    return map("\t".join, chain([header], rows))


def _emit_rows(args, rows: list[dict]):
    """A table of rows with the same keys: a JSON list (a lone row as its
    object), or TSV with the keys as header and dict cells as JSON."""
    _emit(args, rows if len(rows) != 1 else rows[0], _tsv(list(rows[0]), (
        [json.dumps(v) if isinstance(v, dict) else str(v) for v in row.values()]
        for row in rows
    )))


def _emit_construction(args, k, name, params, p_size, s_size, coefficient, offset):
    """The one-row table of a construction of coefficient * 2^(n - offset)
    words; a value that does not apply is None and prints as "-"."""
    row = {"k": k, "construction": name, "params": params, "p_size": p_size,
           "s_size": s_size, "coefficient": str(coefficient), "offset": offset}
    _emit_rows(args, [{c: "-" if v is None else v for c, v in row.items()}])


def _write_code(path: str, code: codes.Code):
    with open(path, "w") as fh:
        codes.write_code(code, fh)


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        code = codes.read_code(fh)
    ok, witness = codes.is_overlap_free(code, args.t1, args.t2)
    _emit(args, {
        "ok": ok, "n": code.n, "words": len(code), "t1": args.t1, "t2": args.t2,
        "witness": None if ok else {
            "u": str(witness.u), "v": str(witness.v), "t": witness.t,
        },
    }, [f"OK: {len(code)} words of length {code.n}, "
        f"no overlaps of size {args.t1}..{args.t2}" if ok else f"FALSIFIED: {witness}"])
    return EXIT_OK if ok else EXIT_FALSIFIED


def _cmd_oracle(args) -> int:
    size, code = codes.brute_force_max_code(
        args.n, args.t1, args.t2, canonical=args.canonical
    )
    if args.emit:
        _write_code(args.emit, code)
    words = [str(w) for w in code]
    _emit(args, {"n": args.n, "t1": args.t1, "t2": args.t2, "size": size, "words": words},
          [f"maximum size: {size}", *words])
    return EXIT_OK


def _cmd_doubling(args) -> int:
    steps = constructions.doubling(args.kmax, keep_sets=False)
    _emit_rows(args, [
        {"k": s.k, "p_size": s.p_size, "s_size": s.s_size,
         "product": s.product, "offset": 2 * s.k}
        for s in steps
    ])
    return EXIT_OK


def _cmd_mmin(args) -> int:
    res = constructions.m_minimum(args.k)
    _emit_construction(args, args.k, "m-minimum", {"m": res.m}, res.m,
                       len(res.system.suffixes), res.size.coefficient, res.size.offset)
    return EXIT_OK


def _cmd_zeroblock(args) -> int:
    res = constructions.zero_block(args.k, emit_sets=bool(args.emit or args.emit_sets))
    if args.emit:
        n = args.n if args.n is not None else 2 * args.k
        _write_code(args.emit, codes.expand_system(res.system, n))
    if args.emit_sets:
        for part in ("prefixes", "suffixes"):
            _write_code(f"{args.emit_sets}.{part}.txt",
                        codes.Code(args.k, getattr(res.system, part)))
    sizes = (None, None)
    if res.system is not None:
        sizes = (len(res.system.prefixes), len(res.system.suffixes))
    _emit_construction(args, args.k, "zero-block", {"z": res.z}, *sizes,
                       res.size.coefficient, res.size.offset)
    return EXIT_OK


def _cmd_gl(args) -> int:
    res = constructions.gilbert_levenshtein(args.n, emit_code=bool(args.emit))
    if args.emit:
        _write_code(args.emit, res.code)
    _emit_construction(args, None, "gilbert-levenshtein", {"n": args.n, "z": res.z},
                       None, None, res.size, None)
    return EXIT_OK


def _cmd_graph_opt(args) -> int:
    g = graph.build_overlap_graph(args.k)
    search = (
        graph.max_product_search
        if args.objective == "product"
        else graph.max_cardinality_search
    )
    res = search(g, node_budget=args.node_budget, canonical=args.canonical)
    payload = {
        "k": args.k,
        "objective": args.objective,
        "x_size": res.x_size,
        "y_size": res.y_size,
        "product": res.product,
        "cardinality": res.cardinality,
        "optimal": res.optimal,
        "x_set": [str(w) for w in res.prefix_words],
        "y_set": [str(w) for w in res.suffix_words],
    }
    _emit(args, payload, (
        f"{key}\t{' '.join(value) if isinstance(value, list) else value}"
        for key, value in payload.items()
    ))
    if not res.optimal:
        print("warning: node budget exhausted, result may be sub-optimal",
              file=sys.stderr)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    n, k, q = args.n, args.k, args.q
    places = args.places
    if n * (q - 1).bit_length() > BOUNDS_MAX_BITS:
        raise CapacityError(f"q^n capped at {BOUNDS_MAX_BITS} bits")
    if places > BOUNDS_MAX_PLACES:
        raise CapacityError(f"--places capped at {BOUNDS_MAX_PLACES}")
    out: dict = {"n": n, "k": k, "q": q}
    out["upper_weak"] = _fraction_json(counting.upper_bound_weak(n, k, q), places)
    if 2 * k <= n:
        out["upper_1k"] = _fraction_json(counting.upper_bound_1k(n, k, q), places)
    if q == 2 and k >= 2 and n >= k + 2:
        out["upper_graph"] = _fraction_json(
            Fraction(counting.upper_bound_graph(n, k)), places
        )
    if q == 2 and k >= 2:
        # the third generation applies only when k is a power of two
        for gen in ("gen1", "gen2", "gen3")[:3 if k & (k - 1) == 0 else 2]:
            out[f"lower_{gen}"] = _fraction_json(counting.lower_bound_explicit(k, gen), 6)
    if q == 2 and k == n - 1 and n >= 3:
        cb = counting.classic_bounds(n)
        out["classic_nine_n"] = _fraction_json(cb.nine_n, places)
        if cb.eight_n is not None:
            out["classic_eight_n"] = _fraction_json(cb.eight_n, places)
        out["classic_lev"] = {
            "num": "1",
            "den": "2en",
            "decimal": str(cb.lev_decimal),
        }
    _emit(args, out, (
        f"{name}\t{val['num']}/{val['den']}\t{val['decimal']}"
        if isinstance(val, dict) else f"{name}\t{val}"
        for name, val in out.items()
    ))
    return EXIT_OK


def _cmd_fib(args) -> int:
    value = counting.fib_nstep(args.z, args.i)
    if args.format == "json":  # one line, unlike every other command
        print(json.dumps({"z": args.z, "i": args.i, "value": str(value)}))
    else:
        print(value)
    return EXIT_OK


def _cmd_tables(args) -> int:
    report = tables.reproduce_table(args.id, kmin=args.kmin, kmax=args.kmax)
    payload = {
        "table": report.table_id,
        "match": report.match,
        "rows": [
            {
                "k": row.k,
                "match": row.match,
                "cells": {
                    c.name: {"got": c.got, "expected": c.expected, "match": c.match}
                    for c in row.cells
                },
            }
            for row in report.rows
        ],
    }
    _emit(args, payload, _tsv(["k", *report.column_names(), "status"], (
        [str(row.k), *(c.render() for c in row.cells),
         "MATCH" if row.match else "MISMATCH"]
        for row in report.rows
    )))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlapcodes",
        description="Construct, verify, count, and bound binary codes "
                    "with forbidden prefix/suffix overlaps.",
    )
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument(
        "--threads", type=int, default=0, metavar="T",
        help="cap internal parallelism (the implementation is sequential and "
             "deterministic, so any value yields byte-identical output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required_ints):
        p = sub.add_parser(name, help=help)
        for option in required_ints:
            p.add_argument(option, type=int, required=True)
        p.set_defaults(func=func)
        return p

    # --file leads verify's usage line, so its int options follow by hand
    p = command("verify", _cmd_verify, "check a codebook file for overlaps")
    p.add_argument("--file", required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)

    p = command("oracle", _cmd_oracle, "exact maximum code by exhaustive search",
                "--n", "--t1", "--t2")
    p.add_argument("--canonical", action="store_true",
                   help="return the lexicographically smallest optimum")
    p.add_argument("--emit", metavar="FILE")

    command("doubling", _cmd_doubling, "inductive doubling construction", "--kmax")
    command("mmin", _cmd_mmin, "m-minimum construction", "--k")

    p = command("zeroblock", _cmd_zeroblock, "zero-block construction", "--k")
    p.add_argument("--emit", metavar="FILE",
                   help="write the expanded codebook (length --n, default 2k)")
    p.add_argument("--n", type=int,
                   help="expansion length for --emit (default 2k)")
    p.add_argument("--emit-sets", metavar="BASE",
                   help="write BASE.prefixes.txt and BASE.suffixes.txt")

    p = command("gl", _cmd_gl, "fully non-overlapping zero-block family", "--n")
    p.add_argument("--emit", metavar="FILE")

    p = command("graph-opt", _cmd_graph_opt, "exact search on the overlap graph", "--k")
    p.add_argument("--objective", choices=("product", "cardinality"),
                   default="product")
    p.add_argument("--node-budget", type=int, metavar="N",
                   default=graph.NODE_BUDGET,
                   help="search nodes before giving up (default %(default)s)")
    p.add_argument("--canonical", action="store_true",
                   help="lexicographically smallest optimal prefix side")

    p = command("bounds", _cmd_bounds, "all applicable closed-form bounds", "--n", "--k")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--places", type=int, default=1,
                   help="decimal places for rendered values")

    command("fib", _cmd_fib, "step-z Fibonacci number, exact", "--z", "--i")

    p = command("tables", _cmd_tables, "recompute a published table and diff it")
    p.add_argument("--id", required=True, choices=tables.TABLE_IDS)
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # output is exact decimal, so lift CPython's int-to-str digit limit
    # (added in 3.10.7) while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
