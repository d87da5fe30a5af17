"""Command-line front end.

Exit statuses: 0 success, 1 falsified verification (witness printed),
2 usage/domain error, 3 capacity error. All numeric output is exact:
decimal strings for big integers, num/den pairs for rationals.
"""

import argparse
import json
import sys
from fractions import Fraction

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


def _emit_rows(args, columns: list[str], rows: list[dict]):
    if args.format == "json":
        print(json.dumps(rows if len(rows) != 1 else rows[0], indent=1))
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(
                json.dumps(row[c]) if isinstance(row[c], dict) else str(row[c])
                for c in columns
            ))


def _construction_row(k, name, params, p_size, s_size, size):
    return {
        "k": k,
        "construction": name,
        "params": params or {},
        "p_size": p_size if p_size is not None else "-",
        "s_size": s_size if s_size is not None else "-",
        "coefficient": str(size.coefficient),
        "offset": size.offset,
    }


CONSTRUCTION_COLUMNS = [
    "k", "construction", "params", "p_size", "s_size", "coefficient", "offset",
]


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        code = codes.read_code(fh)
    ok, witness = codes.is_overlap_free(code, args.t1, args.t2)
    if args.format == "json":
        print(json.dumps({
            "ok": ok, "n": code.n, "words": len(code),
            "t1": args.t1, "t2": args.t2,
            "witness": None if ok else {
                "u": str(witness.u), "v": str(witness.v), "t": witness.t,
            },
        }, indent=1))
    elif ok:
        print(f"OK: {len(code)} words of length {code.n}, "
              f"no overlaps of size {args.t1}..{args.t2}")
    else:
        print(f"FALSIFIED: {witness}")
    return EXIT_OK if ok else EXIT_FALSIFIED


def _cmd_oracle(args) -> int:
    size, code = codes.brute_force_max_code(
        args.n, args.t1, args.t2, canonical=args.canonical
    )
    if args.emit:
        with open(args.emit, "w") as fh:
            codes.write_code(code, fh)
    if args.format == "json":
        print(json.dumps({
            "n": args.n, "t1": args.t1, "t2": args.t2, "size": size,
            "words": [str(w) for w in code],
        }, indent=1))
    else:
        print(f"maximum size: {size}")
        for w in code:
            print(w)
    return EXIT_OK


def _cmd_doubling(args) -> int:
    steps = constructions.doubling(args.kmax, keep_sets=False)
    rows = [
        {"k": s.k, "p_size": s.p_size, "s_size": s.s_size,
         "product": s.product, "offset": 2 * s.k}
        for s in steps
    ]
    _emit_rows(args, ["k", "p_size", "s_size", "product", "offset"], rows)
    return EXIT_OK


def _cmd_mmin(args) -> int:
    res = constructions.m_minimum(args.k)
    row = _construction_row(
        args.k, "m-minimum", {"m": res.m},
        res.m, len(res.system.suffixes), res.size,
    )
    _emit_rows(args, CONSTRUCTION_COLUMNS, [row])
    return EXIT_OK


def _cmd_zeroblock(args) -> int:
    need_sets = bool(args.emit or args.emit_sets)
    res = constructions.zero_block(args.k, emit_sets=need_sets)
    if args.emit:
        n = args.n if args.n is not None else 2 * args.k
        code = codes.expand_system(res.system, n)
        with open(args.emit, "w") as fh:
            codes.write_code(code, fh)
    if args.emit_sets:
        for part, values in (
            ("prefixes", res.system.prefixes),
            ("suffixes", res.system.suffixes),
        ):
            c = codes.Code(args.k, values)
            with open(f"{args.emit_sets}.{part}.txt", "w") as fh:
                codes.write_code(c, fh)
    sizes = (None, None)
    if res.system is not None:
        sizes = (len(res.system.prefixes), len(res.system.suffixes))
    row = _construction_row(
        args.k, "zero-block", {"z": res.z}, sizes[0], sizes[1], res.size,
    )
    _emit_rows(args, CONSTRUCTION_COLUMNS, [row])
    return EXIT_OK


def _cmd_gl(args) -> int:
    res = constructions.gilbert_levenshtein(args.n, emit_code=bool(args.emit))
    if args.emit:
        with open(args.emit, "w") as fh:
            codes.write_code(res.code, fh)
    row = {
        "k": "-",
        "construction": "gilbert-levenshtein",
        "params": {"n": args.n, "z": res.z},
        "p_size": "-",
        "s_size": "-",
        "coefficient": str(res.size),
        "offset": "-",
    }
    _emit_rows(args, CONSTRUCTION_COLUMNS, [row])
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
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for key in ("k", "objective", "x_size", "y_size", "product",
                    "cardinality", "optimal"):
            print(f"{key}\t{payload[key]}")
        print("x_set\t" + " ".join(payload["x_set"]))
        print("y_set\t" + " ".join(payload["y_set"]))
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
        out["lower_gen1"] = _fraction_json(
            counting.lower_bound_explicit(k, "gen1"), 6
        )
        out["lower_gen2"] = _fraction_json(
            counting.lower_bound_explicit(k, "gen2"), 6
        )
        if k & (k - 1) == 0:
            out["lower_gen3"] = _fraction_json(
                counting.lower_bound_explicit(k, "gen3"), 6
            )
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
    if args.format == "json":
        print(json.dumps(out, indent=1))
    else:
        for name, val in out.items():
            if isinstance(val, dict):
                print(f"{name}\t{val['num']}/{val['den']}\t{val['decimal']}")
            else:
                print(f"{name}\t{val}")
    return EXIT_OK


def _cmd_fib(args) -> int:
    value = counting.fib_nstep(args.z, args.i)
    if args.format == "json":
        print(json.dumps({"z": args.z, "i": args.i, "value": str(value)}))
    else:
        print(value)
    return EXIT_OK


def _cmd_tables(args) -> int:
    report = tables.reproduce_table(args.id, kmin=args.kmin, kmax=args.kmax)
    if args.format == "json":
        payload = {
            "table": report.table_id,
            "match": report.match,
            "rows": [
                {
                    "k": row.k,
                    "match": row.match,
                    "cells": {
                        c.name: {"got": c.got, "expected": c.expected,
                                 "match": c.match}
                        for c in row.cells
                    },
                }
                for row in report.rows
            ],
        }
        print(json.dumps(payload, indent=1))
    else:
        print("\t".join(["k"] + report.column_names() + ["status"]))
        for row in report.rows:
            status = "MATCH" if row.match else "MISMATCH"
            print("\t".join(
                [str(row.k)] + [c.render() for c in row.cells] + [status]
            ))
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

    p = sub.add_parser("verify", help="check a codebook file for overlaps")
    p.add_argument("--file", required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact maximum code by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--canonical", action="store_true",
                   help="return the lexicographically smallest optimum")
    p.add_argument("--emit", metavar="FILE")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("doubling", help="inductive doubling construction")
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=_cmd_doubling)

    p = sub.add_parser("mmin", help="m-minimum construction")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_mmin)

    p = sub.add_parser("zeroblock", help="zero-block construction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit", metavar="FILE",
                   help="write the expanded codebook (length --n, default 2k)")
    p.add_argument("--n", type=int,
                   help="expansion length for --emit (default 2k)")
    p.add_argument("--emit-sets", metavar="BASE",
                   help="write BASE.prefixes.txt and BASE.suffixes.txt")
    p.set_defaults(func=_cmd_zeroblock)

    p = sub.add_parser("gl", help="fully non-overlapping zero-block family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", metavar="FILE")
    p.set_defaults(func=_cmd_gl)

    p = sub.add_parser("graph-opt", help="exact search on the overlap graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--objective", choices=("product", "cardinality"),
                   default="product")
    p.add_argument("--node-budget", type=int, metavar="N",
                   default=graph.NODE_BUDGET,
                   help="search nodes before giving up (default %(default)s)")
    p.add_argument("--canonical", action="store_true",
                   help="lexicographically smallest optimal prefix side")
    p.set_defaults(func=_cmd_graph_opt)

    p = sub.add_parser("bounds", help="all applicable closed-form bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--places", type=int, default=1,
                   help="decimal places for rendered values")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("fib", help="step-z Fibonacci number, exact")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=_cmd_fib)

    p = sub.add_parser("tables", help="recompute a published table and diff it")
    p.add_argument("--id", required=True, choices=tables.TABLE_IDS)
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=_cmd_tables)

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
