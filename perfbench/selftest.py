"""Self-test of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

Checks that op lists are seeded, that the reference identities agree with
brute force, that every workload runs clean at a tiny size and prints every
metric of BENCHMARK.json with its unit, that a doctored table report or
witness counts as a failed op, and that the benchmark refuses to run
without the package source. Exits non-zero on the first failure.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from itertools import combinations, product

import identities as ident
import run
from ops import Context
from spans import Tracer
from workloads import WORKLOADS, rounds

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def first_ops(workload, seed, golden, tiny, n_rounds=3):
    gen = rounds(workload, seed, golden, tiny)
    return [op for _ in range(n_rounds) for op in next(gen)]


def test_seeded_op_lists(golden):
    for workload in WORKLOADS:
        for tiny in (False, True):
            one = first_ops(workload, 1, golden, tiny)
            assert one == first_ops(workload, 1, golden, tiny), workload
            assert one != first_ops(workload, 2, golden, tiny), workload


def _spaced_brute(n, w, g):
    if w <= 1:
        return n if w else 1
    count = 0
    for pos in combinations(range(n), w):
        gaps = [b - a - 1 for a, b in zip(pos, pos[1:])]
        count += min(gaps + [n - pos[-1] + pos[0] - 1]) >= g
    return count


def test_identities():
    for z in range(1, 5):
        seq = [0] * (z - 1) + [1]
        for _ in range(30):
            seq.append(sum(seq[-z:]))
        assert [ident.fib_step(z, i) for i in range(1, 31)] == seq[z - 1:z + 29]
    for n in range(2, 13):
        for w, g in product(range(n), range(1, n)):
            want = _spaced_brute(n, w, g)
            assert ident.spaced_ones_closed_form(n, w, g) == want, (n, w, g)
    for a in range(2, 5):
        length, z = 1 << a, a - 1
        want = sum(1 for w in range(1 << length)
                   if "0" * z not in format(w, f"0{length}b") * 2)
        assert ident.cyclic_run_free_count(length, z) == want, a
    for k, m in product(range(2, 7), range(1, 9)):
        for s in range(1 << k):
            want = not any(ident.is_edge(p, s, k) for p in range(min(m, 1 << k)))
            assert ident.survives_mmin(s, m, k) == want, (k, m, s)
    cases = {(Fraction(1, 20), 1): "0.1", (Fraction(1, 3), 2): "0.33",
             (Fraction(5, 2), 0): "3", (Fraction(2, 1), 3): "2",
             (Fraction(1 << 28, 28), 1): "9586980.6"}
    for (x, places), text in cases.items():
        assert ident.decimal_half_up(x, places) == text, (x, places)


def test_tiny_runs():
    expected = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)]
            with contextlib.redirect_stdout(out):
                rc = run.main(argv, tiny=True)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert rc == 0 and result["correct"] and result["failed"] == 0, lines
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in expected[trace]}, (workload, trace)
            for name, unit in got.items():
                assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                           for line in lines), name


def _doctored(api, **overrides):
    names = {name: getattr(api, name) for name in api.__all__}
    names.update(overrides)
    return types.SimpleNamespace(**names)


def _fails(api, cli_main, memo, golden, op):
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    cx = Context(api, cli_main, Tracer(False, api.CapacityError), golden, tmp, memo)
    loop = run.Loop(cx, itertools.repeat([op]))
    loop.run(max_ops=1)
    return not loop.records[0][3] and loop.errors


def test_doctored_outputs(golden):
    api, cli_main, memo = run.import_package()
    ok_table = ("table", {"id": "III", "via": "api", "kmax": 6})
    ok_expand = ("expand", {"source": "zero_block", "k": 3, "n": 9, "subset": None,
                            "pick": 5, "falsify": "widen", "words": 6 * 8})
    for op in (ok_table, ok_expand):
        assert not _fails(api, cli_main, memo, golden, op), op

    def flip_cell(table_id, **kw):
        report = api.reproduce_table(table_id, **kw)
        row = report.rows[-1]
        cell = dataclasses.replace(row.cells[0], expected=row.cells[0].expected + "0")
        row = dataclasses.replace(row, cells=(cell,) + row.cells[1:])
        return dataclasses.replace(report, rows=report.rows[:-1] + (row,))

    assert _fails(_doctored(api, reproduce_table=flip_cell), cli_main, memo, golden, ok_table)

    def shifted_witness(code, t1, t2):
        ok, w = api.is_overlap_free(code, t1, t2)
        if w is None:
            return ok, w
        return ok, type(w)(w.u, w.v, w.t + 1 if w.t < t2 else w.t - 1)

    doctored = _doctored(api, is_overlap_free=shifted_witness)
    assert _fails(doctored, cli_main, memo, golden, ok_expand)


def test_refuses_without_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout


def main():
    golden = ident.load_golden(run.ROOT)
    tests = [
        ("seeded op lists", lambda: test_seeded_op_lists(golden)),
        ("identities against brute force", test_identities),
        ("tiny runs print every metric", test_tiny_runs),
        ("doctored outputs count as failures", lambda: test_doctored_outputs(golden)),
        ("refuses without the package source", test_refuses_without_source),
    ]
    for name, test in tests:
        test()
        print(f"ok   {name}")
    shutil.rmtree(run.OUT / "selftest", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
