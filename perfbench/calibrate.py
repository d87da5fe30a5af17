"""Calibration listing: time each single call of the ROADMAP baseline once.

    python3 perfbench/calibrate.py

Not part of the gated benchmark. Every call runs once with cold memo
tables, and the listing prints its time beside the figure measured when
the ROADMAP baseline was written, plus the git revision and the package's
source line count as metadata. The two CLI rows time a whole `python3 -m
overlapcodes.cli` process. The result is also written to
.bench_out/calibration.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run
from ops import reset_memo

# (label, ROADMAP seconds); order is the ROADMAP table's
ROADMAP_S = {
    "m_minimum(20)": 5.6,
    "build_overlap_graph(16)": 3.7,
    "expand zero_block(10) to n=24 (561,152 words)": 1.4,
    "Code.values() on that code": 0.4,
    "is_overlap_free(that code, 1, 10)": 1.0,
    "zero_block(2000)": 1.8,
    "zero_block(20, emit_sets=True)": 2.0,
    "doubling(23, keep_sets=False)": 1.5,
    "count_cyclic_spaced_ones(24, 8, 2)": 1.0,
    "brute_force_max_code(10, 1, 9)": 0.22,
    "max_product_search, k=6": 0.003,
    "max_product_search, k=7": 0.03,
    "max_product_search, k=8": 3.8,
    "cli tables --id I": 1.1,
    "cli mmin --k 20": 4.9,
}


def _git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def _cli_seconds(args) -> float:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "overlapcodes.cli", *args], env=env,
                   cwd=run.ROOT, check=True, capture_output=True, timeout=600)
    return perf_counter() - start


def main() -> int:
    api, _, memo_modules = run.import_package()
    measured = {}

    def timed(label, fn, *args, **kwargs):
        reset_memo(memo_modules)
        start = perf_counter()
        result = fn(*args, **kwargs)
        measured[label] = perf_counter() - start
        return result

    timed("m_minimum(20)", api.m_minimum, 20)
    timed("build_overlap_graph(16)", api.build_overlap_graph, 16)
    system = api.zero_block(10, emit_sets=True).system
    code = timed("expand zero_block(10) to n=24 (561,152 words)",
                 api.expand_system, system, 24)
    timed("Code.values() on that code", code.values)
    ok, _ = timed("is_overlap_free(that code, 1, 10)", api.is_overlap_free, code, 1, 10)
    if not ok or len(code) != 561152:
        raise SystemExit("the 561k-word zero-block code did not verify")
    del code, system
    timed("zero_block(2000)", api.zero_block, 2000)
    timed("zero_block(20, emit_sets=True)", api.zero_block, 20, emit_sets=True)
    timed("doubling(23, keep_sets=False)", api.doubling, 23, keep_sets=False)
    timed("count_cyclic_spaced_ones(24, 8, 2)", api.count_cyclic_spaced_ones, 24, 8, 2)
    timed("brute_force_max_code(10, 1, 9)", api.brute_force_max_code, 10, 1, 9)
    for k in (6, 7, 8):
        g = api.build_overlap_graph(k)
        timed(f"max_product_search, k={k}", api.max_product_search, g)
    measured["cli tables --id I"] = _cli_seconds(["tables", "--id", "I"])
    measured["cli mmin --k 20"] = _cli_seconds(["mmin", "--k", "20"])

    meta = {"git_sha": _git_sha(run.ROOT),
            "source_lines": _source_lines(run.SRC / "overlapcodes")}
    print(f"git {meta['git_sha']}, src/overlapcodes {meta['source_lines']} lines")
    print(f"{'call':50s} {'now s':>9s} {'ROADMAP s':>10s}")
    for label, then in ROADMAP_S.items():
        print(f"{label:50s} {measured[label]:9.3f} {then:10.3f}")
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "calibration.json").write_text(json.dumps(
        {"meta": meta, "seconds": measured, "roadmap_seconds": ROADMAP_S}, indent=1
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
