"""Seeded benchmark of the overlapcodes package.

    python3 perfbench/run.py --workload codebook --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. One closed-loop client issues the
workload's ops one at a time, single-threaded, for --seconds seconds,
checking every op's output. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs the same ops untraced and then traced and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit status is
0 only when every op passed its checks. See NOTES.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from identities import load_golden
from ops import CheckFailed, Context, reset_memo, run_op
from spans import Tracer
from workloads import WORKLOADS, rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
# The speed probe: loop length, and its time on the machine the benchmark
# was tuned on when nothing else loaded it (2-core x86-64 Linux VM,
# CPython 3.11). End-to-end times are scaled to that speed.
PROBE_LOOP = 200_000
PROBE_NOMINAL_S = 0.0115
# Tail percentile per workload: the highest of 50/75/90/95/99 that leaves at
# least ten samples beyond it in a standard run, fixed so that runs of
# different lengths or speeds report the same percentile.
TAIL_PERCENTILE = {"codebook": 75, "search": 90, "reproduce": 75}
END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MiB", "words_per_s": "words/s",
}

# A fresh interpreter times the import plus the golden-table load, with the
# speed probe's loop (see probe) run just before and just after.
_SETUP_CHILD = """
import sys, time
def probe(n):
    start = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i
    return time.perf_counter() - start
before = probe(int(sys.argv[2]))
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import overlapcodes
overlapcodes.golden_tables()
elapsed = time.perf_counter() - start
after = probe(int(sys.argv[2]))
if not overlapcodes.__file__.startswith(sys.argv[1]):
    sys.exit("imported overlapcodes from outside the checkout")
print(elapsed, before, after)
"""


def import_package():
    """Import overlapcodes from this checkout's src/, never from elsewhere."""
    if not (SRC / "overlapcodes" / "__init__.py").is_file():
        raise SystemExit(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import overlapcodes
    from overlapcodes import cli, counting, tables

    if not overlapcodes.__file__.startswith(str(SRC)):
        raise SystemExit(f"overlapcodes imported from {overlapcodes.__file__}")
    return overlapcodes, cli.main, (counting, tables)


def measure_setup() -> float:
    """Median time of a fresh interpreter importing the package and loading
    the golden tables (interpreter start-up itself not included), scaled by
    the speed probe like the op times (see end_to_end)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(PROBE_LOOP)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, before, after = map(float, proc.stdout.split())
        samples.append(elapsed * 2 * PROBE_NOMINAL_S / (before + after))
    return statistics.median(samples)


def probe() -> float:
    """Time a fixed pure-Python loop that calls nothing in the package.

    On a shared machine the speed at which Python runs drifts by tens of
    percent over seconds to minutes, and op times follow it (correlation
    about 0.9 here); the probe measures that speed next to every op.
    """
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return perf_counter() - start


class Loop:
    """A closed-loop client: the next op starts when the last one ends.

    A probe runs between consecutive ops, outside their timed spans.
    """

    def __init__(self, cx, op_rounds):
        self.cx = cx
        self.gen = op_rounds
        # (round, kind, latency_s, ok, words, probe before, probe after)
        self.records = []
        self.errors = []

    def run(self, seconds=None, max_ops=None) -> float:
        cx = self.cx
        start = perf_counter()
        self.complete = 0
        last_probe = probe()
        while True:
            for kind, params in next(self.gen):
                if max_ops is not None and len(self.records) >= max_ops:
                    return perf_counter() - start
                if seconds is not None and perf_counter() - start >= seconds:
                    return perf_counter() - start
                reset_memo(cx.memo_modules)
                cx.tr.op_id += 1
                t0 = perf_counter()
                try:
                    words, ok = run_op(cx, kind, params), True
                except CheckFailed as exc:
                    words, ok = 0, False
                    self.errors.append(f"{kind} {params}: {exc}")
                except Exception as exc:  # an op that crashes is a failed op
                    words, ok = 0, False
                    self.errors.append(f"{kind} {params}: {type(exc).__name__}: {exc}")
                t1 = perf_counter()
                if cx.tr.enabled:
                    cx.tr.ops.append((cx.tr.op_id, kind, t0, t1, ok))
                next_probe = probe()
                self.records.append(
                    (self.complete, kind, t1 - t0, ok, words, last_probe, next_probe)
                )
                last_probe = next_probe
            self.complete += 1

    def whole_rounds(self):
        """Records of the rounds that ran to the end (all, if none did)."""
        done = [rec for rec in self.records if rec[0] < self.complete]
        return (done, self.complete) if done else (self.records, 0)


def quantile(sorted_values, pct):
    """Linear interpolation between closest ranks, pct in [0, 100]."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(workload, n):
    """The workload's tail percentile, or a lower one when a short run
    leaves fewer than ten of its n samples beyond it."""
    for pct in (90, 75, 50):
        if pct <= TAIL_PERCENTILE[workload] and n * (100 - pct) >= 1000:
            return pct
    return 50


def end_to_end(loop, workload, setup_s):
    """Metrics over the ops of the whole rounds, which all have one mix.

    Op times are scaled to a machine on which the probe takes
    PROBE_NOMINAL_S: each op's time is multiplied by PROBE_NOMINAL_S over
    the mean of the probes on either side of it. That removes most of the
    machine's drift and none of a change in the package, which the probe
    never calls. The raw figures are printed as well.
    """
    records, n_rounds = loop.whole_rounds()
    scaled = [(rec[2] * 2 * PROBE_NOMINAL_S / (rec[5] + rec[6]), rec[4]) for rec in records]
    lat = sorted(t for t, _ in scaled)
    busy = sum(lat)
    pct = tail_percentile(workload, len(lat))
    tail = quantile(lat, pct)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": quantile(lat, 50) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "words_per_s": sum(w for _, w in scaled) / busy,
    }
    raw = sorted(rec[2] for rec in records)
    probes = [rec[5] for rec in records]
    notes = [
        f"{len(loop.records)} ops run, {len(lat)} of them in {n_rounds} whole rounds",
        f"op_tail_ms is p{pct} over {len(lat)} samples, "
        f"{sum(1 for x in lat if x > tail)} beyond it",
        f"probe median {statistics.median(probes) * 1e3:.3f} ms "
        f"(nominal {PROBE_NOMINAL_S * 1e3:g} ms); unscaled: "
        f"{len(raw) / sum(raw):.4g} ops/s, p50 {quantile(raw, 50) * 1e3:.4g} ms, "
        f"p{pct} {quantile(raw, pct) * 1e3:.4g} ms",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def main(argv=None, tiny=False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = None if args.trace else measure_setup()
    api, cli_main, memo_modules = import_package()
    golden = load_golden(ROOT)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)

    def make_loop(traced):
        tracer = Tracer(traced, api.CapacityError)
        cx = Context(api, cli_main, tracer, golden, tmp, memo_modules)
        return Loop(cx, rounds(args.workload, args.seed, golden, tiny))

    try:
        if args.trace:
            plain = make_loop(False)
            plain_wall = plain.run(seconds=args.seconds / 2)
            traced = make_loop(True)
            traced_wall = traced.run(max_ops=len(plain.records))
            loops = [plain, traced]
            metrics = traced.cx.tr.layer_metrics(traced_wall, traced_wall - plain_wall)
            notes = [f"{len(plain.records)} ops untraced in {plain_wall:.3f} s, "
                     f"traced in {traced_wall:.3f} s"]
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            traced.cx.tr.write(trace_path)
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            loop = make_loop(False)
            loop.run(seconds=args.seconds)
            loops = [loop]
            metrics, notes = end_to_end(loop, args.workload, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(lp.records) for lp in loops)
    failed = sum(1 for lp in loops for rec in lp.records if not rec[3])
    for lp in loops:
        for err in lp.errors[:10]:
            print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
