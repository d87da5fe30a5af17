"""Property test: the CLI's exit-status contract, run in-process.

Each subcommand gets ints drawn around its domain edges and its caps, but
only where a refusal comes before the work, so every call stays cheap.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from overlapcodes.cli import main
from overlapcodes.codes import ORACLE_MAX_N
from overlapcodes.constructions import DOUBLING_MAX_K, MMIN_MAX_K
from overlapcodes.counting import FIB_MAX_INDEX
from overlapcodes.graph import GRAPH_MAX_K


def ints(lo, hi, *far):
    """Small ints from lo to hi, or one of the far values past a cap."""
    return st.integers(lo, hi) | st.sampled_from(far)


def argv(name, **opts):
    return st.fixed_dictionaries(opts).map(
        lambda drawn: [name] + [a for key, value in drawn.items()
                                for a in (f"--{key}", str(value))])


@st.composite
def oracle_argv(draw):
    # every n <= 6 triple finishes in well under a second
    n = draw(ints(-1, 6, ORACLE_MAX_N + 1, 10**9))
    top = min(n, 7) + 1
    t1 = draw(st.integers(-1, top))
    t2 = draw(st.integers(t1 - 1, top))
    return ["oracle", "--n", str(n), "--t1", str(t1), "--t2", str(t2)] + draw(
        st.sampled_from([[], ["--canonical"]]))


@st.composite
def bounds_argv(draw):
    # k = n - 1 adds the classic rows, which are capped at n = 1023
    n = draw(ints(-2, 70, 1023, 1024, 100_001, 10**9))
    k = draw(st.integers(-2, 70) | st.sampled_from([n - 1, n]))
    return ["bounds", "--n", str(n), "--k", str(k),
            "--q", str(draw(st.integers(-1, 4))),
            "--places", str(draw(ints(0, 6, -1, 100_001)))]


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(args)
    return status, out.getvalue(), err.getvalue()


commands = st.one_of(
    argv("fib", z=st.integers(-2, 8),
         i=ints(-10, 60, FIB_MAX_INDEX + 1, 10**12)),
    argv("mmin", k=ints(-2, 8, MMIN_MAX_K + 1, 10**9)),
    argv("doubling", kmax=ints(-2, 8, DOUBLING_MAX_K + 1, 10**9)),
    argv("zeroblock", k=ints(-2, 40, FIB_MAX_INDEX, 10**9)),
    argv("gl", n=ints(-2, 40, FIB_MAX_INDEX + 2, 10**9)),
    argv("graph-opt", k=ints(-2, 5, GRAPH_MAX_K + 1, 10**9),
         **{"node-budget": st.integers(-2, 50)}),
    oracle_argv(),
    bounds_argv(),
    argv("tables", id=st.sampled_from(["I", "II", "III", "IV", "V"]),
         kmin=st.integers(-1, 25), kmax=st.integers(-1, 25)),
)


@settings(max_examples=300, deadline=None)
@given(commands, st.sampled_from([[], ["--format", "json"]]))
def test_cli_exits_with_a_documented_status(args, fmt):
    status, _, err = run(fmt + args)
    assert status in (0, 2, 3), (args, status, err)
    assert status == 0 or err, args


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1 << 16), st.sampled_from([[], ["--format", "json"]]),
       st.integers(1, 5), st.integers(1, 5))
def test_cli_verify_exits_with_a_documented_status(tmp_path_factory, seed, fmt,
                                                   t1, t2):
    path = tmp_path_factory.mktemp("verify") / "code.txt"
    words = [format(w, "05b") for w in range(32) if seed >> w & 1]
    path.write_text("# n=5 q=2\n" + "".join(w + "\n" for w in words))
    status, _, err = run(fmt + ["verify", "--file", str(path),
                                "--t1", str(t1), "--t2", str(t2)])
    assert status in (0, 1, 2), (words, t1, t2, status, err)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_bounds_answers_every_k_below_n(data):
    n = data.draw(st.integers(2, 64))
    k = data.draw(st.integers(1, n - 1))
    status, out, err = run(["bounds", "--n", str(n), "--k", str(k)])
    assert status == 0 and err == "", (n, k, err)
    assert out.splitlines()[3].startswith("upper_weak\t")
