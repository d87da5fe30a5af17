import hashlib
import json
import sys

import pytest

from overlapcodes import (
    Code,
    DomainError,
    brute_force_max_code,
    expand_system,
    gilbert_levenshtein,
    golden_tables,
    reproduce_table,
    write_code,
    zero_block,
)
from overlapcodes.cli import main
from overlapcodes.codes import IO_BLOCK


def test_golden_data_loads_with_expected_ranges():
    g = golden_tables()
    assert set(g["table_i"]) == {str(k) for k in range(2, 24)}
    assert set(g["table_ii"]) == {str(k) for k in range(1, 7)}
    for name in ("table_iii", "table_iv", "table_v"):
        assert set(g[name]) == {str(k) for k in range(2, 15)}


def test_reproduce_table_iii_and_iv_match_fully():
    assert reproduce_table("III").match
    assert reproduce_table("IV").match


def test_reproduce_table_ii_matches():
    report = reproduce_table("II")
    assert report.match
    row1 = report.rows[0]
    assert row1.k == 1 and row1.match


def test_reproduce_table_i_known_divergent_rows():
    report = reproduce_table("I")
    bad = {row.k for row in report.rows if not row.match}
    assert bad == {18, 21, 22, 23}
    for row in report.rows:
        if row.k <= 17 or row.k in (19, 20):
            assert row.match


def test_reproduce_table_v_only_width14_upper_differs():
    report = reproduce_table("V")
    for row in report.rows:
        cells = {c.name: c for c in row.cells}
        if row.k == 14:
            assert not cells["upper"].match
            assert cells["upper"].got == "9586980.6"
            assert cells["upper"].expected == "9586080.6"
            assert cells["doubling"].match and cells["mmin"].match
        else:
            assert row.match


def test_reproduce_table_subrange_and_errors():
    report = reproduce_table("IV", kmin=6, kmax=9)
    assert [row.k for row in report.rows] == [6, 7, 8, 9]
    with pytest.raises(DomainError):
        reproduce_table("VI")
    with pytest.raises(DomainError):
        reproduce_table("I", kmin=1)


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_cli_fib(capsys):
    status, out, _ = run_cli(capsys, "fib", "--z", "4", "--i", "6")
    assert status == 0 and out.strip() == "15"
    status, out, _ = run_cli(capsys, "--format", "json", "fib", "--z", "4",
                             "--i", "6")
    assert json.loads(out) == {"z": 4, "i": 6, "value": "15"}


def test_cli_verify_json_witness(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0101\n")
    status, out, _ = run_cli(capsys, "--format", "json", "verify", "--file",
                             str(bad), "--t1", "1", "--t2", "2")
    assert status == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["witness"] == {"u": "0101", "v": "0101", "t": 2}


def test_cli_tables_tsv_row(capsys):
    status, out, _ = run_cli(capsys, "tables", "--id", "IV", "--kmax", "9")
    assert status == 0
    row9 = [ln for ln in out.splitlines() if ln.startswith("9\t")][0]
    fields = row9.split("\t")
    assert fields[2] == "9536" and fields[3] == "3"


def test_cli_zeroblock_large_width(capsys):
    status, out, _ = run_cli(capsys, "zeroblock", "--k", "100")
    assert status == 0
    assert "5745596237141382785608786499535716424326792561835200479232" in out
    assert "\t200" in out


def test_cli_verify_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("# n=4 q=2\n0011\n0111\n")
    status, out, _ = run_cli(capsys, "verify", "--file", str(good),
                             "--t1", "1", "--t2", "2")
    assert status == 0 and out.startswith("OK")

    bad = tmp_path / "bad.txt"
    bad.write_text("0101\n")
    status, out, _ = run_cli(capsys, "verify", "--file", str(bad),
                             "--t1", "1", "--t2", "2")
    assert status == 1
    assert "FALSIFIED" in out and "0101" in out


def test_cli_exit_codes_for_errors(capsys):
    status, _, err = run_cli(capsys, "fib", "--z", "0", "--i", "3")
    assert status == 2 and "error" in err
    status, _, err = run_cli(capsys, "oracle", "--n", "11", "--t1", "1",
                             "--t2", "2")
    assert status == 3 and "capacity" in err
    status, _, err = run_cli(capsys, "verify", "--file", "/nonexistent",
                             "--t1", "1", "--t2", "2")
    assert status == 2
    status, _, err = run_cli(capsys, "graph-opt", "--k", "0")
    assert status == 2 and "error" in err
    status, _, err = run_cli(capsys, "graph-opt", "--k", "17")
    assert status == 3 and "capacity" in err
    status, _, err = run_cli(capsys, "doubling", "--kmax", "0")
    assert status == 2 and "error" in err
    status, _, err = run_cli(capsys, "doubling", "--kmax", "24")
    assert status == 3 and "capacity" in err
    status, _, err = run_cli(capsys, "mmin", "--k", "1")
    assert status == 2 and "error" in err
    status, _, err = run_cli(capsys, "mmin", "--k", "21")
    assert status == 3 and "capacity" in err
    status, _, err = run_cli(capsys, "fib", "--z", "2", "--i", "1000000")
    assert status == 3 and "capacity" in err
    status, _, err = run_cli(capsys, "zeroblock", "--k", "1000000")
    assert status == 3 and "capacity" in err
    status, _, err = run_cli(capsys, "bounds", "--n", "1100", "--k", "1099")
    assert status == 3 and err.startswith("capacity error: ")
    # refused before q^n or the digits are built
    for argv in (["--n", "100001", "--k", "3"], ["--n", "1000000000", "--k", "3"],
                 ["--n", "25001", "--k", "3", "--q", "10"],
                 ["--n", "10", "--k", "3", "--places", "100001"]):
        status, out, err = run_cli(capsys, "bounds", *argv)
        assert status == 3 and out == "" and err.startswith("capacity error: ")


def test_cli_prints_results_past_the_int_str_digit_limit(capsys):
    # CPython refuses to print ints of more than 4300 digits by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    status, out, _ = run_cli(capsys, "fib", "--z", "5", "--i", "32768")
    assert status == 0 and out.strip().isdigit() and len(out.strip()) > 4300
    status, out, _ = run_cli(capsys, "zeroblock", "--k", "16000")
    coefficient = out.splitlines()[1].split("\t")[5]
    assert status == 0 and coefficient.isdigit() and len(coefficient) > 4300
    status, out, _ = run_cli(capsys, "bounds", "--n", "10", "--k", "3",
                             "--places", "100000")
    assert status == 0
    assert out.splitlines()[3] == "upper_weak\t1024/15\t68.2" + "6" * 99_998 + "7"
    status, out, _ = run_cli(capsys, "bounds", "--n", "100000", "--k", "3")
    name, fraction, decimal = out.splitlines()[3].split("\t")
    num, den = fraction.split("/")
    assert status == 0 and name == "upper_weak" and den == "199995"
    assert num.isdigit() and len(num) > 30_000 and len(decimal) > 30_000
    # the limit is lifted only while the command runs
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_cli_verify_rejects_undecodable_file(tmp_path, capsys):
    # a Latin-1 comment is not valid UTF-8: a usage error, not FALSIFIED
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n0101\n")
    status, out, err = run_cli(capsys, "verify", "--file", str(path),
                               "--t1", "1", "--t2", "2")
    assert status == 2 and out == ""
    assert err.startswith("error: ") and "decode" in err


def test_cli_oracle_emit_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "code.txt"
    status, out, _ = run_cli(capsys, "oracle", "--n", "6", "--t1", "1",
                             "--t2", "3", "--emit", str(out_file))
    assert status == 0 and "maximum size: 6" in out
    status, _, _ = run_cli(capsys, "verify", "--file", str(out_file),
                           "--t1", "1", "--t2", "3")
    assert status == 0


def test_cli_gl_emit_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "gl.txt"
    status, _, _ = run_cli(capsys, "gl", "--n", "10", "--emit", str(out_file))
    assert status == 0
    status, _, _ = run_cli(capsys, "verify", "--file", str(out_file),
                           "--t1", "1", "--t2", "9")
    assert status == 0


def test_cli_zeroblock_emit_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "zb.txt"
    status, _, _ = run_cli(capsys, "zeroblock", "--k", "5", "--emit",
                           str(out_file))
    assert status == 0
    status, _, _ = run_cli(capsys, "verify", "--file", str(out_file),
                           "--t1", "1", "--t2", "5")
    assert status == 0
    base = tmp_path / "zbsets"
    status, _, _ = run_cli(capsys, "zeroblock", "--k", "5", "--emit-sets",
                           str(base))
    assert status == 0
    assert (tmp_path / "zbsets.prefixes.txt").exists()
    assert (tmp_path / "zbsets.suffixes.txt").exists()


def test_cli_graph_opt_json_schema(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "graph-opt",
                             "--k", "4")
    assert status == 0
    payload = json.loads(out)
    for key in ("k", "objective", "x_size", "y_size", "product", "x_set",
                "y_set"):
        assert key in payload
    assert payload["product"] == 20
    assert payload["x_size"] * payload["y_size"] == 20
    assert all(len(w) == 4 for w in payload["x_set"])


def test_cli_graph_opt_node_budget(capsys):
    runs = [run_cli(capsys, "graph-opt", "--k", "8", "--node-budget", "1000")
            for _ in range(2)]
    assert runs[0] == runs[1]
    status, out, err = runs[0]
    assert status == 0
    assert "optimal\tFalse" in out.splitlines()
    assert "node budget exhausted" in err


def test_cli_construction_json_schema(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "mmin", "--k", "6")
    payload = json.loads(out)
    assert status == 0
    for key in ("k", "construction", "params", "p_size", "s_size",
                "coefficient", "offset"):
        assert key in payload
    assert payload["coefficient"] == "216" and payload["offset"] == 12

    status, out, _ = run_cli(capsys, "--format", "json", "zeroblock",
                             "--k", "9")
    payload = json.loads(out)
    assert payload["coefficient"] == "9536" and payload["params"]["z"] == 3


def test_cli_bounds_json(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "bounds",
                             "--n", "14", "--k", "7")
    payload = json.loads(out)
    assert status == 0
    assert payload["upper_1k"] == {
        "num": "8192", "den": "7", "decimal": "1170.3",
    }
    assert payload["upper_weak"]["num"] == str(2**14)
    assert "lower_gen2" in payload

    status, out, _ = run_cli(capsys, "--format", "json", "bounds",
                             "--n", "16", "--k", "15")
    payload = json.loads(out)
    assert "classic_nine_n" in payload and "classic_eight_n" in payload
    assert payload["classic_lev"] == {
        "num": "1", "den": "2en", "decimal": "753.4170955191139",
    }


def test_cli_bounds_below_the_classic_domain(capsys):
    # k = n - 1 at n = 2: the classic rows need n >= 3, the others apply
    status, out, err = run_cli(capsys, "bounds", "--n", "2", "--k", "1")
    assert status == 0 and err == ""
    assert out.splitlines()[3:] == ["upper_weak\t4/3\t1.3", "upper_1k\t2/1\t2"]


def test_cli_doubling_json_rows(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "doubling",
                             "--kmax", "5")
    rows = json.loads(out)
    assert status == 0
    assert rows[-1] == {"k": 5, "p_size": 8, "s_size": 8, "product": 64,
                        "offset": 10}


def test_cli_thread_cap_does_not_change_output(capsys):
    _, base, _ = run_cli(capsys, "tables", "--id", "III")
    _, single, _ = run_cli(capsys, "--threads", "1", "tables", "--id", "III")
    _, many, _ = run_cli(capsys, "--threads", "8", "tables", "--id", "III")
    assert base == single == many


def test_cli_tables_json(capsys):
    status, out, _ = run_cli(capsys, "--format", "json", "tables", "--id",
                             "III", "--kmax", "5")
    payload = json.loads(out)
    assert status == 0 and payload["match"] is True
    assert payload["rows"][0]["cells"]["coefficient"]["got"] == "2"


def rendered(code):
    """The code file text, word by word, as the format defines it."""
    return f"# n={code.n} q=2\n" + "".join(f"{w:0{code.n}b}\n" for w in code.words)


@pytest.mark.parametrize("argv, code", [
    (["zeroblock", "--k", "6", "--n", "14"],
     lambda: expand_system(zero_block(6, emit_sets=True).system, 14)),
    (["zeroblock", "--k", "5"],
     lambda: expand_system(zero_block(5, emit_sets=True).system, 10)),
    (["gl", "--n", "16"], lambda: gilbert_levenshtein(16, emit_code=True).code),
    (["oracle", "--n", "9", "--t1", "2", "--t2", "4"],
     lambda: brute_force_max_code(9, 2, 4)[1]),
    (["oracle", "--n", "6", "--t1", "1", "--t2", "3"],
     lambda: brute_force_max_code(6, 1, 3)[1]),
], ids=["zeroblock-n14", "zeroblock", "gl", "oracle-64", "oracle-6"])
def test_cli_emit_files_are_byte_identical(tmp_path, capsys, argv, code):
    out_file = tmp_path / "code.txt"
    status, _, _ = run_cli(capsys, *argv, "--emit", str(out_file))
    assert status == 0
    with open(out_file, "rb") as fh:
        assert fh.read() == rendered(code()).encode()


@pytest.mark.parametrize("t2", [3, 6])
def test_cli_verify_reads_crlf_and_padded_copy(tmp_path, capsys, t2):
    plain = tmp_path / "plain.txt"
    status, _, _ = run_cli(capsys, "zeroblock", "--k", "5", "--n", "12",
                           "--emit", str(plain))
    assert status == 0
    with open(plain) as fh:
        lines = fh.read().splitlines()
    messy = tmp_path / "messy.txt"
    with open(messy, "w", newline="") as fh:  # written as is, "\r\n" kept
        fh.writelines(f"{' ' * (i % 3)}{line}\t\r\n" for i, line in enumerate(lines))
    with open(messy, "rb") as fh:
        assert fh.read().count(b"\r\n") == len(lines)
    verdicts = [run_cli(capsys, "verify", "--file", str(path), "--t1", "1",
                        "--t2", str(t2)) for path in (plain, messy)]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == (0 if t2 <= 5 else 1)


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_cli_verify_reads_other_line_ends_in_bulk(tmp_path, capsys, end):
    # text mode turns every line end into "\n" for read() as for readline(),
    # so a clean body past the first block reads as the "\n" file does
    code = Code(16, range(5, 1 << 16, 7))
    assert len(code) > IO_BLOCK
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    with open(plain, "w", newline="") as fh:
        write_code(code, fh)
    other.write_bytes(plain.read_bytes().replace(b"\n", end.encode()))
    verdicts = [run_cli(capsys, "--format", "json", "verify", "--file", str(path),
                        "--t1", "1", "--t2", "3") for path in (plain, other)]
    assert verdicts[0] == verdicts[1]
    assert json.loads(verdicts[0][1])["words"] == len(code)


def test_cli_verify_names_a_bad_line_past_the_first_block(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    with open(path, "w") as fh:
        fh.write("# n=14 q=2\n")
        fh.writelines(f"{w:014b}\n" for w in range(2, 9000))  # lines 2..8999
        fh.write("0101010101012x\n")
    status, _, err = run_cli(capsys, "verify", "--file", str(path),
                             "--t1", "1", "--t2", "2")
    assert status == 2
    assert "line 9000: invalid word '0101010101012x'" in err


def pinned_commands():
    """A fixed CLI call list whose whole output is pinned by one digest."""
    for fmt in ("tsv", "json"):
        for t in ("I", "II", "III", "IV", "V"):
            yield ["--format", fmt, "tables", "--id", t]
    yield ["tables", "--id", "IV", "--kmin", "6", "--kmax", "9"]
    for n in range(3, 19):
        for k in range(1, n):
            yield ["bounds", "--n", str(n), "--k", str(k)]
    for n in (32, 64, 100, 512, 1023):
        yield ["bounds", "--n", str(n), "--k", str(n - 1)]
        yield ["--format", "json", "bounds", "--n", str(n), "--k", str(n - 1)]
    yield ["bounds", "--n", "12", "--k", "5", "--q", "3", "--places", "4"]
    yield ["--format", "json", "bounds", "--n", "16", "--k", "15", "--places", "0"]
    for z in (1, 2, 3, 4, 7, 12):
        for i in (-z + 2, 0, 1, 2, 5, z + 2, 50, 300):
            if i >= -z + 2:
                yield ["fib", "--z", str(z), "--i", str(i)]
    yield ["--format", "json", "fib", "--z", "5", "--i", "10000"]
    yield ["fib", "--z", "3", "--i", "32769"]
    yield ["fib", "--z", "2", "--i", "1000000"]
    yield ["fib", "--z", "0", "--i", "3"]
    yield ["fib", "--z", "3", "--i", "-2"]
    for k in range(2, 11):
        yield ["mmin", "--k", str(k)]
    yield ["--format", "json", "mmin", "--k", "6"]
    yield ["mmin", "--k", "1"]
    yield ["doubling", "--kmax", "12"]
    yield ["--format", "json", "doubling", "--kmax", "12"]
    for k in list(range(2, 41)) + [1000]:
        yield ["zeroblock", "--k", str(k)]
    yield ["--format", "json", "zeroblock", "--k", "1000"]
    yield ["zeroblock", "--k", "1000000"]
    for n in range(3, 41):
        yield ["gl", "--n", str(n)]
    yield ["--format", "json", "gl", "--n", "40"]
    for k in range(1, 6):
        for obj in ("product", "cardinality"):
            for canon in ([], ["--canonical"]):
                yield ["graph-opt", "--k", str(k), "--objective", obj] + canon
    yield ["--format", "json", "graph-opt", "--k", "5", "--canonical"]
    yield ["graph-opt", "--k", "6", "--node-budget", "50"]
    for n, t1, t2 in ((3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 1, 3)):
        yield ["oracle", "--n", str(n), "--t1", str(t1), "--t2", str(t2)]
        yield ["oracle", "--n", str(n), "--t1", str(t1), "--t2", str(t2),
               "--canonical"]
    yield ["--format", "json", "oracle", "--n", "5", "--t1", "1", "--t2", "4"]


# sha256 over (argv, exit status, stdout, stderr) of every pinned command,
# recorded before the rolling-window Fibonacci kernel replaced the memo
PINNED_CLI_DIGEST = "d89db4b683342cdcf5fa48e168b5dbdbaf68eaa2019b0b84594388b1a9af5053"


def test_cli_output_is_byte_identical_to_pinned_digest(capsys):
    digest = hashlib.sha256()
    for argv in pinned_commands():
        record = [argv, *run_cli(capsys, *argv)]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CLI_DIGEST


def surface_commands(tmp):
    """CLI calls the pinned list misses: verify, --emit files and --threads."""
    code = f"{tmp}/zb.txt"
    yield ["zeroblock", "--k", "5", "--n", "12", "--emit", code]
    yield ["oracle", "--n", "6", "--t1", "1", "--t2", "3", "--emit", f"{tmp}/or.txt"]
    yield ["gl", "--n", "10", "--emit", f"{tmp}/gl.txt"]
    yield ["zeroblock", "--k", "5", "--emit-sets", f"{tmp}/sets"]
    for fmt in ("tsv", "json"):
        for t2 in ("5", "6"):  # OK, then FALSIFIED
            yield ["--threads", "4", "--format", fmt, "verify", "--file", code,
                   "--t1", "1", "--t2", t2]
    yield ["verify", "--file", f"{tmp}/missing.txt", "--t1", "1", "--t2", "2"]


# sha256 over (argv, exit status, stdout, stderr) of every surface command,
# then each file they wrote, with the temporary directory named TMP;
# recorded before the CLI moved to one emitter
SURFACE_CLI_DIGEST = "a856a9c9542ed87cf8fbc76deae0519fd7fcaf076db322586ecfb0faa754b0ab"


def test_cli_surface_is_byte_identical_to_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for argv in surface_commands(tmp_path):
        record = [argv, *run_cli(capsys, *argv)]
        digest.update(json.dumps(record).replace(str(tmp_path), "TMP").encode() + b"\n")
    for name in ("zb.txt", "or.txt", "gl.txt", "sets.prefixes.txt", "sets.suffixes.txt"):
        digest.update(name.encode() + b"\n" + (tmp_path / name).read_bytes())
    assert digest.hexdigest() == SURFACE_CLI_DIGEST
