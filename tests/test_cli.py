import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from treewilf import cli, elim, series, systems, wilf
from treewilf.cli import main
from treewilf.elim import EliminationError

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_operad_geometric(self, capsys):
        code, out, _ = run(capsys, "series", "--pattern", "mmxxx", "--kind", "operad", "-K", "10")
        assert code == 0
        assert out.strip() == "v=z;K=10;" + ";".join(f"{k}:1" for k in range(1, 11))

    def test_av_single_node(self, capsys):
        code, out, _ = run(capsys, "series", "--pattern", "mxx", "--kind", "av", "-K", "5")
        assert code == 0
        assert out.strip() == "v=x;K=5;1:1"

    def test_en_bivariate(self, capsys):
        code, out, _ = run(capsys, "series", "--pattern", "mmxxx", "--kind", "en", "-K", "7")
        assert code == 0
        assert out.startswith("v=x,y;K=7;1,0:1;3,0:1;5,0:1;5,1:1")

    def test_bad_pattern_exit_code(self, capsys):
        code, _, err = run(capsys, "series", "--pattern", "mxq", "--kind", "av")
        assert code == 1
        assert "error" in err

    def test_degenerate_pattern(self, capsys):
        code, _, err = run(capsys, "series", "--pattern", "x")
        assert code == 1


class TestGrammarCommand:
    def test_bnf(self, capsys):
        code, out, _ = run(capsys, "grammar", "--patterns", "mmxxx")
        assert code == 0
        assert "T[mxmxx] -> m T[x] T[mxx]" in out
        assert out.startswith("S -> ")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "grammar", "--patterns", "mmxxx", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["start"] == "S"

    def test_patterns_file(self, capsys, tmp_path):
        f = tmp_path / "patterns.txt"
        f.write_text("# left comb\nmmxxx\n")
        code, out, _ = run(capsys, "grammar", "--patterns-file", str(f))
        assert code == 0
        assert "T[mxmxx]" in out

    def test_rule_bodies_over_budget(self, capsys):
        # 51,912 nonterminals fit the default budget; about 1.4e14 bodies do not
        code, out, err = run(capsys, "grammar", "--alphabet", "m:2,w:3,x:0", "--patterns", "mmmxxxx")
        assert code == 3
        assert out == ""
        assert err.startswith("resource bound exceeded: ") and err.count("\n") == 1

    def test_missing_patterns_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "grammar", "--patterns-file", str(tmp_path / "absent.txt"))
        assert code == 1
        assert err.startswith("error: ") and "absent.txt" in err


class TestSystemCommand:
    def test_cs(self, capsys):
        code, out, _ = run(capsys, "system", "--patterns", "mmxxx", "--method", "cs")
        assert code == 0
        assert "H[mxmxx] = x*H[mxmxx]*H[x] + x*H[mxx]*H[x]" in out

    def test_stamp(self, capsys):
        code, out, _ = run(capsys, "system", "--patterns", "mmxxx", "--method", "stamp")
        assert code == 0
        assert "vars: z" in out

    def test_en_requires_single_pattern(self, capsys):
        code, _, err = run(capsys, "system", "--patterns", "mmxxx,mxmxx", "--method", "en")
        assert code == 1

    def test_en(self, capsys):
        code, out, _ = run(capsys, "system", "--patterns", "mxx", "--method", "en")
        assert code == 0
        assert "vars: x,y" in out

    def test_stamp_over_budget(self, capsys):
        code, _, err = run(capsys, "system", "--method", "stamp", "--patterns", "mmmmmmxxxxxxx")
        assert code == 3
        assert "resource bound exceeded" in err


class TestEliminateCommand:
    def test_free_language(self, capsys):
        code, out, err = run(capsys, "eliminate", "--patterns", "")
        assert code == 0
        assert out.strip() == "(1*x) + (-1)*G + (1*x)*G^2"
        assert "pass" in err

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "eliminate", "--patterns", "mmmmxxxxx", "--max-unknowns", "12")
        assert code == 3
        assert "resource bound exceeded" in err

    def test_grammar_over_budget(self, capsys):
        code, _, err = run(capsys, "eliminate", "--patterns", "mmmmmmxxxxxxx",
                           "--max-nonterminals", "10")
        assert code == 3
        assert "resource bound exceeded" in err


class TestClassifyCommand:
    def test_small_run(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        csv_file = tmp_path / "summary.csv"
        code, out, _ = run(
            capsys, "classify", "-n", "4", "-K", "40", "--quiet",
            "--workers", "1", "--out", str(out_file), "--csv", str(csv_file),
        )
        assert code == 0
        assert out.strip() == "n=4 mode=av K=40 classes=2"
        data = json.loads(out_file.read_text())
        assert data["class_count"] == 2
        assert csv_file.read_text().startswith("4,40,av,2,5,")

    def test_verify_mirror_solves_every_pattern(self, capsys, tmp_path):
        reports = {}
        for name, extra in (("default", ()), ("verify", ("--verify-mirror",))):
            out_file = tmp_path / f"{name}.json"
            code, _, _ = run(capsys, "classify", "-n", "4", "-K", "40", *extra, "--quiet",
                             "--workers", "1", "--out", str(out_file))
            assert code == 0
            reports[name] = json.loads(out_file.read_text())
        assert reports["default"]["mirror_reduced"] is True
        assert reports["verify"]["mirror_reduced"] is False
        assert reports["verify"]["classes"] == reports["default"]["classes"]

    def test_no_mirror_reduce_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "-n", "4", "--no-mirror-reduce", "--quiet"])
        assert exc.value.code == 1
        assert "--no-mirror-reduce" in capsys.readouterr().err

    def test_deep_gate(self, capsys):
        code, _, err = run(capsys, "classify", "-n", "10", "--quiet", "--workers", "1")
        assert code == 1
        assert "--deep" in err

    def test_bad_workers_environment(self, capsys, monkeypatch):
        # one row of a lower-bounds sweep: the smallest order, avoidance mode
        monkeypatch.setenv("TREEWILF_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        code, out, err = run(capsys, "classify", "-n", "2", "--mode", "av", "--quiet")
        assert code == 1
        assert out == "" and err == "error: TREEWILF_WORKERS must be an integer, got 'abc'\n"


class TestStabilizeCommand:
    # counts listed by ascending order, the order of the output lines
    @pytest.mark.parametrize("argv, prefix, counts, verdict", [
        ("-n 6 --orders 12,24,48,96", "n=6 mode=av", {12: 1, 24: 7, 48: 7, 96: 7},
         "stable over the last two orders"),
        ("-n 5 --orders 40,10,20 --mode en", "n=5 mode=en", {10: 1, 20: 3, 40: 3},
         "stable over the last two orders"),
        ("-n 6 --orders 24,12", "n=6 mode=av", {12: 1, 24: 7},
         "still moving at the top order; extend the ladder"),
        # one distinct order has nothing to compare against
        ("-n 3 --orders 3", "n=3 mode=av", {3: 1}, None),
        ("-n 3 --orders 8,8", "n=3 mode=av", {8: 1}, None),
    ])
    def test_ladder(self, capsys, monkeypatch, argv, prefix, counts, verdict):
        monkeypatch.setenv("TREEWILF_WORKERS", "1")
        code, out, err = run(capsys, "stabilize", *argv.split())
        assert code == 0
        assert out.splitlines() == [f"{prefix} K={k} classes={c}" for k, c in counts.items()]
        assert err == ("" if verdict is None else verdict + "\n")

    def test_bad_workers_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEWILF_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["stabilize", "--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        code, out, err = run(capsys, "stabilize", "-n", "2")
        assert code == 1
        assert out == "" and err == "error: TREEWILF_WORKERS must be an integer, got 'abc'\n"


class TestInspectCommand:
    def test_report_bytes(self, capsys):
        code, out, err = run(capsys, "inspect", "--pattern", "mmxxx")
        assert code == 0 and err == ""
        assert "annihilator    (1*x) + (-1 + 1*x^2)*G   [verified]" in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "700eab692a0f590b10c98670f2c0c870aa1cdb8bf30aaa88b570468aac495025")

    def test_elimination_failure_is_skipped(self, capsys, monkeypatch):
        def vanished(system, **kwargs):
            raise EliminationError("resultant vanished while eliminating unknown 0")

        monkeypatch.setattr(elim, "eliminate", vanished)
        code, out, _ = run(capsys, "inspect", "--pattern", "mmxxx")
        assert code == 0
        assert "annihilator    skipped (resultant vanished while eliminating unknown 0)" in out
        assert out.rstrip().endswith("target = C[mmxxx|mxx|x] + C[mxx|x] + C[x]")

    def test_failed_self_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(elim, "annihilates", lambda poly, series, order: False)
        code, out, _ = run(capsys, "inspect", "--pattern", "mmxxx")
        assert code == 2
        assert "annihilator    (1*x) + (-1 + 1*x^2)*G   [NOT ANNIHILATING (bug)]" in out


class TestVerifyCommand:
    def test_eq12(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "eq12")
        assert code == 0
        assert "pass" in out

    def test_grammar_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "grammar", "--patterns", "mmxxx",
                           "--max-len", "11")
        assert code == 0
        assert "grammar suite" in out and "pass" in out

    def test_partition_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "partition", "--max-nodes", "6")
        assert code == 0

    def test_mirror_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "mirror", "--max-leaves", "3",
                           "--max-nodes", "5")
        assert code == 0

    def test_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-leaves", "3",
                           "--max-nodes", "5")
        assert code == 0

    def test_systems_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "systems", "--max-leaves", "4")
        assert code == 0

    @pytest.mark.parametrize("suite, bound", [("grammar", "--max-len=9"),
                                              ("partition", "--max-nodes=3")])
    def test_alphabet_option(self, capsys, suite, bound):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--alphabet", "m:2,w:3,x:0",
                           "--patterns", "wxxx", bound)
        assert code == 0
        assert out.startswith(f"{suite} suite: pass")

    def test_all_suites_report_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "oracle", "grammar", "partition", "mirror", "eq12", "systems"]
        for line in lines:
            counts = line[line.index("(") + 1:line.rindex(")")].split(", ")
            assert counts and all(int(c.split("=")[1]) > 0 for c in counts), line


class TestUsageErrors:
    @pytest.mark.parametrize("command, option", [("series", "--pattern"), ("grammar", "--patterns")])
    def test_pattern_deeper_than_the_stack(self, capsys, command, option):
        code, _, err = run(capsys, command, option, "m" * 1200 + "x" * 1201)
        assert code == 3
        assert err.startswith("resource bound exceeded:")

    def test_order_too_large_to_allocate(self, capsys):
        code, out, err = run(capsys, "series", "--pattern", "mxx", "-K", "99999999999999999999")
        assert code == 3
        assert out == "" and err.startswith("resource bound exceeded:")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, pattern", [
        (["classify", "-n", "2", "-K", "100000000000000000000", "--quiet"], "mxx"),
        (["stabilize", "-n", "2", "--orders", "4,100000000000000000000"], "mxx"),
        # five 4-leaf patterns give three mirror representatives, so two workers run a pool
        (["classify", "-n", "4", "-K", "100000000000000000000", "--quiet"], "m[mx]+"),
    ], ids=["classify", "stabilize", "classify-4-leaves"])
    def test_sweep_order_too_large_to_allocate(self, capsys, argv, pattern, workers):
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code == 3
        assert out == "" and err.count("\n") == 1
        assert re.match(rf"resource bound exceeded: solving pattern {pattern} "
                        r"\(av, K=100000000000000000000\) failed: OverflowError", err)

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(pattern, order):
            raise MemoryError

        monkeypatch.setattr(series, "av_series", exhausted)
        code, _, err = run(capsys, "series", "--pattern", "mxx", "-K", "1000000000")
        assert code == 3
        assert err == "resource bound exceeded: MemoryError\n"

    @pytest.mark.parametrize("flag, value, minimum", [
        pytest.param("--max-len", -2, 1, id="--max-len"),
        pytest.param("--max-len", 0, 1, id="--max-len=0"),
        pytest.param("--max-leaves", -2, 0, id="--max-leaves"),
        pytest.param("--max-nodes", -2, 0, id="--max-nodes"),
    ])
    def test_negative_verify_bound(self, capsys, flag, value, minimum):
        code, out, err = run(capsys, "verify", "--suite", "grammar", f"{flag}={value}")
        assert code == 1
        assert out == "" and err == f"error: {flag} must be at least {minimum}, got {value}\n"

    @pytest.mark.parametrize("suite", ["oracle", "mirror", "systems", "all"])
    def test_max_leaves_below_two(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-leaves", "1")
        assert code == 1
        assert out == "" and err == "error: --max-leaves must be at least 2, got 1\n"

    @pytest.mark.parametrize("suite, bound", [("grammar", "--max-len=5"),
                                              ("partition", "--max-nodes=3"),
                                              ("eq12", "--max-nodes=3")])
    def test_max_leaves_ignored_by_other_suites(self, capsys, suite, bound):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-leaves", "1", bound)
        assert code == 0 and err == ""
        assert out.startswith(f"{suite} suite: pass")

    @pytest.mark.parametrize("argv, message", [
        (["stabilize", "-n", "1"], "at least 2 leaves"),
        (["stabilize", "-n", "4", "--orders", "abc"], "--orders"),
        (["stabilize", "-n", "4", "--orders", "0"], "orders must be >= 1"),
        (["classify", "-n", "1", "--quiet"], "at least 2 leaves"),
        (["stabilize", "-n", "4", "--mode", "bogus"], "--mode"),
        (["inspect", "--pattern", "mmx"], "'mmx'"),
        (["eliminate", "--patterns", "mmxxx", "--deadline", "nan"], "--deadline"),
        (["eliminate", "--patterns", "mmxxx", "--deadline", "inf"], "--deadline"),
        (["eliminate", "--patterns", "mmxxx", "--deadline", "0"], "--deadline"),
        (["eliminate", "--patterns", "mmxxx", "--deadline", "-1"], "--deadline"),
        (["eliminate", "--patterns", "mmxxx", "--max-unknowns", "-1"], "--max-unknowns"),
        (["eliminate", "--patterns", "mmxxx", "--check-order", "0"], "--check-order"),
    ], ids=["stabilize-leaves", "orders-abc", "orders-0", "classify-leaves", "mode", "inspect",
            "deadline-nan", "deadline-inf", "deadline-0", "deadline-negative",
            "max-unknowns-negative", "check-order-0"])
    def test_one_error_line(self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("TREEWILF_WORKERS", "1")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("target, reason", [("missing-directory", "No such file or directory"),
                                                ("directory", "Is a directory")])
    def test_unwritable_output_fails_before_the_sweep(self, capsys, monkeypatch, tmp_path,
                                                      flag, target, reason):
        def unused(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(wilf, "classify", unused)
        path = str(tmp_path / "absent" / "report" if target == "missing-directory" else tmp_path)
        code, out, err = run(capsys, "classify", "-n", "3", "-K", "6", "--workers", "1",
                             "--quiet", flag, path)
        assert code == 1
        assert out == "" and err == f"error: {flag} {path!r}: {reason}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    def test_failed_report_write_exits_1(self, capsys):
        # the device opens, but the report's write fails once the sweep is done
        code, out, err = run(capsys, "classify", "-n", "3", "-K", "6", "--workers", "1",
                             "--quiet", "--out", "/dev/full")
        assert code == 1
        assert out == "" and err == "error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("argv", [["grammar"], ["system"], ["system", "--method", "stamp"],
                                      ["system", "--method", "en"], ["eliminate"]],
                             ids=["grammar", "system-cs", "system-stamp", "system-en", "eliminate"])
    def test_max_nonterminals_below_one(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, "--patterns", "mmxxx", "--max-nonterminals", value)
        assert code == 1
        assert out == "" and err == f"error: --max-nonterminals must be at least 1, got {value}\n"

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one(self, capsys, workers):
        code, out, err = run(capsys, "classify", "-n", "3", "--quiet", "--workers", workers)
        assert code == 1
        assert out == "" and err == f"error: --workers must be at least 1, got {workers}\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_environment_below_one(self, capsys, monkeypatch, workers):
        monkeypatch.setenv("TREEWILF_WORKERS", workers)
        code, out, err = run(capsys, "classify", "-n", "3", "--quiet")
        assert code == 1
        assert out == "" and err == f"error: TREEWILF_WORKERS must be at least 1, got '{workers}'\n"

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_alphabet(self, capsys):
        code, _, err = run(capsys, "grammar", "--alphabet", "m:2", "--patterns", "")
        assert code == 1
        assert err == "error: alphabet needs exactly one arity-0 label, got []\n"

    def test_bad_workers_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEWILF_WORKERS", "abc")
        code, _, err = run(capsys, "classify", "-n", "3", "--quiet")
        assert code == 1
        assert err == "error: TREEWILF_WORKERS must be an integer, got 'abc'\n"
        # only classify reads the variable
        code, out, _ = run(capsys, "series", "--pattern", "mxx")
        assert code == 0
        assert out.startswith("v=x;")


def test_readme_commands_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for b in blocks for line in b.splitlines() if line.startswith("treewilf ")]
    assert {shlex.split(line)[1] for line in lines} >= {"classify", "stabilize", "inspect"}
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


# sha256 of each help text at 80 columns, in argparse's layout of Python
# 3.11.  Loading the modules per command moved none of them; classify's and
# stabilize's name the --workers default as the CPUs the process may run on.
HELP_DIGESTS = {
    (): "47b96c744b6ba29fe74194f542ec0f481d5a48cd71ff20f377813e7d25cda681",
    ("classify",): "c7b8711147d89c9a641267bcf7e1916e2f957bfcd0d9b6584e8f8ecbd9382fd4",
    ("stabilize",): "5d67334fc65aa2b83d3752855a1ebb07a87b9d287f867f435db9ffe53981967a",
    ("inspect",): "04554a0a46d6dcf4954cdbbd9a8f3b7b71691db239f2bf6317f7be62fbdf76d0",
    ("series",): "840caa8a96b9512683e8008ba409bc111e4c572bd65f746bd8d23ec773d61f27",
    ("grammar",): "ebf2d50c819f270695484da5a8f949b466b8f08eea6c936de7c99e01329f946a",
    ("system",): "c6725abdd235710211d5f68cf6da2ba8ea18604c9c44dbab70198687dfde4872",
    ("eliminate",): "6159d7f26b17cf295abea7c8cc11ff0153b8a988bb605f549adf0553fa62e61c",
    ("verify",): "883b89f375da9da81f49e584ca311351e2b65693a9552f90243e09da0e777c1c",
}


def help_text(capsys, monkeypatch, *argv: str) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays help out differently in other Python versions")
@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS), ids=lambda a: " ".join(a) or "treewilf")
def test_help_text(capsys, monkeypatch, argv):
    out = help_text(capsys, monkeypatch, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[argv]


def test_help_names_the_stamp_budget(capsys, monkeypatch):
    # written as a literal, so that building the parser imports no systems
    out = " ".join(help_text(capsys, monkeypatch, "system").split())
    assert f"systems.MAX_STAMPS ({systems.MAX_STAMPS})" in out
