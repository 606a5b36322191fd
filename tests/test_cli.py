import json

import pytest

from treewilf.cli import main


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

    def test_deep_gate(self, capsys):
        code, _, err = run(capsys, "classify", "-n", "10", "--quiet", "--workers", "1")
        assert code == 1
        assert "--deep" in err


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


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_alphabet(self, capsys):
        code, _, err = run(capsys, "grammar", "--alphabet", "m:2", "--patterns", "")
        assert code == 1

    def test_bad_workers_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEWILF_WORKERS", "abc")
        code, _, err = run(capsys, "classify", "-n", "3", "--quiet")
        assert code == 1
        assert err.startswith("error: ") and "TREEWILF_WORKERS" in err
        # only classify reads the variable
        code, out, _ = run(capsys, "series", "--pattern", "mxx")
        assert code == 0
        assert out.startswith("v=x;")
