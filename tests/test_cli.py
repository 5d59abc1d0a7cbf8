import os
import subprocess
import sys

import pytest

import dagkernel
from dagkernel import ExperimentConfig, cli

from conftest import FIG3_TREE, FIG5_T2


class TestSimulate:
    def test_default_arguments_pass(self, capsys):
        # The default model (height 3, rho 9/4, seed 0) satisfies every
        # closed-form check, so the command exits 0.
        assert cli.run(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "leaf-weight identity: pass" in out
        assert "FAIL" not in out

    def test_report_golden(self, tmp_path, capsys):
        # Height-3 model from seed 1: one CSV row per template vertex.
        out = tmp_path / "report.csv"
        argv = ["simulate", "--height", "3", "--seed", "1", "--leaf-weight", "2/7",
                "--out", str(out)]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == (
            "model: height=3 rho=9/4 seed=1\n"
            "conditioning mass G(h=2) = 0.578125\n"
            "class 0: zero-contrast-only-at-root pass\n"
            "class 0: contrast >= 0.003125 for height <= 2: pass\n"
            "class 1: zero-contrast-only-at-root pass\n"
            "class 1: contrast >= 0.001563 for height <= 2: pass\n"
            "leaf-weight identity: pass\n"
            "leaf-weight never raises the minimum: pass\n"
            "sufficient training size (delta=0.1, log(2/delta)=2.9957): 53934\n"
        )
        assert out.read_bytes() == (
            b"class,x,height,contrast,bound,pass\r\n"
            b"0,0,3,0.0,0.003125,\r\n"
            b"0,1,2,0.421875,0.003125,True\r\n"
            b"0,2,1,0.28125,0.003125,True\r\n"
            b"0,3,0,0.046875,0.003125,True\r\n"
            b"0,4,0,0.046875,0.003125,True\r\n"
            b"0,5,0,0.046875,0.003125,True\r\n"
            b"0,6,0,0.046875,0.003125,True\r\n"
            b"0,7,0,0.046875,0.003125,True\r\n"
            b"1,0,3,0.0,0.0015625,\r\n"
            b"1,1,2,0.421875,0.0015625,True\r\n"
            b"1,2,1,0.28125,0.0015625,True\r\n"
            b"1,3,0,0.046875,0.0015625,True\r\n"
            b"1,4,0,0.046875,0.0015625,True\r\n"
            b"1,5,0,0.046875,0.0015625,True\r\n"
            b"1,6,0,0.046875,0.0015625,True\r\n"
            b"1,7,0,0.046875,0.0015625,True\r\n"
            b"1,8,0,0.046875,0.0015625,True\r\n"
            b"1,9,0,0.046875,0.0015625,True\r\n"
            b"1,10,0,0.046875,0.0015625,True\r\n"
            b"1,11,0,0.046875,0.0015625,True\r\n"
            b"1,12,0,0.046875,0.0015625,True\r\n"
        )


class TestManifestErrors:
    def test_missing_tree_file_is_configuration_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("tree,class\n(()),a\n@absent.tree,b\n(()()),a\n")
        assert cli.run(["classify", str(manifest)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "absent.tree" in err
        assert "Traceback" not in err


class TestFileErrors:
    """A file that cannot be read or written is a configuration error."""

    def test_directory_as_input(self, tmp_path, capsys):
        assert cli.run(["reduce", str(tmp_path), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err

    def test_output_in_missing_directory(self, tmp_path, capsys):
        trees = tmp_path / "t.txt"
        trees.write_text("a(b())\n")
        out = tmp_path / "missing_dir" / "o.txt"
        assert cli.run(["reduce", str(trees), "--labeled", "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "missing_dir" in err


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        # Importing scipy.sparse alone costs about 22 MB of resident memory,
        # which every CLI run would pay; the library uses numpy only.
        src = os.path.dirname(os.path.dirname(os.path.abspath(dagkernel.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, dagkernel.cli; print('scipy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestReduce:
    def test_two_tree_output_golden(self, tmp_path, capsys):
        # The 15- and 11-vertex figure trees share their classes of heights
        # 0 to 2; vertex 7 is the artificial root above the two members.
        trees = tmp_path / "two.trees"
        trees.write_text(f"{FIG3_TREE}\n{FIG5_T2}\n")
        out = tmp_path / "two.dag"
        assert cli.run(["reduce", str(trees), "--out", str(out)]) == 0
        assert out.read_text() == (
            "0 0 -> \n"
            "1 1 -> (0,1)\n"
            "2 2 -> (0,1)(1,1)\n"
            "3 3 -> (2,2)\n"
            "4 3 -> (2,1)\n"
            "5 4 -> (0,1)(2,1)(3,1)\n"
            "6 4 -> (0,1)(2,1)(4,1)\n"
            "7 5 -> (5,1)(6,1)\n"
        )
        assert capsys.readouterr().out == "trees: 2\nvertices: 26 -> 7 (ratio 0.269)\n"


class TestExitCodes:
    """Every exit code of ``cli.run`` prints its stderr prefix and no traceback."""

    def run(self, argv, capsys):
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_unknown_option_is_usage_error(self, capsys):
        code, err = self.run(["reduce", "--nope"], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: ")

    def test_unclosed_bracket_is_parse_error(self, tmp_path, capsys):
        trees = tmp_path / "bad.trees"
        trees.write_text("(()\n")
        code, err = self.run(["reduce", str(trees), "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_PARSE
        assert err.startswith("parse error: unclosed '(' (at position 3)")

    def test_unclosed_element_is_parse_error(self, tmp_path, capsys):
        doc = tmp_path / "bad.html"
        doc.write_text("<a><b>")
        code, err = self.run(["ingest", str(doc), "--out", str(tmp_path / "m.csv")], capsys)
        assert code == cli.EXIT_PARSE
        assert err.startswith("parse error: unclosed element <a> ")

    def test_failed_assertion_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(trees, mode):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(cli, "reduce_forest", broken)
        trees = tmp_path / "two.trees"
        trees.write_text(f"{FIG3_TREE}\n{FIG5_T2}\n")
        code, err = self.run(["reduce", str(trees), "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_INTERNAL
        assert err.startswith("internal assertion failed: broken invariant")

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_is_configuration_error(self, tmp_path, capsys, repeats):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("tree,class\n" + "(()),a\n(()()),b\n" * 3)
        code, err = self.run(["classify", str(manifest), "--repeats", repeats], capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: repeats must be >= 1")


class TestExperimentConfig:
    def test_repeats_below_one_rejected(self):
        # run_experiment would return no outcomes at all.
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            ExperimentConfig("exponential", lam=0.5, repeats=0)
