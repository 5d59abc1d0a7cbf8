import os
import subprocess
import sys

import dagkernel
from dagkernel import cli

from conftest import FIG3_TREE, FIG5_T2


class TestSimulate:
    def test_default_arguments_pass(self, capsys):
        # The default model (height 3, rho 9/4, seed 0) satisfies every
        # closed-form check, so the command exits 0.
        assert cli.run(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "leaf-weight identity: pass" in out
        assert "FAIL" not in out


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
