import os
import subprocess
import sys

import dagkernel
from dagkernel import cli


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
