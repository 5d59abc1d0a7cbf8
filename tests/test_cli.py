import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dagkernel
from dagkernel import ExperimentConfig, ShapingFn, TreeMode, TreeParseError, cli, load_manifest

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


    def test_bad_tree_names_its_row(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),a\n(((),b\n")
        assert cli.run(["classify", str(manifest)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: unclosed '(' (at position 4) in row 2 of {manifest}\n"

    def test_bad_tree_file_names_its_row(self, tmp_path):
        (tmp_path / "bad.tree").write_text("(()\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),a\n(()()),b\n@bad.tree,a\n")
        with pytest.raises(TreeParseError) as err:
            load_manifest(str(manifest), TreeMode(ordered=False, labeled=False))
        assert err.value.position == 3
        assert str(err.value) == f"unclosed '(' (at position 3) in row 3 of {manifest}"


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


def _child(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dagkernel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        # Importing scipy.sparse alone costs about 22 MB of resident memory,
        # which every CLI run would pay; the library uses numpy only.
        code = "import sys, dagkernel.cli; print('scipy' in sys.modules)"
        assert _child(code).strip() == "False"

    def test_classify_loads_only_what_it_runs(self):
        # The model, the generator, the markup parser and the DOT writer (with
        # the fractions and html.parser modules they pull in) are for other
        # commands; every classify run would pay for compiling them.
        manifest = GOLDEN / "generate" / "m.csv"
        code = ("import sys\n"
                "from dagkernel import cli\n"
                f"assert cli.run(['classify', {str(manifest)!r}, *{ORDERED_LABELED!r}]) == 0\n"
                "print(' '.join(sorted(sys.modules)))")
        loaded = set(_child(code).splitlines()[-1].split())  # after classify's table
        assert "dagkernel.pipeline" in loaded
        unwanted = {"dagkernel.model", "dagkernel.generate", "dagkernel.markup",
                    "dagkernel.viz", "fractions", "html.parser"}
        assert not loaded & unwanted

    def test_package_import_loads_no_submodule(self):
        code = ("import sys, dagkernel\n"
                "print([m for m in sys.modules if m.startswith('dagkernel.')])")
        assert _child(code).strip() == "[]"


class TestNamespace:
    """``dagkernel`` resolves its public names on first access."""

    def test_every_public_name_imports(self):
        for name in dagkernel.__all__:
            exec(f"from dagkernel import {name}", {})
        assert set(dagkernel.__all__) <= set(dir(dagkernel))

    def test_module_lists_agree(self):
        for module, names in dagkernel._EXPORTS.items():
            submodule = importlib.import_module(f"dagkernel.{module}")
            assert set(submodule.__all__) == set(names), module

    def test_all_holds_no_module(self):
        assert not [n for n in dagkernel.__all__
                    if isinstance(getattr(dagkernel, n), types.ModuleType)]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            dagkernel.nope  # noqa: B018
        with pytest.raises(ImportError):
            exec("from dagkernel import nope", {})

    def test_parse_errors_share_a_base(self):
        assert issubclass(dagkernel.TreeParseError, dagkernel.ParseError)
        assert issubclass(dagkernel.MarkupParseError, dagkernel.ParseError)
        assert issubclass(dagkernel.ParseError, ValueError)


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

    def test_one_tree_output_golden(self, tmp_path, capsys):
        # One tree is a forest of one member: its 5 classes, then the
        # artificial root 5 above the tree's root 4.
        trees = tmp_path / "one.trees"
        trees.write_text(f"{FIG3_TREE}\n")
        out = tmp_path / "one.dag"
        assert cli.run(["reduce", str(trees), "--out", str(out)]) == 0
        assert out.read_text() == (
            "0 0 -> \n"
            "1 1 -> (0,1)\n"
            "2 2 -> (0,1)(1,1)\n"
            "3 3 -> (2,2)\n"
            "4 4 -> (0,1)(2,1)(3,1)\n"
            "5 5 -> (4,1)\n"
        )
        assert capsys.readouterr().out == "trees: 1\nvertices: 15 -> 5 (ratio 0.333)\n"


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

    def test_bad_tree_names_its_line(self, tmp_path, capsys):
        # Lines count from 1, blank ones included.
        trees = tmp_path / "bad.trees"
        trees.write_text("(())\n\n()a\n")
        code, err = self.run(["reduce", str(trees), "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_PARSE
        assert err == "parse error: expected '(' (at position 3) in line 3\n"

    def test_unclosed_element_is_parse_error(self, tmp_path, capsys):
        doc = tmp_path / "bad.html"
        doc.write_text("<a><b>")
        code, err = self.run(["ingest", str(doc), "--out", str(tmp_path / "m.csv")], capsys)
        assert code == cli.EXIT_PARSE
        assert err.startswith("parse error: unclosed element <a> ")

    def test_tag_that_is_no_label_is_parse_error(self, tmp_path, capsys):
        doc = tmp_path / "bad.html"
        doc.write_text("<a><b(c></b(c></a>")
        out = tmp_path / "m.csv"
        code, err = self.run(["ingest", str(doc), "--out", str(out)], capsys)
        assert code == cli.EXIT_PARSE
        assert err.startswith("parse error: invalid label 'b(c'")
        assert err.endswith(" (line 1, column 3)\n")
        # Unlabeled ingestion drops the tags, so the document converts.
        assert cli.run(["ingest", str(doc), "--out", str(out), "--unlabeled"]) == 0
        assert out.read_text().splitlines()[1] == "(()),,"

    def test_unknown_role_names_its_row(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class,role\n(()),a,train\n(),b,bogus\n")
        code, err = self.run(["classify", str(manifest)], capsys)
        assert code == cli.EXIT_CONFIG
        assert err == f"configuration error: unknown role 'bogus' in row 2 of {manifest}\n"

    def test_missing_tree_file_names_its_row(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),a\n@missing.txt,b\n")
        code, err = self.run(["classify", str(manifest)], capsys)
        assert code == cli.EXIT_CONFIG
        assert err == ("configuration error: cannot read @missing.txt "
                       f"(No such file or directory) in row 2 of {manifest}\n")

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


    @pytest.mark.parametrize("argv", [["--delta", "2"], ["--delta", "0"], ["--h", "5"],
                                      ["--rho", "1/0"], ["--leaf-weight", "1/0"]])
    def test_bad_simulate_option_prints_no_report(self, capsys, argv):
        code = cli.run(["simulate", *argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err.startswith("configuration error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_library_warning_is_one_stderr_line(self, tmp_path, capsys):
        # Class b has 2 members, too few for one in each third.
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),a\n(()()),a\n((())),a\n(()),b\n(()()()),b\n")
        code, err = self.run(["classify", str(manifest), "--weight", "discr"], capsys)
        assert code == cli.EXIT_CONFIG
        assert err == ("warning: class 1 has only 2 members; it cannot reach every third\n"
                       "configuration error: class 1 has no training columns\n")

    def test_viz_without_classes(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),\n(()()),\n((())),\n")
        code, err = self.run(["viz", str(manifest), "--out", str(tmp_path / "w.dot")], capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: ")
        assert not (tmp_path / "w.dot").exists()

    def test_gram_weight_row_without_class(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "tree,class,role\n(()),,weight\n(()()),a,weight\n(()),b,weight\n"
            "(()),a,train\n(()()),b,train\n(()),a,pred\n"
        )
        code, err = self.run(["gram", str(manifest), "--weight", "discr",
                              "--out-train", str(tmp_path / "g.csv")], capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("configuration error: ")
        assert not (tmp_path / "g.csv").exists()

    def test_gram_pred_output_without_pred_members(self, tmp_path, capsys):
        # The manifest's roles name no prediction member, so there is no
        # prediction Gram to write; the training Gram is not written either.
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class,role\n(()),a,weight\n(()()),b,weight\n"
                            "(()),a,train\n(()()),b,train\n")
        code, err = self.run(["gram", str(manifest), "--out-train", str(tmp_path / "tr.csv"),
                              "--out-pred", str(tmp_path / "pr.csv")], capsys)
        assert code == cli.EXIT_CONFIG
        assert err == ("configuration error: --out-pred needs prediction members, "
                       "and the split has none\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    @pytest.mark.parametrize("command", ["viz", "weights-hist"])
    @pytest.mark.parametrize("option", [["--weight", "discr"], ["--lambda", "0.9"]])
    def test_learned_weights_take_no_scheme_options(self, tmp_path, capsys, command, option):
        # viz and weights-hist always learn discriminance weights.
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),a\n(()()),b\n((())),a\n")
        code, err = self.run([command, str(manifest), *option, "--out", str(tmp_path / "o")],
                             capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: ")
        assert option[0] in err


class TestExperimentConfig:
    def test_repeats_below_one_rejected(self):
        # run_experiment would return no outcomes at all.
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            ExperimentConfig("exponential", lam=0.5, repeats=0)

    # A value that the scheme does not read must not be silently ignored.
    def test_lambda_under_discriminance_rejected(self):
        with pytest.raises(ValueError, match="discriminance scheme takes no lambda"):
            ExperimentConfig("discriminance", lam=0.5)

    def test_shaping_under_exponential_rejected(self):
        with pytest.raises(ValueError, match="exponential scheme takes no shaping function"):
            ExperimentConfig("exponential", lam=0.5, shaping=ShapingFn("smoothstep"))


# -- golden outputs ---------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
ORDERED_LABELED = ["--mode", "ordered", "--labeled"]
# Markup with void elements (<meta>, <br>, <img>), self-closing tags, an
# implicitly closed <li>, a comment and a doctype.
DOCUMENTS = {
    "page.html": (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'><title>t</title></head>\n"
        "<body><p>a<br>b<img src='x.png'/></p><!-- note -->\n"
        "<ul><li>one<li>two</ul><hr/><svg><path d=''/></svg></body></html>\n"
    ),
    "note.xml": "<note><to/><from>me</from><body><b>hi</b><br></body></note>",
}
# Each case: the argv, run in a directory holding the named inputs (the
# generated manifest or DOCUMENTS).  tests/golden/<case>/ holds the expected
# stdout and every file the run writes, byte for byte.  The Gram cases use
# weights whose products sum exactly (powers of 1/2, or 0/1 under thresh), so
# the BLAS summation order cannot change their bytes.
GOLDEN_CASES = {
    "generate": (["generate", "--per-class", "8", "--seed", "3", "--out", "m.csv"], ()),
    "viz": (["viz", "m.csv", *ORDERED_LABELED, "--shaping", "smooth2",
             "--out", "weights.dot"], ("m.csv",)),
    "weights-hist": (["weights-hist", "m.csv", *ORDERED_LABELED, "--out", "hist.csv",
                      "--table-out", "table.csv"], ("m.csv",)),
    "gram-exp": (["gram", "m.csv", *ORDERED_LABELED, "--weight", "exp",
                  "--out-train", "train.csv", "--out-pred", "pred.csv"], ("m.csv",)),
    "gram-discr": (["gram", "m.csv", *ORDERED_LABELED, "--weight", "discr", "--shaping", "thresh",
                    "--eps", "0.2", "--out-train", "train.csv", "--out-pred", "pred.csv"],
                   ("m.csv",)),
    "classify-discr": (["classify", "m.csv", *ORDERED_LABELED, "--repeats", "2",
                        "--weight", "discr", "--out", "metrics.csv"], ("m.csv",)),
    "classify-exp": (["classify", "m.csv", *ORDERED_LABELED, "--repeats", "2",
                      "--lambda", "0.3"], ("m.csv",)),
    "ingest": (["ingest", "page.html", "note.xml", "--class-id", "web", "--out", "m.csv",
                "--trees-out", "trees.txt"], tuple(DOCUMENTS)),
    # rho <= height/2: the bound is not asserted, so the CSV's bound and pass
    # columns are empty.
    "simulate-low-rho": (["simulate", "--height", "4", "--rho", "1", "--out", "report.csv"],
                         ()),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, tmp_path, monkeypatch, capsys):
    argv, inputs = GOLDEN_CASES[case]
    sources = {"m.csv": (GOLDEN / "generate" / "m.csv").read_bytes(),
               **{name: text.encode() for name, text in DOCUMENTS.items()}}
    for name in inputs:
        (tmp_path / name).write_bytes(sources[name])
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv) == 0
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name not in inputs}
    got["stdout"] = capsys.readouterr().out.encode()
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


# -- golden help ------------------------------------------------------------------------

COMMANDS = ["classify", "generate", "gram", "ingest", "reduce", "simulate", "viz",
            "weights-hist"]
# tests/golden/help/<case> holds the expected stdout.  A command's help is its
# docstring, so a statement placed above the docstring shows here.
HELP_CASES = {"version": ["--version"], "help": ["--help"],
              **{f"{command}-help": [command, "--help"] for command in COMMANDS}}


def test_every_command_has_golden_help():
    assert sorted(cli.main.commands) == COMMANDS
    assert sorted(p.name for p in (GOLDEN / "help").iterdir()) == sorted(HELP_CASES)


@pytest.mark.parametrize("case", sorted(HELP_CASES))
def test_golden_help(case, capsys):
    # A fixed program name and width keep the text independent of how the
    # tests are started and of the terminal.
    code = cli.main.main(args=HELP_CASES[case], prog_name="dagkernel", standalone_mode=False,
                         terminal_width=80)
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "help" / case).read_bytes()
