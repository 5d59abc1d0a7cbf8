import csv
import itertools
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagkernel import (
    Dataset,
    ExperimentConfig,
    ParseError,
    ShapingFn,
    Split,
    TreeMode,
    TreeParseError,
    annotate_dataset,
    evaluate,
    generate_template_corpus,
    load_manifest,
    mean_similarity_classify,
    parse_tree,
    parse_tree_file,
    pipeline,
    run_experiment,
    save_manifest,
    serialize_tree,
    split_thirds,
    weights_for,
)

UNORDERED = TreeMode(ordered=False, labeled=False)
LABELED = TreeMode(ordered=True, labeled=True)

# Labels and class names with CSV delimiters, quotes, non-ASCII characters
# and '@'; class names may also hold inner spaces.
LABEL_CHARS = "a,\"'@é日"
LABELS = st.one_of(st.none(), st.text(LABEL_CHARS, min_size=1, max_size=3))
BRACKET_TREES = st.recursive(
    st.builds(lambda label: (label or "") + "()", LABELS),
    lambda kids: st.builds(lambda label, subtrees: (label or "") + "(" + "".join(subtrees) + ")",
                           LABELS, st.lists(kids, max_size=3)),
    max_leaves=6,
).filter(lambda text: not text.startswith("@"))
CLASS_NAMES = st.text(LABEL_CHARS + " ", min_size=1, max_size=4).filter(
    lambda name: name == name.strip())


@st.composite
def labeled_datasets(draw):
    """Labeled datasets in which every class names at least one member, so
    that the class names read back in the same sorted order."""
    names = sorted(draw(st.lists(CLASS_NAMES, max_size=3, unique=True)))
    extra = draw(st.lists(st.one_of(st.none(), st.integers(0, max(len(names) - 1, 0))),
                          min_size=0 if names else 1, max_size=4))
    classes = draw(st.permutations(list(range(len(names))) + extra))
    classes = [c if names else None for c in classes]
    trees = tuple(parse_tree(draw(BRACKET_TREES), LABELED) for _ in classes)
    return Dataset(trees, tuple(classes), LABELED, class_names=tuple(names) or None)


def manifest_targets(tmp_path):
    """A manifest path that holds a file of known bytes, and one that is free."""
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"tree,class,role\r\n(),a,\r\n")
    return existing, tmp_path / "absent.csv"


def assert_as_they_were(existing, absent):
    assert existing.read_bytes() == b"tree,class,role\r\n(),a,\r\n"
    assert not absent.exists()


def dataset(classes):
    """One small tree per member; the tree shapes do not matter for splits."""
    shapes = ["()", "(())", "(()())", "((()))"]
    trees = tuple(parse_tree(shapes[i % len(shapes)], UNORDERED) for i in range(len(classes)))
    return Dataset(trees, tuple(classes), UNORDERED)


class TestSplitThirds:
    CLASSES = [0] * 7 + [1] * 5 + [2] * 4

    @pytest.mark.parametrize("seed", [0, 1, "3:0", "3:1"])
    def test_stratified_thirds(self, seed):
        data = dataset(self.CLASSES)
        split = split_thirds(data, seed)
        thirds = (split.weight, split.class_train, split.pred)
        assert sorted(i for third in thirds for i in third) == list(range(len(data)))
        sizes = [len(third) for third in thirds]
        assert max(sizes) - min(sizes) <= 1
        for k in set(self.CLASSES):
            per_third = [sum(data.classes[i] == k for i in third) for third in thirds]
            assert max(per_third) - min(per_third) <= 1, (k, per_third)
        assert all(list(third) == sorted(third) for third in thirds)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_exponential_merges_the_first_two_thirds(self, seed):
        data = dataset(self.CLASSES)
        thirds = split_thirds(data, seed, "discriminance")
        merged = split_thirds(data, seed, "exponential")
        assert merged.weight == ()
        assert merged.class_train == tuple(sorted(thirds.weight + thirds.class_train))
        assert merged.pred == thirds.pred

    def test_same_seed_same_split(self):
        data = dataset(self.CLASSES)
        assert split_thirds(data, "7:2") == split_thirds(data, "7:2")

    def test_small_class_warns(self):
        data = dataset([0, 0, 0, 1, 1])
        with pytest.warns(UserWarning, match="class 1 has only 2 members"):
            split_thirds(data, 0)

    def test_member_without_class_is_an_error(self):
        data = dataset([0, None, 1, 0, 1])
        with pytest.raises(ValueError, match="member 1 has no class"):
            split_thirds(data, 0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            split_thirds(dataset([0, 1, 0]), 0, "uniform")


class TestMeanSimilarityClassify:
    def test_largest_mean_wins(self):
        gram = np.array([[4.0, 2.0, 1.0], [0.0, 1.0, 3.0]])
        # Class 0 holds columns 0 and 1 (means 3 and 0.5), class 1 column 2.
        assert list(mean_similarity_classify(gram, [0, 0, 1], 2)) == [0, 1]

    def test_ties_go_to_the_smaller_class(self):
        gram = np.array([[1.0, 3.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
        assert list(mean_similarity_classify(gram, [1, 1, 0, 2], 3)) == [0, 0]

    def test_class_without_columns_is_an_error(self):
        with pytest.raises(ValueError, match="class 1 has no training columns"):
            mean_similarity_classify(np.ones((1, 2)), [0, 2], 3)
        # The last class too: the class count is given, not read off the list.
        with pytest.raises(ValueError, match="class 1 has no training columns"):
            mean_similarity_classify(np.ones((1, 2)), [0, 0], 2)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_class_out_of_range_is_an_error(self, bad):
        # Such a column would otherwise count toward no class.
        gram = np.array([[1.0, 5.0, 0.0], [0.0, 0.0, 9.0]])
        with pytest.raises(ValueError, match=f"^class id {bad} out of range$"):
            mean_similarity_classify(gram, [0, bad, 1], 2)


class TestEvaluate:
    def test_macro_metrics(self):
        report = evaluate([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert report.accuracy == 0.75
        # Class 0: precision 1/2, recall 1; class 1: precision 1, recall 2/3.
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(5 / 6)
        assert report.fscore == pytest.approx((2 / 3 + 0.8) / 2)

    def test_zero_denominators_read_zero(self):
        # Class 1 is never predicted (precision 0/0) and never true (recall
        # 0/0); class 2 is neither; both count as 0 in the macro average.
        report = evaluate([0, 0], [0, 0], 3)
        assert report.accuracy == 1.0
        assert report.precision == pytest.approx(1 / 3)
        assert report.recall == pytest.approx(1 / 3)
        assert report.fscore == pytest.approx(1 / 3)

    def test_class_out_of_range(self):
        with pytest.raises(ValueError, match="class id 2 out of range"):
            evaluate([0, 2], [0, 1], 2)

    def test_no_predictions(self):
        with pytest.raises(ValueError, match="no predictions to evaluate"):
            evaluate([], [], 2)


class TestWeightsFor:
    CONFIGS = [
        ExperimentConfig("exponential", lam=0.3, repeats=3, seed=2),
        ExperimentConfig("discriminance", repeats=3, seed=2),
        ExperimentConfig("discriminance", shaping=ShapingFn("threshold", 0.2), repeats=3, seed=2),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=["exp", "discr", "discr-thresh"])
    def test_run_experiment_uses_its_weights(self, config, monkeypatch):
        data = generate_template_corpus(8, 0.3, 3)
        annotated = annotate_dataset(data)
        used = []

        class Recording(pipeline.GramComputer):
            def __init__(self, annotated, weights):
                super().__init__(annotated, weights)
                used.append(self)

        monkeypatch.setattr(pipeline, "GramComputer", Recording)
        run_experiment(data, config, annotated)
        assert len(used) == config.repeats
        # One computer per repeat, on that repeat's weight table.
        for r, computer in enumerate(used):
            split = split_thirds(data, f"{config.seed}:{r}", config.scheme)
            expected, profile = weights_for(annotated, data, config, split.weight)
            assert computer.annotated is annotated
            assert np.array_equal(computer.weights, expected)
            assert (profile is None) == (config.scheme == "exponential")

    @pytest.mark.parametrize("classes", [[0, None, 1, 0, 1], [None] * 3, [0, 1]],
                             ids=["unlabeled-row", "no-classes", "two-members"])
    def test_run_experiment_checks_classes_before_compression(self, classes, monkeypatch):
        def compressing(trees, mode):
            raise AssertionError("compressed before checking the classes")

        monkeypatch.setattr(pipeline, "reduce_forest", compressing)
        with pytest.raises(ValueError):
            run_experiment(dataset(classes), ExperimentConfig("discriminance"))

    def test_discriminance_needs_classes_for_the_weight_members(self):
        data = dataset([0, None, 1, 0, 1])
        config = ExperimentConfig("discriminance")
        with pytest.raises(ValueError, match="member 1 is in the weight-training set but has no class"):
            weights_for(annotate_dataset(data), data, config, [0, 1, 2])

    def test_exponential_ignores_the_weight_members(self):
        data = dataset([None, None, None])
        annotated = annotate_dataset(data)
        weights, profile = weights_for(annotated, data, ExperimentConfig("exponential", lam=0.5), ())
        assert profile is None
        assert list(weights) == [0.5 ** h for h in annotated.dag.heights()]


class TestManifest:
    def test_roles_name_a_split(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class,role\n(()),a,train\n(),b,weight\n"
                            "(()),b,pred\n(()()),a,Train\n")
        _, roles = load_manifest(str(manifest), UNORDERED)
        assert roles == Split(weight=(1,), class_train=(0, 3), pred=(2,))
        # One row without a role leaves the split to split_thirds.
        manifest.write_text("tree,class,role\n(()),a,train\n(),b,\n")
        assert load_manifest(str(manifest), UNORDERED)[1] is None

    def test_no_data_rows_name_no_split(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class,role\n")
        assert load_manifest(str(manifest), UNORDERED)[1] is None

    def test_root_label_with_at_sign_is_not_written(self, tmp_path):
        # load_manifest reads a cell that starts with '@' as a tree file.
        labeled = TreeMode(ordered=True, labeled=True)
        trees = (parse_tree("a(@b())", labeled), parse_tree("@x(b())", labeled))
        targets = manifest_targets(tmp_path)
        for out in targets:
            with pytest.raises(ValueError, match="member 1 cannot be written inline"):
                save_manifest(Dataset(trees, (0, 1), labeled), str(out))
        assert_as_they_were(*targets)

    @pytest.mark.parametrize("names", [(" x", "x"), ("x", "x "), ("",)])
    def test_class_name_that_reads_back_differently_is_not_written(self, tmp_path, names):
        # load_manifest strips each cell, and an empty cell means no class.
        data = Dataset((parse_tree("()", UNORDERED),) * len(names),
                       tuple(range(len(names))), UNORDERED, class_names=names)
        targets = manifest_targets(tmp_path)
        bad = next(name for name in names if name != name.strip() or not name)
        for out in targets:
            with pytest.raises(ValueError, match=f"class name {bad!r} cannot be written"):
                save_manifest(data, str(out))
        assert_as_they_were(*targets)

    @settings(max_examples=60, deadline=None)
    @given(labeled_datasets(), st.booleans())
    def test_round_trip(self, data, bom):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = os.path.join(tmp, "m.csv")
            save_manifest(data, manifest)
            if bom:  # as spreadsheet tools save it
                Path(manifest).write_bytes("\ufeff".encode() + Path(manifest).read_bytes())
            loaded, roles = load_manifest(manifest, LABELED)
        assert roles is None
        assert [serialize_tree(t) for t in loaded.trees] == [
            serialize_tree(t) for t in data.trees]
        assert loaded.classes == data.classes
        assert loaded.class_names == data.class_names

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # The manifest and its tree files may each start with a UTF-8 BOM.
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            (tmp_path / f"{name}.tree").write_text("b(c())\n", encoding=encoding)
            (tmp_path / f"{name}.csv").write_text(
                f"tree,class,role\n@{name}.tree,é,train\na(),x,pred\n", encoding=encoding)
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        plain, bom = (load_manifest(str(tmp_path / f"{name}.csv"), LABELED)
                      for name in ("plain", "bom"))
        assert bom == plain
        assert bom[0].class_names == ("x", "é")

    def test_tree_file_and_inline_row_share_one_tree(self, tmp_path):
        (tmp_path / "t.tree").write_text("(()())\n")
        (tmp_path / "m.csv").write_text("tree,class\n@t.tree,a\n(()()),b\n")
        data, _ = load_manifest(str(tmp_path / "m.csv"), UNORDERED)
        assert len(data) == 2 and data.trees[0] is data.trees[1]

    def test_inner_at_sign_round_trips(self, tmp_path):
        labeled = TreeMode(ordered=True, labeled=True)
        data = Dataset((parse_tree("a(@b())", labeled),), (0,), labeled)
        manifest = tmp_path / "m.csv"
        save_manifest(data, str(manifest))
        assert load_manifest(str(manifest), labeled)[0].trees == data.trees

    def test_cell_of_any_length_round_trips(self, tmp_path):
        # The csv module refuses cells over 131,072 characters by default.
        tree = parse_tree("r(" + "leaf_with_a_long_label()" * 6_000 + ")", LABELED)
        assert len(serialize_tree(tree)) > 131_072
        limit = csv.field_size_limit()
        manifest = tmp_path / "m.csv"
        save_manifest(Dataset((tree, tree), (0, None), LABELED, class_names=("x",)),
                      str(manifest))
        loaded, _ = load_manifest(str(manifest), LABELED)
        assert loaded.trees == (tree, tree)
        assert loaded.classes == (0, None)
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("lines_read, where", [(0, "the header"), (1, "row 1"),
                                                   (3, "row 3")])
    def test_row_that_csv_refuses_is_a_parse_error(self, tmp_path, monkeypatch, lines_read,
                                                   where):
        # On Python 3.10 csv refuses a NUL byte; a source that fails after
        # ``lines_read`` lines stands in for it on every version.
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n(()),a\n(),b\n(()()),a\n")
        reader = csv.DictReader

        def failing(fh):
            def lines():
                yield from itertools.islice(fh, lines_read)
                raise csv.Error("line contains NUL")
            return reader(lines())

        monkeypatch.setattr(csv, "DictReader", failing)
        limit = csv.field_size_limit()
        with pytest.raises(ParseError) as err:
            load_manifest(str(manifest), UNORDERED)
        assert str(err.value) == f"line contains NUL in {where} of {manifest}"
        assert csv.field_size_limit() == limit


def load_texts(loader, tmp_path, texts):
    """The trees of ``texts`` as manifest rows or as the lines of a tree file,
    and how an error names the 1-based row or line i."""
    if loader == "manifest":
        manifest = tmp_path / "m.csv"
        manifest.write_text("tree,class\n" + "".join(f"{text},a\n" for text in texts))
        return (lambda: load_manifest(str(manifest), UNORDERED)[0].trees,
                lambda i: f"row {i} of {manifest}")
    return (lambda: tuple(parse_tree_file([f"{text}\n" for text in texts], UNORDERED)),
            lambda i: f"line {i}")


@pytest.mark.parametrize("loader", ["manifest", "file"])
class TestInterning:
    """Both loaders parse each distinct tree text once and share its Tree."""

    def test_identical_texts_share_one_tree(self, tmp_path, loader):
        load, _ = load_texts(loader, tmp_path, ["(())", "()", "(())  ", "(())"])
        trees = load()
        assert len(trees) == 4
        assert trees[0] is trees[2] is trees[3]
        assert trees[1] is not trees[0] and trees[1] == parse_tree("()")

    @pytest.mark.parametrize("texts, bad_at", [
        (["()", "(()", "()", "()", "(()"], 2),  # a bad text repeats: its first row
        (["(())", "()", "(())", "(()"], 4),  # a repeat of a good text comes first
    ])
    def test_bad_text_is_named_at_its_first_place(self, tmp_path, loader, texts, bad_at):
        load, where = load_texts(loader, tmp_path, texts)
        with pytest.raises(TreeParseError) as err:
            load()
        assert err.value.position == 3
        assert str(err.value) == f"unclosed '(' (at position 3) in {where(bad_at)}"


class TestRepeatOutcome:
    @pytest.mark.parametrize("config", [ExperimentConfig("discriminance", repeats=2, seed=4),
                                        ExperimentConfig("exponential", lam=0.5, repeats=2)])
    def test_spectrum_is_that_of_the_train_gram(self, config):
        data = generate_template_corpus(30, 0.3, 1)
        annotated = annotate_dataset(data)
        for outcome in run_experiment(data, config, annotated):
            weights, _ = weights_for(annotated, data, config, outcome.split.weight)
            train = outcome.split.class_train
            eigs = np.linalg.eigvalsh(pipeline.GramComputer(annotated, weights).gram(train, train))
            norm = max(abs(eigs[0]), abs(eigs[-1]))
            assert outcome.spectral_norm == pytest.approx(norm, rel=1e-12, abs=0.0)
            assert abs(outcome.min_eigenvalue - eigs[0]) <= 1e-9 * norm
