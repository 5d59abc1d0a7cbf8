import io

import numpy as np
import pytest

from dagkernel import (
    Dataset,
    ExperimentConfig,
    ShapingFn,
    Split,
    TreeMode,
    annotate_dataset,
    evaluate,
    generate_template_corpus,
    load_manifest,
    mean_similarity_classify,
    parse_tree,
    pipeline,
    run_experiment,
    save_manifest,
    split_thirds,
    weights_for,
)

UNORDERED = TreeMode(ordered=False, labeled=False)


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


class TestEvaluate:
    def test_macro_metrics(self):
        report = evaluate([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert report.accuracy == 0.75
        # Class 0: precision 1/2, recall 1; class 1: precision 1, recall 2/3.
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(5 / 6)
        assert report.fscore == pytest.approx((2 / 3 + 0.8) / 2)
        assert [(c.tp, c.fp, c.tn, c.fn) for c in report.per_class] == [(1, 1, 2, 0), (2, 0, 1, 1)]

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

    def test_root_label_with_at_sign_is_not_written(self):
        # load_manifest reads a cell that starts with '@' as a tree file.
        labeled = TreeMode(ordered=True, labeled=True)
        trees = (parse_tree("a(@b())", labeled), parse_tree("@x(b())", labeled))
        out = io.StringIO()
        with pytest.raises(ValueError, match="member 1 cannot be written inline"):
            save_manifest(Dataset(trees, (0, 1), labeled), out)
        assert out.getvalue() == ""

    def test_inner_at_sign_round_trips(self, tmp_path):
        labeled = TreeMode(ordered=True, labeled=True)
        data = Dataset((parse_tree("a(@b())", labeled),), (0,), labeled)
        manifest = tmp_path / "m.csv"
        with open(manifest, "w", newline="") as out:
            save_manifest(data, out)
        assert load_manifest(str(manifest), labeled)[0].trees == data.trees
