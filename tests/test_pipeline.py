import numpy as np
import pytest

from dagkernel import (
    Dataset,
    ExperimentConfig,
    ShapingFn,
    TreeMode,
    annotate_dataset,
    evaluate,
    generate_template_corpus,
    mean_similarity_classify,
    parse_tree,
    pipeline,
    run_experiment,
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
        assert list(mean_similarity_classify(gram, [0, 0, 1])) == [0, 1]

    def test_ties_go_to_the_smaller_class(self):
        gram = np.array([[1.0, 3.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
        assert list(mean_similarity_classify(gram, [1, 1, 0, 2])) == [0, 0]

    def test_class_without_columns_is_an_error(self):
        with pytest.raises(ValueError, match="class 1 has no training columns"):
            mean_similarity_classify(np.ones((1, 2)), [0, 2])


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
            def reweight(self, weights):
                used.append(weights)
                super().reweight(weights)

        monkeypatch.setattr(pipeline, "GramComputer", Recording)
        run_experiment(data, config, annotated)
        assert len(used) == config.repeats
        for r, weights in enumerate(used):
            split = split_thirds(data, f"{config.seed}:{r}", config.scheme)
            expected, profile = weights_for(annotated, data, config, split.weight)
            assert np.array_equal(weights, expected)
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
