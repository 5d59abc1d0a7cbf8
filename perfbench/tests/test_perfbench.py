"""Tests of the benchmark itself: seeded inputs, failure counting, tracing.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import os

import pytest

import calibrate
import checks as chk
import corpora
import layers
import run
from launcher import run_cli
from dagkernel import pipeline
from dagkernel.dag import reduce_forest
from dagkernel.pipeline import ExperimentConfig, annotate_dataset, load_manifest, run_experiment
from dagkernel.trees import TreeMode, parse_tree

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")


def _load(corpus, tmp_path):
    manifest = str(tmp_path / "manifest.csv")
    corpora.write_manifest(corpus, manifest)
    dataset, _ = load_manifest(manifest, TreeMode(ordered=corpus.ordered, labeled=True))
    return manifest, dataset


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: corpora.template_corpus(seed, per_class=30),
        lambda seed: corpora.random_corpus(seed, per_class=5, n_vertices=60),
    ],
    ids=["template", "random"],
)
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_template_corpus_shape():
    corpus = corpora.template_corpus(3, per_class=40)
    assert len(corpus.trees) == 80
    assert corpus.classes.count("c0") == corpus.classes.count("c1") == 40
    mode = TreeMode(ordered=True, labeled=True)
    # Edits swap in a filler of the edited vertex's height: height stays 4.
    assert {parse_tree(t, mode).height() for t in corpus.trees} == {4}


def test_random_corpus_sizes_and_cap():
    corpus = corpora.random_corpus(3, per_class=10, n_vertices=80)
    mode = TreeMode(ordered=False, labeled=True)
    trees = [parse_tree(t, mode) for t in corpus.trees]
    assert corpus.n_vertices == 20 * 80
    assert all(len(t) == 80 for t in trees)
    capped = [t for t, c in zip(trees, corpus.classes) if c == "c1"]
    assert max(t.outdegree() for t in capped) <= 3


def test_gram_oracle_passes_and_perturbed_entry_fails(tmp_path):
    _, dataset = _load(corpora.template_corpus(1, per_class=8), tmp_path)
    annotated = annotate_dataset(dataset)
    checks = chk.Checks()
    chk.check_gram_oracle(checks, dataset, annotated, seed=1)
    assert checks.attempted == 72 and checks.failed == 0

    exact = [[1.5, 0.25], [0.25, 2.0]]
    perturbed = [[1.5, 0.25 * (1 + 1e-8)], [0.25, 2.0]]
    checks = chk.Checks()
    chk.check_gram_entries(checks, perturbed, exact, "gram")
    assert (checks.attempted, checks.failed) == (4, 1)


def test_cli_pass_matches_library(tmp_path):
    manifest, dataset = _load(corpora.template_corpus(2, per_class=12), tmp_path)
    config = ExperimentConfig("exponential", lam=0.5, repeats=2, seed=5)
    library = [o.metrics.accuracy for o in run_experiment(dataset, config)]
    out = str(tmp_path / "out.csv")
    args = ["classify", manifest, "--mode", "ordered", "--labeled", "--weight", "exp",
            "--lambda", "0.5", "--repeats", "2", "--seed", "5", "--out", out]
    done = run_cli(args, _cli_env(), str(tmp_path / "cli.log"))
    checks = chk.Checks()
    chk.check_cli(checks, done, out, library)
    assert (checks.attempted, checks.failed) == (2, 0)
    assert done.peak_rss_mb > 0

    checks = chk.Checks()
    chk.check_cli(checks, done, out, [a + 0.01 for a in library])
    assert checks.failed == 1


def test_nonzero_cli_exit_counts_as_failure(tmp_path):
    manifest = tmp_path / "bad.csv"
    manifest.write_text("tree,class,role\na(b(),c0,\n")
    args = ["classify", str(manifest), "--mode", "ordered", "--labeled",
            "--out", str(tmp_path / "out.csv")]
    done = run_cli(args, _cli_env(), str(tmp_path / "cli.log"))
    assert done.returncode == 2
    checks = chk.Checks()
    chk.check_cli(checks, done, str(tmp_path / "out.csv"), [1.0])
    assert (checks.attempted, checks.failed) == (1, 1)


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = b"x" * (300 << 20)  # the benchmark process now holds 300 MB
    done = run_cli(["--version"], _cli_env(), str(tmp_path / "cli.log"))
    del ballast
    assert done.returncode == 0
    assert 0 < done.peak_rss_mb < 200


def test_reference_speed_scales_by_surrounding_calibrations():
    ref = calibrate.REFERENCE_S
    assert calibrate.at_reference_speed(3.0, ref, ref) == pytest.approx(3.0)
    # A host running at half speed doubles both the sample and the loop.
    assert calibrate.at_reference_speed(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert calibrate.at_reference_speed(6.0, ref, 3 * ref) == pytest.approx(3.0)
    assert calibrate.calibration_s() > 0


def test_self_time_subtracts_children():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert first.parent == second.parent == 0 and outer.parent is None
    self_times = tracer.self_times()
    assert self_times["inner"] == pytest.approx(first.duration + second.duration)
    assert self_times["outer"] == pytest.approx(
        outer.duration - first.duration - second.duration
    )


def _traced_protocol(manifest, config):
    tracer = layers.Tracer()
    with layers.instrumented(tracer) as kernel_work:
        dataset, annotated, accuracies = run.protocol(
            manifest, TreeMode(ordered=True, labeled=True), config
        )
    metrics = layers.layer_metrics(tracer, kernel_work, dataset, annotated, config.repeats)
    return accuracies, metrics


def test_traced_protocol_matches_library_and_restores_it(tmp_path):
    manifest, dataset = _load(corpora.template_corpus(4, per_class=9), tmp_path)
    config = ExperimentConfig("discriminance", repeats=2, seed=3)
    outcomes = run_experiment(dataset, config)
    library = [o.metrics.accuracy for o in outcomes]
    originals = {name: getattr(pipeline, name) for names in layers.LAYERS.values() for name in names}
    accuracies, metrics = _traced_protocol(manifest, config)
    assert accuracies == library
    assert originals == {name: getattr(pipeline, name) for name in originals}
    assert layers.absent_layers() == []
    assert metrics["trees.count"] == (18.0, "count")
    pairs = [
        len(o.split.class_train) * (len(o.split.class_train) + 1) // 2
        + len(o.split.pred) * len(o.split.class_train)
        for o in outcomes
    ]
    assert metrics["kernel.pairs"] == (sum(pairs) / config.repeats, "count")
    for name in layers.TIMED_SPANS:
        assert metrics[f"{name}_s"][0] > 0, name


def test_missing_layer_function_is_reported_absent(tmp_path, monkeypatch):
    manifest, _ = _load(corpora.template_corpus(4, per_class=9), tmp_path)
    # A library whose annotate_dataset no longer goes through reduce_forest.
    compress = reduce_forest
    monkeypatch.delattr(pipeline, "reduce_forest")
    monkeypatch.setattr(
        pipeline, "annotate_dataset",
        lambda dataset: pipeline.AnnotatedDag(compress(dataset.trees, dataset.mode)),
    )
    accuracies, metrics = _traced_protocol(manifest, ExperimentConfig("discriminance", repeats=2))
    assert layers.absent_layers() == ["dag"]
    assert metrics["dag.compress_s"] == (0.0, "s")
    assert metrics["annotate.build_s"][0] > 0
    assert len(accuracies) == 2
