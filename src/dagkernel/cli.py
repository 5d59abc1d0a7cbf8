"""Command-line interface.

Subcommands: ``reduce`` (compress tree files), ``gram`` (Gram matrix CSVs),
``classify`` (repeated split/train/predict protocol), ``simulate``
(two-class model checks), ``ingest`` (markup to trees), ``generate``
(synthetic corpus), ``viz`` (weight-scaled DOT), ``weights-hist`` (weight
distribution per height).

``gram`` and ``classify`` weight by ``--weight exp`` or ``--weight discr``.
``viz`` and ``weights-hist`` always learn discriminance weights; ``--seed``
picks their weight third when the manifest names no weight role.

Exit codes: 0 success, 1 usage, 2 parse error, 3 configuration error
(including a file that cannot be read or written), 4 internal assertion.
"""

from __future__ import annotations

import csv
import sys
from fractions import Fraction
from typing import Optional

import click
import numpy as np

from . import __version__
from .dag import format_dag, reduce_forest, reduce_tree
from .generate import generate_template_corpus
from .kernel import GramComputer, export_gram_csv
from .markup import MarkupParseError, markup_to_tree
from .model import (
    build_model,
    check_leaf_weight_effect,
    check_separation,
    edit_height_pmf,
    sufficient_size,
    unit_weight,
)
from .pipeline import (
    Dataset,
    ExperimentConfig,
    annotate_dataset,
    load_manifest,
    run_experiment,
    save_manifest,
    split_thirds,
    weights_for,
)
from .trees import TreeMode, TreeParseError, parse_tree_file, serialize_tree
from .viz import discriminance_dot
from .weights import ShapingFn, export_weight_table, weight_distribution_by_height

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    """Semantically invalid configuration (flags parse but cannot be run)."""


def _mode(order: str, labeled: bool) -> TreeMode:
    return TreeMode(ordered=(order == "ordered"), labeled=labeled)


mode_options = [
    click.option(
        "--mode",
        "order",
        type=click.Choice(["ordered", "unordered"]),
        default="unordered",
        show_default=True,
        help="Sibling-order semantics.",
    ),
    click.option("--labeled", is_flag=True, help="Labels participate in isomorphism."),
]


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@click.group()
@click.version_option(__version__)
def main():
    """Subtree kernels on trees via DAG compression."""


@main.command("reduce")
@click.argument("input_file", type=click.Path(exists=True))
@_add_options(mode_options)
@click.option("--out", type=click.Path(), required=True, help="Output DAG file.")
def cmd_reduce(input_file: str, order: str, labeled: bool, out: str):
    """Compress the trees of INPUT_FILE (one bracket tree per line)."""
    mode = _mode(order, labeled)
    with open(input_file) as fh:
        trees = list(parse_tree_file(fh, mode))
    if not trees:
        raise ConfigError(f"{input_file}: no trees found")
    total_vertices = sum(len(t) for t in trees)
    if len(trees) == 1:
        dag = reduce_tree(trees[0], mode)
        merged = len(dag)
    else:
        dag = reduce_forest(trees, mode)
        merged = len(dag) - 1  # artificial root is bookkeeping, not data
    with open(out, "w") as fh:
        fh.write(format_dag(dag))
    ratio = merged / total_vertices
    click.echo(f"trees: {len(trees)}")
    click.echo(f"vertices: {total_vertices} -> {merged} (ratio {ratio:.3f})")


def _config(weight, lam, shaping, eps, seed, repeats=1) -> ExperimentConfig:
    """The configuration that the weighting flags name."""
    if weight == "exp":
        return ExperimentConfig("exponential", lam=lam, repeats=repeats, seed=seed)
    return ExperimentConfig(
        "discriminance", shaping=ShapingFn.parse(shaping, eps), repeats=repeats, seed=seed
    )


shaping_options = [
    click.option(
        "--shaping",
        type=click.Choice(["id", "smooth", "smooth2", "thresh"]),
        default="smooth",
        show_default=True,
        help="Shaping function for discriminance weights.",
    ),
    click.option("--eps", type=float, default=0.3, show_default=True,
                 help="Threshold for --shaping thresh."),
]
weight_options = [
    click.option(
        "--weight",
        type=click.Choice(["exp", "discr"]),
        default="exp",
        show_default=True,
        help="Weight scheme.",
    ),
    click.option("--lambda", "lam", type=float, default=0.5, show_default=True,
                 help="Exponential decay per height unit."),
    *shaping_options,
]


@main.command("gram")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(weight_options)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-train", type=click.Path(), required=True)
@click.option("--out-pred", type=click.Path(), default=None)
def cmd_gram(manifest, order, labeled, weight, lam, shaping, eps, seed, out_train, out_pred):
    """Export training (and prediction) Gram matrices for external use.

    Roles come from the manifest when complete; otherwise a seeded stratified
    split assigns them.
    """
    dataset, roles = load_manifest(manifest, _mode(order, labeled))
    config = _config(weight, lam, shaping, eps, seed)
    if roles is None:
        split = split_thirds(dataset, seed, config.scheme)
        weight_idx, train_idx, pred_idx = split.weight, split.class_train, split.pred
    else:
        weight_idx, train_idx, pred_idx = roles["weight"], roles["train"], roles["pred"]
    if not train_idx:
        raise ConfigError("no training members")
    annotated = annotate_dataset(dataset)
    weights, _ = weights_for(annotated, dataset, config, weight_idx)
    computer = GramComputer(annotated, weights)
    g_train = computer.gram(train_idx, train_idx)
    with open(out_train, "w", newline="") as fh:
        export_gram_csv(g_train, train_idx, train_idx, fh)
    click.echo(f"train Gram: {len(train_idx)}x{len(train_idx)} -> {out_train}")
    if pred_idx and out_pred:
        g_pred = computer.gram(pred_idx, train_idx)
        with open(out_pred, "w", newline="") as fh:
            export_gram_csv(g_pred, pred_idx, train_idx, fh)
        click.echo(f"pred Gram: {len(pred_idx)}x{len(train_idx)} -> {out_pred}")


@main.command("classify")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(weight_options)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--repeats", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Per-repeat metrics CSV.")
def cmd_classify(manifest, order, labeled, weight, lam, shaping, eps, seed, repeats, out):
    """Run the repeated split / mean-similarity protocol and report metrics."""
    dataset, _ = load_manifest(manifest, _mode(order, labeled))
    if any(c is None for c in dataset.classes):
        raise ConfigError("classification needs a class for every tree")
    outcomes = run_experiment(dataset, _config(weight, lam, shaping, eps, seed, repeats))
    rows = [
        (r, o.metrics.accuracy, o.metrics.precision, o.metrics.recall, o.metrics.fscore)
        for r, o in enumerate(outcomes)
    ]
    if out:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["repeat", "accuracy", "precision", "recall", "fscore"])
            writer.writerows(rows)
    click.echo("repeat  accuracy  precision  recall  fscore")
    for r, acc, prec, rec, f1 in rows:
        click.echo(f"{r:6d}  {acc:8.4f}  {prec:9.4f}  {rec:6.4f}  {f1:6.4f}")
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    click.echo(
        f"  mean  {mean([r[1] for r in rows]):8.4f}  "
        f"{mean([r[2] for r in rows]):9.4f}  {mean([r[3] for r in rows]):6.4f}  "
        f"{mean([r[4] for r in rows]):6.4f}"
    )


@main.command("simulate")
@click.option("--height", type=int, default=3, show_default=True)
@click.option("--rho", type=str, default=None,
              help="Edit intensity in [0, height]; accepts fractions like 9/4.")
@click.option("--h", "h_level", type=int, default=None,
              help="Bound level (default: height - 1).")
@click.option("--delta", type=float, default=0.1, show_default=True,
              help="Risk level for the sufficient-size formula.")
@click.option("--leaf-weight", type=str, default="1", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Per-vertex report CSV.")
def cmd_simulate(height, rho, h_level, delta, leaf_weight, seed, out):
    """Build a verified two-class model and check its theoretical guarantees."""
    rho_f = Fraction(rho) if rho else None
    instance = build_model(height, seed=seed, rho=rho_f)
    h_level = height - 1 if h_level is None else h_level
    if not 0 <= h_level < height:
        raise ConfigError("--h must lie in [0, height)")
    report = check_separation(instance, unit_weight, h_level)
    leaf_w = Fraction(leaf_weight)
    plus = check_leaf_weight_effect(instance, unit_weight, leaf_w)
    pmf = edit_height_pmf(instance.height, instance.rho)
    size = sufficient_size(instance, unit_weight, h_level, delta)

    def flag(ok: bool) -> str:
        return "pass" if ok else "FAIL"

    click.echo(f"model: height={height} rho={instance.rho} seed={seed}")
    click.echo(f"conditioning mass G(h={h_level}) = {float(report.mass_low):.6f}")
    for entry in report.per_class:
        click.echo(
            f"class {entry.cls}: zero-contrast-only-at-root {flag(entry.root_iff_zero)}"
        )
        if report.applicable:
            click.echo(
                f"class {entry.cls}: contrast >= {float(entry.bound):.6f} "
                f"for height <= {h_level}: {flag(entry.bound_holds)}"
            )
        else:
            click.echo(
                f"class {entry.cls}: bound not asserted (rho <= height/2); "
                f"min low contrast {float(entry.min_contrast_low):.6f}"
            )
    click.echo(f"leaf-weight identity: {flag(plus.identity_holds)}")
    click.echo(f"leaf-weight never raises the minimum: {flag(plus.min_not_increased)}")
    click.echo(
        f"sufficient training size (delta={delta}, log(2/delta)="
        f"{np.log(2 / delta):.4f}): {size}"
    )
    if out:
        calc_entries = []
        for entry in plus.entries:
            tree = instance.tree(entry.cls)
            calc_entries.append(
                (
                    entry.cls,
                    entry.x,
                    tree.height(entry.x),
                    float(entry.contrast),
                    float(report.per_class[entry.cls].bound) if report.applicable else "",
                    (entry.contrast >= report.per_class[entry.cls].bound)
                    if report.applicable and tree.height(entry.x) <= h_level
                    else "",
                )
            )
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "x", "height", "contrast", "bound", "pass"])
            writer.writerows(calc_entries)
    ok = report.all_hold and plus.identity_holds and plus.min_not_increased
    if not ok:
        raise AssertionError("model checks failed")


@main.command("ingest")
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("--labeled/--unlabeled", default=True, show_default=True)
@click.option("--class-id", type=str, default="", help="Class for all inputs.")
@click.option("--out", type=click.Path(), required=True, help="Manifest CSV.")
@click.option("--trees-out", type=click.Path(), default=None,
              help="Also write one bracket tree per line.")
def cmd_ingest(inputs, labeled, class_id, out, trees_out):
    """Convert markup documents (files, or '-' for stdin) into a manifest."""
    if not inputs:
        raise ConfigError("no input documents")
    trees = []
    for name in inputs:
        if name == "-":
            text = sys.stdin.read()
        else:
            with open(name) as fh:
                text = fh.read()
        trees.append(markup_to_tree(text, labeled))
    mode = TreeMode(ordered=True, labeled=labeled)
    classes = tuple(0 if class_id else None for _ in trees)
    names = (class_id,) if class_id else None
    dataset = Dataset(tuple(trees), classes, mode, class_names=names)
    with open(out, "w", newline="") as fh:
        save_manifest(dataset, fh)
    if trees_out:
        with open(trees_out, "w") as fh:
            for tree in trees:
                fh.write(serialize_tree(tree) + "\n")
    click.echo(f"ingested {len(trees)} documents -> {out}")


@main.command("generate")
@click.option("--per-class", type=int, default=60, show_default=True)
@click.option("--edit-rate", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Manifest CSV.")
def cmd_generate(per_class, edit_rate, seed, out):
    """Generate the synthetic two-template markup corpus."""
    dataset = generate_template_corpus(per_class, edit_rate, seed)
    with open(out, "w", newline="") as fh:
        save_manifest(dataset, fh)
    click.echo(f"generated {len(dataset)} trees -> {out}")


def _discriminance(manifest, order, labeled, shaping, eps, seed):
    """The forest DAG of a manifest with discriminance weights learned from
    its ``weight`` role if non-empty, else from the seeded weight third if
    every tree has a class, else from every tree with a class."""
    dataset, roles = load_manifest(manifest, _mode(order, labeled))
    annotated = annotate_dataset(dataset)
    labeled_members = [i for i, c in enumerate(dataset.classes) if c is not None]
    if roles is not None and roles["weight"]:
        weight_idx = roles["weight"]
    elif len(labeled_members) == len(dataset):
        weight_idx = split_thirds(dataset, seed, "discriminance").weight
    elif labeled_members:
        weight_idx = labeled_members
    else:
        raise ConfigError("discriminance weights need class information")
    config = _config("discr", None, shaping, eps, seed)
    weights, profile = weights_for(annotated, dataset, config, weight_idx)
    return annotated.dag, weights, profile


@main.command("viz")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(shaping_options)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Picks the weight third when the manifest names no weight role.")
@click.option("--out", type=click.Path(), required=True, help="DOT file.")
def cmd_viz(manifest, order, labeled, shaping, eps, seed, out):
    """Render the dataset DAG scaled by learned discriminance weights."""
    dag, weights, profile = _discriminance(manifest, order, labeled, shaping, eps, seed)
    with open(out, "w") as fh:
        fh.write(discriminance_dot(dag, profile, weights))
    click.echo(f"DOT written -> {out}")


@main.command("weights-hist")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(shaping_options)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Picks the weight third when the manifest names no weight role.")
@click.option("--out", type=click.Path(), required=True, help="Histogram CSV.")
@click.option("--table-out", type=click.Path(), default=None,
              help="Also write the per-vertex weight table CSV.")
def cmd_weights_hist(manifest, order, labeled, shaping, eps, seed, out, table_out):
    """Export the per-height distribution of learned discriminance weights."""
    dag, weights, profile = _discriminance(manifest, order, labeled, shaping, eps, seed)
    rows = weight_distribution_by_height(dag, weights)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["height", "min", "q1", "median", "q3", "max", "mean"]
        )
        writer.writeheader()
        writer.writerows(rows)
    if table_out:
        with open(table_out, "w", newline="") as fh:
            export_weight_table(dag, profile, weights, fh)
    click.echo(f"histogram written -> {out}")


def run(argv: Optional[list[str]] = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except (TreeParseError, MarkupParseError) as exc:
        click.echo(f"parse error: {exc}", err=True)
        return EXIT_PARSE
    except (ConfigError, ValueError, OSError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        return EXIT_CONFIG
    except AssertionError as exc:
        click.echo(f"internal assertion failed: {exc}", err=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(run())
