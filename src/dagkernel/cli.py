"""Command-line interface.

Subcommands: ``reduce`` (compress tree files), ``gram`` (Gram matrix CSVs),
``classify`` (repeated split/train/predict protocol), ``simulate``
(two-class model checks), ``ingest`` (markup to trees), ``generate``
(synthetic corpus), ``viz`` (weight-scaled DOT), ``weights-hist`` (weight
distribution per height).

``reduce`` compresses all trees of its file into one forest DAG and writes
one line per vertex, ``id height label? -> (child,mult)*``: the subtree
classes in id order, then the artificial root above the member roots, also
when the file holds one tree.  Its ratio counts the classes only.

``gram`` and ``classify`` weight by ``--weight exp`` or ``--weight discr``.
``viz`` and ``weights-hist`` always learn discriminance weights; ``--seed``
picks their weight third when the manifest names no weight role.  The words
that select a weighting are this module's: ``_SHAPING_KINDS`` maps each
``--shaping`` word to the :class:`weights.ShapingFn` kind it names.

The library checks every input.  This module passes on every flag the user
gave, read by the chosen scheme or not, and maps library errors to exit
codes; it checks only what no library function sees (a fraction's zero
divisor, ``--rho`` at its ends, empty Gram sets, no ``ingest`` documents).

Each command imports what only it runs inside its body, after the docstring
that is its help text: ``simulate`` the model, ``ingest`` the markup parser,
``generate`` the corpus generator and ``viz`` the DOT writer.  ``run``
catches ``trees.ParseError``, the base of the tree and markup parse errors,
so ``classify`` loads no more than the classification pipeline.

Output paths are checked when the flags are read, before any work, and every
file goes through ``_write``: a command that fails on its outputs wrote none.

Exit codes: 0 success, 1 usage, 2 parse error (a malformed tree, document or
manifest row), 3 configuration error (any other ``ValueError``, a file that
cannot be read or written, two outputs naming one file), 4 internal assertion.
"""

from __future__ import annotations

import csv
import errno
import math
import os
import sys
import warnings
from typing import Optional

import click

from . import __version__
from .dag import format_dag, reduce_forest
from .kernel import GramComputer, export_gram_csv
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
from .trees import ParseError, TreeMode, parse_tree_file, serialize_tree
from .weights import ShapingFn, export_weight_table, weight_distribution_by_height

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


def _mode(order: str, labeled: bool) -> TreeMode:
    return TreeMode(ordered=(order == "ordered"), labeled=labeled)


def _fraction(option: str, text: str):
    """The exact rational number that ``text`` spells, like ``9/4``."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{option} {text} divides by zero") from None


class _Output(click.Path):
    """An output path; refused as a directory, in a missing directory or named by another output."""

    def convert(self, value, param, ctx):
        flag, path = param.opts[0], super().convert(value, param, ctx)
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        other = ctx.meta.setdefault(("output", os.path.realpath(path)), flag)
        if other != flag:
            raise ValueError(f"{flag} and {other} name the same file {path!r}")
        return path


def _write(path: Optional[str], write) -> None:
    """Call ``write`` on ``path`` opened for text; no path writes nothing."""
    if path is not None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write(fh)


def _table(header, rows):
    """The ``_write`` callback of a CSV file: ``header``, then ``rows``."""
    return lambda fh: csv.writer(fh).writerows([header, *rows])


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
@click.option("--out", type=_Output(), required=True, help="Output DAG file.")
def cmd_reduce(input_file: str, order: str, labeled: bool, out: str):
    """Compress the trees of INPUT_FILE (one bracket tree per line)."""
    mode = _mode(order, labeled)
    with open(input_file, encoding="utf-8-sig") as fh:
        trees = list(parse_tree_file(fh, mode))
    total_vertices = sum(len(t) for t in trees)
    dag = reduce_forest(trees, mode)
    merged = dag.root  # the artificial root is bookkeeping, not data
    _write(out, lambda fh: fh.write(format_dag(dag)))
    ratio = merged / total_vertices
    click.echo(f"trees: {len(trees)}")
    click.echo(f"vertices: {total_vertices} -> {merged} (ratio {ratio:.3f})")


# --shaping word -> ShapingFn kind; its keys, in this order, are the choices.
_SHAPING_KINDS = {"id": "identity", "smooth": "smoothstep", "smooth2": "smoothstep2",
                  "thresh": "threshold"}


def _config(weight, lam, shaping, eps, seed, repeats=1) -> ExperimentConfig:
    """The configuration that the weighting flags name: every value the user
    gave, for the library to refuse where unread, and the defaults it reads."""
    ctx = click.get_current_context()
    given = {name for name in ("lam", "shaping", "eps")
             if ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE}
    discr = weight == "discr"
    shaping_fn = (ShapingFn(_SHAPING_KINDS[shaping], eps if "eps" in given else None)
                  if discr or given & {"shaping", "eps"} else None)
    return ExperimentConfig("discriminance" if discr else "exponential",
                            lam=lam if "lam" in given or not discr else None,
                            shaping=shaping_fn, repeats=repeats, seed=seed)


shaping_options = [
    click.option(
        "--shaping",
        type=click.Choice(list(_SHAPING_KINDS)),
        default="smooth",
        show_default=True,
        help="Shaping function for discriminance weights.",
    ),
    click.option("--eps", type=float, default=ShapingFn("threshold").eps, show_default=True,
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
@click.option("--out-train", type=_Output(), required=True)
@click.option("--out-pred", type=_Output(), default=None)
def cmd_gram(manifest, order, labeled, weight, lam, shaping, eps, seed, out_train, out_pred):
    """Export training (and prediction) Gram matrices for external use.

    Roles come from the manifest when complete; otherwise a seeded stratified
    split assigns them.
    """
    dataset, roles = load_manifest(manifest, _mode(order, labeled))
    config = _config(weight, lam, shaping, eps, seed)
    split = roles or split_thirds(dataset, seed, config.scheme)
    train_idx, pred_idx = split.class_train, split.pred
    if not train_idx:
        raise ValueError("no training members")
    if out_pred and not pred_idx:
        raise ValueError("--out-pred needs prediction members, and the split has none")
    if split.weight and config.scheme == "exponential":
        click.echo("warning: exponential weights are not learned; the manifest's "
                   "weight rows go into neither Gram matrix", err=True)
    annotated = annotate_dataset(dataset)
    weights, _ = weights_for(annotated, dataset, config, split.weight)
    computer = GramComputer(annotated, weights)
    g_train = computer.gram(train_idx, train_idx)
    _write(out_train, lambda fh: export_gram_csv(g_train, train_idx, train_idx, fh))
    click.echo(f"train Gram: {len(train_idx)}x{len(train_idx)} -> {out_train}")
    if out_pred:
        g_pred = computer.gram(pred_idx, train_idx)
        _write(out_pred, lambda fh: export_gram_csv(g_pred, pred_idx, train_idx, fh))
        click.echo(f"pred Gram: {len(pred_idx)}x{len(train_idx)} -> {out_pred}")


@main.command("classify")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(weight_options)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--repeats", type=int, default=1, show_default=True)
@click.option("--out", type=_Output(), default=None, help="Per-repeat metrics CSV.")
def cmd_classify(manifest, order, labeled, weight, lam, shaping, eps, seed, repeats, out):
    """Run the repeated split / mean-similarity protocol and report metrics."""
    dataset, roles = load_manifest(manifest, _mode(order, labeled))
    if roles:  # every repeat draws its own seeded split
        click.echo("warning: classify draws its own split for every repeat; "
                   "the manifest's roles are ignored", err=True)
    outcomes = run_experiment(dataset, _config(weight, lam, shaping, eps, seed, repeats))
    rows = [
        (r, o.metrics.accuracy, o.metrics.precision, o.metrics.recall, o.metrics.fscore)
        for r, o in enumerate(outcomes)
    ]
    _write(out, _table(["repeat", "accuracy", "precision", "recall", "fscore"], rows))
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
              help="Edit intensity strictly between 0 and height; accepts fractions "
                   "like 9/4.")
@click.option("--h", "h_level", type=int, default=None,
              help="Bound level (default: height - 1).")
@click.option("--delta", type=float, default=0.1, show_default=True,
              help="Risk level for the sufficient-size formula.")
@click.option("--leaf-weight", type=str, default="1", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=_Output(), default=None, help="Per-vertex report CSV.")
def cmd_simulate(height, rho, h_level, delta, leaf_weight, seed, out):
    """Build a verified two-class model and check its theoretical guarantees."""
    from .model import (build_model, check_leaf_weight_effect, check_separation,
                        sufficient_size, unit_weight)

    rho_f = _fraction("--rho", rho) if rho else None
    # rho = 0 edits only leaves and rho = height only the root: a degenerate model.
    if rho_f is not None and not 0 < rho_f < height:
        raise ValueError("--rho must lie strictly between 0 and height")
    leaf_w = _fraction("--leaf-weight", leaf_weight)
    instance = build_model(height, seed=seed, rho=rho_f)
    h_level = height - 1 if h_level is None else h_level
    report = check_separation(instance, unit_weight, h_level)
    plus = check_leaf_weight_effect(instance, unit_weight, leaf_w)
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
        f"{math.log(2 / delta):.4f}): {size}"
    )
    _write(out, _table(["class", "x", "height", "contrast", "bound", "pass"], (
        (row.cls, row.x, row.height, float(row.contrast),
         float(report.per_class[row.cls].bound) if report.applicable else "",
         row.holds)  # None, where the bound is not asserted, writes ""
        for row in report.rows)))
    ok = report.all_hold and plus.identity_holds and plus.min_not_increased
    if not ok:
        raise AssertionError("model checks failed")


@main.command("ingest")
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("--labeled/--unlabeled", default=True, show_default=True)
@click.option("--class-id", type=str, default="", help="Class for all inputs.")
@click.option("--out", type=_Output(), required=True, help="Manifest CSV.")
@click.option("--trees-out", type=_Output(), default=None,
              help="Also write one bracket tree per line.")
def cmd_ingest(inputs, labeled, class_id, out, trees_out):
    """Convert markup documents (files, or '-' for stdin) into a manifest."""
    from .markup import markup_to_tree

    if not inputs:
        raise ValueError("no input documents")
    trees = []
    for name in inputs:
        with click.open_file(name, encoding="utf-8-sig") as fh:  # '-' is stdin
            trees.append(markup_to_tree(fh.read(), labeled))
    mode = TreeMode(ordered=True, labeled=labeled)
    classes = tuple(0 if class_id else None for _ in trees)
    names = (class_id,) if class_id else None
    dataset = Dataset(tuple(trees), classes, mode, class_names=names)
    save_manifest(dataset, out)
    _write(trees_out, lambda fh: fh.writelines(serialize_tree(t) + "\n" for t in trees))
    click.echo(f"ingested {len(trees)} documents -> {out}")


@main.command("generate")
@click.option("--per-class", type=int, default=60, show_default=True)
@click.option("--edit-rate", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=_Output(), required=True, help="Manifest CSV.")
def cmd_generate(per_class, edit_rate, seed, out):
    """Generate the synthetic two-template markup corpus."""
    from .generate import generate_template_corpus

    dataset = generate_template_corpus(per_class, edit_rate, seed)
    save_manifest(dataset, out)
    click.echo(f"generated {len(dataset)} trees -> {out}")


def _discriminance(manifest, order, labeled, shaping, eps, seed):
    """The forest DAG of a manifest with discriminance weights learned from
    its ``weight`` role if non-empty, else from the seeded weight third if
    every tree has a class, else from every tree with a class."""
    dataset, roles = load_manifest(manifest, _mode(order, labeled))
    config = _config("discr", None, shaping, eps, seed)
    labeled_members = [i for i, c in enumerate(dataset.classes) if c is not None]
    if roles and roles.weight:
        weight_idx = roles.weight
    elif len(labeled_members) == len(dataset):
        weight_idx = split_thirds(dataset, seed, "discriminance").weight
    else:
        weight_idx = labeled_members
    dataset.n_classes  # refuses a dataset with no classes before compression
    annotated = annotate_dataset(dataset)
    weights, profile = weights_for(annotated, dataset, config, weight_idx)
    return annotated.dag, weights, profile


@main.command("viz")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(shaping_options)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Picks the weight third when the manifest names no weight role.")
@click.option("--out", type=_Output(), required=True, help="DOT file.")
def cmd_viz(manifest, order, labeled, shaping, eps, seed, out):
    """Render the dataset DAG scaled by learned discriminance weights."""
    from .viz import discriminance_dot

    dag, weights, profile = _discriminance(manifest, order, labeled, shaping, eps, seed)
    _write(out, lambda fh: fh.write(discriminance_dot(dag, profile, weights)))
    click.echo(f"DOT written -> {out}")


@main.command("weights-hist")
@click.argument("manifest", type=click.Path(exists=True))
@_add_options(mode_options)
@_add_options(shaping_options)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Picks the weight third when the manifest names no weight role.")
@click.option("--out", type=_Output(), required=True, help="Histogram CSV.")
@click.option("--table-out", type=_Output(), default=None,
              help="Also write the per-vertex weight table CSV.")
def cmd_weights_hist(manifest, order, labeled, shaping, eps, seed, out, table_out):
    """Export the per-height distribution of learned discriminance weights."""
    dag, weights, profile = _discriminance(manifest, order, labeled, shaping, eps, seed)
    rows = weight_distribution_by_height(dag, weights)
    _write(out, _table(list(rows[0]), (row.values() for row in rows)))
    _write(table_out, lambda fh: export_weight_table(dag, profile, weights, fh))
    click.echo(f"histogram written -> {out}")


def run(argv: Optional[list[str]] = None) -> int:
    """Entry point with the documented exit-code mapping.  A warning that the
    library raises while a command runs prints as one ``warning: `` line on
    stderr, once per distinct message."""
    with warnings.catch_warnings():
        warnings.filterwarnings("default", module=r"dagkernel\.")
        warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
        try:
            main.main(args=argv, standalone_mode=False)
            return 0
        except click.exceptions.Abort:
            click.echo("aborted", err=True)
            return EXIT_USAGE
        except click.UsageError as exc:
            click.echo(f"usage error: {exc.format_message()}", err=True)
            return EXIT_USAGE
        except ParseError as exc:
            click.echo(f"parse error: {exc}", err=True)
            return EXIT_PARSE
        except (ValueError, OSError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            return EXIT_CONFIG
        except AssertionError as exc:
            click.echo(f"internal assertion failed: {exc}", err=True)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(run())
