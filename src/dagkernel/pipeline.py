"""End-to-end classification protocol on tree datasets.

A dataset is split into stratified random thirds: one to learn the weight
function (discriminance only), one to train a classifier, one to predict.
Under exponential weights nothing is learned, so the first two thirds merge
into a single training pool.  :func:`weights_for` is the one place that
turns an :class:`ExperimentConfig` into a weight table; the experiment loop
and every CLI command reach the weighting scheme through it.

The shipped classifier is the mean-similarity rule: predict the class whose
training members have the largest average kernel value against the query
(ties go to the smaller class id).  Gram matrices are exported so external
kernel machines can be used instead.
"""

from __future__ import annotations

import csv
import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dag import AnnotatedDag, reduce_forest
from .kernel import GramComputer, min_eig_and_norm
from .trees import ParseError, Tree, TreeMode, _interning_parser, parse_tree, serialize_tree
from .weights import (ClassProfile, ShapingFn, class_profile, discriminance_weights,
                      exponential_weights)


@dataclass(frozen=True)
class Split:
    """Disjoint member-index sets: weight-training, classifier-training,
    prediction.  ``weight`` is empty under the exponential scheme."""

    weight: tuple[int, ...]
    class_train: tuple[int, ...]
    pred: tuple[int, ...]


@dataclass(frozen=True)
class Dataset:
    """Indexed trees with class ids (``None`` for unlabeled members)."""

    trees: tuple[Tree, ...]
    classes: tuple[Optional[int], ...]
    mode: TreeMode
    class_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if len(self.trees) != len(self.classes):
            raise ValueError("trees and classes must have equal length")

    def __len__(self) -> int:
        return len(self.trees)

    @cached_property  # read once per repeat by weights_for
    def n_classes(self) -> int:
        known = [c for c in self.classes if c is not None]
        if not known:
            raise ValueError("dataset has no class information")
        return max(known) + 1


def annotate_dataset(dataset: Dataset) -> AnnotatedDag:
    """Reduce the whole dataset to one forest DAG and annotate it."""
    return AnnotatedDag(reduce_forest(dataset.trees, dataset.mode))


def split_thirds(dataset: Dataset, seed, scheme: str = "discriminance") -> Split:
    """Stratified-by-class random thirds.

    Under ``scheme="exponential"`` the first two thirds merge into the
    training pool and the weight set stays empty.  Total third sizes differ
    by at most one.  A class with fewer than 3 members cannot appear in all
    thirds; that raises a warning, not an error.
    """
    if scheme not in ("exponential", "discriminance"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(dataset) < 3:
        raise ValueError("need at least 3 members to split in thirds")
    by_class: dict[int, list[int]] = {}
    for i, c in enumerate(dataset.classes):
        if c is None:
            raise ValueError(f"member {i} has no class; cannot stratify")
        by_class.setdefault(c, []).append(i)
    rng = random.Random(str(seed))
    thirds: tuple[list[int], ...] = ([], [], [])
    cursor = rng.randrange(3)
    for c in sorted(by_class):
        members = by_class[c]
        if len(members) < 3 and scheme == "discriminance":
            warnings.warn(
                f"class {c} has only {len(members)} members; "
                "it cannot reach every third"
            )
        rng.shuffle(members)
        for i in members:
            thirds[cursor % 3].append(i)
            cursor += 1
    first, second, third = (tuple(sorted(t)) for t in thirds)
    if scheme == "exponential":
        return Split((), tuple(sorted(first + second)), third)
    return Split(first, second, third)


def mean_similarity_classify(
    gram_pred: np.ndarray, train_classes: Sequence[int], n_classes: int
) -> np.ndarray:
    """Predict, for every row, the class in 0..n_classes-1 with the largest
    mean kernel value over its training columns; ties break toward the
    smaller class id.  Every class needs at least one training column."""
    train_classes = np.asarray(train_classes)
    if gram_pred.shape[1] != len(train_classes):
        raise ValueError("column count must match the training class list")
    bad = train_classes[(train_classes < 0) | (train_classes >= n_classes)]
    if bad.size:
        raise ValueError(f"class id {bad[0]} out of range")
    means = np.empty((gram_pred.shape[0], n_classes))
    for k in range(n_classes):
        members = train_classes == k
        if not members.any():
            raise ValueError(f"class {k} has no training columns")
        means[:, k] = gram_pred[:, members].mean(axis=1)
    return np.argmax(means, axis=1)


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus one-vs-rest precision/recall/F-score, macro-averaged
    over the classes.  Zero-denominator metrics are defined as 0."""

    accuracy: float
    precision: float
    recall: float
    fscore: float


def evaluate(
    predicted: Sequence[int], truth: Sequence[int], n_classes: int
) -> MetricsReport:
    predicted, truth = list(predicted), list(truth)
    if len(predicted) != len(truth):
        raise ValueError("prediction and truth lengths differ")
    if not truth:
        raise ValueError("no predictions to evaluate")
    for y in predicted + truth:
        if not 0 <= y < n_classes:
            raise ValueError(f"class id {y} out of range")
    n, k = len(truth), n_classes
    # Row: true class, column: predicted class; so a column sums to the
    # predictions of its class, and a row to the true members of its class.
    confusion = np.bincount(np.asarray(truth, np.int64) * k + np.asarray(predicted, np.int64),
                            minlength=k * k).reshape(k, k)
    tp = np.diag(confusion).tolist()
    precisions = [t / p if p else 0.0 for t, p in zip(tp, confusion.sum(axis=0).tolist())]
    recalls = [t / c if c else 0.0 for t, c in zip(tp, confusion.sum(axis=1).tolist())]
    fscores = [2 * p * r / (p + r) if p + r else 0.0 for p, r in zip(precisions, recalls)]
    return MetricsReport(sum(tp) / n, sum(precisions) / k, sum(recalls) / k, sum(fscores) / k)


# -- repeated experiments -------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str  # "exponential" | "discriminance"
    lam: Optional[float] = None
    shaping: Optional[ShapingFn] = None
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.scheme == "exponential":
            if self.lam is None:
                raise ValueError("exponential scheme needs a lambda")
            if self.shaping is not None:
                raise ValueError("exponential scheme takes no shaping function")
        elif self.scheme == "discriminance":
            if self.lam is not None:
                raise ValueError("discriminance scheme takes no lambda")
            if self.shaping is None:
                object.__setattr__(self, "shaping", ShapingFn("smoothstep"))
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")


def weights_for(
    annotated: AnnotatedDag,
    dataset: Dataset,
    config: ExperimentConfig,
    weight_idx: Sequence[int],
) -> tuple[np.ndarray, Optional[ClassProfile]]:
    """``config``'s weight table, and the class profile it was learned from
    the ``weight_idx`` members (the exponential scheme learns nothing: None)."""
    if config.scheme == "exponential":
        return exponential_weights(annotated.dag, config.lam), None
    profile = class_profile(annotated, dataset.classes, weight_idx, dataset.n_classes)
    return discriminance_weights(profile, config.shaping), profile


@dataclass(frozen=True)
class RepeatOutcome:
    """One repeat: its split, its metrics, and two spectral figures of its
    classifier-training Gram (`min_eig_and_norm`): ``min_eigenvalue``, its
    smallest eigenvalue, which is non-negative up to rounding under
    non-negative weights (the Gram is then positive semidefinite), and
    ``spectral_norm``, its largest eigenvalue in absolute value."""

    split: Split
    metrics: MetricsReport
    min_eigenvalue: float
    spectral_norm: float


def run_experiment(
    dataset: Dataset,
    config: ExperimentConfig,
    annotated: Optional[AnnotatedDag] = None,
) -> list[RepeatOutcome]:
    """Repeated split / weight / Gram / classify / evaluate runs.

    The dataset annotation is built once and shared across repeats (pass a
    prebuilt one to share it across configurations as well); each repeat
    evaluates its Grams with one :class:`GramComputer` on its own weight table.
    The classes are checked and every split is drawn before any compression,
    so bad class input fails first.
    """
    n_classes = dataset.n_classes
    splits = [split_thirds(dataset, f"{config.seed}:{r}", config.scheme)
              for r in range(config.repeats)]
    if annotated is None:
        annotated = annotate_dataset(dataset)
    outcomes = []
    for split in splits:
        weights, _ = weights_for(annotated, dataset, config, split.weight)
        computer = GramComputer(annotated, weights)
        g_train = computer.gram(split.class_train, split.class_train)
        g_pred = computer.gram(split.pred, split.class_train)
        train_classes = [dataset.classes[i] for i in split.class_train]
        predicted = mean_similarity_classify(g_pred, train_classes, n_classes)
        truth = [dataset.classes[i] for i in split.pred]
        metrics = evaluate(predicted, truth, n_classes)
        min_eig, norm = min_eig_and_norm(g_train)
        outcomes.append(RepeatOutcome(split, metrics, min_eig, norm))
    return outcomes


# -- manifest files --------------------------------------------------------------------


def load_manifest(path: str, mode: TreeMode) -> tuple[Dataset, Optional[Split]]:
    """Read a dataset manifest: CSV with header ``tree,class,role``.

    The tree column holds inline bracket text, or ``@relative/path`` to a
    file containing one bracket tree.  Classes may be arbitrary strings; they
    are mapped to ids 0..K-1 in sorted order (``class_names`` records the
    mapping).  Roles, when there are rows and each has one, must be one of
    weight / train / pred and are returned as the :class:`Split` they name.
    Every error about a row (a bad tree, a row that ``csv`` refuses, an
    unreadable tree file, an unknown role) names its 1-based data row, e.g.
    ``in row 2 of m.csv``; a tree's error position counts from the start of
    its cell or file.  Rows with identical tree text (after the ``@file``
    read and ``rstrip``) share one `Tree`, parsed once, so a bad text is
    named at its first row.  Cells may be of any length.  The manifest and
    its tree files are read as UTF-8; a leading byte-order mark is skipped.
    """
    import os

    base = os.path.dirname(os.path.abspath(path))
    tree_of = _interning_parser(parse_tree, mode)
    trees: list[Tree] = []
    raw_classes: list[Optional[str]] = []
    roles: list[Optional[str]] = []
    # csv refuses cells over 131,072 characters; 2**31 - 1 fits every C long.
    limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "tree" not in reader.fieldnames:
                raise ValueError(f"{path}: manifest needs a header with a 'tree' column")
            for row_number, row in enumerate(reader, 1):
                where = f"row {row_number} of {path}"
                text = (row.get("tree") or "").rstrip()
                reference = text.lstrip()
                if reference.startswith("@"):
                    try:
                        with open(os.path.join(base, reference[1:]), encoding="utf-8-sig") as tf:
                            text = tf.read().rstrip()
                    except OSError as exc:
                        raise ValueError(
                            f"cannot read {reference} ({exc.strerror or exc}) in {where}") from exc
                trees.append(tree_of(text, where))
                cls = (row.get("class") or "").strip()
                raw_classes.append(cls or None)
                role = (row.get("role") or "").strip().lower()
                if role and role not in ("weight", "train", "pred"):
                    raise ValueError(f"unknown role {role!r} in {where}")
                roles.append(role or None)
    except csv.Error as exc:  # from reading a row; line_num is 0 until the header is read
        where = f"row {len(trees) + 1}" if reader.line_num else "the header"
        raise ParseError(f"{exc} in {where} of {path}") from None
    finally:
        csv.field_size_limit(limit)
    names = sorted({c for c in raw_classes if c is not None})
    to_id = {name: k for k, name in enumerate(names)}
    classes = tuple(None if c is None else to_id[c] for c in raw_classes)
    dataset = Dataset(tuple(trees), classes, mode, class_names=tuple(names) or None)
    if not roles or None in roles:
        return dataset, None
    return dataset, Split(*(
        tuple(i for i, r in enumerate(roles) if r == name)
        for name in ("weight", "train", "pred")
    ))


def save_manifest(dataset: Dataset, path: str) -> None:
    """Write an inline-tree manifest for the dataset to ``path``, as UTF-8.

    :func:`load_manifest` would read some values back as something else: a
    tree whose root label starts with ``@`` as a file reference, an empty
    class name as no class, and a class name with leading or trailing
    whitespace as its stripped form.  Each raises ``ValueError`` before the
    file is opened, so a refused dataset leaves ``path`` as it was.
    """
    texts = [serialize_tree(tree) for tree in dataset.trees]
    for i, text in enumerate(texts):
        if text.startswith("@"):
            raise ValueError(
                f"member {i} cannot be written inline: {text!r} starts with '@', "
                "which marks a tree file")
    names = dataset.class_names
    labels = ["" if cls is None else (names[cls] if names else str(cls))
              for cls in dataset.classes]
    for cls, label in zip(dataset.classes, labels):
        if cls is not None and (not label or label != label.strip()):
            raise ValueError(
                f"class name {label!r} cannot be written: the manifest reader "
                "strips each cell, and an empty cell means no class")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tree", "class", "role"])
        writer.writerows([text, label, ""] for text, label in zip(texts, labels))
