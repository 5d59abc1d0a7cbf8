"""Traced pass: spans around the library's public layer calls.

``dagkernel.pipeline`` looks its layer functions up as module globals at call
time.  During a traced pass those globals are replaced by wrappers that open
a span around each call, and ``load_manifest``, ``annotate_dataset`` and
``run_experiment`` run unchanged, so the spans time exactly the code a user
runs.  Spans (name, start, end, parent) stay in memory and are written out
when the benchmark ends.  A layer's self time is its span's duration minus
the time its child spans cover.

Set-up layers (``trees``, ``dag``, ``annotate``) are timed once per data set.
Layers inside the repeat loop (``weights``, ``kernel``, ``pipeline``) report
seconds and counts per repeat, comparable with the ``repeat_s`` end-to-end
metric.

A layer with a function that ``dagkernel.pipeline`` no longer has is
reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

# The names in dagkernel.pipeline that each layer's calls go through.
LAYERS = {
    "trees": ("parse_tree",),
    "dag": ("reduce_forest",),
    "annotate": ("AnnotatedDag",),
    "weights": ("class_profile", "discriminance_weights", "exponential_weights"),
    "kernel": ("GramComputer", "min_eig_and_norm"),
    "pipeline": ("split_thirds", "mean_similarity_classify", "evaluate"),
}
# Span of each wrapped name; GramComputer instances get spans on ``gram``.
SPANS = {
    "parse_tree": "trees.parse",
    "reduce_forest": "dag.compress",
    "AnnotatedDag": "annotate.build",
    "class_profile": "weights.profile",
    "discriminance_weights": "weights.weights",
    "exponential_weights": "weights.weights",
    "min_eig_and_norm": "kernel.eig",
    "split_thirds": "pipeline.split",
    "mean_similarity_classify": "pipeline.classify",
    "evaluate": "pipeline.evaluate",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder; spans nest by the order they are opened."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - child_time
        return totals

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def absent_layers() -> list[str]:
    from dagkernel import pipeline

    return sorted(
        layer for layer, names in LAYERS.items()
        if any(not hasattr(pipeline, name) for name in names)
    )


@contextmanager
def patched(module, replacements: dict) -> Iterator[None]:
    """Set module globals for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@dataclass
class KernelWork:
    """Kernel pairs evaluated, and the computers that evaluated them."""

    pairs: int = 0
    computers: list = field(default_factory=list)

    @property
    def matched_vertices(self) -> int:
        return sum(getattr(c, "visited_vertices", 0) for c in self.computers)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[KernelWork]:
    """Wrap every present layer name of ``dagkernel.pipeline`` in a span."""
    from dagkernel import pipeline

    work = KernelWork()

    def spanned(name: str, fn):
        def call(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return call

    def computer(make):
        def build(*args, **kwargs):
            instance = make(*args, **kwargs)
            gram = instance.gram

            def traced_gram(rows, cols):
                rows, cols = list(rows), list(cols)
                square = rows == cols
                work.pairs += len(rows) * (len(rows) + 1) // 2 if square else len(rows) * len(cols)
                with tracer.span("kernel.gram_train" if square else "kernel.gram_pred"):
                    return gram(rows, cols)

            instance.gram = traced_gram
            work.computers.append(instance)
            return instance
        return build

    replacements = {
        name: spanned(SPANS[name], getattr(pipeline, name))
        for name in SPANS if hasattr(pipeline, name)
    }
    if hasattr(pipeline, "GramComputer"):
        replacements["GramComputer"] = computer(pipeline.GramComputer)
    with patched(pipeline, replacements):
        yield work


def dag_counts(annotated) -> dict[str, float]:
    """DAG size without the artificial root, and annotation nnz."""
    dag = annotated.dag
    root = dag.root
    return {
        "dag.vertices": len(dag) - 1,
        "dag.edges": sum(len(dag.edges(v)) for v in range(len(dag)) if v != root),
        "annotate.nnz": sum(annotated.subdag_size(i) for i in range(annotated.n_members)),
    }


def annotate_peak_mb(dataset) -> float:
    """Peak Python heap of the ``AnnotatedDag`` call in ``annotate_dataset``."""
    from dagkernel import pipeline

    build = getattr(pipeline, "AnnotatedDag", None)
    if build is None:
        return 0.0
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            annotated = build(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return annotated

    with patched(pipeline, {"AnnotatedDag": measured}):
        pipeline.annotate_dataset(dataset)
    return max(peaks, default=0) / 2**20


# Spans reported as ``<span>_s`` self times; the set-up ones run once.
TIMED_SPANS = (
    "trees.parse", "dag.compress", "annotate.build",
    "weights.profile", "weights.weights",
    "kernel.gram_train", "kernel.gram_pred", "kernel.eig",
    "pipeline.split", "pipeline.classify", "pipeline.evaluate",
)
SETUP_SPANS = TIMED_SPANS[:3]


def layer_metrics(tracer: Tracer, work: KernelWork, dataset, annotated,
                  repeats: int) -> dict[str, tuple]:
    """Per-layer self times (set-up once, loop layers per repeat) and sizes,
    as name -> (value, unit)."""
    self_times = tracer.self_times()
    out: dict[str, tuple] = {}
    for span in TIMED_SPANS:
        per = 1 if span in SETUP_SPANS else repeats
        out[f"{span}_s"] = (self_times.get(span, 0.0) / per, "s")
    gram = out["kernel.gram_train_s"][0] + out["kernel.gram_pred_s"][0]
    out["kernel.ns_per_pair"] = (gram / work.pairs * repeats * 1e9 if work.pairs else 0.0, "ns")
    counts = dag_counts(annotated)
    counts["trees.count"] = len(dataset)
    counts["trees.vertices"] = sum(len(t) for t in dataset.trees)
    counts["kernel.pairs"] = work.pairs / repeats
    counts["kernel.matched_vertices"] = work.matched_vertices / repeats
    for name in ("trees.count", "trees.vertices", "dag.vertices", "dag.edges",
                 "annotate.nnz", "kernel.pairs", "kernel.matched_vertices"):
        out[name] = (float(counts[name]), "count")
    out["dag.ratio"] = (counts["dag.vertices"] / counts["trees.vertices"], "ratio")
    return out
