"""Subtree kernels on rooted trees via lossless DAG compression.

The package compresses whole tree datasets into one annotated DAG, evaluates
the subtree kernel from it under arbitrary per-subtree weights (including a
weight function learned from class labels), and ships the two-class
stochastic benchmark used to validate the kernel's separation guarantees.

Public names load on first access (PEP 562): importing ``dagkernel`` loads no
submodule, and ``dagkernel.X`` or ``from dagkernel import X`` imports the
submodule that defines ``X`` the first time it is asked for.  A program thus
pays only for the modules it uses; ``classify`` never loads the stochastic
model, the corpus generator, the markup parser or the DOT writer.

``_EXPORTS`` is the one list of public names, grouped by defining submodule;
the submodules keep no ``__all__``.  To make a name public, add it there.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dag": ("AnnotatedDag", "Dag", "format_dag", "reduce_forest"),
    "generate": ("generate_template_corpus",),
    "kernel": ("GramComputer", "export_gram_csv", "gram", "kernel_brute"),
    "markup": ("MarkupParseError", "markup_to_tree"),
    "model": (
        "ContrastTable",
        "ModelConstructionError",
        "ModelInstance",
        "Prop1Report",
        "Prop2Report",
        "VertexContrast",
        "build_model",
        "check_leaf_weight_effect",
        "check_separation",
        "edit_height_pmf",
        "mass_at_most",
        "sample_dataset",
        "sample_edited",
        "sufficient_size",
        "unit_weight",
    ),
    "pipeline": (
        "Dataset",
        "ExperimentConfig",
        "MetricsReport",
        "RepeatOutcome",
        "Split",
        "annotate_dataset",
        "evaluate",
        "load_manifest",
        "mean_similarity_classify",
        "run_experiment",
        "save_manifest",
        "split_thirds",
        "weights_for",
    ),
    "trees": (
        "ParseError",
        "Tree",
        "TreeMode",
        "TreeParseError",
        "parse_tree",
        "parse_tree_file",
        "serialize_tree",
        "subtree_signatures",
    ),
    "viz": ("PALETTE", "discriminance_dot"),
    "weights": (
        "ClassProfile",
        "ShapingFn",
        "class_profile",
        "discriminance_weights",
        "exponential_weights",
        "export_weight_table",
        "smoothstep",
        "weight_distribution_by_height",
    ),
}
# Public name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
