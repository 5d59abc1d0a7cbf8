"""Subtree kernels on rooted trees via lossless DAG compression.

The package compresses whole tree datasets into one annotated DAG, evaluates
the subtree kernel from it under arbitrary per-subtree weights (including a
weight function learned from class labels), and ships the two-class
stochastic benchmark used to validate the kernel's separation guarantees.
"""

__version__ = "0.1.0"

from .annotate import AnnotatedDag
from .dag import Dag, expand, format_dag, reduce_forest
from .generate import generate_template_corpus, random_tree, random_tree_of_height
from .kernel import GramComputer, export_gram_csv, gram, kernel_brute
from .markup import MarkupParseError, markup_to_tree
from .model import (
    ContrastCalculator,
    ModelConstructionError,
    ModelInstance,
    build_model,
    check_leaf_weight_effect,
    check_separation,
    edit_height_pmf,
    mass_at_most,
    sample_dataset,
    sample_edited,
    sufficient_size,
    unit_weight,
    verify_model,
)
from .pipeline import (
    Dataset,
    ExperimentConfig,
    MetricsReport,
    Split,
    annotate_dataset,
    evaluate,
    load_manifest,
    mean_similarity_classify,
    run_experiment,
    save_manifest,
    split_thirds,
    weights_for,
)
from .trees import (
    Tree,
    TreeMode,
    TreeParseError,
    canonical_signature,
    parse_tree,
    parse_tree_file,
    serialize_tree,
    subtree_signatures,
)
from .viz import discriminance_dot
from .weights import (
    ClassProfile,
    ShapingFn,
    class_profile,
    delta,
    discriminance_weights,
    exponential_weights,
    export_weight_table,
    smoothstep,
    weight_distribution_by_height,
)

__all__ = [name for name in dir() if not name.startswith("_")]
