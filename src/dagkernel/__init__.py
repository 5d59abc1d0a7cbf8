"""Subtree kernels on rooted trees via lossless DAG compression.

The package compresses whole tree datasets into one annotated DAG, evaluates
the subtree kernel from it under arbitrary per-subtree weights (including a
weight function learned from class labels), and ships the two-class
stochastic benchmark used to validate the kernel's separation guarantees.
"""

__version__ = "0.1.0"

from .annotate import AnnotatedDag
from .dag import Dag, add_to_forest, expand, format_dag, reduce_forest, reduce_tree
from .generate import all_ordered_shapes, random_tree, random_tree_of_height
from .kernel import GramComputer, export_gram_csv, gram, kernel_brute, kernel_dag
from .markup import MarkupParseError, generate_template_corpus, markup_to_tree
from .model import (
    ContrastCalculator,
    ModelConstructionError,
    ModelInstance,
    build_model,
    check_leaf_weight_effect,
    check_separation,
    contrast_exact,
    contrast_monte_carlo,
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
    relative_improvement,
    run_experiment,
    save_manifest,
    split_thirds,
)
from .trees import (
    Tree,
    TreeMode,
    TreeParseError,
    canonical_signature,
    count_occurrences,
    join_forest,
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
