"""DOT export of a dataset DAG scaled by learned weights.

Every DAG vertex (the artificial root excluded) is drawn as a filled circle
whose diameter grows linearly with its weight, so the subtrees that separate
the classes stand out.  The fill color names the class a vertex speaks for
and how: a saturated tone when the subtree is (almost) present only in that
class, the pale variant of the same tone when it is absent only from it.
Unordered edges carry their multiplicity when it exceeds 1.
"""

from __future__ import annotations

from .annotate import AnnotatedDag
from .weights import ClassProfile, ShapingFn, discriminance_weights

__all__ = ["PALETTE", "discriminance_dot"]

# (presence, absence) fill colors per class id, cycled when classes run out.
PALETTE = (
    ("blue", "lightblue"),
    ("red", "lightpink"),
    ("darkgreen", "palegreen"),
    ("darkorange", "moccasin"),
    ("purple", "plum"),
    ("saddlebrown", "wheat"),
)

MIN_SIZE = 0.1
MAX_SIZE = 2.0


def discriminance_dot(
    annotated: AnnotatedDag,
    profile: ClassProfile,
    shaping: ShapingFn,
    min_size: float = MIN_SIZE,
    max_size: float = MAX_SIZE,
) -> str:
    """Render the annotated DAG as a DOT document (see module docstring)."""
    dag = annotated.dag
    weights = discriminance_weights(profile, shaping)
    lines = ["digraph subtree_classes {", "  node [shape=circle, style=filled, fixedsize=true];"]
    root = dag.root
    for v in range(len(dag)):
        if v == root:
            continue
        size = min_size + float(weights[v]) * (max_size - min_size)
        cls, presence = profile.nearest_corner(v)
        color = PALETTE[cls % len(PALETTE)][0 if presence else 1]
        label = dag.label(v) or ""
        lines.append(
            f'  n{v} [label="{label}", width={size:.4f}, height={size:.4f}, '
            f"fillcolor={color}];"
        )
    for v in range(len(dag)):
        if v == root:
            continue
        if dag.mode.ordered:
            for c in dag.children_struct(v):
                lines.append(f"  n{v} -> n{c};")
        else:
            for c, mult in dag.children_struct(v):
                attr = f' [label="{mult}"]' if mult > 1 else ""
                lines.append(f"  n{v} -> n{c}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
