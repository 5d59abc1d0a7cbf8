"""DOT export of a dataset DAG scaled by learned weights.

Every DAG vertex (the artificial root excluded) is drawn as a filled circle
whose diameter grows linearly with its weight, so the subtrees that separate
the classes stand out.  The fill color names the class a vertex speaks for
and how: a saturated tone when the subtree is (almost) present only in that
class, the pale variant of the same tone when it is absent only from it.
Unordered edges carry their multiplicity when it exceeds 1.
"""

from __future__ import annotations

import numpy as np

from .dag import Dag
from .weights import ClassProfile

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


def discriminance_dot(dag: Dag, profile: ClassProfile, weights: np.ndarray) -> str:
    """Render the forest DAG under the given weights and the class profile
    they were learned from as a DOT document (see module docstring)."""
    lines = ["digraph subtree_classes {", "  node [shape=circle, style=filled, fixedsize=true];"]
    sizes = (MIN_SIZE + np.asarray(weights, dtype=np.float64) * (MAX_SIZE - MIN_SIZE)).tolist()
    for v, size in enumerate(sizes[: dag.root]):
        cls, presence = profile.nearest_corner(v)
        color = PALETTE[cls % len(PALETTE)][0 if presence else 1]
        label = (dag.label(v) or "").replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f'  n{v} [label="{label}", width={size:.4f}, height={size:.4f}, '
            f"fillcolor={color}];"
        )
    for v in range(dag.root):
        for c, mult in dag.edges(v):
            attr = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f"  n{v} -> n{c}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
