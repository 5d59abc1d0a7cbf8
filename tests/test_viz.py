import re

import numpy as np

from dagkernel import TreeMode, class_profile, discriminance_dot, parse_tree, reduce_forest
from dagkernel.annotate import AnnotatedDag

ORDERED_LABELED = TreeMode(ordered=True, labeled=True)
# One vertex line: id, label as a DOT quoted string (\" and \\ escaped), width.
VERTEX = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)", width=([0-9.]+), height=\3, '
                    r"fillcolor=\w+\];")


def forest(texts):
    trees = [parse_tree(t, ORDERED_LABELED) for t in texts]
    annotated = AnnotatedDag(reduce_forest(trees, ORDERED_LABELED))
    return annotated.dag, class_profile(annotated, range(len(texts)), range(len(texts)))


def vertex_lines(dot):
    lines = [line for line in dot.splitlines() if "label=" in line and "->" not in line]
    matches = [VERTEX.fullmatch(line) for line in lines]
    assert all(matches), lines
    return {int(m[1]): (re.sub(r"\\(.)", r"\1", m[2]), float(m[3])) for m in matches}


def test_quote_and_backslash_in_labels_are_escaped():
    dag, profile = forest(['r(x"y()b\\())', 'r(c\\"())'])
    drawn = vertex_lines(discriminance_dot(dag, profile, np.zeros(len(dag))))
    assert {v: label for v, (label, _) in drawn.items()} == {
        v: dag.label(v) for v in range(len(dag)) if v != dag.root
    }
    assert {'x"y', "b\\", 'c\\"'} <= {label for label, _ in drawn.values()}


def test_sizes_follow_the_given_weights():
    dag, profile = forest(["a(b())", "a(c())"])
    weights = np.linspace(0.0, 1.0, len(dag))
    drawn = vertex_lines(discriminance_dot(dag, profile, weights))
    assert dag.root not in drawn and len(drawn) == len(dag) - 1
    for v, (_, size) in drawn.items():
        assert size == round(0.1 + weights[v] * 1.9, 4)
