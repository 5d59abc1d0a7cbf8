import re

import numpy as np

from dagkernel import (AnnotatedDag, TreeMode, class_profile, discriminance_dot, parse_tree,
                       reduce_forest)
from dagkernel.viz import PALETTE

ORDERED_LABELED = TreeMode(ordered=True, labeled=True)
# One vertex line: id, label as a DOT quoted string (\" and \\ escaped), width.
VERTEX = re.compile(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)", width=([0-9.]+), height=\3, '
                    r"fillcolor=\w+\];")
# One edge line: parent, child and the multiplicity label, if any.
EDGE = re.compile(r'  n(\d+) -> n(\d+)(?: \[label="(\d+)"\])?;')
FILL = re.compile(r"  n(\d+) \[.*fillcolor=(\w+)\];")


def forest(texts, mode=ORDERED_LABELED):
    trees = [parse_tree(t, mode) for t in texts]
    annotated = AnnotatedDag(reduce_forest(trees, mode))
    return annotated.dag, class_profile(annotated, range(len(texts)), range(len(texts)), len(texts))


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


def test_unordered_edges_carry_their_multiplicity():
    dag, profile = forest(["a(b()b())", "a(c())"], TreeMode(ordered=False, labeled=True))
    dot = discriminance_dot(dag, profile, np.zeros(len(dag)))
    edges = [EDGE.fullmatch(line) for line in dot.splitlines() if "->" in line]
    assert all(edges)
    # A label exactly when the child occurs more than once.
    assert [(int(m[1]), int(m[2]), m[3]) for m in edges] == [
        (v, c, str(mult) if mult > 1 else None)
        for v in range(dag.root) for c, mult in dag.edges(v)
    ]
    assert [m[3] for m in edges if m[3]] == ["2"]  # b twice below a


def test_fill_colors_follow_the_nearest_corner():
    dag, profile = forest(["a(b()b())", "a(c())"], TreeMode(ordered=False, labeled=True))
    dot = discriminance_dot(dag, profile, np.zeros(len(dag)))
    fills = {int(v): color for v, color in FILL.findall(dot)}
    expected = {}
    for v in range(dag.root):
        cls, presence = profile.nearest_corner(v)
        expected[v] = PALETTE[cls % len(PALETTE)][0 if presence else 1]
    assert fills == expected
    # Every subtree occurs in one member, so each reads as present in its class.
    assert {dag.label(v): fills[v] for v in range(dag.root) if dag.height(v) == 0} == {
        "b": "blue", "c": "red"}
