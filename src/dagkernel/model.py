"""Two-class stochastic benchmark of maximally dissimilar trees.

The benchmark starts from two template trees of equal height H whose
subtrees never coincide (within a template, and across templates, except
leaves), plus a family of replacement trees, one per height, foreign to both
templates.  A random datum of class i replaces one uniformly chosen vertex
of height h in template i -- h drawn from a Binomial(H, rho/H) -- by the
replacement tree of the same height.  The parameter rho in [0, H] measures
degradation: larger rho pushes the two classes together.

Because every non-leaf subtree occurs exactly once, editing a template at
two vertices destroys exactly the subtree classes rooted in the union of
their *families*: a vertex's family is its descendants plus its ancestors,
and a leaf's is empty, since a leaf edit swaps a leaf for a leaf.  The
expected kernel gap between same-class and cross-class edits (the
*contrast* of a vertex) is therefore a sum of weights over those unions,
computed here in exact rational arithmetic by one :class:`ContrastTable`
per template.  For the same reason the self kernel of a template subtree is
the weight sum over its descendants, so the table also gives the template's
self kernel and the bound constant C_h without evaluating a kernel.  The
module checks the contrast lower bound, the plug-in sufficient training-set
size, and the exact effect of giving leaves positive weight; only that last
check evaluates kernels, over edited trees that the instance builds once
each.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .kernel import WeightFn, kernel_brute
from .trees import Tree, TreeMode, subtree_signatures

UNORDERED = TreeMode(ordered=False, labeled=False)


class ModelConstructionError(Exception):
    """The generated trees failed verification."""


@dataclass(frozen=True)
class ModelInstance:
    """Pair of template trees plus replacement family and edit law;
    :func:`build_model` returns it verified."""

    t0: Tree
    t1: Tree
    height: int
    rho: Fraction
    mode: TreeMode
    fillers: tuple[Tree, ...]  # index h -> replacement tree of height h
    _edits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def pmf(self) -> list[Fraction]:
        """The edit law: the height of the edited vertex, Binomial(H, rho/H)."""
        return edit_height_pmf(self.height, self.rho)

    def tree(self, cls: int) -> Tree:
        if cls not in (0, 1):
            raise ValueError("class must be 0 or 1")
        return self.t0 if cls == 0 else self.t1

    def edited(self, cls: int, u: int) -> Tree:
        """Template ``cls`` with vertex ``u`` replaced by the replacement tree
        of the same height; built once, the same object on every call."""
        if (cls, u) not in self._edits:
            tree = self.tree(cls)
            self._edits[cls, u] = tree.replace_subtree(u, self.fillers[tree.height(u)])
        return self._edits[cls, u]


def unit_weight(tree: Tree):
    """Weight 1 for every non-leaf subtree, 0 for leaves (exact integers)."""
    return 0 if len(tree) == 1 else 1


# -- construction and verification ------------------------------------------------


def build_model(
    height: int,
    seed: int = 0,
    rho: Optional[Fraction] = None,
    mode: TreeMode = UNORDERED,
) -> ModelInstance:
    """Generate and verify a model instance of the given height.

    Templates are caterpillars with one internal vertex per height whose
    leaf-attachment counts differ between the two trees at every height
    (odd counts in one tree, even in the other), which forces all the
    non-isomorphism requirements; they are verified explicitly anyway.
    Replacement trees are brooms: a chain ending in a star wider than any
    template vertex, hence never a template subtree.
    """
    if height < 2:
        raise ValueError("model height must be >= 2")
    if mode.labeled:
        raise ValueError("the benchmark model is unlabeled")
    if rho is None:
        rho = Fraction(3 * height, 4)
    rho = Fraction(rho)
    if not 0 <= rho <= height:
        raise ValueError("rho must lie in [0, height]")
    rng = random.Random(seed)
    t0 = _caterpillar(height, [rng.choice((1, 3)) for _ in range(height)])
    t1 = _caterpillar(height, [rng.choice((2, 4)) for _ in range(height)])
    width = max(t0.outdegree(), t1.outdegree()) + 1
    fillers = tuple(_broom(h, width) for h in range(height + 1))
    instance = ModelInstance(t0, t1, height, rho, mode, fillers)
    verify_model(instance)
    return instance


def _caterpillar(height: int, leaf_counts: Sequence[int]) -> Tree:
    # One internal vertex per height 1..height; the vertex at height h keeps
    # the chain child first, then leaf_counts[h-1] leaves.
    node = Tree.node([Tree.leaf() for _ in range(leaf_counts[0])])
    for h in range(2, height + 1):
        node = Tree.node([node] + [Tree.leaf() for _ in range(leaf_counts[h - 1])])
    return node


def _broom(height: int, width: int) -> Tree:
    if height == 0:
        return Tree.leaf()
    node = Tree.node([Tree.leaf() for _ in range(width)])
    for _ in range(height - 1):
        node = Tree.node([node])
    return node


def _outside_nonleaf_sigs(instance: ModelInstance, cls: int, u: int) -> set[str]:
    # Signatures of the vertices of template cls edited at u that are not
    # leaves and do not belong to the inserted replacement block
    # [u, u + len(replacement)).
    end = u + len(instance.fillers[instance.tree(cls).height(u)])
    edited = instance.edited(cls, u)
    return {
        s for v, s in enumerate(subtree_signatures(edited, instance.mode))
        if not (edited.is_leaf(v) or u <= v < end)
    }


def verify_model(instance: ModelInstance) -> None:
    """Check every model requirement by brute-force signature comparison;
    raise :class:`ModelConstructionError` on the first violation.  The
    templates and replacement trees are checked first; the cross-edit check
    then signs the instance's own edited trees, so they are built and signed
    once for every later use."""
    t0, t1, fillers, mode = instance.t0, instance.t1, instance.fillers, instance.mode
    if not t0.height() == t1.height() == instance.height:
        raise ModelConstructionError(
            f"template trees must both have the model height {instance.height}")
    height = instance.height
    nonleaf = []
    for i, tree in enumerate((t0, t1)):
        sigs = [
            s for v, s in enumerate(subtree_signatures(tree, mode)) if not tree.is_leaf(v)
        ]
        if len(sigs) != len(set(sigs)):
            raise ModelConstructionError(
                f"template {i} repeats a non-leaf subtree"
            )
        nonleaf.append(set(sigs))
    if nonleaf[0] & nonleaf[1]:
        raise ModelConstructionError("templates share a non-leaf subtree")
    if len(fillers) != height + 1:
        raise ModelConstructionError("need one replacement tree per height 0..H")
    # A replacement of height h > 0 is no leaf, so only the non-leaf template
    # subtrees can equal it.
    template_sigs = nonleaf[0] | nonleaf[1]
    for h, filler in enumerate(fillers):
        if filler.height() != h:
            raise ModelConstructionError(f"replacement tree {h} has wrong height")
        if h > 0 and subtree_signatures(filler, mode)[0] in template_sigs:
            raise ModelConstructionError(
                f"replacement tree {h} occurs inside a template"
            )
    if len(fillers[0]) != 1:
        raise ModelConstructionError("the height-0 replacement must be a leaf")
    # Cross-isomorphisms after simultaneous edits, exhaustively over vertex
    # pairs: nothing outside the inserted blocks and the leaves may coincide.
    outside0, outside1 = (
        [_outside_nonleaf_sigs(instance, cls, u) for u in instance.tree(cls).vertices()]
        for cls in (0, 1)
    )
    for u in t0.vertices():
        for v in t1.vertices():
            common = outside0[u] & outside1[v]
            if common:
                raise ModelConstructionError(
                    f"edits at ({u}, {v}) leave a shared subtree outside the "
                    f"replacements: {sorted(common)[0]}"
                )


# -- edit distribution --------------------------------------------------------------


def edit_height_pmf(height: int, rho: Fraction) -> list[Fraction]:
    """Exact Binomial(H, rho/H) mass on 0..H."""
    rho = Fraction(rho)
    if not 0 <= rho <= height:
        raise ValueError("rho must lie in [0, height]")
    p = rho / height
    return [
        Fraction(math.comb(height, k)) * p**k * (1 - p) ** (height - k)
        for k in range(height + 1)
    ]


def mass_at_most(pmf: Sequence[Fraction], h: int) -> Fraction:
    """Probability that the edited vertex has height <= h."""
    return sum(pmf[: h + 1], Fraction(0))


def sample_edited(
    instance: ModelInstance, cls: int, rng: random.Random
) -> tuple[Tree, int]:
    """One random datum of the given class: the template with a uniformly
    chosen vertex of Binomial-drawn height replaced.  Returns (tree, vertex)."""
    weights = [float(p) for p in instance.pmf]
    h = rng.choices(range(instance.height + 1), weights=weights)[0]
    u = rng.choice(instance.tree(cls).vertices_at_height(h))
    return instance.edited(cls, u), u


def sample_dataset(
    instance: ModelInstance, n_per_class: int, rng: random.Random
) -> tuple[list[Tree], list[int]]:
    """A balanced sample: ``n_per_class`` random edits of each template."""
    trees: list[Tree] = []
    classes: list[int] = []
    for cls in (0, 1):
        for _ in range(n_per_class):
            trees.append(sample_edited(instance, cls, rng)[0])
            classes.append(cls)
    return trees, classes


# -- contrast -----------------------------------------------------------------------


def _ancestors(tree: Tree, v: int):
    """The strict ancestors of ``v``, nearest first."""
    while (v := tree.parent(v)) is not None:
        yield v


class ContrastTable:
    """Closed-form contrast tables of one template of a model instance.

    ``weight_fn`` must be isomorphism-invariant and give leaves weight zero
    (the closed form relies on it).  Rational weights keep every result an
    exact :class:`fractions.Fraction`.  In a verified template every non-leaf
    subtree occurs once, so the self kernel of the subtree at ``v`` is the
    weight sum ``w_desc[v]`` over its descendants.  The *family* of a
    non-leaf vertex is its descendants plus its ancestors (itself included):
    the vertices whose subtree changes when it is edited.  A leaf's family is
    empty, because the height-0 replacement is itself a leaf.
    """

    def __init__(self, instance: ModelInstance, cls: int, weight_fn: WeightFn):
        if weight_fn(Tree.leaf()) != 0:
            raise ValueError("exact contrast requires leaf weight 0")
        tree = instance.tree(cls)
        self.tree = tree
        self.w = [weight_fn(tree.subtree(v)) for v in tree.vertices()]
        heights = tree.heights()
        self.pick_prob = [instance.pmf[h] / heights.count(h) for h in heights]
        self.w_desc = [sum(self.w[d] for d in tree.descendants(v)) for v in tree.vertices()]
        self.family = [
            frozenset() if tree.is_leaf(v)
            else frozenset(tree.descendants(v)).union(_ancestors(tree, v))
            for v in tree.vertices()
        ]

    @property
    def self_kernel(self):
        """K(T, T) for the template T."""
        return self.w_desc[0]

    def bound(self, h: int) -> Fraction:
        """C_h: the gap between the template's self kernel and the largest
        self kernel of a height-``h`` subtree, per template leaf."""
        best = max(self.w_desc[u] for u in self.tree.vertices_at_height(h))
        return Fraction(self.self_kernel - best, len(self.tree.leaves()))

    def affected_weight(self, x: int, u: int):
        """Total weight of the subtree classes destroyed when editing at both
        x and u: the union of their families, or the descendants of x when
        x == u (both edits then change the ancestors of x alike, so those
        subtrees still match)."""
        if x == u:
            return self.w_desc[x]
        return sum(self.w[v] for v in self.family[x] | self.family[u])

    def expectation(self, values: Sequence):
        """Expectation over the edited vertex u of per-vertex ``values``."""
        return sum(p * v for p, v in zip(self.pick_prob, values))

    def contrast(self, x: int):
        """Closed-form contrast of template vertex ``x``."""
        return self.self_kernel - self.expectation(
            self.affected_weight(x, u) for u in self.tree.vertices()
        )


# -- separation bound (contrast lower bound) ----------------------------------------


@dataclass(frozen=True)
class ClassSeparation:
    cls: int
    root_iff_zero: bool
    min_contrast_low: object  # min contrast over vertices of height <= h
    bound: object  # pmf[0] * C_{cls,h}
    bound_holds: bool


@dataclass(frozen=True)
class VertexContrast:
    """The exact contrast of one template vertex and whether it meets its
    class bound (``None`` where the bound is not asserted: rho <= H/2, or a
    height above h)."""

    cls: int
    x: int
    height: int
    contrast: object
    holds: Optional[bool]


@dataclass(frozen=True)
class Prop1Report:
    h: int
    applicable: bool  # bound branch requires rho > H/2
    mass_low: Fraction  # probability of the conditioning event, height <= h
    per_class: tuple[ClassSeparation, ClassSeparation]
    rows: tuple[VertexContrast, ...]  # every vertex of template 0, then 1

    @property
    def all_hold(self) -> bool:
        return all(c.root_iff_zero for c in self.per_class) and (
            not self.applicable or all(c.bound_holds for c in self.per_class)
        )


def check_separation(
    instance: ModelInstance, weight_fn: WeightFn, h: int
) -> Prop1Report:
    """Verify, exhaustively and exactly, that the contrast vanishes only at
    the root and (when rho > H/2) stays above the closed-form lower bound for
    every vertex of height <= h."""
    if not 0 <= h < instance.height:
        raise ValueError("need 0 <= h < model height")
    tables = [ContrastTable(instance, cls, weight_fn) for cls in (0, 1)]
    applicable = instance.rho > Fraction(instance.height, 2)
    per_class = []
    rows = []
    for cls, table in enumerate(tables):
        tree = instance.tree(cls)
        if weight_fn(tree) <= 0:
            raise ValueError("the whole template must have positive weight")
        contrasts = {x: table.contrast(x) for x in tree.vertices()}
        root_iff = all(
            (value == 0) == (x == tree.root) for x, value in contrasts.items()
        )
        bound = instance.pmf[0] * table.bound(h)
        holds = {
            x: contrasts[x] >= bound for x in tree.vertices() if tree.height(x) <= h
        }
        min_low = min(contrasts[x] for x in holds)
        per_class.append(
            ClassSeparation(cls, root_iff, min_low, bound, all(holds.values()))
        )
        rows.extend(
            VertexContrast(cls, x, tree.height(x), contrasts[x],
                           holds.get(x) if applicable else None)
            for x in tree.vertices()
        )
    return Prop1Report(
        h, applicable, mass_at_most(instance.pmf, h), tuple(per_class), tuple(rows)
    )


def sufficient_size(
    instance: ModelInstance, weight_fn: WeightFn, h: int, delta: float
) -> int:
    """Plug-in training-set size that guarantees, with probability 1 - delta,
    a mean-similarity classifier with error at most 1 - mass_at_most(h) +
    delta."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not 0 <= h <= instance.height:
        raise ValueError("need 0 <= h <= model height")
    tables = [ContrastTable(instance, cls, weight_fn) for cls in (0, 1)]
    max_k = max(float(table.self_kernel) for table in tables)
    c_min = min(float(table.bound(h)) for table in tables)
    if c_min <= 0:
        raise ValueError("degenerate bound: the height-h self-kernel gap vanishes")
    size = (
        2.0
        * max_k**2
        / c_min**2
        * math.exp(2.0 * float(instance.rho))
        / instance.height**2
        * math.log(2.0 / delta)
    )
    return math.ceil(size)


# -- effect of a positive leaf weight ------------------------------------------------


@dataclass(frozen=True)
class LeafWeightEntry:
    cls: int
    x: int
    contrast: object
    contrast_plus: object
    identity_holds: bool


@dataclass(frozen=True)
class Prop2Report:
    leaf_weight: object
    expected_leaf_gap: tuple[object, object]  # D_{0,1} and D_{1,0}
    entries: tuple[LeafWeightEntry, ...]
    min_contrast: object
    min_contrast_plus: object

    @property
    def identity_holds(self) -> bool:
        return all(e.identity_holds for e in self.entries)

    @property
    def min_not_increased(self) -> bool:
        return self.min_contrast_plus <= self.min_contrast


def check_leaf_weight_effect(
    instance: ModelInstance, weight_fn: WeightFn, leaf_weight
) -> Prop2Report:
    """Exactly quantify how giving leaves weight ``leaf_weight > 0`` shifts
    every contrast: by leaf_weight * #leaves(edited tree T_x) * (expected
    leaf count gap between the classes), never raising the overall minimum.
    A leaf weight adds leaf_weight * #leaves(a) * #leaves(b) to every
    unlabeled kernel value K(a, b), and T_x is the first argument of every
    kernel value in the contrast of x.

    The base contrast is the closed form (:meth:`ContrastTable.contrast`);
    the leaf-weighted contrast comes from its defining expectation over the
    finite edit space.  The identity is thus checked without tolerance, and
    it also fails where the closed form disagrees with the definition.
    """
    if leaf_weight <= 0:
        raise ValueError("leaf weight must be positive")
    tables = [ContrastTable(instance, cls, weight_fn) for cls in (0, 1)]

    def plus_weight(t: Tree):
        return leaf_weight if len(t) == 1 else weight_fn(t)

    edited = [
        [instance.edited(cls, u) for u in instance.tree(cls).vertices()] for cls in (0, 1)
    ]
    leaf_counts = [[len(t.leaves()) for t in trees] for trees in edited]
    mean_leaves = [tables[cls].expectation(leaf_counts[cls]) for cls in (0, 1)]
    gaps = (mean_leaves[0] - mean_leaves[1], mean_leaves[1] - mean_leaves[0])

    entries = []
    for cls in (0, 1):
        for x, edited_x in enumerate(edited[cls]):
            # E K+(T_x, own template edited) - E K+(T_x, other template edited)
            same, cross = (
                tables[c].expectation(
                    kernel_brute(edited_x, t, instance.mode, plus_weight) for t in edited[c]
                )
                for c in (cls, 1 - cls)
            )
            contrast = tables[cls].contrast(x)
            contrast_plus = same - cross
            predicted = contrast + leaf_weight * leaf_counts[cls][x] * gaps[cls]
            entries.append(
                LeafWeightEntry(cls, x, contrast, contrast_plus,
                                contrast_plus == predicted)
            )
    min_c = min(e.contrast for e in entries)
    min_cp = min(e.contrast_plus for e in entries)
    return Prop2Report(leaf_weight, gaps, tuple(entries), min_c, min_cp)
