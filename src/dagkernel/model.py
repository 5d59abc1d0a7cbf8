"""Two-class stochastic benchmark of maximally dissimilar trees.

The benchmark starts from two template trees of equal height H whose
subtrees never coincide (within a template, and across templates, except
leaves), plus a family of replacement trees, one per height, foreign to both
templates.  A random datum of class i replaces one uniformly chosen vertex
of height h in template i -- h drawn from a Binomial(H, rho/H) -- by the
replacement tree of the same height.  The parameter rho in [0, H] measures
degradation: larger rho pushes the two classes together.

Because every non-leaf subtree occurs exactly once, the expected kernel gap
between same-class and cross-class edits (the *contrast* of a vertex) has a
closed form, computed here in exact rational arithmetic, alongside an
independent Monte-Carlo estimate of its definition.  The module also checks
the contrast lower bound, the plug-in sufficient training-set size, and the
exact effect of giving leaves positive weight.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .kernel import WeightFn, kernel_brute
from .trees import Tree, TreeMode, subtree_signatures

__all__ = [
    "ContrastCalculator",
    "ModelConstructionError",
    "ModelInstance",
    "Prop1Report",
    "Prop2Report",
    "build_model",
    "check_leaf_weight_effect",
    "check_separation",
    "edit_height_pmf",
    "mass_at_most",
    "sample_dataset",
    "sample_edited",
    "sufficient_size",
    "unit_weight",
    "verify_model",
]

UNORDERED = TreeMode(ordered=False, labeled=False)


class ModelConstructionError(Exception):
    """The generated trees failed verification."""


@dataclass(frozen=True)
class ModelInstance:
    """Verified pair of template trees plus replacement family and edit law."""

    t0: Tree
    t1: Tree
    height: int
    rho: Fraction
    mode: TreeMode
    fillers: tuple[Tree, ...]  # index h -> replacement tree of height h

    def tree(self, cls: int) -> Tree:
        if cls not in (0, 1):
            raise ValueError("class must be 0 or 1")
        return self.t0 if cls == 0 else self.t1

    def edited(self, cls: int, u: int) -> Tree:
        """Template ``cls`` with vertex ``u`` replaced by the replacement tree
        of the same height."""
        tree = self.tree(cls)
        return tree.replace_subtree(u, self.fillers[tree.height(u)])


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
    for _ in range(32):
        a0 = [rng.choice((1, 3)) for _ in range(height)]
        a1 = [rng.choice((2, 4)) for _ in range(height)]
        t0 = _caterpillar(height, a0)
        t1 = _caterpillar(height, a1)
        width = max(t0.outdegree(), t1.outdegree()) + 1
        fillers = tuple(_broom(h, width) for h in range(height + 1))
        try:
            verify_model(t0, t1, fillers, mode)
        except ModelConstructionError:
            continue
        return ModelInstance(t0, t1, height, rho, mode, fillers)
    raise ModelConstructionError(
        f"could not build a valid model of height {height} from seed {seed}"
    )


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


def _is_leaf_sig(sig: str) -> bool:
    return sig.count("(") == 1


def _nonleaf_sigs(tree: Tree, mode: TreeMode) -> set[str]:
    return {s for s in subtree_signatures(tree, mode) if not _is_leaf_sig(s)}


def _outside_nonleaf_sigs(
    tree: Tree, u: int, fillers: Sequence[Tree], mode: TreeMode
) -> set[str]:
    # Signatures of the vertices of tree edited at u that are not leaves and
    # do not belong to the inserted replacement block: multiset difference of
    # signatures.
    filler = fillers[tree.height(u)]
    counts: dict[str, int] = {}
    for s in subtree_signatures(tree.replace_subtree(u, filler), mode):
        counts[s] = counts.get(s, 0) + 1
    for s in subtree_signatures(filler, mode):
        counts[s] -= 1
    return {s for s, c in counts.items() if c > 0 and not _is_leaf_sig(s)}


def verify_model(
    t0: Tree, t1: Tree, fillers: Sequence[Tree], mode: TreeMode
) -> None:
    """Check every model requirement by brute-force signature comparison;
    raise :class:`ModelConstructionError` on the first violation."""
    if t0.height() != t1.height():
        raise ModelConstructionError("template trees must have equal height")
    height = t0.height()
    for i, tree in enumerate((t0, t1)):
        sigs = [
            s for s in subtree_signatures(tree, mode) if not _is_leaf_sig(s)
        ]
        if len(sigs) != len(set(sigs)):
            raise ModelConstructionError(
                f"template {i} repeats a non-leaf subtree"
            )
    if _nonleaf_sigs(t0, mode) & _nonleaf_sigs(t1, mode):
        raise ModelConstructionError("templates share a non-leaf subtree")
    if len(fillers) != height + 1:
        raise ModelConstructionError("need one replacement tree per height 0..H")
    template_sigs = set(subtree_signatures(t0, mode)) | set(
        subtree_signatures(t1, mode)
    )
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
        [_outside_nonleaf_sigs(tree, u, fillers, mode) for u in tree.vertices()]
        for tree in (t0, t1)
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
    pmf = edit_height_pmf(instance.height, instance.rho)
    h = rng.choices(range(instance.height + 1), weights=[float(p) for p in pmf])[0]
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


class _ClassTables:
    """Per-template precomputations for exact contrast evaluation."""

    def __init__(self, instance: ModelInstance, cls: int, weight_fn: WeightFn):
        tree = instance.tree(cls)
        self.tree = tree
        n = len(tree)
        self.w = [weight_fn(tree.subtree(v)) for v in tree.vertices()]
        pmf = edit_height_pmf(instance.height, instance.rho)
        counts: dict[int, int] = {}
        for v in tree.vertices():
            counts[tree.height(v)] = counts.get(tree.height(v), 0) + 1
        self.pick_prob = [
            pmf[tree.height(v)] / counts[tree.height(v)] for v in tree.vertices()
        ]
        self.self_kernel = kernel_brute(tree, tree, instance.mode, weight_fn)
        # Weight sums over descendants (incl. self), ancestors, and the chain
        # from a vertex up to the root (incl. self).
        self.w_desc = [0] * n
        for v in range(n - 1, -1, -1):
            self.w_desc[v] = self.w[v] + sum(self.w_desc[c] for c in tree.children(v))
        self.w_upchain = [0] * n
        for v in range(n):
            p = tree.parent(v)
            self.w_upchain[v] = self.w[v] + (0 if p is None else self.w_upchain[p])
        self.w_fam = [
            self.w_desc[v] + self.w_upchain[v] - self.w[v] for v in range(n)
        ]
        self.depth = [0] * n
        for v in range(1, n):
            self.depth[v] = self.depth[tree.parent(v)] + 1

    def _lca(self, x: int, u: int) -> int:
        while self.depth[x] > self.depth[u]:
            x = self.tree.parent(x)
        while self.depth[u] > self.depth[x]:
            u = self.tree.parent(u)
        while x != u:
            x = self.tree.parent(x)
            u = self.tree.parent(u)
        return x

    def affected_weight(self, x: int, u: int):
        """Total weight of the subtree classes destroyed when editing at both
        x and u (the union of their vertex families; descendants only when
        x == u).  The height-0 replacement is a leaf, so a leaf edit is a
        no-op and contributes no family."""
        if x == u:
            return self.w_desc[x]
        tree = self.tree
        if tree.is_leaf(x):
            return 0 if tree.is_leaf(u) else self.w_fam[u]
        if tree.is_leaf(u):
            return self.w_fam[x]
        if u in tree.descendants(x):
            return self.w_fam[x]
        if x in tree.descendants(u):
            return self.w_fam[u]
        return self.w_fam[x] + self.w_fam[u] - self.w_upchain[self._lca(x, u)]

    def expectation(self, values: Sequence):
        """Expectation over the edited vertex u of per-vertex ``values``."""
        return sum(p * v for p, v in zip(self.pick_prob, values))

    def contrast(self, x: int):
        return self.self_kernel - self.expectation(
            self.affected_weight(x, u) for u in self.tree.vertices()
        )


class ContrastCalculator:
    """Exact and Monte-Carlo contrast evaluation for a model instance.

    ``exact`` evaluates the closed form; ``monte_carlo`` samples the defining
    expectation, whose kernel values all come from :func:`kernel_brute`.
    ``weight_fn`` must be isomorphism-invariant and give leaves weight zero
    (the closed form relies on it).  Rational weights keep every exact
    result an exact :class:`fractions.Fraction`.
    """

    def __init__(self, instance: ModelInstance, weight_fn: WeightFn):
        leaf_w = weight_fn(Tree.leaf())
        if leaf_w != 0:
            raise ValueError("exact contrast requires leaf weight 0")
        self.instance = instance
        self.weight_fn = weight_fn
        self.tables = tuple(_ClassTables(instance, c, weight_fn) for c in (0, 1))

    def exact(self, cls: int, x: int):
        """Closed-form contrast of vertex ``x`` of template ``cls``."""
        return self.tables[cls].contrast(x)

    def monte_carlo(
        self, cls: int, x: int, n_samples: int, rng: random.Random
    ) -> tuple[float, float]:
        """Estimate the defining expectation by sampling edit pairs from the
        :func:`kernel_brute` values of the edited trees; returns (estimate,
        standard error)."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        same_vals, cross_vals = (
            [float(k) for k in ks]
            for ks in _edit_kernels(self.instance, cls, x, self.weight_fn)
        )
        p_same = [float(p) for p in self.tables[cls].pick_prob]
        p_cross = [float(p) for p in self.tables[1 - cls].pick_prob]
        us = rng.choices(range(len(same_vals)), weights=p_same, k=n_samples)
        vs = rng.choices(range(len(cross_vals)), weights=p_cross, k=n_samples)
        diffs = [same_vals[u] - cross_vals[v] for u, v in zip(us, vs)]
        mean = sum(diffs) / n_samples
        var = sum((d - mean) ** 2 for d in diffs) / max(1, n_samples - 1)
        return mean, math.sqrt(var / n_samples)


def _edit_kernels(
    instance: ModelInstance, cls: int, x: int, weight_fn: WeightFn
) -> tuple[list, list]:
    """K(T_x, template c edited at u) for every vertex u, first for c = cls
    and then for c = 1 - cls: the values that define the contrast of x."""
    edited_x = instance.edited(cls, x)
    return tuple(
        [
            kernel_brute(edited_x, instance.edited(c, u), instance.mode, weight_fn)
            for u in instance.tree(c).vertices()
        ]
        for c in (cls, 1 - cls)
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
class Prop1Report:
    h: int
    applicable: bool  # bound branch requires rho > H/2
    mass_low: Fraction  # probability of the conditioning event, height <= h
    per_class: tuple[ClassSeparation, ClassSeparation]

    @property
    def all_hold(self) -> bool:
        return all(c.root_iff_zero for c in self.per_class) and (
            not self.applicable or all(c.bound_holds for c in self.per_class)
        )


def _class_bound(instance: ModelInstance, calc: ContrastCalculator, cls: int, h: int):
    tree = instance.tree(cls)
    table = calc.tables[cls]
    best = max(
        kernel_brute(tree.subtree(u), tree.subtree(u), instance.mode, calc.weight_fn)
        for u in tree.vertices_at_height(h)
    )
    return Fraction(table.self_kernel - best, len(tree.leaves()))


def check_separation(
    instance: ModelInstance, weight_fn: WeightFn, h: int
) -> Prop1Report:
    """Verify, exhaustively and exactly, that the contrast vanishes only at
    the root and (when rho > H/2) stays above the closed-form lower bound for
    every vertex of height <= h."""
    if not 0 <= h < instance.height:
        raise ValueError("need 0 <= h < model height")
    calc = ContrastCalculator(instance, weight_fn)
    pmf = edit_height_pmf(instance.height, instance.rho)
    applicable = instance.rho > Fraction(instance.height, 2)
    per_class = []
    for cls in (0, 1):
        tree = instance.tree(cls)
        if weight_fn(tree) <= 0:
            raise ValueError("the whole template must have positive weight")
        contrasts = {x: calc.exact(cls, x) for x in tree.vertices()}
        root_iff = all(
            (value == 0) == (x == tree.root) for x, value in contrasts.items()
        )
        low = [x for x in tree.vertices() if tree.height(x) <= h]
        bound = pmf[0] * _class_bound(instance, calc, cls, h)
        min_low = min(contrasts[x] for x in low)
        holds = all(contrasts[x] >= bound for x in low)
        per_class.append(
            ClassSeparation(cls, root_iff, min_low, bound, holds)
        )
    return Prop1Report(h, applicable, mass_at_most(pmf, h), tuple(per_class))


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
    calc = ContrastCalculator(instance, weight_fn)
    max_k = max(float(calc.tables[0].self_kernel), float(calc.tables[1].self_kernel))
    c_min = min(
        float(_class_bound(instance, calc, 0, h)),
        float(_class_bound(instance, calc, 1, h)),
    )
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

    Both contrasts are computed from their defining expectations over the
    finite edit space, so the identity is checked without tolerance.
    """
    if leaf_weight <= 0:
        raise ValueError("leaf weight must be positive")
    tables = ContrastCalculator(instance, weight_fn).tables

    def plus_weight(t: Tree):
        return leaf_weight if len(t) == 1 else weight_fn(t)

    weight_fns = (weight_fn, plus_weight)

    leaf_counts = [
        [len(instance.edited(cls, u).leaves()) for u in instance.tree(cls).vertices()]
        for cls in (0, 1)
    ]
    mean_leaves = [tables[cls].expectation(leaf_counts[cls]) for cls in (0, 1)]
    gaps = (mean_leaves[0] - mean_leaves[1], mean_leaves[1] - mean_leaves[0])

    entries = []
    for cls in (0, 1):
        for x in instance.tree(cls).vertices():
            contrast, contrast_plus = (
                tables[cls].expectation(same) - tables[1 - cls].expectation(cross)
                for same, cross in (
                    _edit_kernels(instance, cls, x, fn) for fn in weight_fns
                )
            )
            predicted = contrast + leaf_weight * leaf_counts[cls][x] * gaps[cls]
            entries.append(
                LeafWeightEntry(cls, x, contrast, contrast_plus,
                                contrast_plus == predicted)
            )
    min_c = min(e.contrast for e in entries)
    min_cp = min(e.contrast_plus for e in entries)
    return Prop2Report(leaf_weight, gaps, tuple(entries), min_c, min_cp)
