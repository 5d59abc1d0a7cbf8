import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dagkernel import (
    AnnotatedDag,
    ContrastTable,
    Dataset,
    ExperimentConfig,
    GramComputer,
    ModelConstructionError,
    ModelInstance,
    Tree,
    annotate_dataset,
    build_model,
    check_leaf_weight_effect,
    check_separation,
    edit_height_pmf,
    kernel_brute,
    mass_at_most,
    parse_tree,
    reduce_forest,
    run_experiment,
    sample_dataset,
    sample_edited,
    split_thirds,
    sufficient_size,
    unit_weight,
    verify_model,
    weights_for,
)
from dagkernel.model import _broom

from conftest import FIG1_T0, FIG1_T1, FIG2_T0, FIG2_T1, ORDERED, UNORDERED, canonical_signature


def star(n):
    return Tree.node([Tree.leaf() for _ in range(n)])


def brooms_for(t0, t1):
    width = max(t0.outdegree(), t1.outdegree()) + 1
    return tuple(_broom(h, width) for h in range(t0.height() + 1))


def halving_weight(tree):
    # Exact like unit_weight, but it tells subtrees of different heights
    # apart, so a check fed the wrong weight function shows.
    return 0 if len(tree) == 1 else Fraction(1, 2 ** tree.height())


def uneven_pair(extra_leaf=True):
    # Height-3 templates with two height-2 vertices of unequal subtree self
    # kernel (build_model's caterpillars have one non-leaf vertex per
    # height).  Without the extra leaves, edits at star(3) and star(6) leave
    # the same subtree in both trees.
    pad = [Tree.leaf()] if extra_leaf else []
    t0 = Tree.node([Tree.node([star(1), star(2)]), Tree.node([star(3)] + pad)])
    t1 = Tree.node([Tree.node([star(4), star(5)]), Tree.node([star(6)] + pad + pad)])
    return t0, t1


def instance_of(t0, t1, fillers=None):
    """A hand-built, unverified instance with the default edit intensity."""
    height = t0.height()
    fillers = brooms_for(t0, t1) if fillers is None else fillers
    return ModelInstance(t0, t1, height, Fraction(3 * height, 4), UNORDERED, fillers)


def uneven_instance():
    inst = instance_of(*uneven_pair())
    verify_model(inst)
    return inst


WEIGHTS = [pytest.param(unit_weight, id="unit"), pytest.param(halving_weight, id="halving")]


def definitional_contrast(inst, weight, cls, x):
    """The contrast of x by its definition, exhaustively over the finite edit
    space: E_u K(T_x, T_cls edited at u) - E_v K(T_x, T_other edited at v),
    every kernel value from kernel_brute, and a vertex of height h picked
    with probability pmf[h] / (number of template vertices of height h)."""
    pmf = edit_height_pmf(inst.height, inst.rho)
    edited_x = inst.edited(cls, x)

    def expected_kernel(c):
        tree = inst.tree(c)
        return sum(
            pmf[h] / len(tree.vertices_at_height(h))
            * kernel_brute(edited_x, inst.edited(c, u), inst.mode, weight)
            for h in range(inst.height + 1)
            for u in tree.vertices_at_height(h)
        )

    return expected_kernel(cls) - expected_kernel(1 - cls)


def definitional_bound(inst, weight, cls, h):
    """C_h by its definition: the template's self kernel minus the largest
    self kernel of a height-h subtree, over the number of template leaves,
    every kernel value from kernel_brute."""
    tree = inst.tree(cls)
    best = max(kernel_brute(tree.subtree(u), tree.subtree(u), inst.mode, weight)
               for u in tree.vertices_at_height(h))
    return Fraction(kernel_brute(tree, tree, inst.mode, weight) - best, len(tree.leaves()))


class TestVerification:
    def test_generated_models_verify(self):
        for height in (2, 3, 4, 5):
            for seed in (0, 1, 2):
                verify_model(build_model(height, seed=seed))

    def test_figure_pair_with_extra_leaf_passes(self):
        verify_model(instance_of(parse_tree(FIG2_T0), parse_tree(FIG2_T1)))

    def test_first_figure_pair_satisfies_sharing_conditions(self):
        # Non-leaf subtrees are unique within each tree and disjoint across.
        t0, t1 = parse_tree(FIG1_T0), parse_tree(FIG1_T1)
        from dagkernel.trees import subtree_signatures

        nonleaf = []
        for t in (t0, t1):
            sigs = [s for v, s in enumerate(subtree_signatures(t, UNORDERED))
                    if not t.is_leaf(v)]
            assert len(sigs) == len(set(sigs))
            nonleaf.append(set(sigs))
        assert not (nonleaf[0] & nonleaf[1])

    def test_tree_with_itself_fails(self):
        t = parse_tree(FIG1_T0)
        with pytest.raises(ModelConstructionError):
            verify_model(instance_of(t, t))

    def test_repeated_subtrees_fail(self):
        t0 = Tree.node([star(2), star(2)])  # two isomorphic 2-stars
        t1 = Tree.node([star(3), star(1)])
        with pytest.raises(ModelConstructionError):
            verify_model(instance_of(t0, t1))

    def test_filler_inside_template_fails(self):
        t0 = Tree.node([star(1), star(4)])
        t1 = Tree.node([star(2), star(3)])
        bad = (Tree.leaf(), star(2), _broom(2, 6))  # height-1 filler occurs in t1
        with pytest.raises(ModelConstructionError):
            verify_model(instance_of(t0, t1, bad))

    def test_unequal_heights_fail(self):
        t0 = Tree.node([star(1), star(4)])
        t1 = star(3)
        with pytest.raises(ModelConstructionError):
            verify_model(instance_of(t0, t1, brooms_for(t0, t0)))
        # Equal template heights that differ from the instance's height.
        inst = instance_of(parse_tree(FIG2_T0), parse_tree(FIG2_T1))
        with pytest.raises(ModelConstructionError, match=f"model height {inst.height + 1}$"):
            verify_model(dataclasses.replace(inst, height=inst.height + 1))

    def test_edits_leaving_a_shared_subtree_fail(self):
        # Each template alone is fine, but replacing star(3) and star(6) by
        # the height-1 replacement leaves node(replacement) in both trees.
        t0, t1 = uneven_pair(extra_leaf=False)
        with pytest.raises(ModelConstructionError, match="shared subtree outside"):
            verify_model(instance_of(t0, t1))

    def test_verification_builds_the_instance_edits(self, monkeypatch):
        # build_model verifies the instance's own edited trees, so the
        # leaf-weight check that follows builds (and signs) no tree of its own.
        inst = build_model(4, seed=1)
        built = []
        replace_subtree = Tree.replace_subtree
        monkeypatch.setattr(Tree, "replace_subtree",
                            lambda *args: built.append(args) or replace_subtree(*args))
        check_leaf_weight_effect(inst, unit_weight, Fraction(1))
        assert built == []

    def test_ordered_mode_models(self):
        verify_model(build_model(3, seed=5, mode=ORDERED))

    def test_failed_verification_reaches_the_caller(self, monkeypatch):
        import dagkernel.model

        def reject(instance):
            raise ModelConstructionError("rejected")

        monkeypatch.setattr(dagkernel.model, "verify_model", reject)
        with pytest.raises(ModelConstructionError, match="^rejected$"):
            build_model(3)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            build_model(3, rho=Fraction(7, 2))
        with pytest.raises(ValueError):
            build_model(1)


class TestEditDistribution:
    def test_pmf_sums_to_one(self):
        for height in (2, 3, 5):
            for rho in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(height)):
                if rho > height:
                    continue
                pmf = edit_height_pmf(height, rho)
                assert sum(pmf) == 1
                assert all(p >= 0 for p in pmf)

    def test_mass_complement(self):
        pmf = edit_height_pmf(4, Fraction(3))
        assert mass_at_most(pmf, 3) + pmf[4] == 1
        assert mass_at_most(pmf, 4) == 1

    def test_mean(self):
        height, rho = 5, Fraction(7, 3)
        pmf = edit_height_pmf(height, rho)
        assert sum(k * p for k, p in enumerate(pmf)) == rho

    def test_instance_holds_its_edit_law(self):
        inst = build_model(4, seed=1, rho=Fraction(5, 2))
        assert inst.pmf == edit_height_pmf(4, Fraction(5, 2))
        assert inst.pmf is inst.pmf

    def test_rho_zero_point_mass(self):
        pmf = edit_height_pmf(3, Fraction(0))
        assert pmf[0] == 1 and all(p == 0 for p in pmf[1:])


class TestSampling:
    def test_rho_zero_leaves_tree_unchanged(self):
        inst = build_model(3, seed=1, rho=Fraction(0))
        rng = random.Random(0)
        for _ in range(10):
            tree, u = sample_edited(inst, 0, rng)
            assert canonical_signature(tree, inst.mode) == canonical_signature(
                inst.t0, inst.mode
            )
            assert inst.t0.height(u) == 0

    def test_root_edit_returns_filler(self):
        inst = build_model(3, seed=1, rho=Fraction(3))  # forces h = H
        rng = random.Random(0)
        tree, u = sample_edited(inst, 1, rng)
        assert u == inst.t1.root
        assert canonical_signature(tree, inst.mode) == canonical_signature(
            inst.fillers[3], inst.mode
        )

    def test_height_histogram_matches_pmf(self):
        inst = build_model(3, seed=2, rho=Fraction(9, 4))
        pmf = [float(p) for p in edit_height_pmf(3, inst.rho)]
        rng = random.Random(123)
        n = 20000
        counts = [0] * 4
        for _ in range(n):
            _, u = sample_edited(inst, 0, rng)
            counts[inst.t0.height(u)] += 1
        for h in range(4):
            sigma = math.sqrt(n * pmf[h] * (1 - pmf[h]))
            assert abs(counts[h] - n * pmf[h]) <= 3 * sigma + 1

    def test_sample_dataset_balanced(self):
        inst = build_model(3, seed=3)
        trees, classes = sample_dataset(inst, 5, random.Random(0))
        assert len(trees) == 10 and classes.count(0) == classes.count(1) == 5

    def test_edited_trees_are_built_once(self):
        inst = build_model(3, seed=3)
        for cls in (0, 1):
            tree = inst.tree(cls)
            for u in tree.vertices():
                edited = inst.edited(cls, u)
                assert edited == tree.replace_subtree(u, inst.fillers[tree.height(u)])
                assert inst.edited(cls, u) is edited
        for cls, u in ((0, -1), (0, len(inst.t0)), (2, 0)):
            with pytest.raises(ValueError):
                inst.edited(cls, u)


class TestSampledGram:
    # The compressed path on model-sampled data: under the DAG weight table
    # of unit_weight (0 at height 0, and on the artificial root above the
    # members), every Gram entry equals the integer kernel_brute value.
    @pytest.mark.parametrize("height", [3, 4])
    @pytest.mark.parametrize("mode", [UNORDERED, ORDERED], ids=str)
    def test_gram_equals_kernel_brute(self, height, mode):
        inst = build_model(height, seed=height, mode=mode)
        trees, _ = sample_dataset(inst, 10, random.Random(height))
        dag = reduce_forest(trees, mode)
        weights = (dag.heights() > 0).astype(float)
        weights[dag.root] = 0
        computer = GramComputer(AnnotatedDag(dag), weights)
        expected = np.array([[kernel_brute(a, b, mode, unit_weight) for b in trees]
                             for a in trees])
        everyone = range(len(trees))
        assert np.array_equal(computer.gram(everyone, everyone), expected)
        rows, cols = [0, 3, 5, 12, 19], [1, 3, 10, 11, 14, 18, 19]
        assert np.array_equal(computer.gram(rows, cols), expected[np.ix_(rows, cols)])


class TestHeadlineClaim:
    # The paper's claim on the optimized path: learned weights vanish on the
    # leaves, and they classify model-sampled data better than exponential
    # decay.  Sampling seeds 0-9, 60 trees per class, 3 repeats.  Over
    # seeds 0-299 the per-seed gap never fell to 0 (smallest 0.133 at
    # height 3, 0.092 at height 4), and the means of 10 consecutive seeds
    # lay in 0.24-0.31 and 0.29-0.35; MARGIN sits well below both.
    SEEDS = range(10)
    MARGIN = 0.15

    @staticmethod
    def sampled(height, seed):
        inst = build_model(height, seed=0)
        trees, classes = sample_dataset(inst, 60, random.Random(seed))
        dataset = Dataset(tuple(trees), tuple(classes), inst.mode)
        return dataset, annotate_dataset(dataset)

    @pytest.mark.parametrize("height", [3, 4])
    def test_learned_leaf_weights_are_zero(self, height):
        config = ExperimentConfig("discriminance")
        for seed in self.SEEDS:
            dataset, annotated = self.sampled(height, seed)
            weights, _ = weights_for(annotated, dataset, config,
                                     split_thirds(dataset, seed).weight)
            assert np.all(weights[annotated.dag.heights() == 0] == 0.0)

    @pytest.mark.parametrize("height", [3, 4])
    def test_discriminance_beats_exponential(self, height):
        def accuracy(dataset, annotated, config):
            return np.mean([o.metrics.accuracy
                            for o in run_experiment(dataset, config, annotated)])

        gaps = []
        for seed in self.SEEDS:
            dataset, annotated = self.sampled(height, seed)
            learned = ExperimentConfig("discriminance", repeats=3, seed=seed)
            decay = ExperimentConfig("exponential", lam=0.5, repeats=3, seed=seed)
            gaps.append(accuracy(dataset, annotated, learned)
                        - accuracy(dataset, annotated, decay))
        assert min(gaps) > 0
        assert np.mean(gaps) > self.MARGIN


class TestEditedKernelDecomposition:
    # The closed form that all exact contrast computations rely on:
    # editing at u and v destroys exactly the subtree classes rooted in the
    # union of the vertex families of the non-leaf edit sites, and adds the
    # replacement kernel.  A leaf edit swaps a leaf for the height-0
    # replacement, itself a leaf, so it destroys nothing.
    @pytest.mark.parametrize(
        "height, mode",
        [pytest.param(h, UNORDERED, id=str(h)) for h in (2, 3, 4)]
        + [pytest.param(h, ORDERED, id=f"ordered-{h}") for h in (2, 3, 4)],
    )
    def test_same_class_pairs(self, height, mode):
        inst = build_model(height, seed=height, mode=mode)
        for cls in (0, 1):
            table = ContrastTable(inst, cls, unit_weight)
            tree = inst.tree(cls)
            k_self = kernel_brute(tree, tree, inst.mode, unit_weight)
            for u in tree.vertices():
                for v in tree.vertices():
                    lhs = kernel_brute(inst.edited(cls, u), inst.edited(cls, v),
                                       inst.mode, unit_weight)
                    tau = kernel_brute(
                        inst.fillers[tree.height(u)],
                        inst.fillers[tree.height(v)],
                        inst.mode,
                        unit_weight,
                    )
                    rhs = k_self - table.affected_weight(u, v) + tau
                    assert lhs == rhs, (cls, u, v)

    @pytest.mark.parametrize("height", [2, 3])
    def test_cross_class_pairs_reduce_to_filler_kernel(self, height):
        inst = build_model(height, seed=height + 10)
        for u in inst.t0.vertices():
            for v in inst.t1.vertices():
                lhs = kernel_brute(inst.edited(0, u), inst.edited(1, v), inst.mode, unit_weight)
                rhs = kernel_brute(
                    inst.fillers[inst.t0.height(u)],
                    inst.fillers[inst.t1.height(v)],
                    inst.mode,
                    unit_weight,
                )
                assert lhs == rhs, (u, v)


class TestContrast:
    def test_root_contrast_zero(self):
        inst = build_model(3, seed=4)
        for cls in (0, 1):
            assert ContrastTable(inst, cls, unit_weight).contrast(0) == 0

    def test_nonroot_contrast_positive(self):
        inst = build_model(4, seed=4)
        for cls in (0, 1):
            table = ContrastTable(inst, cls, unit_weight)
            for x in inst.tree(cls).vertices():
                value = table.contrast(x)
                assert (value == 0) == (x == 0)
                assert value >= 0

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_exact_matches_definitional_expectation(self, weight):
        for height in (2, 3, 4, 5):
            for seed in (0, 1, 2):
                for mode in (UNORDERED, ORDERED):
                    inst = build_model(height, seed=seed, mode=mode)
                    for cls in (0, 1):
                        table = ContrastTable(inst, cls, weight)
                        for x in inst.tree(cls).vertices():
                            assert table.contrast(x) == definitional_contrast(
                                inst, weight, cls, x), (height, seed, mode, cls, x)

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_self_kernels_and_bounds_match_kernel_brute(self, weight):
        # In a verified template the self kernel of the subtree at v is the
        # descendant weight sum w_desc[v]; C_h follows from those sums.
        instances = [build_model(height, seed=seed, mode=mode)
                     for height in (2, 3, 4, 5) for seed in (0, 1, 2)
                     for mode in (UNORDERED, ORDERED)]
        for inst in instances + [uneven_instance()]:
            for cls in (0, 1):
                table = ContrastTable(inst, cls, weight)
                tree = inst.tree(cls)
                assert table.self_kernel == kernel_brute(tree, tree, inst.mode, weight)
                for v in tree.vertices():
                    sub = tree.subtree(v)
                    assert table.w_desc[v] == kernel_brute(sub, sub, inst.mode, weight)
                for h in range(inst.height + 1):
                    assert table.bound(h) == definitional_bound(inst, weight, cls, h)

    def test_table_requires_zero_leaf_weight(self):
        inst = build_model(3, seed=4)
        with pytest.raises(ValueError, match="leaf weight 0"):
            ContrastTable(inst, 0, lambda t: 1)

    def test_hand_enumeration_leaf_parent(self):
        # Smallest worthwhile case done by hand: templates
        #   T0 = root(star1, star4), T1 = root(star2, star3), rho = 3/2, H = 2.
        # For x = the 1-leaf star of T0 (weights: 1 per internal subtree):
        #   K(T0,T0) = 3 (root, star1, star4, each unique; leaves weigh 0).
        # Picking u = x removes {x}: contribution w(x) = 1... the full sums
        # are spelled out below from the B-set definition.
        t0 = Tree.node([star(1), star(4)])
        t1 = Tree.node([star(2), star(3)])
        fillers = (Tree.leaf(), star(6), Tree.node([star(6)]))
        inst = ModelInstance(t0, t1, 2, Fraction(3, 2), UNORDERED, fillers)
        verify_model(inst)
        pmf = edit_height_pmf(2, Fraction(3, 2))  # (1/16, 6/16, 9/16)
        assert pmf == [Fraction(1, 16), Fraction(6, 16), Fraction(9, 16)]
        # Vertices of T0 (preorder): 0 root, 1 star1, 2 leaf, 3 star4, 4..7 leaves.
        # c_0 = 5 leaves, c_1 = 2 stars, c_2 = 1 root.
        # x = vertex 1 (star1).  B_{x,u} weights (leaves weigh zero):
        #   u = x: desc -> w = 1
        #   u = root: family(root) covers everything -> w = 3
        #   u = star4 (v=3): fam(x) u fam(u) = {root, x, star4, leaves} -> w = 3
        #   u = any leaf: the height-0 replacement is a leaf, so the edit at
        #       u is a no-op and only fam(x) = {root, x, leaves of x} is
        #       destroyed -> 2, whether u is below x or below star4
        expected = 3 - (
            Fraction(6, 16) / 2 * 1  # u = x
            + Fraction(9, 16) / 1 * 3  # u = root
            + Fraction(6, 16) / 2 * 3  # u = star4
            + Fraction(1, 16) / 5 * 2  # u = leaf under x
            + 4 * Fraction(1, 16) / 5 * 2  # u = one of 4 leaves under star4
        )
        assert expected == Fraction(7, 16)
        assert ContrastTable(inst, 0, unit_weight).contrast(1) == expected


class TestSeparationBound:
    @pytest.mark.parametrize("height", [3, 4])
    def test_bound_holds_everywhere(self, height):
        inst = build_model(height, seed=height)
        for h in range(height):
            report = check_separation(inst, unit_weight, h)
            assert report.applicable
            assert report.all_hold
            assert 0 < report.mass_low <= 1

    def test_mass_low_is_g(self):
        inst = build_model(3, seed=8)
        pmf = edit_height_pmf(3, inst.rho)
        report = check_separation(inst, unit_weight, 1)
        assert report.mass_low == pmf[0] + pmf[1]

    def test_not_applicable_below_half(self):
        inst = build_model(4, seed=9, rho=Fraction(1))
        report = check_separation(inst, unit_weight, 2)
        assert not report.applicable
        assert all(c.root_iff_zero for c in report.per_class)

    @pytest.mark.parametrize("rho", [Fraction(9, 4), Fraction(1)])
    def test_rows_carry_each_vertex_verdict(self, rho):
        inst = build_model(3, seed=8, rho=rho)
        tables = [ContrastTable(inst, cls, unit_weight) for cls in (0, 1)]
        report = check_separation(inst, unit_weight, 1)
        assert report.applicable == (rho > Fraction(3, 2))
        assert [(r.cls, r.x) for r in report.rows] == [
            (c, x) for c in (0, 1) for x in inst.tree(c).vertices()]
        for r in report.rows:
            assert r.height == inst.tree(r.cls).height(r.x)
            assert r.contrast == tables[r.cls].contrast(r.x)
            if report.applicable and r.height <= 1:
                assert r.holds == (r.contrast >= report.per_class[r.cls].bound)
            else:
                assert r.holds is None

    def test_h_range_checked(self):
        inst = build_model(3, seed=10)
        with pytest.raises(ValueError):
            check_separation(inst, unit_weight, 3)


class TestSufficientSize:
    def test_doubling_log_term(self):
        inst = build_model(3, seed=11)
        small = sufficient_size(inst, unit_weight, 1, 0.5)
        # log(2/delta) doubles from delta=0.5 to delta=0.125 (log4 -> log16).
        big = sufficient_size(inst, unit_weight, 1, 0.125)
        assert big == pytest.approx(2 * small, abs=2)

    def test_plug_in_value(self):
        inst = build_model(3, seed=12, rho=Fraction(3))
        max_k = max(float(kernel_brute(t, t, inst.mode, unit_weight))
                    for t in (inst.t0, inst.t1))
        c_min = min(float(definitional_bound(inst, unit_weight, i, 1)) for i in (0, 1))
        expected = math.ceil(
            2 * max_k**2 / c_min**2 * math.exp(6) / 9 * math.log(2 / 0.1)
        )
        assert sufficient_size(inst, unit_weight, 1, 0.1) == expected

    def test_degenerate_bound_rejected(self):
        inst = build_model(3, seed=13)
        # h = H: the best height-H self kernel is the whole tree, gap is 0.
        with pytest.raises(ValueError):
            sufficient_size(inst, unit_weight, 3, 0.1)

    def test_decreasing_in_height_term(self):
        # At fixed kernel constants the 1/H^2 factor shrinks the size; check
        # the formula shape via direct evaluation.
        inst = build_model(3, seed=14)
        base = sufficient_size(inst, unit_weight, 1, 0.1)
        assert base >= 1


class TestLeafWeightEffect:
    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_identity_and_min(self, weight):
        inst = build_model(3, seed=15)
        report = check_leaf_weight_effect(inst, weight, Fraction(2, 7))
        assert report.identity_holds
        assert report.min_not_increased
        assert report.expected_leaf_gap[0] == -report.expected_leaf_gap[1]

    def test_symmetric_model_zero_gap(self):
        # Same total leaves and the same per-height average subtree leaf
        # count: the expected edited leaf counts coincide and the correction
        # vanishes.
        t0 = Tree.node([star(1), star(4)])
        t1 = Tree.node([star(2), star(3)])
        fillers = (Tree.leaf(), star(6), Tree.node([star(6)]))
        inst = ModelInstance(t0, t1, 2, Fraction(3, 2), UNORDERED, fillers)
        report = check_leaf_weight_effect(inst, unit_weight, Fraction(1))
        assert report.expected_leaf_gap == (0, 0)
        for entry in report.entries:
            assert entry.contrast_plus == entry.contrast

    def test_generic_model_strict_for_one_class(self):
        inst = build_model(3, seed=16)
        report = check_leaf_weight_effect(inst, unit_weight, Fraction(1))
        gap0, gap1 = report.expected_leaf_gap
        assert gap0 != 0
        lowered = 0 if gap0 < 0 else 1
        strict = [
            e for e in report.entries if e.cls == lowered and e.contrast_plus < e.contrast
        ]
        assert strict

    def test_requires_zero_leaf_base(self):
        inst = build_model(3, seed=17)
        with pytest.raises(ValueError):
            check_leaf_weight_effect(inst, lambda t: 1, Fraction(1))
        with pytest.raises(ValueError):
            check_leaf_weight_effect(inst, unit_weight, 0)
