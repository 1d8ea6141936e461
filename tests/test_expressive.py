"""Constructive expressiveness: base fitting, class extension, reconstruction."""

import numpy as np
import pytest

import reference as ref
from boxkg.data import Binary, Unary
from boxkg.expressive import (
    ExpressivenessError,
    FactAssignment,
    extend_with_classes,
    fit_binary_base,
    random_assignment,
    reconstruct_with_mlp,
    verify_separation,
)
from boxkg.model import (
    ExplicitConfig,
    config_binary_scores,
    config_unary_scores,
    materialize,
    mlp_init,
)


def score(config, fact) -> float:
    """One fact's score through the materialized scorers."""
    if isinstance(fact, Unary):
        return float(config_unary_scores(config, [fact.cls], [fact.ent])[0])
    return float(config_binary_scores(config, [fact.rel], [fact.head], [fact.tail])[0])


def hand_base_config():
    """Three entities, one relation; only r(e0, e1) is captured as true."""
    positions = np.array([[0.0, 0.0], [4.0, 4.0], [8.0, 8.0]])
    bumps = np.array([[-3.0, -3.0], [2.0, 2.0], [20.0, 20.0]])
    head_center = positions[0] + bumps[1]
    tail_center = positions[1] + bumps[0]
    return ExplicitConfig(
        positions=positions,
        bumps=bumps,
        class_lower=np.zeros((0, 2)),
        class_upper=np.zeros((0, 2)),
        rel_head_lower=(head_center - 0.5)[None, :],
        rel_head_upper=(head_center + 0.5)[None, :],
        rel_tail_lower=(tail_center - 0.5)[None, :],
        rel_tail_upper=(tail_center + 0.5)[None, :],
    )


def full_binary_space(n_entities, n_relations):
    return [
        Binary(r, h, t)
        for r in range(n_relations)
        for h in range(n_entities)
        for t in range(n_entities)
    ]


def full_unary_space(n_entities, n_classes):
    return [Unary(c, e) for c in range(n_classes) for e in range(n_entities)]


class TestFactAssignment:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FactAssignment(frozenset({Unary(0, 0)}), frozenset({Unary(0, 0)}))

    def test_restrictions(self):
        assignment = FactAssignment(
            frozenset({Unary(0, 0), Binary(0, 0, 1)}),
            frozenset({Unary(1, 0)}),
        )
        assert assignment.binary_only().true_facts == frozenset({Binary(0, 0, 1)})
        assert assignment.unary_only().false_facts == frozenset({Unary(1, 0)})

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 0, 2), (5, 3, 0), (16, 2, 2)])
    @pytest.mark.parametrize("seed,true_prob", [(0, 0.5), (1, 0.5), (12345, 0.5), (7, 0.2)])
    def test_random_assignment_matches_scalar_draws(self, sizes, seed, true_prob):
        assignment = random_assignment(*sizes, seed=seed, true_prob=true_prob)
        true_facts, false_facts = ref.ref_random_assignment(*sizes, seed, true_prob)
        # equal sets, iterated in the same order
        assert list(assignment.true_facts) == list(true_facts)
        assert list(assignment.false_facts) == list(false_facts)
        n_entities, n_classes, n_relations = sizes
        n_facts = n_classes * n_entities + n_relations * n_entities**2
        assert len(assignment.true_facts) + len(assignment.false_facts) == n_facts


class TestVerifySeparation:
    def test_vacuously_passes_when_empty(self):
        config = hand_base_config()
        report = verify_separation(config, FactAssignment(frozenset(), frozenset()))
        assert report.passed
        assert report.margin == float("inf")

    def test_detects_violations(self):
        config = hand_base_config()
        # claim the reverse pair true as well: it scores far higher
        assignment = FactAssignment(
            frozenset({Binary(0, 1, 0)}), frozenset({Binary(0, 0, 1)})
        )
        report = verify_separation(config, assignment)
        assert not report.passed
        assert report.margin < 0
        assert len(report.violations) == 2

    def test_report_records(self):
        config = hand_base_config()
        assignment = FactAssignment(frozenset({Binary(0, 0, 1)}), frozenset({Binary(0, 1, 0)}))
        records = dict(verify_separation(config, assignment).to_records())
        assert records["separated"] == "yes"
        assert float(records["margin"]) > 0


class TestExtendWithClasses:
    def build(self, eps=0.1):
        base = hand_base_config()
        binary_true = {Binary(0, 0, 1)}
        binary_false = set(full_binary_space(3, 1)) - binary_true
        unary_true = {Unary(0, 0), Unary(1, 1)}
        unary_false = set(full_unary_space(3, 2)) - unary_true
        assignment = FactAssignment(
            frozenset(binary_true | unary_true), frozenset(binary_false | unary_false)
        )
        return base, assignment, extend_with_classes(base, assignment, eps=eps, n_classes=2)

    def test_dimension_accounting(self):
        base, _, extended = self.build()
        assert extended.d == base.d + 2

    def test_member_and_nonmember_coordinates(self):
        _, _, extended = self.build()
        d = 2
        assert extended.positions[0, d + 0] == 0.0  # member of class 0
        assert extended.positions[1, d + 0] == 2.0
        assert extended.positions[1, d + 1] == 0.0  # member of class 1
        assert extended.positions[2, d + 0] == 2.0
        assert extended.positions[2, d + 1] == 2.0

    def test_own_dimension_spans_unit_interval(self):
        _, _, extended = self.build()
        d = 2
        for cls in range(2):
            assert extended.class_lower[cls, d + cls] == -1.0
            assert extended.class_upper[cls, d + cls] == 1.0

    def test_nonmember_class_dimension_distance(self):
        # coordinate 2 against [-1, 1]: width 3, kappa 8/3 -> 10/3
        _, _, extended = self.build()
        d = 2
        got = ref.ref_distance(2.0, extended.class_lower[0, d], extended.class_upper[0, d])
        assert got == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_bumps_zero_in_new_dimensions(self):
        _, _, extended = self.build()
        np.testing.assert_array_equal(extended.bumps[:, 2:], 0.0)

    def test_relation_boxes_span_three_in_new_dimensions(self):
        _, _, extended = self.build()
        np.testing.assert_array_equal(extended.rel_head_lower[:, 2:], -3.0)
        np.testing.assert_array_equal(extended.rel_head_upper[:, 2:], 3.0)
        np.testing.assert_array_equal(extended.rel_tail_lower[:, 2:], -3.0)
        np.testing.assert_array_equal(extended.rel_tail_upper[:, 2:], 3.0)

    def test_binary_scores_drift_within_bound(self):
        base, assignment, extended = self.build()
        facts = full_binary_space(3, 1)
        rel = [f.rel for f in facts]
        heads = [f.head for f in facts]
        tails = [f.tail for f in facts]
        before = config_binary_scores(base, rel, heads, tails)
        after = config_binary_scores(extended, rel, heads, tails)
        # appended coordinates only add mass; per point at most sqrt(C)*(2/7)
        bound = 2.0 * np.sqrt(2.0) * (2.0 / 7.0)
        assert np.all(after >= before - 1e-12)
        assert np.all(after <= before + bound + 1e-12)

    def test_joint_separation_on_hand_instance(self):
        _, assignment, extended = self.build()
        report = verify_separation(extended, assignment)
        assert report.passed
        assert report.margin > 1.0

    def test_unary_scores_ignore_new_dim_bumps(self):
        _, assignment, extended = self.build()
        perturbed = ExplicitConfig(
            positions=extended.positions.copy(),
            bumps=extended.bumps.copy(),
            class_lower=extended.class_lower.copy(),
            class_upper=extended.class_upper.copy(),
            rel_head_lower=extended.rel_head_lower.copy(),
            rel_head_upper=extended.rel_head_upper.copy(),
            rel_tail_lower=extended.rel_tail_lower.copy(),
            rel_tail_upper=extended.rel_tail_upper.copy(),
            norm=extended.norm,
        )
        perturbed.bumps[:, 2:] = 7.5
        for fact in full_unary_space(3, 2):
            assert score(perturbed, fact) == score(extended, fact)

    def test_unverified_base_rejected(self):
        base = hand_base_config()
        assignment = FactAssignment(
            frozenset({Binary(0, 1, 0)}), frozenset({Binary(0, 0, 1)})
        )
        with pytest.raises(ExpressivenessError):
            extend_with_classes(base, assignment, n_classes=1)

    def test_base_with_classes_rejected(self):
        _, assignment, extended = self.build()
        with pytest.raises(ValueError):
            extend_with_classes(extended, assignment, n_classes=2)

    def test_eps_must_be_positive(self):
        base, assignment, _ = self.build()
        with pytest.raises(ValueError):
            extend_with_classes(base, assignment, eps=0.0, n_classes=2)


class TestReconstructWithMlp:
    def test_zero_mlps_copy_target_vectors(self):
        target = hand_base_config()
        rng = np.random.default_rng(0)
        k = 3
        features = rng.standard_normal((3, k))
        point_mlp, bump_mlp = mlp_init(k, (4,), 2, rng), mlp_init(k, (4,), 2, rng)
        for array in point_mlp.weights + point_mlp.biases + bump_mlp.weights + bump_mlp.biases:
            array[:] = 0.0
        params = reconstruct_with_mlp(target, point_mlp, bump_mlp, features)
        np.testing.assert_array_equal(params.point_emb, target.positions)
        np.testing.assert_array_equal(params.bump_emb, target.bumps)

    def test_scores_match_target_exactly(self):
        rng = np.random.default_rng(1)
        _, assignment, target = TestExtendWithClasses().build()
        k = 4
        features = rng.standard_normal((3, k))
        point_mlp = mlp_init(k, (16,), target.d, rng)
        bump_mlp = mlp_init(k, (16,), target.d, rng)
        params = reconstruct_with_mlp(target, point_mlp, bump_mlp, features)
        assert params.config.scale == 1.0
        config = materialize(params, features)
        worst = 0.0
        for fact in full_unary_space(3, 2) + full_binary_space(3, 1):
            worst = max(worst, abs(score(config, fact) - score(target, fact)))
        assert worst < 1e-6

    def test_identical_features_absorbed_by_embeddings(self):
        rng = np.random.default_rng(2)
        target = hand_base_config()
        features = np.tile(rng.standard_normal(3), (3, 1))
        point_mlp = mlp_init(3, (8,), 2, rng)
        bump_mlp = mlp_init(3, (8,), 2, rng)
        config = materialize(reconstruct_with_mlp(target, point_mlp, bump_mlp, features), features)
        for fact in full_binary_space(3, 1):
            assert score(config, fact) == pytest.approx(score(target, fact), abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        target = hand_base_config()
        with pytest.raises(ValueError):
            reconstruct_with_mlp(
                target, mlp_init(3, (4,), 5, rng), mlp_init(3, (4,), 2, rng),
                rng.standard_normal((3, 3)),
            )
        with pytest.raises(ValueError):
            reconstruct_with_mlp(
                target, mlp_init(3, (4,), 2, rng), mlp_init(3, (4,), 2, rng),
                rng.standard_normal((5, 3)),
            )


class TestFitBinaryBase:
    def test_empty_assignment_passes_immediately(self):
        assignment = FactAssignment(frozenset(), frozenset())
        config = fit_binary_base(assignment, 3, 2, seed=0)
        assert config.n_entities == 3
        assert verify_separation(config, assignment).passed

    def test_single_true_fact_among_four(self):
        facts = full_binary_space(2, 1)
        true = {Binary(0, 0, 1)}
        assignment = FactAssignment(frozenset(true), frozenset(set(facts) - true))
        config = fit_binary_base(assignment, 2, 1, seed=0)
        report = verify_separation(config, assignment)
        assert report.passed
        assert report.max_true <= 2.0
        assert report.min_false >= 3.0

    def test_random_assignments_verify_within_budget(self):
        successes = 0
        trials = 10
        for seed in range(trials):
            assignment = random_assignment(4, 0, 2, seed=seed)
            try:
                config = fit_binary_base(assignment, 4, 2, seed=seed)
            except ExpressivenessError:
                continue
            assert verify_separation(config, assignment.binary_only()).passed
            successes += 1
        assert successes >= 0.95 * trials

    def test_impossible_thresholds_raise_within_budget(self):
        assignment = random_assignment(3, 0, 1, seed=0)
        with pytest.raises(ExpressivenessError):
            fit_binary_base(
                assignment, 3, 1, seed=0, budget=1, max_steps=20,
                true_ceiling=1e-9, false_floor=1e9,
            )

    def test_threshold_ordering_validated(self):
        assignment = FactAssignment(frozenset(), frozenset())
        with pytest.raises(ValueError):
            fit_binary_base(assignment, 2, 1, true_ceiling=5.0, false_floor=1.0)


class TestPipeline:
    def test_small_random_instances_jointly_separate(self):
        rng = np.random.default_rng(42)
        for trial in range(4):
            n = int(rng.integers(2, 6))
            n_cls = int(rng.integers(1, 4))
            n_rel = int(rng.integers(1, 3))
            assignment = random_assignment(n, n_cls, n_rel, seed=trial + 100)
            base = fit_binary_base(assignment, n, n_rel, seed=trial)
            extended = extend_with_classes(base, assignment, n_classes=n_cls)
            report = verify_separation(extended, assignment)
            assert report.passed, (n, n_cls, n_rel, report.margin)
            assert verify_separation(extended, assignment.binary_only()).passed
            assert verify_separation(extended, assignment.unary_only()).passed
