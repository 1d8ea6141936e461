"""Negative sampling, the reference losses, Adam, and the training loop."""

import math

import numpy as np
import pytest

from boxkg import training
from boxkg.data import Binary, DataError, Dataset, LabelSplits, Vocabulary
from boxkg.model import ModelConfig, config_binary_scores, config_unary_scores, materialize
from boxkg.training import (
    AdamState,
    LossConfig,
    TrainConfig,
    _sample_binary_negatives,
    _sample_unary_negative_classes,
    adam_step,
    train,
)
from reference import ce_loss, ns_loss, ref_adam_update


def tiny_vocab(n_entities=4, n_classes=3, n_relations=2):
    return Vocabulary.from_names(
        [f"e{i}" for i in range(n_entities)],
        [f"c{i}" for i in range(n_classes)],
        [f"r{i}" for i in range(n_relations)],
    )


class TestSampleNegatives:
    def test_two_class_corruption_is_forced(self):
        rng = np.random.default_rng(0)
        negs = _sample_unary_negative_classes(np.array([0]), 2, 10, rng)
        np.testing.assert_array_equal(negs, [[1] * 10])

    def test_two_entity_binary_corruptions(self):
        rng = np.random.default_rng(1)
        heads, tails = _sample_binary_negatives(np.array([0]), np.array([1]), 2, 200, rng)
        assert set(zip(heads[0].tolist(), tails[0].tolist())) == {(1, 1), (0, 0)}

    def test_never_returns_the_original_fact(self):
        rng = np.random.default_rng(2)
        heads, tails = _sample_binary_negatives(np.array([2]), np.array([3]), 4, 500, rng)
        assert not np.any((heads == 2) & (tails == 3))
        # exactly one side is corrupted
        assert np.all((heads == 2) ^ (tails == 3))
        classes = _sample_unary_negative_classes(np.array([1]), 3, 500, rng)
        assert not np.any(classes == 1)
        assert set(classes.ravel().tolist()) <= {0, 2}

    def test_corruption_side_is_roughly_uniform(self):
        rng = np.random.default_rng(3)
        heads, _ = _sample_binary_negatives(np.array([4]), np.array([9]), 30, 10_000, rng)
        head_fraction = float(np.mean(heads != 4))
        assert 0.47 <= head_fraction <= 0.53

    def test_singleton_class_set_rejected(self):
        with pytest.raises(DataError):
            _sample_unary_negative_classes(np.array([0]), 1, 1, np.random.default_rng(0))


class TestNsLoss:
    def test_frozen_value(self):
        # sigma(2) = 0.8807970779778823; both terms equal -log(sigma(2))
        want = -2.0 * math.log(1.0 / (1.0 + math.exp(-2.0)))
        assert ns_loss(0.0, [4.0], margin=2.0) == pytest.approx(want, abs=1e-12)
        assert ns_loss(0.0, [4.0], margin=2.0) == pytest.approx(0.253856, abs=1e-6)

    def test_saturation_limit(self):
        assert ns_loss(-60.0, [120.0, 130.0], margin=2.0) == pytest.approx(0.0, abs=1e-20)

    def test_always_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            value = ns_loss(
                rng.normal(), rng.normal(size=5), margin=abs(rng.normal()) * 3
            )
            assert value > 0.0

    def test_equal_scored_negatives_match_uniform_weighting(self):
        negs = [1.7] * 8
        uniform = ns_loss(0.3, negs, margin=2.0)
        adversarial = ns_loss(0.3, negs, margin=2.0, adv_alpha=1.3)
        assert adversarial == pytest.approx(uniform, abs=1e-12)

    def test_adversarial_emphasizes_hard_negatives(self):
        # hard negatives (low score) get more weight, raising the loss here
        negs = [0.5, 6.0]
        assert ns_loss(1.0, negs, margin=3.0, adv_alpha=2.0) > ns_loss(1.0, negs, margin=3.0)

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            ns_loss(0.0, [], margin=1.0)


class TestCeLoss:
    def test_two_equal_candidates(self):
        assert ce_loss(1.5, [1.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_equal_scores_give_log_count(self):
        for n in (1, 4, 9):
            assert ce_loss(0.7, [0.7] * n) == pytest.approx(math.log(n + 1), abs=1e-12)

    def test_frozen_value(self):
        want = math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
        assert ce_loss(0.0, [1.0, 2.0]) == pytest.approx(want, abs=1e-12)
        assert ce_loss(0.0, [1.0, 2.0]) == pytest.approx(0.407606, abs=1e-6)

    def test_dominant_positive_drives_loss_to_zero(self):
        assert ce_loss(-100.0, [10.0, 20.0]) == pytest.approx(0.0, abs=1e-12)

    def test_loss_is_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert ce_loss(rng.normal(), rng.normal(size=4)) > 0.0


class TestAdam:
    def test_zero_gradient_keeps_fresh_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState(lr=0.1)
        adam_step(state, params, grads)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        np.testing.assert_array_equal(state.m["w"], 0.0)
        assert state.step == 1

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = AdamState(lr=0.001)
        adam_step(state, params, grads)
        want = -0.001 * 1.0 / (1.0 + 1e-8)
        assert params["w"][0] == pytest.approx(want, rel=1e-12)
        assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)

    def test_identical_runs_identical_trajectories(self):
        rng_a, rng_b = np.random.default_rng(6), np.random.default_rng(6)
        params_a = {"w": np.zeros(3)}
        params_b = {"w": np.zeros(3)}
        state_a, state_b = AdamState(), AdamState()
        for _ in range(20):
            g = rng_a.normal(size=3)
            adam_step(state_a, params_a, {"w": g})
            adam_step(state_b, params_b, {"w": rng_b.normal(size=3)})
        np.testing.assert_array_equal(params_a["w"], params_b["w"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_matches_reference_update_bit_for_bit(self):
        rng = np.random.default_rng(11)
        shapes = {"w": (30, 7), "b": (7,)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
        state = AdamState(lr=3e-3)
        for step in range(1, 11):
            grads = {
                name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                for name, shape in shapes.items()
            }
            adam_step(state, params, grads)
            for name, grad in grads.items():
                want[name] = ref_adam_update(*want[name], grad, step, lr=3e-3)
                np.testing.assert_array_equal(params[name], want[name][0])
                np.testing.assert_array_equal(state.m[name], want[name][1])
                np.testing.assert_array_equal(state.v[name], want[name][2])


    def test_state_made_once_and_updated_in_place(self):
        rng = np.random.default_rng(12)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        want = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
        state = AdamState(lr=1e-2)
        for step in range(1, 4):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            adam_step(state, params, grads)
            if step == 1:
                arrays = {name: (state.m[name], state.v[name]) for name in params}
            for name, grad in grads.items():
                assert state.m[name] is arrays[name][0] and state.v[name] is arrays[name][1]
                want[name] = ref_adam_update(*want[name], grad, step, lr=1e-2)
                for got, ref in zip((params[name], state.m[name], state.v[name]), want[name]):
                    assert got.tobytes() == ref.tobytes()


class TestLossConfig:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            LossConfig(kind="hinge")

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(kind="ns", margin=-1.0)


def chain_dataset(n=8, with_labels=True):
    vocab = Vocabulary.from_names(
        [f"e{i}" for i in range(n)], ["c0", "c1"], ["r0", "r1"]
    )
    edges = tuple(Binary(i % 2, i, (i + 1) % n) for i in range(n))
    labels = LabelSplits(train={i: i % 2 for i in range(n)}) if with_labels else LabelSplits()
    return Dataset(vocab=vocab, edges=edges, labels=labels)


class TestTrain:
    def test_loss_decreases(self):
        ds = chain_dataset()
        cfg = ModelConfig(d=8, mode="boxe")
        tc = TrainConfig(
            epochs=60, batch_size=32, seed=0, num_negatives=8, track_best=False,
            loss=LossConfig("ns", margin=2.0),
        )
        _, log = train(ds, cfg, tc)
        losses = [v for _, v in log.values("train", "loss")]
        assert losses[-1] < losses[0]

    def test_full_batch_early_loss_mostly_non_increasing(self):
        ds = chain_dataset()
        cfg = ModelConfig(d=8, mode="boxe")
        tc = TrainConfig(
            epochs=10, batch_size=128, seed=1, num_negatives=64, track_best=False,
            learning_rate=1e-3, loss=LossConfig("ns", margin=2.0),
        )
        _, log = train(ds, cfg, tc)
        losses = [v for _, v in log.values("train", "loss")]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
        assert violations <= 1

    def test_reproducible_for_fixed_seed(self):
        ds = chain_dataset()
        cfg = ModelConfig(d=6, mode="boxe")
        tc = TrainConfig(epochs=5, batch_size=4, seed=7, num_negatives=4, track_best=False)
        params_a, log_a = train(ds, cfg, tc)
        params_b, log_b = train(ds, cfg, tc)
        assert log_a.records == log_b.records
        for name, arr in params_a.param_dict().items():
            np.testing.assert_array_equal(arr, params_b.param_dict()[name])

    def test_no_class_facts_matches_pure_link_prediction(self):
        labeled = chain_dataset(with_labels=True)
        unlabeled = chain_dataset(with_labels=False)
        cfg = ModelConfig(d=6, mode="boxe")
        tc = TrainConfig(
            epochs=4, batch_size=64, seed=3, num_negatives=4,
            use_class_facts=False, track_best=False,
        )
        params_a, _ = train(labeled, cfg, tc)
        params_b, _ = train(unlabeled, cfg, tc)
        np.testing.assert_array_equal(params_a.point_emb, params_b.point_emb)
        np.testing.assert_array_equal(params_a.rel_head_center, params_b.rel_head_center)

    def test_one_step_decays_only_the_mlp_weight_matrices(self, monkeypatch):
        ds = chain_dataset()
        ds = Dataset(vocab=ds.vocab, edges=ds.edges, labels=ds.labels,
                     features=np.random.default_rng(0).standard_normal((8, 3)))
        cfg = ModelConfig(d=4, mode="mlp-boxe", mlp_hidden=(5,), feature_dim=3)
        # all 16 facts fit one batch: one Adam step, then one decay
        tc = TrainConfig(epochs=1, batch_size=64, seed=2, num_negatives=3,
                         learning_rate=0.01, track_best=False)
        factor = 1.0 - tc.learning_rate * training.MLP_WEIGHT_DECAY
        decayed, _ = train(ds, cfg, tc)
        monkeypatch.setattr(training, "MLP_WEIGHT_DECAY", 0.0)
        plain, _ = train(ds, cfg, tc)
        for name, arr in decayed.param_dict().items():
            want = plain.param_dict()[name]
            if name.startswith("mlp_") and ".w" in name:
                want = want * factor
            np.testing.assert_array_equal(arr, want, err_msg=name)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_finite_checkpoint(self):
        ds = chain_dataset()
        cfg = ModelConfig(d=4, mode="boxe")
        tc = TrainConfig(
            epochs=50, batch_size=4, seed=0, num_negatives=4,
            learning_rate=1e154, track_best=False,
        )
        params, log = train(ds, cfg, tc)
        assert log.diverged
        for name, arr in params.param_dict().items():
            assert np.all(np.isfinite(arr)), name

    def test_memorizes_tiny_knowledge_graph(self):
        # five facts, enough capacity: every training fact must end up
        # scoring below every one of its possible corruptions
        vocab = tiny_vocab(n_entities=4, n_classes=2, n_relations=2)
        edges = (Binary(0, 0, 1), Binary(0, 2, 3), Binary(1, 1, 2))
        labels = LabelSplits(train={0: 0, 3: 1})
        ds = Dataset(vocab=vocab, edges=edges, labels=labels)
        cfg = ModelConfig(d=8, mode="boxe")
        tc = TrainConfig(
            epochs=1500, batch_size=8, seed=2, num_negatives=8,
            learning_rate=5e-3, loss=LossConfig("ns", margin=3.0), track_best=False,
        )
        params, log = train(ds, cfg, tc)
        assert not log.diverged
        config = materialize(params)

        def binary_score(fact):
            return config_binary_scores(config, [fact.rel], [fact.head], [fact.tail])[0]

        edge_set = set(edges)
        for fact in edges:
            score = binary_score(fact)
            for ent in range(4):
                head_corrupt = Binary(fact.rel, ent, fact.tail)
                tail_corrupt = Binary(fact.rel, fact.head, ent)
                for corrupted in (head_corrupt, tail_corrupt):
                    if corrupted != fact and corrupted not in edge_set:
                        assert score < binary_score(corrupted)
        for ent, cls in labels.train.items():
            score, other = config_unary_scores(config, [cls, 1 - cls], [ent, ent])
            assert score < other

    def test_nothing_to_train_on_rejected(self):
        vocab = tiny_vocab()
        ds = Dataset(vocab=vocab, edges=())
        with pytest.raises(DataError):
            train(ds, ModelConfig(d=4, mode="boxe"), TrainConfig(epochs=1))

    def test_training_log_round_trip(self, tmp_path):
        ds = chain_dataset()
        cfg = ModelConfig(d=4, mode="boxe")
        tc = TrainConfig(epochs=2, batch_size=8, seed=0, num_negatives=2, track_best=False)
        _, log = train(ds, cfg, tc)
        path = tmp_path / "log.tsv"
        log.write(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(log.records)
        epoch, split, metric, value = lines[0].split("\t")
        assert (int(epoch), split, metric, float(value)) == log.records[0]

    def test_early_stopping_tracks_best_accuracy(self):
        vocab = tiny_vocab(n_entities=6, n_classes=2, n_relations=1)
        edges = tuple(Binary(0, i, (i + 1) % 6) for i in range(6))
        labels = LabelSplits(train={0: 0, 1: 1, 2: 0}, valid={3: 1, 4: 0})
        ds = Dataset(vocab=vocab, edges=edges, labels=labels)
        cfg = ModelConfig(d=4, mode="boxe")
        tc = TrainConfig(
            epochs=30, batch_size=16, seed=0, num_negatives=4,
            eval_every=5, patience=10, eval_metric="accuracy",
        )
        params, log = train(ds, cfg, tc)
        values = log.values("valid", "accuracy")
        assert values, "validation metric was never logged"
        assert all(0.0 <= v <= 1.0 for _, v in values)
