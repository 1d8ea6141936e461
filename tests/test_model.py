"""Model parameters, scoring, gradients, and checkpointing."""

import json
import tracemalloc

import numpy as np
import pytest

import reference as ref
from boxkg import autodiff as ad, model
from boxkg.data import Binary, DataError, Dataset, LabelSplits, Unary, Vocabulary
from boxkg.model import (
    BOX_SCORE_BLOCK_CELLS,
    FEATURE_BOX_EXTENT_SCALE,
    ExplicitConfig,
    ModelConfig,
    ModelParams,
    binary_score_tensors,
    box_score_rows,
    check_dataset_compat,
    config_binary_scores,
    config_class_scores,
    config_scores_all_heads,
    config_scores_all_tails,
    config_unary_scores,
    init_params,
    inv_softplus,
    load_model,
    materialize,
    mlp_forward,
    mlp_init,
    representation_tensors,
    save_model,
    softplus,
    translated_box_score_rows,
)
from boxkg.training import (
    LossConfig, NumericError, TrainConfig, batch_gradients, FactBatch, train,
)


def score(config, fact) -> float:
    """One fact's score through the materialized scorers."""
    if isinstance(fact, Unary):
        return float(config_unary_scores(config, [fact.cls], [fact.ent])[0])
    return float(config_binary_scores(config, [fact.rel], [fact.head], [fact.tail])[0])


def zero_mlps(params):
    for mlp in (params.mlp_point, params.mlp_bump):
        for array in mlp.weights + mlp.biases:
            array[:] = 0.0


def boxes_from_corners(params, bank, lower, upper):
    center = 0.5 * (np.asarray(lower) + np.asarray(upper))
    size_raw = inv_softplus(np.asarray(upper) - np.asarray(lower))
    getattr(params, f"{bank}_center")[:] = center
    getattr(params, f"{bank}_size_raw")[:] = size_raw


class TestInit:
    def test_same_seed_identical(self):
        cfg = ModelConfig(d=16, mode="boxe")
        a = init_params((6, 3, 2), cfg, seed=3)
        b = init_params((6, 3, 2), cfg, seed=3)
        for name, arr in a.param_dict().items():
            np.testing.assert_array_equal(arr, b.param_dict()[name])

    def test_different_seed_differs(self):
        cfg = ModelConfig(d=16, mode="boxe")
        a = init_params((6, 3, 2), cfg, seed=3)
        b = init_params((6, 3, 2), cfg, seed=4)
        assert not np.array_equal(a.point_emb, b.point_emb)

    def test_initial_widths_near_one(self):
        cfg = ModelConfig(d=32, mode="boxe")
        params = init_params((5, 4, 3), cfg, seed=0)
        for raw in (params.class_size_raw, params.rel_head_size_raw, params.rel_tail_size_raw):
            widths = softplus(raw) + 1.0
            assert np.all(widths >= 0.9) and np.all(widths <= 1.1)

    def test_feature_mode_box_extents_scaled(self):
        cfg = ModelConfig(d=32, mode="mlp-boxe", mlp_hidden=(4,), feature_dim=3)
        params = init_params((5, 4, 3), cfg, seed=0)
        for raw in (params.class_size_raw, params.rel_head_size_raw, params.rel_tail_size_raw):
            extents = softplus(raw) / FEATURE_BOX_EXTENT_SCALE
            assert np.all(extents >= 0.01 - 1e-12) and np.all(extents <= 0.1 + 1e-12)

    def test_embedding_bounds_scale_with_dimension(self):
        cfg = ModelConfig(d=128, mode="boxe")
        params = init_params((10, 2, 2), cfg, seed=1)
        bound = 0.5 / np.sqrt(128)
        assert params.d == 128
        assert np.all(np.abs(params.point_emb) <= bound)

    def test_inv_softplus_round_trip(self):
        values = np.array([1e-6, 0.05, 1.0, 25.0, 40.0])
        np.testing.assert_allclose(softplus(inv_softplus(values)), values, rtol=1e-12)
        assert softplus(inv_softplus(np.array([0.0])))[0] == 0.0


class TestEntityRepresentation:
    def test_pure_mode_returns_stored_rows(self):
        params = init_params((4, 2, 1), ModelConfig(d=8, mode="boxe"), seed=2)
        config = materialize(params)
        np.testing.assert_array_equal(config.positions, params.point_emb)
        np.testing.assert_array_equal(config.bumps, params.bump_emb)

    def test_zero_mlp_halves_embeddings(self):
        cfg = ModelConfig(d=6, mode="mlp-boxe", mlp_hidden=(5,), feature_dim=3)
        params = init_params((4, 2, 1), cfg, seed=2)
        zero_mlps(params)
        config = materialize(params, np.ones((4, 3)))
        np.testing.assert_allclose(config.positions, 0.5 * params.point_emb)
        np.testing.assert_allclose(config.bumps, 0.5 * params.bump_emb)

    def test_zero_embeddings_collapse_identical_features(self):
        cfg = ModelConfig(d=6, mode="mlp-boxe", mlp_hidden=(5,), feature_dim=3)
        params = init_params((4, 2, 1), cfg, seed=2)
        params.point_emb[:] = 0.0
        params.bump_emb[:] = 0.0
        features = np.tile(np.array([0.3, -1.0, 2.0]), (4, 1))
        config = materialize(params, features)
        np.testing.assert_array_equal(config.positions[0], config.positions[3])
        np.testing.assert_array_equal(config.bumps[0], config.bumps[3])
        np.testing.assert_array_equal(
            config.positions[0], mlp_forward(params.mlp_point, features)[0]
        )

    def test_graph_uses_each_mlps_own_depth(self):
        # reconstructed and loaded models may carry MLPs of different depths
        cfg = ModelConfig(d=3, mode="mlp-boxe", mlp_hidden=(4, 5), feature_dim=2)
        params = init_params((4, 2, 1), cfg, seed=3)
        params.mlp_bump = mlp_init(2, (6,), 3, np.random.default_rng(4))
        features = np.random.default_rng(5).standard_normal((4, 2))
        config = materialize(params, features)
        positions, bumps = representation_tensors(params, ad.leaves(params.param_dict()), features)
        np.testing.assert_allclose(positions.data, config.positions)
        np.testing.assert_allclose(bumps.data, config.bumps)

    @pytest.mark.parametrize("mode", ["boxe", "mlp-boxe"])
    def test_mlp_matches_unfused_layers(self, mode, monkeypatch):
        # a zero feature row, -0.0 features and zeroed biases put
        # pre-activations exactly on the rectifier's kink
        cfg = ModelConfig(d=4, mode=mode, mlp_hidden=(7, 6), feature_dim=3)
        params = init_params((9, 2, 2), cfg, seed=6)
        rng = np.random.default_rng(6)
        features = rng.standard_normal((9, 3))
        features[0], features[1] = 0.0, -0.0
        if params.mlp_point is not None:
            for mlp in (params.mlp_point, params.mlp_bump):
                mlp.biases[0][:3] = 0.0
                mlp.biases[1][:2] = -0.0
        batch = FactBatch(
            unary_cls=np.array([0, 1, 1]),
            unary_ent=np.array([0, 4, 8]),
            unary_neg_cls=np.array([[1], [0], [0]]),
            binary_rel=np.array([0, 1]),
            binary_head=np.array([1, 5]),
            binary_tail=np.array([2, 0]),
            binary_neg_head=np.array([[3, 1], [5, 6]]),
            binary_neg_tail=np.array([[2, 7], [1, 0]]),
        )
        loss_cfg = LossConfig("ns", margin=2.0)
        fused = batch_gradients(params, batch, loss_cfg, features)
        monkeypatch.setattr(model, "mlp_forward_tensors", ref.ref_mlp_forward_tensors)
        unfused = batch_gradients(params, batch, loss_cfg, features)
        assert fused[0] == unfused[0]
        assert fused[1].keys() == unfused[1].keys()
        for name, grad in fused[1].items():
            assert grad.tobytes() == unfused[1][name].tobytes(), name
        if params.mlp_point is None:
            return
        pt = ad.leaves(params.param_dict())
        pre = features @ params.mlp_point.weights[0] + params.mlp_point.biases[0]
        assert np.any(pre == 0.0)
        for prefix, mlp in (("mlp_point", params.mlp_point), ("mlp_bump", params.mlp_bump)):
            want = ref.ref_mlp_forward_tensors(pt, prefix, 3, features).data
            assert mlp_forward(mlp, features).tobytes() == want.tobytes()
            assert model.mlp_forward_tensors(pt, prefix, 3, features).data.tobytes() == (
                want.tobytes()
            )
            assert np.any(fused[1][f"{prefix}.w1"]) and np.any(fused[1][f"{prefix}.b0"])

    def test_mlp_graph_memory(self):
        # in units of one (n, hidden) float64 array: each of the two hidden
        # layers keeps only its output, beside the small output layer
        rng = np.random.default_rng(9)
        n, hidden = 2_000, 256
        mlp = mlp_init(16, (hidden, hidden), 4, rng)
        pt = ad.leaves({
            **{f"m.w{i}": w for i, w in enumerate(mlp.weights)},
            **{f"m.b{i}": b for i, b in enumerate(mlp.biases)},
        })
        features = rng.standard_normal((n, 16))
        tracemalloc.start()
        try:
            out = model.mlp_forward_tensors(pt, "m", 3, features)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, 4)
        assert kept / (n * hidden * 8) <= 2.3

    def test_missing_features_rejected(self):
        cfg = ModelConfig(d=6, mode="mlp-boxe", mlp_hidden=(5,), feature_dim=3)
        params = init_params((4, 2, 1), cfg, seed=2)
        with pytest.raises(DataError):
            materialize(params)

    def test_index_out_of_range(self):
        config = materialize(init_params((4, 2, 1), ModelConfig(d=8, mode="boxe"), seed=2))
        with pytest.raises(IndexError):
            config_unary_scores(config, [0], [4])


class TestScoreFact:
    def test_asymmetric_pair_configuration(self):
        # hand-built picture: e1 bumped by e2 lands in the head box and e2
        # bumped by e1 lands in the tail box, so only r(e1, e2) holds
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [8.0, 8.0]])
        bumps = np.array([[0.0, 1.0], [1.0, -1.0], [5.0, 5.0]])
        head_center = positions[0] + bumps[1]
        tail_center = positions[1] + bumps[0]
        config = ExplicitConfig(
            positions=positions,
            bumps=bumps,
            class_lower=np.zeros((0, 2)),
            class_upper=np.zeros((0, 2)),
            rel_head_lower=(head_center - 0.5)[None, :],
            rel_head_upper=(head_center + 0.5)[None, :],
            rel_tail_lower=(tail_center - 0.5)[None, :],
            rel_tail_upper=(tail_center + 0.5)[None, :],
        )
        assert score(config, Binary(0, 0, 1)) == 0.0
        for head, tail in [(1, 0), (0, 2), (2, 1), (0, 0), (2, 2)]:
            assert score(config, Binary(0, head, tail)) > 0.5

    def test_zero_bumps_decompose_into_independent_sides(self):
        params = init_params((5, 2, 2), ModelConfig(d=4, mode="boxe"), seed=8)
        params.bump_emb[:] = 0.0
        config = materialize(params)
        # with no bumps the head term no longer depends on the tail
        a = config_binary_scores(config, [0], [1], [2])[0]
        head_part = ref.ref_point_score(
            config.positions[1], config.rel_head_lower[0], config.rel_head_upper[0], 2
        )
        tail_part = ref.ref_point_score(
            config.positions[2], config.rel_tail_lower[0], config.rel_tail_upper[0], 2
        )
        assert a == pytest.approx(head_part + tail_part, abs=1e-12)

    @pytest.mark.parametrize("norm", [1, 2])
    def test_matches_scalar_reference_on_random_models(self, norm):
        rng = np.random.default_rng(9)
        params = init_params((5, 3, 2), ModelConfig(d=4, norm=norm, mode="boxe"), seed=10)
        params.point_emb[:] = rng.uniform(-2, 2, params.point_emb.shape)
        params.bump_emb[:] = rng.uniform(-2, 2, params.bump_emb.shape)
        config = materialize(params)
        for _ in range(50):
            if rng.random() < 0.5:
                fact = Unary(int(rng.integers(3)), int(rng.integers(5)))
                want = ref.ref_unary_score(config, fact.cls, fact.ent)
            else:
                fact = Binary(int(rng.integers(2)), int(rng.integers(5)), int(rng.integers(5)))
                want = ref.ref_binary_score(config, fact.rel, fact.head, fact.tail)
            assert score(config, fact) == pytest.approx(want, abs=1e-12)

    def test_feature_mode_matches_reference(self):
        rng = np.random.default_rng(11)
        cfg = ModelConfig(d=5, mode="mlp-boxe", mlp_hidden=(7,), feature_dim=3)
        params = init_params((4, 2, 2), cfg, seed=12)
        features = rng.standard_normal((4, 3))
        config = materialize(params, features)
        for _ in range(20):
            fact = Binary(int(rng.integers(2)), int(rng.integers(4)), int(rng.integers(4)))
            want = ref.ref_binary_score(config, fact.rel, fact.head, fact.tail)
            assert score(config, fact) == pytest.approx(want, abs=1e-12)

    def test_zeroed_mlps_reduce_to_scaled_plain_model(self):
        cfg = ModelConfig(d=6, mode="mlp-boxe", mlp_hidden=(4,), feature_dim=2)
        featured = init_params((5, 2, 2), cfg, seed=13)
        zero_mlps(featured)
        plain = ModelParams(
            config=ModelConfig(d=6, mode="boxe"),
            point_emb=0.5 * featured.point_emb,
            bump_emb=0.5 * featured.bump_emb,
            class_center=featured.class_center.copy(),
            class_size_raw=featured.class_size_raw.copy(),
            rel_head_center=featured.rel_head_center.copy(),
            rel_head_size_raw=featured.rel_head_size_raw.copy(),
            rel_tail_center=featured.rel_tail_center.copy(),
            rel_tail_size_raw=featured.rel_tail_size_raw.copy(),
        )
        featured_config = materialize(featured, np.ones((5, 2)))
        plain_config = materialize(plain)
        rng = np.random.default_rng(14)
        for _ in range(20):
            fact = Binary(int(rng.integers(2)), int(rng.integers(5)), int(rng.integers(5)))
            assert score(featured_config, fact) == pytest.approx(
                score(plain_config, fact), abs=1e-12
            )

    def test_all_candidate_scorers_agree_with_single_fact_scorer(self):
        params = init_params((6, 2, 3), ModelConfig(d=4, mode="boxe"), seed=15)
        config = materialize(params)
        heads = config_scores_all_heads(config, 1, 3)
        tails = config_scores_all_tails(config, 1, 3)
        for ent in range(6):
            assert heads[ent] == pytest.approx(score(config, Binary(1, ent, 3)), abs=1e-12)
            assert tails[ent] == pytest.approx(score(config, Binary(1, 3, ent)), abs=1e-12)
        class_scores = config_class_scores(config, [2])
        for cls in range(2):
            assert class_scores[0, cls] == pytest.approx(score(config, Unary(cls, 2)), abs=1e-12)


class TestPermutationInvariance:
    def test_scores_invariant_under_entity_relabeling(self):
        rng = np.random.default_rng(16)
        params = init_params((6, 3, 2), ModelConfig(d=5, mode="boxe"), seed=17)
        perm = rng.permutation(6)
        permuted = params.copy()
        permuted.point_emb[perm] = params.point_emb
        permuted.bump_emb[perm] = params.bump_emb
        config, permuted_config = materialize(params), materialize(permuted)
        for _ in range(30):
            fact = Binary(int(rng.integers(2)), int(rng.integers(6)), int(rng.integers(6)))
            renamed = Binary(fact.rel, int(perm[fact.head]), int(perm[fact.tail]))
            assert score(config, fact) == score(permuted_config, renamed)

    def test_full_batch_training_ignores_fact_order(self):
        vocab = Vocabulary.from_names([f"e{i}" for i in range(5)], ["c0", "c1"], ["r0"])
        edges = [Binary(0, 0, 1), Binary(0, 1, 2), Binary(0, 2, 3), Binary(0, 3, 4)]
        labels = LabelSplits(train={0: 0, 1: 1, 2: 0})
        ds_a = Dataset(vocab=vocab, edges=tuple(edges), labels=labels)
        ds_b = Dataset(vocab=vocab, edges=tuple(reversed(edges)), labels=labels)
        cfg = ModelConfig(d=4, mode="boxe")
        tc = TrainConfig(epochs=3, batch_size=64, seed=5, num_negatives=4, track_best=False)
        params_a, _ = train(ds_a, cfg, tc)
        params_b, _ = train(ds_b, cfg, tc)
        for name, arr in params_a.param_dict().items():
            np.testing.assert_array_equal(arr, params_b.param_dict()[name])


class TestGradients:
    def test_unused_class_box_gets_zero_gradient(self):
        params = init_params((4, 3, 2), ModelConfig(d=4, mode="boxe"), seed=18)
        batch = FactBatch(
            unary_cls=np.array([0]),
            unary_ent=np.array([1]),
            unary_neg_cls=np.array([[1]]),
            binary_rel=np.array([0]),
            binary_head=np.array([0]),
            binary_tail=np.array([1]),
            binary_neg_head=np.array([[2]]),
            binary_neg_tail=np.array([[1]]),
        )
        _, grads = batch_gradients(params, batch, LossConfig("ns", margin=2.0))
        np.testing.assert_array_equal(grads["class_center"][2], 0.0)
        np.testing.assert_array_equal(grads["class_size_raw"][2], 0.0)
        np.testing.assert_array_equal(grads["rel_head_center"][1], 0.0)
        assert np.any(grads["class_center"][0] != 0.0)

    def test_zero_weight_unary_batch_gives_zero_gradients(self):
        params = init_params((4, 2, 1), ModelConfig(d=4, mode="boxe"), seed=19)
        batch = FactBatch(
            unary_cls=np.array([0, 1]),
            unary_ent=np.array([1, 2]),
            unary_neg_cls=np.array([[1], [0]]),
        )
        _, grads = batch_gradients(
            params, batch, LossConfig("ns", margin=2.0), unary_weight=0.0
        )
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, 0.0)

    @pytest.mark.parametrize("norm", [1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("facts", ["unary-sampled", "unary-all-classes", "binary"])
    def test_non_finite_point_raises(self, norm, value, facts):
        # one coordinate of entity 1's point; its facts reach every path of
        # the box kernel: per-box rows, broadcast classes, translated points
        params = init_params((4, 3, 2), ModelConfig(d=4, norm=norm, mode="boxe"), seed=21)
        params.point_emb[1, 2] = value
        if facts == "binary":
            batch = FactBatch(
                binary_rel=np.array([0, 1]), binary_head=np.array([1, 0]),
                binary_tail=np.array([2, 1]), binary_neg_head=np.array([[3], [0]]),
                binary_neg_tail=np.array([[2], [3]]),
            )
        else:
            batch = FactBatch(
                unary_cls=np.array([0]), unary_ent=np.array([1]),
                unary_neg_cls=np.array([[2]]) if facts == "unary-sampled" else None,
            )
        loss = LossConfig("ns" if facts == "unary-sampled" else "ce", margin=2.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
            batch_gradients(params, batch, loss)

    # "full" scores every class (CE with unary_neg_cls=None), as joint-mlp does
    @pytest.mark.parametrize(
        "kind, norm, sampled",
        [("ns", 2, True), ("ce", 1, False), ("ce", 2, False)],
        ids=["ns-sampled-l2", "ce-full-l1", "ce-full-l2"],
    )
    def test_matches_finite_differences_small_model(self, kind, norm, sampled):
        params = init_params((4, 3, 2), ModelConfig(d=4, norm=norm, mode="boxe"), seed=20)
        batch = FactBatch(
            unary_cls=np.array([0, 2]),
            unary_ent=np.array([1, 3]),
            unary_neg_cls=np.array([[1, 2], [0, 1]]) if sampled else None,
            binary_rel=np.array([0, 1]),
            binary_head=np.array([0, 1]),
            binary_tail=np.array([2, 3]),
            binary_neg_head=np.array([[1, 3], [0, 2]]),
            binary_neg_tail=np.array([[2, 2], [3, 1]]),
        )
        loss_cfg = LossConfig(kind, margin=2.0)
        _, grads = batch_gradients(params, batch, loss_cfg)
        live = params.param_dict()
        h = 1e-6
        for name, arr in live.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up, _ = batch_gradients(params, batch, loss_cfg)
                flat[j] = orig - h
                down, _ = batch_gradients(params, batch, loss_cfg)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - gflat[j]) <= 1e-4 * max(abs(fd), abs(gflat[j]), 1e-4)

    @pytest.mark.parametrize(
        "kind, sampled",
        [("ns", True), ("adv-ns", True), ("ce", True), ("ce", False)],
        ids=["ns", "adv-ns", "ce-sampled", "ce-full"],
    )
    def test_loss_value_matches_reference(self, kind, sampled):
        rng = np.random.default_rng(27)
        params = init_params((5, 3, 2), ModelConfig(d=4, mode="boxe"), seed=28)
        params.point_emb[:] = rng.uniform(-1.5, 1.5, params.point_emb.shape)
        params.bump_emb[:] = rng.uniform(-1.5, 1.5, params.bump_emb.shape)
        batch = FactBatch(
            unary_cls=np.array([0, 2, 1]),
            unary_ent=np.array([1, 3, 4]),
            unary_neg_cls=np.array([[1, 2], [0, 1], [2, 0]]) if sampled else None,
            binary_rel=np.array([0, 1]),
            binary_head=np.array([0, 2]),
            binary_tail=np.array([4, 3]),
            binary_neg_head=np.array([[1, 0, 3], [2, 2, 4]]),
            binary_neg_tail=np.array([[4, 2, 4], [0, 1, 3]]),
        )
        loss_cfg = LossConfig(kind, margin=2.0, adv_alpha=1.5)
        got, _ = batch_gradients(params, batch, loss_cfg)

        config = materialize(params)

        def loss(pos, negs):
            if kind == "ce":
                return ref.ce_loss(pos, negs)
            return ref.ns_loss(pos, negs, margin=2.0, adv_alpha=1.5 if kind == "adv-ns" else None)

        terms = []
        for i, (cls, ent) in enumerate(zip(batch.unary_cls, batch.unary_ent)):
            others = batch.unary_neg_cls[i] if sampled else [c for c in range(3) if c != cls]
            terms.append(loss(
                ref.ref_unary_score(config, cls, ent),
                [ref.ref_unary_score(config, c, ent) for c in others],
            ))
        for i, (rel, head, tail) in enumerate(
            zip(batch.binary_rel, batch.binary_head, batch.binary_tail)
        ):
            negs = zip(batch.binary_neg_head[i], batch.binary_neg_tail[i])
            terms.append(loss(
                ref.ref_binary_score(config, rel, head, tail),
                [ref.ref_binary_score(config, rel, h, t) for h, t in negs],
            ))
        assert got == pytest.approx(sum(terms) / len(terms), rel=1e-12)

    def test_empty_batch_rejected(self):
        params = init_params((4, 2, 1), ModelConfig(d=4, mode="boxe"), seed=21)
        with pytest.raises(ValueError):
            batch_gradients(params, FactBatch(), LossConfig("ns"))


# "random" keeps the original draws; the named cases add rows spanning four
# blocks at d = 128 in unsorted box order, the same rows in runs of one box
# (whole blocks of one box, which broadcast its bank rows, and a block across
# a run boundary), a box that no row uses, points at their box center (whole
# rows, so zero distance rows under L2), points on box faces, and rows wider
# than a block, which score one row per block.  3 boxes reduce by one-hot
# matmul and 40 by bincount.
BOX_ROW_CASES = [
    pytest.param(norm, n_boxes, "random", id=f"{norm}-{n_boxes}")
    for norm in (1, 2)
    for n_boxes in (3, 40)
] + [
    pytest.param(norm, n_boxes, case, id=f"{norm}-{n_boxes}-{case}")
    for case in ("blocks", "runs", "unused-box", "center", "face", "wide")
    for norm in (1, 2)
    for n_boxes in (3, 40)
]


def run_ids(rng, n_ids: int, run_lengths) -> np.ndarray:
    """Sorted ids of distinct boxes in runs of the given lengths."""
    boxes = np.sort(rng.choice(n_ids, len(run_lengths), replace=False))
    return np.repeat(boxes, run_lengths)


def block_box_counts(ids: np.ndarray, d: int) -> set[int]:
    """How many distinct boxes each block of ``_blocked_terms`` holds."""
    step = BOX_SCORE_BLOCK_CELLS // d
    return {len(set(ids[start : start + step])) for start in range(0, len(ids), step)}


def kernel_case(case: str, layout: str):
    """Points, box centers and widths, and ``rows`` for one call of the box kernel.

    ``layout`` "mixed" picks boxes at random per row, "single" one box for
    every row, "broadcast" scores (n, 1, d) points against (1, C, d) boxes.
    """
    rng = np.random.default_rng(list(KERNEL_CASES).index(case))
    n, d, n_boxes = 48, 6, 3
    points = rng.uniform(-2.0, 2.0, (n, d))
    center = rng.uniform(-1.0, 1.0, (n_boxes, d))
    width = rng.uniform(1.0, 3.0, (n_boxes, d))
    ids = rng.integers(0, n_boxes, n) if layout == "mixed" else np.full(n, 1)
    if case in ("face", "signed-zero"):
        # dyadic boxes, so that center +- half-width is exact
        center = rng.integers(-4, 5, (n_boxes, d)) / 4.0
        width = rng.integers(5, 12, (n_boxes, d)) / 4.0
    if case == "center":  # whole rows, so zero-norm rows
        points[::3] = center[ids[::3]]
    elif case == "face":
        side = rng.choice([-1.0, 1.0], (n, d))
        points[::2] = (center[ids] + side * 0.5 * (width[ids] - 1.0))[::2]
    elif case == "signed-zero":
        center[:, ::2] = 0.0
        points[:, ::2] = rng.choice([-0.0, 0.0], (n, (d + 1) // 2))
        points[::4] = np.where(center[ids] == 0.0, -0.0, center[ids])[::4]  # zero norms
    elif case == "non-finite":
        points[rng.random((n, d)) < 0.1] = np.nan
        points[rng.random((n, d)) < 0.1] = -np.nan
        points[rng.random((n, d)) < 0.1] = np.inf
        points[rng.random((n, d)) < 0.1] = -np.inf
        center[0, 0], width[1, 1], width[2, 2] = np.nan, np.nan, np.inf
    if layout == "broadcast":
        return points[:, None, :], center[None], width[None], ...
    return points, center, width, ids


KERNEL_CASES = {
    "random": "points inside and outside boxes",
    "center": "rows at their box center",
    "face": "points on box faces",
    "signed-zero": "-0.0 and +0.0 points against +0.0 centers",
    "non-finite": "NaN of either sign, +-inf, a NaN center, NaN and inf widths",
}


class TestBoxScoreRows:
    @pytest.mark.parametrize("norm", [1, 2])
    @pytest.mark.parametrize("layout", ["mixed", "single", "broadcast"])
    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_kernel_matches_masked_reference(self, case, layout, norm):
        points, center, width, rows = kernel_case(case, layout)
        shape = np.broadcast_shapes(points.shape, center.shape) if rows is ... else points.shape
        results = []
        for kernel, work in (
            (model._box_terms, model._work_arrays(shape)),
            (ref.ref_box_terms, tuple(np.empty(shape) for _ in range(4))
             + (np.empty(shape, dtype=bool),)),
        ):
            saved = model._saved_arrays(shape, norm)
            bank = (center,) + model._box_constants(width)
            with np.errstate(invalid="ignore"):
                kernel(points, bank, rows, saved, work)
            results.append(saved)
        for name, got, want in zip(("norms", "slope", "d_width", "unit"), *results):
            assert got.tobytes() == want.tobytes(), name
        if case != "non-finite":
            assert np.all(np.isfinite(results[0][0]))

    @pytest.mark.parametrize("norm,n_boxes,case", BOX_ROW_CASES)
    def test_box_ids_match_gathered_boxes(self, norm, n_boxes, case):
        rng = np.random.default_rng(n_boxes + norm)
        n_rows, d = {
            "blocks": (4 * BOX_SCORE_BLOCK_CELLS // 128 - 30, 128),
            "runs": (4 * BOX_SCORE_BLOCK_CELLS // 128 - 30, 128),
            "wide": (5, BOX_SCORE_BLOCK_CELLS + 3),
        }.get(case, (60, 4))
        points = rng.uniform(-2.0, 2.0, (n_rows, d))
        center = rng.uniform(-1.0, 1.0, (n_boxes, d))
        width = rng.uniform(1.0, 3.0, (n_boxes, d))
        ids = rng.integers(0, n_boxes - (case == "unused-box"), n_rows)
        if case == "runs":
            ids = run_ids(rng, n_boxes, [300, 212, n_rows - 512])
            assert block_box_counts(ids, d) == {1, 2}
        upstream = rng.standard_normal(n_rows)
        if case == "center":
            points[::3] = center[ids[::3]]
        if case == "face":
            # dyadic boxes, so that center +- half-width is exact
            center = rng.integers(-4, 5, (n_boxes, d)) / 4.0
            width = rng.integers(5, 12, (n_boxes, d)) / 4.0
            side = rng.choice([-1.0, 1.0], (n_rows, d))
            points[::2] = (center[ids] + side * 0.5 * (width[ids] - 1.0))[::2]

        def run(gather):
            tensors = [ad.Tensor(a, requires_grad=True) for a in (points, center, width)]
            p, c, w = tensors
            if gather:
                scores = box_score_rows(p, ad.take_rows(c, ids), ad.take_rows(w, ids), norm)
            else:
                scores = box_score_rows(p, c, w, norm, box_ids=ids)
            ad.tsum(ad.mul(scores, upstream)).backward()
            return [scores.data] + [t.grad for t in tensors]

        by_ids = run(False)
        for result, gathered in zip(by_ids, run(True)):
            np.testing.assert_array_equal(result, gathered)
        scores, g_points = by_ids[0], by_ids[1]
        if case == "unused-box":
            assert not np.any(by_ids[2][-1]) and not np.any(by_ids[3][-1])
        if case == "center":
            # the subgradient at the center is zero, also under L2 where the
            # whole distance row is zero
            assert not np.any(scores[::3]) and not np.any(g_points[::3])
        if case == "face" and norm == 1:
            # faces belong to the box: the inside slope 1/w, signed outwards
            np.testing.assert_allclose(
                g_points[::2], (upstream[:, None] * side / width[ids])[::2], rtol=1e-15
            )

    @pytest.mark.parametrize("norm,kept_limit", [(1, 2.1), (2, 3.1)])
    def test_box_ids_forward_memory(self, norm, kept_limit):
        # in units of one (n, d) float64 array: the forward keeps the signed
        # slope, d dist/d width and (L2) the unit vector, and scores in blocks
        rng = np.random.default_rng(9)
        n, d = 20_000, 64
        tensors = [
            ad.Tensor(a, requires_grad=True)
            for a in (rng.uniform(-2.0, 2.0, (n, d)), rng.uniform(-1.0, 1.0, (3, d)),
                      rng.uniform(1.0, 3.0, (3, d)))
        ]
        ids = rng.integers(0, 3, n)
        tracemalloc.start()
        try:
            scores = box_score_rows(*tensors, norm, box_ids=ids)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (n,)
        assert kept / (n * d * 8) <= kept_limit
        assert peak / (n * d * 8) <= 3.5


# cases for the fused binary node: rows spanning four blocks at d = 128, the
# same rows in relation runs as training batches have them (see BOX_ROW_CASES),
# many rows over three entities, rows with head == tail, and feature mode,
# where the entity tables are graph nodes fed by the MLPs.  Tables of 20
# entities scatter by one-hot matmul, 200 by bincount.
BINARY_CASES = [
    pytest.param(norm, n_entities, case, id=f"{norm}-{n_entities}-{case}")
    for case in ("blocks", "runs", "repeated", "self-loop", "features")
    for norm in (1, 2)
    for n_entities in (20, 200)
]


class TestBinaryScoreTensors:
    @pytest.mark.parametrize("norm,n_entities,case", BINARY_CASES)
    def test_matches_unfused_composition(self, norm, n_entities, case):
        rng = np.random.default_rng(n_entities + norm)
        d = 128 if case in ("blocks", "runs") else 4
        n_rows = 3 * (BOX_SCORE_BLOCK_CELLS // d) + 37 if d == 128 else 60
        feature_mode = case == "features"
        config = ModelConfig(
            d=d, norm=norm, mode="mlp-boxe" if feature_mode else "boxe",
            mlp_hidden=(8,), feature_dim=3 if feature_mode else None,
        )
        params = init_params((n_entities, 0, 3), config, seed=n_rows)
        features = rng.standard_normal((n_entities, 3)) if feature_mode else None
        # points inside and outside boxes of varied extents
        for name in ("point_emb", "bump_emb", "rel_head_center", "rel_tail_center"):
            getattr(params, name)[:] = rng.uniform(-1.0, 1.0, getattr(params, name).shape)
        for name in ("rel_head_size_raw", "rel_tail_size_raw"):
            getattr(params, name)[:] = inv_softplus(rng.uniform(0.2, 2.0, (3, d)))
        rel = rng.integers(0, 3, n_rows)
        if case == "runs":
            rel = run_ids(rng, 3, [300, 212, n_rows - 512])
            assert block_box_counts(rel, d) == {1, 2}
        entities = 3 if case == "repeated" else n_entities
        head, tail = rng.integers(0, entities, (2, n_rows))
        if case == "self-loop":
            tail[::2] = head[::2]
        upstream = rng.standard_normal(n_rows)

        def run(fused):
            pt = ad.leaves(params.param_dict())
            positions, bumps = representation_tensors(params, pt, features)
            if fused:
                scores = binary_score_tensors(params, pt, positions, bumps, rel, head, tail)
            else:
                boxes = [
                    (pt[f"rel_{side}_center"], ad.softplus(pt[f"rel_{side}_size_raw"]) + 1.0)
                    for side in ("head", "tail")
                ]
                scores = ref.ref_binary_score_tensors(
                    positions, bumps, rel, head, tail, boxes, norm
                )
            ad.tsum(ad.mul(scores, upstream)).backward()
            return scores.data, ad.gradients(pt)

        scores, grads = run(True)
        ref_scores, ref_grads = run(False)
        np.testing.assert_array_equal(scores, ref_scores)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, ref_grads[name], err_msg=name)
        assert np.any(grads["bump_emb"]) and np.any(grads["rel_tail_size_raw"])

    @pytest.mark.parametrize("norm,kept_limit", [(1, 4.1), (2, 6.1)])
    def test_forward_memory(self, norm, kept_limit):
        # in units of one (n, d) float64 array: each side keeps what
        # box_score_rows keeps (2 arrays, 3 under L2) and no gathered or
        # translated points; the unfused graph kept 12
        rng = np.random.default_rng(9)
        n, d, n_entities = 20_000, 64, 500
        params = init_params((n_entities, 0, 2), ModelConfig(d=d, norm=norm), seed=0)
        pt = ad.leaves(params.param_dict())
        rel, head, tail = (rng.integers(0, k, n) for k in (2, n_entities, n_entities))
        tracemalloc.start()
        try:
            scores = binary_score_tensors(
                params, pt, pt["point_emb"], pt["bump_emb"], rel, head, tail
            )
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scores.shape == (n,)
        assert kept / (n * d * 8) <= kept_limit

    @pytest.mark.parametrize("norm", [1, 2])
    def test_backward_memory(self, norm):
        # in units of one (n, d) float64 array: the backward forms its terms
        # in the forward's saved arrays; what remains is scatter_rows' index
        rng = np.random.default_rng(9)
        n, d, n_entities = 20_000, 64, 500
        params = init_params((n_entities, 0, 3), ModelConfig(d=d, norm=norm), seed=0)
        pt = ad.leaves(params.param_dict())
        rel, head, tail = (rng.integers(0, k, n) for k in (3, n_entities, n_entities))
        width = ad.softplus(pt["rel_head_size_raw"]) + 1.0
        scores = translated_box_score_rows(
            pt["point_emb"], pt["bump_emb"], head, tail, pt["rel_head_center"], width, norm, rel
        )
        loss = ad.tsum(scores)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.any(pt["point_emb"].grad) and np.any(pt["rel_head_size_raw"].grad)
        assert (peak - start) / (n * d * 8) <= 1.4

    @pytest.mark.parametrize("translated", [False, True])
    def test_second_backward_raises(self, translated):
        # the backward consumes the forward's saved arrays
        params = init_params((5, 0, 2), ModelConfig(d=3), seed=1)
        pt = ad.leaves(params.param_dict())
        rel, head, tail = np.array([0, 1, 1]), np.array([0, 2, 4]), np.array([1, 1, 3])
        width = ad.softplus(pt["rel_head_size_raw"]) + 1.0
        if translated:
            scores = translated_box_score_rows(
                pt["point_emb"], pt["bump_emb"], head, tail, pt["rel_head_center"], width, 2, rel
            )
        else:
            points = ad.take_rows(pt["point_emb"], head)
            scores = box_score_rows(points, pt["rel_head_center"], width, 2, box_ids=rel)
        loss = ad.tsum(scores)
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()


class TestCheckpoint:
    def roundtrip(self, params, tmp_path, features=None):
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        for name, arr in params.param_dict().items():
            np.testing.assert_array_equal(arr, loaded.param_dict()[name])
        return loaded

    def test_round_trip_pure(self, tmp_path):
        params = init_params((5, 2, 3), ModelConfig(d=6, mode="boxe"), seed=22)
        loaded = self.roundtrip(params, tmp_path)
        assert loaded.config == params.config

    def test_round_trip_scores_identical(self, tmp_path):
        rng = np.random.default_rng(23)
        cfg = ModelConfig(d=5, mode="mlp-boxe", mlp_hidden=(6,), feature_dim=3)
        params = init_params((6, 2, 2), cfg, seed=24)
        features = rng.standard_normal((6, 3))
        loaded = self.roundtrip(params, tmp_path, features)
        config, loaded_config = materialize(params, features), materialize(loaded, features)
        for _ in range(100):
            fact = Binary(int(rng.integers(2)), int(rng.integers(6)), int(rng.integers(6)))
            assert score(config, fact) == score(loaded_config, fact)

    def test_round_trip_mlps_of_different_depths(self, tmp_path):
        rng = np.random.default_rng(30)
        cfg = ModelConfig(d=3, mode="mlp-boxe", mlp_hidden=(4, 5), feature_dim=2)
        params = init_params((4, 2, 1), cfg, seed=31)
        params.mlp_bump = mlp_init(2, (6,), 3, rng)
        self.roundtrip(params, tmp_path)

    def test_wrong_vocabulary_dimension_rejected(self, tmp_path):
        params = init_params((5, 2, 3), ModelConfig(d=6, mode="boxe"), seed=25)
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        vocab = Vocabulary.from_names([f"e{i}" for i in range(7)], ["c0", "c1"], list("abc"))
        dataset = Dataset(vocab=vocab, edges=(Binary(0, 0, 1),))
        with pytest.raises(DataError, match="entities"):
            check_dataset_compat(loaded, dataset)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="corrupt"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        params = init_params((3, 1, 1), ModelConfig(d=2, mode="boxe"), seed=26)
        path = tmp_path / "model.json"
        save_model(params, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_v1_and_v2_load_identical_arrays(self, tmp_path):
        rng = np.random.default_rng(32)
        cfg = ModelConfig(d=4, mode="mlp-boxe", mlp_hidden=(5,), feature_dim=3)
        params = init_params((6, 2, 2), cfg, seed=33)
        params.point_emb[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]  # sign, subnormal, max
        params.bump_emb[:] = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-300, 300, (6, 4))
        ref.ref_save_model_v1(params, tmp_path / "v1.json")
        save_model(params, tmp_path / "v2.json")
        assert json.loads((tmp_path / "v2.json").read_text())["format_version"] == 2
        v1, v2 = load_model(tmp_path / "v1.json"), load_model(tmp_path / "v2.json")
        assert v1.config == v2.config == params.config
        for name, want in params.param_dict().items():
            for loaded in (v1.param_dict()[name], v2.param_dict()[name]):
                assert loaded.dtype == np.float64 and loaded.shape == want.shape
                assert loaded.tobytes() == want.tobytes(), name
                assert loaded.flags.c_contiguous and loaded.flags.writeable
                root = loaded if loaded.base is None else loaded.base  # v1 reshapes its list
                assert root.flags.owndata and root.base is None

    @pytest.mark.parametrize("value", ["1.5", True, None, [1.0], 10**400])
    def test_v1_data_must_be_numbers(self, tmp_path, value):
        params = init_params((3, 1, 1), ModelConfig(d=2, mode="boxe"), seed=34)
        path = tmp_path / "model.json"
        ref.ref_save_model_v1(params, path)
        payload = json.loads(path.read_text())
        payload["tensors"]["bump_emb"]["data"][1] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="bump_emb"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", True), ("d", 4.0), ("d", "4"),
            ("norm", True), ("norm", 2.0),
            ("feature_dim", False), ("feature_dim", 3.0), ("feature_dim", "3"),
            ("embedding_scale", "x"), ("embedding_scale", True), ("embedding_scale", [0.5]),
            ("embedding_scale", float("nan")), ("embedding_scale", float("-inf")),
            pytest.param("embedding_scale", 10**400, id="embedding_scale-10**400"),
            ("mlp_hidden", "ab"), ("mlp_hidden", 5), ("mlp_hidden", [5, 0]),
            ("mlp_hidden", [5.0]), ("mlp_hidden", [True]), ("mlp_hidden", None),
        ],
    )
    def test_config_field_types(self, tmp_path, field, value):
        cfg = ModelConfig(d=4, norm=1, mode="mlp-boxe", mlp_hidden=(5,), feature_dim=3)
        params = init_params((3, 1, 1), cfg, seed=37)
        for writer in (ref.ref_save_model_v1, save_model):
            path = tmp_path / "model.json"
            writer(params, path)
            payload = json.loads(path.read_text())
            for good in (None, 1, 0.25) if field == "embedding_scale" else ():
                payload["config"][field] = good  # the kinds of scale that load
                path.write_text(json.dumps(payload))
                assert load_model(path).config.embedding_scale == good
            payload["config"][field] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(DataError, match=f"config {field} must be"):
                load_model(path)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("not-base64", "not base64"),
            ("line-break", "not base64"),
            ("non-ascii", "not base64"),
            ("unpadded", "not base64"),
            ("short", "bytes"),
            ("bool-axis", "shape"),
            ("negative-axis", "shape"),
            ("float-axis", "shape"),
            ("extra-axis", "bytes"),
            ("number-list", "base64 string"),
            ("dtype-key", "exactly"),
        ],
    )
    def test_v2_tensor_checks(self, tmp_path, mutation, message):
        params = init_params((3, 1, 1), ModelConfig(d=2, mode="boxe"), seed=35)
        path = tmp_path / "model.json"
        save_model(params, path)
        payload = json.loads(path.read_text())
        entry = payload["tensors"]["point_emb"]  # shape [3, 2]: 48 bytes, 64 characters
        if mutation == "not-base64":
            entry["data"] = entry["data"][:10] + "!" + entry["data"][11:]
        elif mutation == "line-break":  # a lenient decoder would skip it
            entry["data"] = entry["data"][:32] + "\n" + entry["data"][32:]
        elif mutation == "non-ascii":
            entry["data"] = entry["data"][:10] + "\u00e9" + entry["data"][11:]
        elif mutation == "unpadded":
            entry["data"] = entry["data"][:-1]
        elif mutation == "short":
            entry["data"] = entry["data"][:-4]
        elif mutation == "bool-axis":
            entry["shape"] = [3, True, 2]
        elif mutation == "negative-axis":
            entry["shape"] = [-3, -2]
        elif mutation == "float-axis":
            entry["shape"] = [3.0, 2]
        elif mutation == "extra-axis":
            entry["shape"] = [3, 2, 2]
        elif mutation == "number-list":
            entry["data"] = params.point_emb.ravel().tolist()
        else:
            entry["dtype"] = "<f8"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize("writer", ["v1", "v2"])
    def test_memory(self, tmp_path, writer):
        # peak traced allocation of a save and a load, in units of the tensors' bytes
        cfg = ModelConfig(d=64, mode="mlp-boxe", mlp_hidden=(256, 256), feature_dim=16)
        params = init_params((400, 4, 2), cfg, seed=36)
        raw = sum(arr.nbytes for arr in params.param_dict().values())
        assert 1.6e6 < raw < 2.0e6  # ~225k floats
        path = tmp_path / "model.json"

        def peak(fn, *args):
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                fn(*args)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return (top - start) / raw

        if writer == "v1":  # the reference writer is not guarded, only the loader
            ref.ref_save_model_v1(params, path)
        else:
            assert peak(save_model, params, path) <= 3.5
        assert peak(load_model, path) <= (7.5 if writer == "v1" else 3.5)
