"""Negative sampling, losses, Adam, and the joint training loop.

Unary label facts and binary edge facts are shuffled together each epoch, so
the two tasks mix in proportion to their fact counts.  Scores are distances,
so *lower* means more plausible throughout; the losses below are written for
that orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import autodiff as ad
from .data import DataError, Dataset
from .model import (
    ModelConfig,
    ModelParams,
    binary_score_tensors,
    check_features,
    init_params,
    materialize,
    representation_tensors,
    unary_all_class_score_tensors,
    unary_score_tensors,
)

LOSS_KINDS = ("ns", "adv-ns", "ce")

# Decoupled (AdamW-style) decay of the feature-MLP weight matrices per unit
# of learning rate; see the ``boxkg.model`` docstring for why.
MLP_WEIGHT_DECAY = 4.0


class NumericError(Exception):
    """Raised when training or gradient evaluation produces non-finite values."""


@dataclass(frozen=True)
class LossConfig:
    kind: str = "ns"
    margin: float = 5.0
    adv_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind != "ce" and self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.kind == "adv-ns" and self.adv_alpha <= 0:
            raise ValueError("adversarial temperature must be positive")


# ---------------------------------------------------------------------------
# negative sampling


def _sample_unary_negative_classes(
    cls: np.ndarray, n_classes: int, num: int, rng: np.random.Generator
) -> np.ndarray:
    if n_classes < 2:
        raise DataError("cannot corrupt the class of a fact with a singleton class set")
    draw = rng.integers(0, n_classes - 1, size=(cls.shape[0], num))
    return draw + (draw >= cls[:, None])


def _sample_binary_negatives(
    head: np.ndarray,
    tail: np.ndarray,
    n_entities: int,
    num: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    if n_entities < 2:
        raise DataError("cannot corrupt entities with fewer than two entities")
    corrupt_head = rng.integers(0, 2, size=(head.shape[0], num)).astype(bool)
    draw = rng.integers(0, n_entities - 1, size=(head.shape[0], num))
    neg_head = np.where(corrupt_head, draw + (draw >= head[:, None]), head[:, None])
    neg_tail = np.where(~corrupt_head, draw + (draw >= tail[:, None]), tail[:, None])
    return neg_head, neg_tail


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> tuple[AdamState, dict[str, np.ndarray]]:
    """Standard bias-corrected Adam update; mutates params/state in place.

    Each tensor is updated through two work buffers, in the association
    ``param -= (lr * (m / c1)) / (sqrt(v / c2) + eps)``.
    """
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    for name, grad in grads.items():
        param = params[name]
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(param)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(param)
        update, denom = np.empty_like(param), np.empty_like(param)
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, grad, out=update)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, grad, out=update)
        v += np.multiply(update, grad, out=update)
        np.divide(m, correction1, out=update)
        update *= state.lr
        np.divide(v, correction2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        update /= denom
        param -= update
    return state, params


# ---------------------------------------------------------------------------
# batched gradient evaluation


@dataclass
class FactBatch:
    """Positive facts with their sampled corruptions (roles are positional).

    ``unary_neg_cls=None`` with a CE loss means the negative set is all other
    classes (full softmax over the class vocabulary).
    """

    unary_cls: np.ndarray | None = None
    unary_ent: np.ndarray | None = None
    unary_neg_cls: np.ndarray | None = None
    binary_rel: np.ndarray | None = None
    binary_head: np.ndarray | None = None
    binary_tail: np.ndarray | None = None
    binary_neg_head: np.ndarray | None = None
    binary_neg_tail: np.ndarray | None = None

    @property
    def n_unary(self) -> int:
        return 0 if self.unary_cls is None else len(self.unary_cls)

    @property
    def n_binary(self) -> int:
        return 0 if self.binary_rel is None else len(self.binary_rel)


def _ns_loss_vec(pos, negs, margin: float, adv_alpha: float | None):
    pos_term = ad.softplus(pos - margin)
    neg_sp = ad.softplus(margin - negs)
    if adv_alpha is None:
        k = negs.shape[1]
        neg_term = ad.mul(ad.tsum(neg_sp, axis=1), 1.0 / k)
    else:
        logits = ad.mul(negs, -adv_alpha)
        weights = ad.exp(logits - ad.logsumexp(logits, axis=1, keepdims=True))
        neg_term = ad.tsum(ad.mul(weights, neg_sp), axis=1)
    return pos_term + neg_term


def _ce_loss_vec(pos, negs):
    n = pos.shape[0]
    z_pos = ad.mul(pos, -1.0)
    z = ad.concat([ad.reshape(z_pos, (n, 1)), ad.mul(negs, -1.0)], axis=1)
    return ad.logsumexp(z, axis=1) - z_pos


def _loss_vec(loss_config: LossConfig, pos, negs):
    if loss_config.kind == "ce":
        return _ce_loss_vec(pos, negs)
    alpha = loss_config.adv_alpha if loss_config.kind == "adv-ns" else None
    return _ns_loss_vec(pos, negs, loss_config.margin, alpha)


def softmax_ce_vec(logits, gold: np.ndarray):
    """Per-row cross entropy of the ``gold`` column under a softmax over ``logits``."""
    n, n_cols = logits.shape
    gold_logit = ad.take_rows(ad.reshape(logits, (n * n_cols,)), np.arange(n) * n_cols + gold)
    return ad.logsumexp(logits, axis=1) - gold_logit


def batch_gradients(
    params: ModelParams,
    batch: FactBatch,
    loss_config: LossConfig,
    features: np.ndarray | None = None,
    unary_weight: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact gradients of the mean per-positive loss over the batch."""
    n_total = batch.n_unary + batch.n_binary
    if n_total == 0:
        raise ValueError("batch must contain at least one positive fact")
    pt = ad.leaves(params.param_dict())
    positions, bumps = representation_tensors(params, pt, features)

    terms = []
    if batch.n_unary:
        if loss_config.kind == "ce" and batch.unary_neg_cls is None:
            scores_all = unary_all_class_score_tensors(params, pt, positions, batch.unary_ent)
            vec = softmax_ce_vec(ad.mul(scores_all, -1.0), batch.unary_cls)
        else:
            if batch.unary_neg_cls is None:
                raise ValueError("unary negatives required for this loss")
            pos = unary_score_tensors(params, pt, positions, batch.unary_cls, batch.unary_ent)
            negs = unary_score_tensors(
                params,
                pt,
                positions,
                batch.unary_neg_cls.ravel(),
                np.repeat(batch.unary_ent, batch.unary_neg_cls.shape[1]),
            )
            vec = _loss_vec(loss_config, pos, ad.reshape(negs, batch.unary_neg_cls.shape))
        terms.append(ad.mul(ad.tsum(vec), unary_weight))

    if batch.n_binary:
        pos = binary_score_tensors(
            params, pt, positions, bumps, batch.binary_rel, batch.binary_head, batch.binary_tail
        )
        k = batch.binary_neg_head.shape[1]
        rel_rep = np.repeat(batch.binary_rel, k)
        negs = binary_score_tensors(
            params,
            pt,
            positions,
            bumps,
            rel_rep,
            batch.binary_neg_head.ravel(),
            batch.binary_neg_tail.ravel(),
        )
        vec = _loss_vec(loss_config, pos, ad.reshape(negs, batch.binary_neg_head.shape))
        terms.append(ad.tsum(vec))

    loss = ad.mul(sum(terms[1:], terms[0]), 1.0 / n_total)
    loss.backward()
    loss_value = float(loss.data)
    grads = ad.gradients(pt)
    bad = [name for name, grad in grads.items() if not np.all(np.isfinite(grad))]
    if not math.isfinite(loss_value):
        raise NumericError("non-finite loss value")
    if bad:
        raise NumericError(f"non-finite gradients for: {', '.join(bad)}")
    return loss_value, grads


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 512
    seed: int = 0
    learning_rate: float = 1e-3
    num_negatives: int = 100
    use_class_facts: bool = True
    unary_weight: float = 1.0
    loss: LossConfig = field(default_factory=LossConfig)
    eval_every: int = 10
    patience: int = 50
    track_best: bool = True
    eval_metric: str = "auto"  # auto | accuracy | mrr | loss

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_negatives < 1:
            raise ValueError("num_negatives must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.eval_metric not in ("auto", "accuracy", "mrr", "loss"):
            raise ValueError(f"unknown eval metric {self.eval_metric!r}")


@dataclass
class TrainingLog:
    """Append-only `(epoch, split, metric, value)` records."""

    records: list[tuple[int, str, str, float]] = field(default_factory=list)
    diverged: bool = False

    def append(self, epoch: int, split: str, metric: str, value: float) -> None:
        self.records.append((epoch, split, metric, float(value)))

    def values(self, split: str, metric: str) -> list[tuple[int, float]]:
        return [(e, v) for e, s, m, v in self.records if s == split and m == metric]

    def to_text(self) -> str:
        lines = [f"{e}\t{s}\t{m}\t{v!r}" for e, s, m, v in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_text())


def _resolve_metric(config: TrainConfig, dataset: Dataset) -> str:
    if config.eval_metric != "auto":
        return config.eval_metric
    if config.use_class_facts and dataset.labels.valid and dataset.vocab.n_classes:
        return "accuracy"
    if dataset.dropped_edges:
        return "mrr"
    return "loss"


def _validation_value(
    metric: str,
    params: ModelParams,
    dataset: Dataset,
    features: np.ndarray | None,
    train_loss: float,
) -> float:
    # imported here to keep evaluation free to import this module's configs
    from .evaluation import accuracy, classify_entities, ranking_metrics

    if metric == "accuracy":
        cfg = materialize(params, features)
        predictions = classify_entities(cfg, sorted(dataset.labels.valid))
        return accuracy(predictions, dataset.labels.valid)
    if metric == "mrr":
        cfg = materialize(params, features)
        filter_facts = dataset.edges + dataset.dropped_edges
        return ranking_metrics(cfg, dataset.dropped_edges, filter_facts).mrr
    return -train_loss


def train(
    dataset: Dataset, model_config: ModelConfig, train_config: TrainConfig
) -> tuple[ModelParams, TrainingLog]:
    """Train on label and edge facts jointly; returns the best checkpoint.

    Deterministic for fixed configs and seed (single-threaded, canonical
    intra-batch fact order).  On a non-finite loss the loop aborts and the
    last finite checkpoint is returned with ``log.diverged`` set.
    """
    vocab = dataset.vocab
    features = dataset.features if model_config.feature_mode else None
    if model_config.feature_mode:
        if dataset.features is None:
            raise DataError("feature mode requires a dataset with features")
        check_features(dataset.features)

    init_seed, loop_seed = (
        int(s) for s in np.random.SeedSequence(train_config.seed).generate_state(2)
    )
    params = init_params(vocab, model_config, init_seed)
    rng = np.random.default_rng(loop_seed)

    use_unary = (
        train_config.use_class_facts
        and vocab.n_classes > 0
        and len(dataset.labels.train) > 0
    )
    if use_unary:
        pairs = sorted(dataset.labels.train.items())
        u_ent = np.array([ent for ent, _ in pairs], dtype=np.intp)
        u_cls = np.array([cls for _, cls in pairs], dtype=np.intp)
    else:
        u_ent = u_cls = np.empty(0, dtype=np.intp)
    b_rel = np.array([e.rel for e in dataset.edges], dtype=np.intp)
    b_head = np.array([e.head for e in dataset.edges], dtype=np.intp)
    b_tail = np.array([e.tail for e in dataset.edges], dtype=np.intp)

    n_u, n_b = len(u_ent), len(b_rel)
    n_facts = n_u + n_b
    if n_facts == 0:
        raise DataError("no training facts (no edges and no usable labels)")

    metric_name = _resolve_metric(train_config, dataset)
    opt = AdamState(lr=train_config.learning_rate)
    live = params.param_dict()
    mlps = [mlp for mlp in (params.mlp_point, params.mlp_bump) if mlp is not None]
    decayed = [weight for mlp in mlps for weight in mlp.weights]
    # clamped so that a learning rate above 1/MLP_WEIGHT_DECAY cannot flip signs
    decay = max(0.0, 1.0 - train_config.learning_rate * MLP_WEIGHT_DECAY)
    log = TrainingLog()
    k = train_config.num_negatives
    full_class_ce = train_config.loss.kind == "ce"

    best_value = -np.inf
    best_epoch = -1
    best_params: ModelParams | None = None

    for epoch in range(train_config.epochs):
        perm = rng.permutation(n_facts)
        epoch_loss = 0.0
        n_batches = 0
        aborted = False
        for start in range(0, n_facts, train_config.batch_size):
            ids = perm[start : start + train_config.batch_size]
            uids = np.sort(ids[ids < n_u])
            bids = np.sort(ids[ids >= n_u]) - n_u
            batch = FactBatch()
            if len(uids):
                batch.unary_cls = u_cls[uids]
                batch.unary_ent = u_ent[uids]
                if not full_class_ce:
                    batch.unary_neg_cls = _sample_unary_negative_classes(
                        batch.unary_cls, vocab.n_classes, k, rng
                    )
            if len(bids):
                batch.binary_rel = b_rel[bids]
                batch.binary_head = b_head[bids]
                batch.binary_tail = b_tail[bids]
                batch.binary_neg_head, batch.binary_neg_tail = _sample_binary_negatives(
                    batch.binary_head, batch.binary_tail, vocab.n_entities, k, rng
                )
            try:
                loss_value, grads = batch_gradients(
                    params,
                    batch,
                    train_config.loss,
                    features,
                    unary_weight=train_config.unary_weight,
                )
            except NumericError:
                log.diverged = True
                aborted = True
                break
            adam_step(opt, live, grads)
            for weight in decayed:
                weight *= decay
            epoch_loss += loss_value
            n_batches += 1
        if n_batches:
            log.append(epoch, "train", "loss", epoch_loss / n_batches)
        if aborted:
            break

        due = (epoch + 1) % train_config.eval_every == 0 or epoch == train_config.epochs - 1
        if train_config.track_best and due:
            value = _validation_value(
                metric_name, params, dataset, features, epoch_loss / max(n_batches, 1)
            )
            log.append(epoch, "valid", metric_name, value)
            if value > best_value:
                best_value = value
                best_epoch = epoch
                best_params = params.copy()
            elif epoch - best_epoch >= train_config.patience:
                break

    if best_params is not None and not log.diverged:
        return best_params, log
    return params, log
