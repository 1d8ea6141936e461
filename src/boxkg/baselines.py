"""Non-embedding classification baselines: label propagation and a feature MLP.

Label propagation is deliberately feature-blind and relation-blind (it runs
on the undirected, relation-collapsed simple graph); the MLP classifier is
deliberately edge-blind.  Together they measure how much signal each source
carries on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .model import MlpParams, mlp_forward, mlp_forward_tensors, mlp_init
from .training import AdamState, adam_step, softmax_ce_vec


@dataclass
class LabelDistribution:
    """Per-entity class probabilities; unreachable entities are flagged."""

    probs: np.ndarray
    reached: np.ndarray
    iterations: int
    change_history: list[float] = field(default_factory=list)

    def predictions(self) -> np.ndarray:
        # np.argmin/argmax take the first (lowest-index) winner on ties
        return np.argmax(self.probs, axis=1)

    @property
    def unreached_entities(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(~self.reached)]


def label_propagation(
    dataset: Dataset,
    max_iters: int = 1000,
    tolerance: float = 1e-6,
    labels: Mapping[int, int] | None = None,
) -> LabelDistribution:
    """Iterate ``Y <- D^-1 A Y`` with labeled rows re-clamped each round.

    ``labels`` defaults to the training split.  Entities that no label mass
    can reach keep a uniform distribution and are flagged.
    """
    vocab = dataset.vocab
    if labels is None:
        labels = dataset.labels.train
    if not labels:
        raise ValueError("label propagation requires at least one labeled node")
    n_ent, n_cls = vocab.n_entities, vocab.n_classes

    neighbors: list[set[int]] = [set() for _ in range(n_ent)]
    for edge in dataset.edges:
        if edge.head == edge.tail:
            continue
        neighbors[edge.head].add(edge.tail)
        neighbors[edge.tail].add(edge.head)
    neighbor_idx = [np.fromiter(sorted(ns), dtype=np.intp) for ns in neighbors]

    probs = np.zeros((n_ent, n_cls))
    labeled = np.zeros(n_ent, dtype=bool)
    for ent, cls in labels.items():
        probs[ent, cls] = 1.0
        labeled[ent] = True
    unlabeled = np.flatnonzero(~labeled)

    iterations = 0
    history: list[float] = []
    for iterations in range(1, max_iters + 1):
        new_probs = probs.copy()
        for ent in unlabeled:
            idx = neighbor_idx[ent]
            if len(idx):
                new_probs[ent] = probs[idx].mean(axis=0)
        change = float(np.abs(new_probs - probs).max())
        history.append(change)
        probs = new_probs
        if change < tolerance:
            break

    mass = probs.sum(axis=1)
    reached = mass > 0
    probs[reached] /= mass[reached, None]
    probs[~reached] = 1.0 / n_cls
    return LabelDistribution(
        probs=probs, reached=reached, iterations=iterations, change_history=history
    )


@dataclass(frozen=True)
class MlpClassifierConfig:
    hidden: tuple[int, ...] = (512, 512)
    epochs: int = 200
    learning_rate: float = 1e-3


@dataclass
class MlpClassifier:
    mlp: MlpParams
    n_classes: int

    def logits(self, features: np.ndarray) -> np.ndarray:
        return mlp_forward(self.mlp, features)


def mlp_classifier_train(
    features: np.ndarray,
    labels: Mapping[int, int],
    n_classes: int,
    config: MlpClassifierConfig = MlpClassifierConfig(),
    seed: int = 0,
) -> MlpClassifier:
    """Softmax cross-entropy MLP on node features only; deterministic per seed."""
    if features is None:
        raise ValueError("the MLP baseline requires node features")
    if not labels:
        raise ValueError("no labeled training entities")
    features = np.asarray(features, dtype=np.float64)
    pairs = sorted(labels.items())
    x = features[[ent for ent, _ in pairs]]
    gold = np.array([cls for _, cls in pairs], dtype=np.intp)

    rng = np.random.default_rng(seed)
    mlp = mlp_init(features.shape[1], config.hidden, n_classes, rng)
    opt = AdamState(lr=config.learning_rate)
    live = {f"mlp.w{i}": w for i, w in enumerate(mlp.weights)}
    live.update({f"mlp.b{i}": b for i, b in enumerate(mlp.biases)})
    for _ in range(config.epochs):
        pt = ad.leaves(live)
        logits = mlp_forward_tensors(pt, "mlp", len(mlp.weights), x)
        loss = ad.mul(ad.tsum(softmax_ce_vec(logits, gold)), 1.0 / len(gold))
        loss.backward()
        adam_step(opt, live, ad.gradients(pt))
    return MlpClassifier(mlp=mlp, n_classes=n_classes)


def mlp_classifier_predict(
    classifier: MlpClassifier, features: np.ndarray, entities=None
) -> dict[int, int]:
    """Argmax class per entity (ties go to the lowest class index)."""
    features = np.asarray(features, dtype=np.float64)
    if entities is None:
        entities = range(features.shape[0])
    entities = [int(e) for e in entities]
    logits = classifier.logits(features[entities])
    picks = np.argmax(logits, axis=1)
    return {ent: int(cls) for ent, cls in zip(entities, picks)}
