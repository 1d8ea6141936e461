"""Synthetic featured-KG generation with planted relational rules.

Class assignments are balanced blocks; features are drawn from per-class
Gaussian means placed on a sphere, optionally with several classes sharing
one feature mean so that features alone cannot fully determine the class;
edges follow class-pair-conditioned probabilities.  Both the features and
the relational structure then carry class signal, each only partially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Binary, DataError, Dataset, LabelSplits, Vocabulary


@dataclass(frozen=True)
class PlantedRule:
    """Edges ``relation(h, t)`` for class(h)=src, class(t)=dst with prob ``prob``."""

    relation: int
    src_class: int
    dst_class: int
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("rule probability must lie in [0, 1]")


def parse_rule(text: str) -> PlantedRule:
    """Parse ``REL:SRC>DST:PROB`` with integer class/relation indices."""
    try:
        rel_part, arrow_part, prob_part = text.split(":")
        src_part, dst_part = arrow_part.split(">")
        return PlantedRule(int(rel_part), int(src_part), int(dst_part), float(prob_part))
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad rule spec {text!r}, expected REL:SRC>DST:PROB") from exc


def default_rules(n_classes: int, n_relations: int, prob: float = 0.3) -> list[PlantedRule]:
    """One same-class rule per class, cycling through the relations."""
    return [
        PlantedRule(c % n_relations, c, c, prob) for c in range(n_classes)
    ]


def generate_synthetic(
    n_entities: int,
    n_classes: int,
    n_relations: int,
    k: int,
    planted_rules: Sequence[PlantedRule],
    seed: int,
    *,
    mean_radius: float = 3.0,
    feature_noise: float = 1.0,
    class_feature_groups: Sequence[int] | None = None,
    label_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    communities: int = 1,
) -> Dataset:
    """Generate a labeled, featured KG; deterministic for a fixed seed.

    ``class_feature_groups`` maps each class to a feature group; classes in
    the same group share a feature mean, which bounds how much the features
    alone can reveal about the class.  With ``communities > 1`` the entities
    are partitioned into that many blocks and rules only fire within a
    block, giving a sparse, fragmented relational structure.

    Cost: one uniform draw per (head, tail) pair of each rule, decided as
    arrays one head at a time, so the Python work grows with the heads and
    the kept edges, not with the pairs.
    """
    if min(n_entities, n_classes, n_relations, k) < 1:
        raise DataError("all counts must be >= 1")
    if n_classes > n_entities:
        raise DataError(
            f"degenerate config: {n_classes} classes for {n_entities} entities"
        )
    for rule in planted_rules:
        if rule.relation >= n_relations or max(rule.src_class, rule.dst_class) >= n_classes:
            raise DataError(f"rule {rule} references indices outside the vocabulary")
    if class_feature_groups is None:
        class_feature_groups = tuple(range(n_classes))
    if len(class_feature_groups) != n_classes:
        raise DataError("class_feature_groups must list one group per class")
    if not all(math.isfinite(f) and f >= 0.0 for f in label_fractions):
        raise DataError(f"label fractions must be finite and >= 0: {tuple(label_fractions)}")
    if sum(label_fractions) > 1.0 + 1e-9:
        raise DataError("label fractions must sum to at most 1")

    rng = np.random.default_rng(seed)
    vocab = Vocabulary(
        entities=tuple(f"e{i:05d}" for i in range(n_entities)),
        classes=tuple(f"c{i:03d}" for i in range(n_classes)),
        relations=tuple(f"r{i:03d}" for i in range(n_relations)),
    )

    entity_class = np.arange(n_entities) % n_classes
    if communities < 1:
        raise DataError("communities must be >= 1")
    # block assignment keeps every community balanced across classes
    entity_community = (np.arange(n_entities) // n_classes) % communities

    n_groups = max(class_feature_groups) + 1
    directions = rng.standard_normal((n_groups, k))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    group_means = mean_radius * directions
    group_of_entity = np.asarray(class_feature_groups)[entity_class]
    features = group_means[group_of_entity] + feature_noise * rng.standard_normal(
        (n_entities, k)
    )

    members = [np.flatnonzero(entity_class == c) for c in range(n_classes)]
    edges: set[Binary] = set()
    for rule in planted_rules:
        tails = members[rule.dst_class]
        tail_community = entity_community[tails]
        for head in members[rule.src_class].tolist():
            # a draw for every pair, rejected ones too: the label split reads the stream next
            keep = rng.random(len(tails)) < rule.prob
            keep &= tails != head
            keep &= tail_community == entity_community[head]
            edges.update(Binary(rule.relation, head, tail) for tail in tails[keep].tolist())

    order = rng.permutation(n_entities)
    n_train = int(round(label_fractions[0] * n_entities))
    n_valid = int(round(label_fractions[1] * n_entities))
    n_test = int(round(label_fractions[2] * n_entities))
    cut1, cut2, cut3 = n_train, n_train + n_valid, n_train + n_valid + n_test
    labels = LabelSplits(
        train={int(e): int(entity_class[e]) for e in order[:cut1]},
        valid={int(e): int(entity_class[e]) for e in order[cut1:cut2]},
        test={int(e): int(entity_class[e]) for e in order[cut2:cut3]},
    )

    return Dataset(vocab=vocab, edges=tuple(edges), labels=labels, features=features)
