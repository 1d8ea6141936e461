"""Independent reference implementations used as test oracles.

Everything here is written with plain Python loops and scalar arithmetic
(the losses with small numpy helpers), separate from the library's
vectorized code paths, so that agreement is meaningful.  The exceptions:
``ref_binary_score_tensors`` is the unfused graph that the library's fused
binary scoring must reproduce bit for bit; ``ref_box_terms`` is the box
kernel with masked copies and an in-place ``np.sign``, which
``model._box_terms`` must reproduce bit for bit; ``ref_save_model_v1`` is the
version-1 checkpoint writer, which ``load_model`` still reads;
``ref_generate_synthetic`` is the per-pair synthetic generator, whose
datasets ``synth.generate_synthetic`` must reproduce bit for bit.
"""

import json
import math
from typing import Sequence

import numpy as np

from boxkg import autodiff as ad
from boxkg.data import Binary, DataError, Dataset, LabelSplits, Unary, Vocabulary
from boxkg.model import CHECKPOINT_FORMAT, box_score_rows
from boxkg.synth import PlantedRule


def ref_distance(p: float, lower: float, upper: float) -> float:
    center = (lower + upper) / 2.0
    width = upper - lower + 1.0
    if lower <= p <= upper:
        return abs(p - center) / width
    kappa = 0.5 * (width - 1.0) * (width - 1.0 / width)
    return abs(p - center) * width - kappa


def ref_norm(values, order: int) -> float:
    if order == 1:
        return sum(abs(v) for v in values)
    return math.sqrt(sum(v * v for v in values))


def ref_point_score(point, lower, upper, order) -> float:
    return ref_norm(
        [ref_distance(p, l, u) for p, l, u in zip(point, lower, upper)], order
    )


def ref_unary_score(config, cls: int, ent: int) -> float:
    return ref_point_score(
        config.positions[ent], config.class_lower[cls], config.class_upper[cls], config.norm
    )


def ref_binary_score(config, rel: int, head: int, tail: int) -> float:
    head_final = [p + b for p, b in zip(config.positions[head], config.bumps[tail])]
    tail_final = [p + b for p, b in zip(config.positions[tail], config.bumps[head])]
    return ref_point_score(
        head_final, config.rel_head_lower[rel], config.rel_head_upper[rel], config.norm
    ) + ref_point_score(
        tail_final, config.rel_tail_lower[rel], config.rel_tail_upper[rel], config.norm
    )


def ref_rank(candidate_scores, true_index: int, known_true: set[int]) -> int:
    """All-candidates enumeration with the documented filtering and tie rule."""
    true_score = candidate_scores[true_index]
    strictly_better = 0
    tied = 0
    for idx, score in enumerate(candidate_scores):
        if idx == true_index or (idx in known_true):
            continue
        if score < true_score:
            strictly_better += 1
        elif score == true_score:
            tied += 1
    return 1 + strictly_better + tied // 2


def ref_head_ranks(config, fact, filter_facts) -> int:
    scores = [
        ref_binary_score(config, fact.rel, h, fact.tail)
        for h in range(len(config.positions))
    ]
    known = {
        f.head for f in filter_facts if f.rel == fact.rel and f.tail == fact.tail
    }
    return ref_rank(scores, fact.head, known)


def ref_tail_ranks(config, fact, filter_facts) -> int:
    scores = [
        ref_binary_score(config, fact.rel, fact.head, t)
        for t in range(len(config.positions))
    ]
    known = {
        f.tail for f in filter_facts if f.rel == fact.rel and f.head == fact.head
    }
    return ref_rank(scores, fact.tail, known)


def ref_scatter_rows(index, rows, n_rows: int) -> np.ndarray:
    """Row i is the sum of ``rows[j]`` over every j with ``index[j] == i``."""
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros((n_rows, rows.shape[1]))
    for j, i in enumerate(index):
        for col in range(rows.shape[1]):
            out[i, col] += rows[j, col]
    return out


def _softplus(x):
    return np.logaddexp(0.0, x)


def ns_loss(pos_score, neg_scores, margin: float, adv_alpha: float | None = None) -> float:
    """Margin log-sigmoid loss; optional self-adversarial negative weighting."""
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if neg_scores.size == 0:
        raise ValueError("ns_loss requires at least one negative score")
    if not (np.isfinite(pos_score) and np.all(np.isfinite(neg_scores))):
        raise ValueError("scores must be finite")
    pos_term = _softplus(pos_score - margin)
    neg_terms = _softplus(margin - neg_scores)
    if adv_alpha is None:
        weights = np.full(neg_scores.shape, 1.0 / neg_scores.size)
    else:
        logits = -adv_alpha * neg_scores
        logits = logits - logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
    return float(pos_term + np.sum(weights * neg_terms))


def ce_loss(pos_score, neg_scores) -> float:
    """Cross entropy of the positive under a softmax over negated scores."""
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if neg_scores.size == 0:
        raise ValueError("ce_loss requires at least one negative score")
    if not (np.isfinite(pos_score) and np.all(np.isfinite(neg_scores))):
        raise ValueError("scores must be finite")
    z = -np.concatenate([[pos_score], neg_scores.ravel()])
    peak = z.max()
    return float(np.log(np.sum(np.exp(z - peak))) + peak - z[0])


def ref_adam_update(param, m, v, grad, step, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update written as plain expressions; returns new arrays."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def ref_random_assignment(n_entities, n_classes, n_relations, seed, true_prob=0.5):
    """One scalar draw per fact, unary facts first: (true facts, false facts)."""
    rng = np.random.default_rng(seed)
    true_facts, false_facts = set(), set()
    for cls in range(n_classes):
        for ent in range(n_entities):
            target = true_facts if rng.random() < true_prob else false_facts
            target.add(Unary(cls, ent))
    for rel in range(n_relations):
        for head in range(n_entities):
            for tail in range(n_entities):
                target = true_facts if rng.random() < true_prob else false_facts
                target.add(Binary(rel, head, tail))
    return frozenset(true_facts), frozenset(false_facts)


def ref_mlp_forward_tensors(pt, prefix: str, n_layers: int, x):
    """The MLP ``prefix`` as a ``matmul``, an ``add`` and (hidden layers) a ``relu`` per layer."""
    h = ad.Tensor(x)
    for i in range(n_layers):
        h = ad.matmul(h, pt[f"{prefix}.w{i}"]) + pt[f"{prefix}.b{i}"]
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


def ref_binary_score_tensors(positions, bumps, rel, head, tail, boxes, order):
    """Binary scores as four gathers, two adds and two ``box_score_rows`` calls.

    ``boxes`` holds the head and the tail (center, width) tensors.
    """
    (hc, hw), (tc, tw) = boxes
    head_final = ad.take_rows(positions, head) + ad.take_rows(bumps, tail)
    tail_final = ad.take_rows(positions, tail) + ad.take_rows(bumps, head)
    return box_score_rows(head_final, hc, hw, order, box_ids=rel) + box_score_rows(
        tail_final, tc, tw, order, box_ids=rel
    )


def ref_box_terms(p, bank, rows, saved, work) -> None:
    """Write the norms of points ``p`` and the factors of their backward into ``saved``.

    ``saved`` is (norms, signed slope, d dist/d width[, unit]): the signed
    slope is d dist/d point, zero at the box center, and ``unit``, present
    under L2 only, is d norm/d dist; an all-zero distance row gets a zero
    subgradient instead of a division by zero.  Boundary points take the
    inside branch.  ``bank`` holds the box centers and ``_box_constants``;
    ``rows`` picks each point's box from it, an index array or ``...`` where
    points and boxes broadcast.  ``work`` is four float arrays and one bool
    array of the scored shape.  Every step writes into ``saved`` or
    ``work``, so a call allocates nothing of that shape.  ``p`` may be
    ``work[0]``: the first step reads it and nothing after.
    """
    c, w, half, inv_w, kappa, dkappa_dw = bank
    norms, signed_slope, d_width, *unit = saved
    diff, offset, box, inv, inside = work

    def pick(table, out):  # the rows' boxes from one bank
        return table if rows is ... else np.take(table, rows, axis=0, out=out)

    np.subtract(p, pick(c, box), out=diff)
    np.abs(diff, out=offset)
    np.less_equal(offset, pick(half, box), out=inside)
    inv = pick(inv_w, inv)
    w = pick(w, box)
    np.copyto(signed_slope, w)
    np.copyto(signed_slope, inv, where=inside)
    signed_slope *= np.sign(diff, out=diff)
    scaled = np.multiply(offset, inv, out=diff)
    dist = unit[0] if unit else box
    np.multiply(offset, w, out=dist)
    dist -= pick(kappa, d_width)
    np.copyto(dist, scaled, where=inside)
    np.subtract(offset, pick(dkappa_dw, d_width), out=d_width)
    np.negative(np.multiply(scaled, inv, out=scaled), out=scaled)
    np.copyto(d_width, scaled, where=inside)
    if not unit:
        dist.sum(axis=-1, out=norms)
        return
    np.sqrt(np.multiply(dist, dist, out=offset).sum(axis=-1, out=norms), out=norms)
    live = norms[..., None] > 0
    with np.errstate(invalid="ignore"):
        np.divide(dist, norms[..., None], out=dist, where=live)
    np.copyto(dist, 0.0, where=~live)


def ref_save_model_v1(params, path) -> None:
    """Write a version-1 checkpoint: every tensor as a flat list of JSON numbers."""
    cfg = params.config
    tensors = {
        name: {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}
        for name, arr in params.param_dict().items()
    }
    payload = {
        "format": CHECKPOINT_FORMAT,
        "format_version": 1,
        "config": {
            "d": cfg.d,
            "norm": cfg.norm,
            "mode": cfg.mode,
            "embedding_scale": cfg.embedding_scale,
            "mlp_hidden": list(cfg.mlp_hidden),
            "feature_dim": cfg.feature_dim,
        },
        "counts": {
            "entities": params.n_entities,
            "classes": params.n_classes,
            "relations": params.n_relations,
        },
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")


def ref_generate_synthetic(
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
    """The per-pair generator: each (head, tail) pair of each rule decided in a Python loop.

    ``synth.generate_synthetic`` decides the same pairs as arrays, one head at
    a time, and must return an equal ``Dataset`` for every input.
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
        for head in members[rule.src_class]:
            draws = rng.random(len(members[rule.dst_class]))
            for tail, draw in zip(members[rule.dst_class], draws):
                if head == tail:
                    continue
                if communities > 1 and entity_community[head] != entity_community[tail]:
                    continue
                if draw < rule.prob:
                    edges.add(Binary(rule.relation, int(head), int(tail)))

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
