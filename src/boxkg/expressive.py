"""Constructive expressiveness oracle.

Given any disjoint true/false assignment over the full fact space, a
configuration mapping every true fact strictly below every false fact is
built in two stages: a binary-capturing base is obtained by optimize-then-
verify, and class memberships are then added analytically by appending one
dimension per class.  In the appended dimensions each class box spans
[-1, 1], member entities sit at 0 and non-members at 2, bumps are zeroed,
and relation boxes span [-3, 3] so previously captured binary facts stay
captured.

With the L2 norm and the default fit thresholds, the analytic bounds on how
much the appended dimensions can move any score guarantee that a verified
base extends to a jointly separated configuration for instances with up to
~18 base dimensions and 3 classes; larger instances are still verified
explicitly, just without the a-priori guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Binary, Fact, Unary, fact_sort_key
from .model import (
    ExplicitConfig,
    MlpParams,
    ModelConfig,
    ModelParams,
    binary_score_tensors,
    config_binary_scores,
    config_unary_scores,
    init_params,
    inv_softplus,
    materialize,
    mlp_forward,
    representation_tensors,
)
from .training import AdamState, adam_step


class ExpressivenessError(Exception):
    """Raised when a verified configuration cannot be produced."""


@dataclass(frozen=True)
class FactAssignment:
    """Disjoint sets of facts declared true and false."""

    true_facts: frozenset[Fact]
    false_facts: frozenset[Fact]

    def __post_init__(self):
        object.__setattr__(self, "true_facts", frozenset(self.true_facts))
        object.__setattr__(self, "false_facts", frozenset(self.false_facts))
        overlap = self.true_facts & self.false_facts
        if overlap:
            raise ValueError(f"{len(overlap)} facts assigned both true and false")

    def binary_only(self) -> "FactAssignment":
        return FactAssignment(
            frozenset(f for f in self.true_facts if isinstance(f, Binary)),
            frozenset(f for f in self.false_facts if isinstance(f, Binary)),
        )

    def unary_only(self) -> "FactAssignment":
        return FactAssignment(
            frozenset(f for f in self.true_facts if isinstance(f, Unary)),
            frozenset(f for f in self.false_facts if isinstance(f, Unary)),
        )


def random_assignment(
    n_entities: int,
    n_classes: int,
    n_relations: int,
    seed: int,
    true_prob: float = 0.5,
) -> FactAssignment:
    """Random true/false split of the full fact space over the vocabulary.

    One uniform draw per fact, unary facts first, each kind in index order.
    """
    entities = range(n_entities)
    facts = [Unary(cls, ent) for cls in range(n_classes) for ent in entities]
    facts += [
        Binary(rel, head, tail)
        for rel in range(n_relations) for head in entities for tail in entities
    ]
    draws = np.random.default_rng(seed).random(len(facts))
    true_facts: set[Fact] = set()
    false_facts: set[Fact] = set()
    for fact, is_true in zip(facts, (draws < true_prob).tolist()):
        (true_facts if is_true else false_facts).add(fact)
    return FactAssignment(frozenset(true_facts), frozenset(false_facts))


# ---------------------------------------------------------------------------
# separation verification


@dataclass(frozen=True)
class SeparationReport:
    passed: bool
    margin: float
    max_true: float
    min_false: float
    worst_true: Fact | None
    worst_false: Fact | None
    violations: tuple[tuple[Fact, float], ...]

    def to_records(self) -> list[tuple[str, str]]:
        records = [
            ("separated", "yes" if self.passed else "no"),
            ("margin", repr(self.margin)),
            ("max_true_score", repr(self.max_true)),
            ("min_false_score", repr(self.min_false)),
            ("violations", str(len(self.violations))),
        ]
        for fact, score in self.violations:
            records.append(("violating_fact", f"{fact} score={score!r}"))
        return records


def _assignment_scores(config: ExplicitConfig, facts: frozenset[Fact]):
    ordered = sorted(facts, key=fact_sort_key)
    unary = [f for f in ordered if isinstance(f, Unary)]
    binary = [f for f in ordered if isinstance(f, Binary)]
    scores = np.empty(len(ordered))
    if unary:
        scores[: len(unary)] = config_unary_scores(
            config, [f.cls for f in unary], [f.ent for f in unary]
        )
    if binary:
        scores[len(unary) :] = config_binary_scores(
            config,
            [f.rel for f in binary],
            [f.head for f in binary],
            [f.tail for f in binary],
        )
    return unary + binary, scores


def verify_separation(config: ExplicitConfig, assignment: FactAssignment) -> SeparationReport:
    """Check that every declared-true fact scores below every declared-false one.

    Empty sides pass vacuously.
    """
    true_facts, true_scores = _assignment_scores(config, assignment.true_facts)
    false_facts, false_scores = _assignment_scores(config, assignment.false_facts)

    max_true = float(true_scores.max()) if len(true_scores) else float("-inf")
    min_false = float(false_scores.min()) if len(false_scores) else float("inf")
    worst_true = true_facts[int(true_scores.argmax())] if true_facts else None
    worst_false = false_facts[int(false_scores.argmin())] if false_facts else None

    passed = max_true < min_false
    violations: list[tuple[Fact, float]] = []
    if not passed:
        violations.extend(
            (fact, float(score))
            for fact, score in zip(true_facts, true_scores)
            if score >= min_false
        )
        violations.extend(
            (fact, float(score))
            for fact, score in zip(false_facts, false_scores)
            if score <= max_true
        )

    return SeparationReport(
        passed=passed,
        margin=min_false - max_true,
        max_true=max_true,
        min_false=min_false,
        worst_true=worst_true,
        worst_false=worst_false,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# analytic class extension


def extend_with_classes(
    base: ExplicitConfig,
    assignment: FactAssignment,
    eps: float = 0.1,
    n_classes: int | None = None,
) -> ExplicitConfig:
    """Append one dimension per class to a binary-capturing configuration.

    Class boxes fit all entity positions (with an ``eps`` slack) in the base
    dimensions, span [-1, 1] in their own appended dimension, and fit the
    0/2 membership coordinates in the other appended dimensions.  Bumps are
    zero in appended dimensions; relation boxes span [-3, 3] there.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if base.n_classes:
        raise ValueError("base configuration already carries class boxes")

    unary = assignment.unary_only()
    base_report = verify_separation(base, assignment.binary_only())
    if not base_report.passed:
        raise ExpressivenessError(
            "base configuration does not capture the binary assignment "
            f"(margin {base_report.margin!r})"
        )

    if n_classes is None:
        classes = [f.cls for f in unary.true_facts | unary.false_facts]
        n_classes = max(classes) + 1 if classes else 0
    n_ent, d = base.positions.shape
    d2 = d + n_classes

    member = np.zeros((n_ent, n_classes), dtype=bool)
    for fact in unary.true_facts:
        if fact.cls >= n_classes or fact.ent >= n_ent:
            raise ValueError(f"fact {fact} outside the configuration vocabulary")
        member[fact.ent, fact.cls] = True
    for fact in unary.false_facts:
        if fact.cls >= n_classes or fact.ent >= n_ent:
            raise ValueError(f"fact {fact} outside the configuration vocabulary")

    positions = np.zeros((n_ent, d2))
    positions[:, :d] = base.positions
    positions[:, d:] = np.where(member, 0.0, 2.0)
    bumps = np.zeros((n_ent, d2))
    bumps[:, :d] = base.bumps

    fit_lo = base.positions.min(axis=0) - eps
    fit_hi = base.positions.max(axis=0) + eps
    new_lo = positions[:, d:].min(axis=0) - eps
    new_hi = positions[:, d:].max(axis=0) + eps

    class_lower = np.empty((n_classes, d2))
    class_upper = np.empty((n_classes, d2))
    class_lower[:, :d] = fit_lo
    class_upper[:, :d] = fit_hi
    class_lower[:, d:] = new_lo
    class_upper[:, d:] = new_hi
    for cls in range(n_classes):
        class_lower[cls, d + cls] = -1.0
        class_upper[cls, d + cls] = 1.0

    def widen(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_rel = lower.shape[0]
        lo = np.full((n_rel, d2), -3.0)
        hi = np.full((n_rel, d2), 3.0)
        lo[:, :d] = lower
        hi[:, :d] = upper
        return lo, hi

    head_lo, head_hi = widen(base.rel_head_lower, base.rel_head_upper)
    tail_lo, tail_hi = widen(base.rel_tail_lower, base.rel_tail_upper)

    return ExplicitConfig(
        positions=positions,
        bumps=bumps,
        class_lower=class_lower,
        class_upper=class_upper,
        rel_head_lower=head_lo,
        rel_head_upper=head_hi,
        rel_tail_lower=tail_lo,
        rel_tail_upper=tail_hi,
        norm=base.norm,
    )


# ---------------------------------------------------------------------------
# exact reconstruction with feature MLPs


def reconstruct_with_mlp(
    target: ExplicitConfig,
    point_mlp: MlpParams,
    bump_mlp: MlpParams,
    features: np.ndarray,
) -> ModelParams:
    """Feature-mode parameters whose scores equal the target's exactly.

    Embeddings absorb the MLP outputs: each entity's embedding is set to the
    target vector minus the MLP output for its features, so entities with
    identical features can still take distinct target vectors.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != target.n_entities:
        raise ValueError("features must have one row per entity")
    k = features.shape[1]
    for name, mlp in (("point", point_mlp), ("bump", bump_mlp)):
        if mlp.input_dim != k:
            raise ValueError(f"{name} MLP input dim {mlp.input_dim} != feature dim {k}")
        if mlp.output_dim != target.d:
            raise ValueError(
                f"{name} MLP output dim {mlp.output_dim} != configuration dim {target.d}"
            )

    config = ModelConfig(
        d=target.d,
        norm=target.norm,
        mode="mlp-boxe",
        embedding_scale=1.0,
        mlp_hidden=point_mlp.hidden_sizes,
        feature_dim=k,
    )
    return ModelParams(
        config=config,
        point_emb=target.positions - mlp_forward(point_mlp, features),
        bump_emb=target.bumps - mlp_forward(bump_mlp, features),
        class_center=0.5 * (target.class_lower + target.class_upper),
        class_size_raw=inv_softplus(target.class_upper - target.class_lower),
        rel_head_center=0.5 * (target.rel_head_lower + target.rel_head_upper),
        rel_head_size_raw=inv_softplus(target.rel_head_upper - target.rel_head_lower),
        rel_tail_center=0.5 * (target.rel_tail_lower + target.rel_tail_upper),
        rel_tail_size_raw=inv_softplus(target.rel_tail_upper - target.rel_tail_lower),
        mlp_point=point_mlp.copy(),
        mlp_bump=bump_mlp.copy(),
    )


# ---------------------------------------------------------------------------
# optimize-then-verify binary base


def fit_binary_base(
    assignment: FactAssignment,
    n_entities: int,
    n_relations: int,
    d: int | None = None,
    seed: int = 0,
    budget: int = 5,
    *,
    pull_true: float = 0.5,
    push_false: float = 5.0,
    true_ceiling: float = 2.0,
    false_floor: float = 3.0,
    box_extent_init: float = 1.0,
    learning_rate: float = 0.05,
    max_steps: int = 4000,
    check_every: int = 200,
) -> ExplicitConfig:
    """Optimize a configuration capturing the binary part of an assignment.

    The objective is a deadzone hinge: true scores are pulled below
    ``pull_true`` and false scores pushed above ``push_false``, so satisfied
    facts stop tugging on shared entity vectors.  Verification requires
    every true score at most ``true_ceiling`` and every false score at least
    ``false_floor``; those defaults leave enough slack for the class
    extension to preserve joint separation (see the module docstring).
    Each budget unit is one optimization run from a fresh seed; failure to
    verify within the budget raises.
    """
    binary = assignment.binary_only()
    true_facts = sorted(binary.true_facts, key=fact_sort_key)
    false_facts = sorted(binary.false_facts, key=fact_sort_key)
    if true_ceiling >= false_floor:
        raise ValueError("true_ceiling must be below false_floor")
    if d is None:
        d = max(1, n_entities * n_relations)
    config = ModelConfig(d=d, norm=2, mode="boxe")

    def verified(cfg: ExplicitConfig) -> bool:
        if true_facts:
            scores = config_binary_scores(
                cfg,
                [f.rel for f in true_facts],
                [f.head for f in true_facts],
                [f.tail for f in true_facts],
            )
            if scores.max() > true_ceiling:
                return False
        if false_facts:
            scores = config_binary_scores(
                cfg,
                [f.rel for f in false_facts],
                [f.head for f in false_facts],
                [f.tail for f in false_facts],
            )
            if scores.min() < false_floor:
                return False
        return True

    t_rel = np.array([f.rel for f in true_facts], dtype=np.intp)
    t_head = np.array([f.head for f in true_facts], dtype=np.intp)
    t_tail = np.array([f.tail for f in true_facts], dtype=np.intp)
    f_rel = np.array([f.rel for f in false_facts], dtype=np.intp)
    f_head = np.array([f.head for f in false_facts], dtype=np.intp)
    f_tail = np.array([f.tail for f in false_facts], dtype=np.intp)

    attempt_seeds = np.random.SeedSequence(seed).generate_state(max(budget, 1))
    for attempt_seed in attempt_seeds:
        params = init_params((n_entities, 0, n_relations), config, int(attempt_seed))
        live = params.param_dict()
        for name in ("rel_head_size_raw", "rel_tail_size_raw"):
            live[name][:] = inv_softplus(np.full_like(live[name], box_extent_init))
        cfg = materialize(params)
        if verified(cfg):
            return cfg
        opt = AdamState(lr=learning_rate)
        for step in range(1, max_steps + 1):
            pt = ad.leaves(live)
            positions, bumps = representation_tensors(params, pt, None)
            loss = None
            if len(t_rel):
                s_true = binary_score_tensors(params, pt, positions, bumps, t_rel, t_head, t_tail)
                loss = ad.mul(ad.tsum(ad.relu(s_true - pull_true)), 1.0 / len(t_rel))
            if len(f_rel):
                s_false = binary_score_tensors(params, pt, positions, bumps, f_rel, f_head, f_tail)
                term = ad.mul(ad.tsum(ad.relu(push_false - s_false)), 1.0 / len(f_rel))
                loss = term if loss is None else loss + term
            if loss is None:
                break
            loss.backward()
            adam_step(opt, live, ad.gradients(pt))
            if step % check_every == 0:
                cfg = materialize(params)
                if verified(cfg):
                    return cfg
        cfg = materialize(params)
        if verified(cfg):
            return cfg
    raise ExpressivenessError(
        f"no verified configuration within budget ({budget} attempts, "
        f"{max_steps} steps each)"
    )
