"""Relational data model: vocabulary, facts, datasets, and edge dropping.

All container types are treated as immutable after construction.  Entities,
classes, and relations are referred to by dense integer indices assigned by
sorting names lexicographically, so downstream behavior is invariant to the
order names appear in input files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Union

import numpy as np


class DataError(Exception):
    """Raised for malformed or inconsistent input data."""


class Unary(NamedTuple):
    cls: int
    ent: int


class Binary(NamedTuple):
    rel: int
    head: int
    tail: int


Fact = Union[Unary, Binary]


def fact_sort_key(fact: Fact):
    """Canonical total order over facts; unary facts sort before binary."""
    if isinstance(fact, Unary):
        return (0, fact.cls, fact.ent, 0)
    return (1, fact.rel, fact.head, fact.tail)


@dataclass(frozen=True)
class Vocabulary:
    """Ordered name sets for entities, classes, and binary relations."""

    entities: tuple[str, ...]
    classes: tuple[str, ...]
    relations: tuple[str, ...]

    def __post_init__(self):
        for kind in ("entities", "classes", "relations"):
            names = getattr(self, kind)
            if len(set(names)) != len(names):
                raise DataError(f"duplicate {kind} names in vocabulary")

    @classmethod
    def from_names(
        cls,
        entities: Iterable[str],
        classes: Iterable[str] = (),
        relations: Iterable[str] = (),
    ) -> "Vocabulary":
        return cls(
            entities=tuple(sorted(set(entities))),
            classes=tuple(sorted(set(classes))),
            relations=tuple(sorted(set(relations))),
        )

    @cached_property
    def entity_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.entities)}

    @cached_property
    def class_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.classes)}

    @cached_property
    def relation_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.relations)}

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


@dataclass(frozen=True)
class LabelSplits:
    """Partial entity-to-class maps for the train/valid/test label splits."""

    train: dict[int, int] = field(default_factory=dict)
    valid: dict[int, int] = field(default_factory=dict)
    test: dict[int, int] = field(default_factory=dict)

    def __iter__(self):
        yield "train", self.train
        yield "valid", self.valid
        yield "test", self.test


@dataclass(frozen=True)
class Dataset:
    """A featured knowledge graph plus label splits and held-out edges."""

    vocab: Vocabulary
    edges: tuple[Binary, ...]
    labels: LabelSplits = field(default_factory=LabelSplits)
    features: np.ndarray | None = None
    dropped_edges: tuple[Binary, ...] = ()

    def __post_init__(self):
        # a Binary's own tuple order (rel, head, tail) is fact_sort_key's order
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "dropped_edges", tuple(sorted(self.dropped_edges)))
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2:
                raise DataError("feature matrix must be 2-D")
            object.__setattr__(self, "features", feats)

    @property
    def feature_dim(self) -> int | None:
        return None if self.features is None else int(self.features.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if (self.features is None) != (other.features is None):
            return False
        if self.features is not None and not np.array_equal(self.features, other.features):
            return False
        return (
            self.vocab == other.vocab
            and self.edges == other.edges
            and self.labels == other.labels
            and self.dropped_edges == other.dropped_edges
        )


@dataclass(frozen=True)
class DropSpec:
    """Requested edge removal: fraction of edges, driven by a fixed seed."""

    fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"fraction must lie in [0, 1), got {self.fraction}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def incident_counts(n_entities: int, edges: Iterable[Binary]) -> np.ndarray:
    """Number of edges touching each entity on the undirected multigraph view."""
    counts = np.zeros(n_entities, dtype=np.int64)
    for edge in edges:
        counts[edge.head] += 1
        if edge.tail != edge.head:
            counts[edge.tail] += 1
    return counts


def drop_edges(dataset: Dataset, spec: DropSpec) -> Dataset:
    """Remove ~``fraction`` of edges without isolating any connected node.

    Edges are visited in a seeded uniform shuffle; an edge is skipped when
    removing it would drop either endpoint to zero incident edges.  When the
    target count is unreachable under that constraint, the maximum number
    the greedy pass can remove is removed (see :func:`drop_shortfall`).
    """
    if not dataset.edges:
        raise DataError("cannot drop edges from a dataset with no edges")
    edges = list(dataset.edges)
    target = math.floor(spec.fraction * len(edges))
    counts = incident_counts(dataset.vocab.n_entities, edges)
    order = np.random.default_rng(spec.seed).permutation(len(edges))

    removed_ids: set[int] = set()
    for idx in order:
        if len(removed_ids) == target:
            break
        edge = edges[idx]
        if counts[edge.head] < 2:
            continue
        if edge.tail != edge.head and counts[edge.tail] < 2:
            continue
        counts[edge.head] -= 1
        if edge.tail != edge.head:
            counts[edge.tail] -= 1
        removed_ids.add(int(idx))

    kept = tuple(e for i, e in enumerate(edges) if i not in removed_ids)
    removed = tuple(e for i, e in enumerate(edges) if i in removed_ids)
    return replace(dataset, edges=kept, dropped_edges=dataset.dropped_edges + removed)


def drop_shortfall(original: Dataset, result: Dataset, spec: DropSpec) -> dict:
    """Summarize a drop run; ``shortfall`` flags an unreachable target count."""
    requested = math.floor(spec.fraction * len(original.edges))
    removed = len(result.dropped_edges) - len(original.dropped_edges)
    return {
        "requested": requested,
        "removed": removed,
        "shortfall": removed < requested,
    }


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_records(self) -> list[tuple[str, str]]:
        if self.ok:
            return [("violations", "0")]
        records = [("violations", str(len(self.violations)))]
        records.extend((v.kind, v.message) for v in self.violations)
        return records


def validate(dataset: Dataset) -> ValidationReport:
    """Structural checks on a dataset; reports violations without raising."""
    found: list[Violation] = []
    vocab = dataset.vocab
    n_e, n_c, n_r = vocab.n_entities, vocab.n_classes, vocab.n_relations

    seen_edges: set[Binary] = set()
    for edge in dataset.edges + dataset.dropped_edges:
        if not (0 <= edge.rel < n_r and 0 <= edge.head < n_e and 0 <= edge.tail < n_e):
            found.append(Violation("index_out_of_bounds", f"edge {edge}"))
        if edge in seen_edges:
            found.append(Violation("duplicate_fact", f"edge {edge}"))
        seen_edges.add(edge)

    overlap_pairs = (
        ("train", "valid", dataset.labels.train, dataset.labels.valid),
        ("train", "test", dataset.labels.train, dataset.labels.test),
        ("valid", "test", dataset.labels.valid, dataset.labels.test),
    )
    for name_a, name_b, split_a, split_b in overlap_pairs:
        for ent in sorted(set(split_a) & set(split_b)):
            found.append(
                Violation(
                    "label_split_overlap",
                    f"entity {vocab.entities[ent]} appears in {name_a} and {name_b}",
                )
            )
    for split_name, split in dataset.labels:
        for ent, cls in split.items():
            if not (0 <= ent < n_e and 0 <= cls < n_c):
                found.append(
                    Violation("index_out_of_bounds", f"label {ent}->{cls} in {split_name}")
                )

    counts = incident_counts(n_e, dataset.edges)
    for ent in np.flatnonzero(counts == 0):
        found.append(Violation("isolated_node", f"entity {vocab.entities[int(ent)]}"))

    if dataset.features is not None:
        if dataset.features.shape[0] != n_e:
            found.append(
                Violation(
                    "feature_shape",
                    f"{dataset.features.shape[0]} rows for {n_e} entities",
                )
            )
        bad_rows = np.flatnonzero(~np.all(np.isfinite(dataset.features), axis=1))
        for row in bad_rows:
            found.append(Violation("non_finite_feature", f"row {int(row)}"))

    for edge in sorted(set(dataset.edges) & set(dataset.dropped_edges), key=fact_sort_key):
        found.append(Violation("dropped_edge_still_present", f"edge {edge}"))

    return ValidationReport(tuple(found))


def dataset_stats(dataset: Dataset) -> list[tuple[str, str]]:
    """Key/value records describing dataset size, one per line when printed."""
    records = [
        ("entities", str(dataset.vocab.n_entities)),
        ("classes", str(dataset.vocab.n_classes)),
        ("relations", str(dataset.vocab.n_relations)),
        ("edges", str(len(dataset.edges))),
        ("dropped_edges", str(len(dataset.dropped_edges))),
        ("train_labels", str(len(dataset.labels.train))),
        ("valid_labels", str(len(dataset.labels.valid))),
        ("test_labels", str(len(dataset.labels.test))),
        ("feature_dim", "none" if dataset.feature_dim is None else str(dataset.feature_dim)),
    ]
    return records
