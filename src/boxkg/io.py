"""Reading and writing the tab-separated dataset file formats.

Edges file: one ``head<TAB>relation<TAB>tail`` fact per line, ``#``-prefixed
comment lines ignored.  Labels file: ``entity<TAB>class``, one file per
split.  Features file: a ``k=<int>`` header line, then
``entity<TAB>v1,v2,...,vk`` rows with decimal floats.  Floats are written
with shortest round-trip precision, so save/load is lossless.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import Binary, DataError, Dataset, LabelSplits, Vocabulary

log = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test")

EDGES_FILE = "edges.tsv"
DROPPED_FILE = "dropped_edges.tsv"
FEATURES_FILE = "features.tsv"


def _label_file(split: str) -> str:
    return f"labels_{split}.tsv"


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line or line.startswith("#"):
                    continue
                yield lineno, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _parse_edge_file(path) -> list[tuple[str, str, str]]:
    triples = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
        head, rel, tail = parts
        triples.append((head, rel, tail))
    return triples


def _parse_label_file(path) -> list[tuple[str, str]]:
    pairs = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected entity<TAB>class")
        pairs.append((parts[0], parts[1]))
    return pairs


def _parse_feature_file(path) -> tuple[int, dict[str, np.ndarray]]:
    rows: dict[str, np.ndarray] = {}
    k = None
    for lineno, line in _data_lines(path):
        if k is None:
            if not line.startswith("k="):
                raise DataError(f"{path}:{lineno}: expected header line k=<int>")
            try:
                k = int(line[2:])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad feature dimensionality") from exc
            if k < 1:
                raise DataError(f"{path}:{lineno}: feature dimensionality must be >= 1")
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected entity<TAB>v1,v2,...")
        name, values = parts
        try:
            vec = np.array([float(v) for v in values.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad float value") from exc
        if vec.shape[0] != k:
            raise DataError(f"{path}:{lineno}: expected {k} values, got {vec.shape[0]}")
        if name in rows:
            raise DataError(f"{path}:{lineno}: duplicate feature row for {name}")
        rows[name] = vec
    if k is None:
        raise DataError(f"{path}: missing k=<int> header")
    return k, rows


def load_dataset(
    edge_path,
    label_paths: Mapping[str, object] | None = None,
    feature_path=None,
    dropped_path=None,
) -> Dataset:
    """Load and validate a dataset from its constituent files.

    The vocabulary is built from the union of all names mentioned anywhere,
    sorted lexicographically and densely indexed, so the same files always
    produce the same index assignment.
    """
    triples = _parse_edge_file(edge_path)
    dropped_triples = _parse_edge_file(dropped_path) if dropped_path else []

    label_paths = dict(label_paths or {})
    unknown = set(label_paths) - set(SPLIT_NAMES)
    if unknown:
        raise DataError(f"unknown label splits: {sorted(unknown)}")
    split_pairs = {
        split: _parse_label_file(path) if path else []
        for split, path in label_paths.items()
    }

    entity_names = set()
    relation_names = set()
    class_names = set()
    for head, rel, tail in triples + dropped_triples:
        entity_names.update((head, tail))
        relation_names.add(rel)
    for pairs in split_pairs.values():
        for ent, cls in pairs:
            entity_names.add(ent)
            class_names.add(cls)

    feature_rows = None
    if feature_path is not None:
        _, feature_rows = _parse_feature_file(feature_path)
        entity_names.update(feature_rows)

    vocab = Vocabulary.from_names(entity_names, class_names, relation_names)

    def to_edges(raw: list[tuple[str, str, str]], source) -> tuple[Binary, ...]:
        seen: set[Binary] = set()
        for head, rel, tail in raw:
            edge = Binary(
                vocab.relation_index[rel],
                vocab.entity_index[head],
                vocab.entity_index[tail],
            )
            if edge in seen:
                log.warning("%s: duplicate edge %s(%s, %s) ignored", source, rel, head, tail)
                continue
            seen.add(edge)
        return tuple(seen)

    edges = to_edges(triples, edge_path)
    dropped = to_edges(dropped_triples, dropped_path) if dropped_triples else ()

    assigned: dict[int, tuple[str, int]] = {}
    splits: dict[str, dict[int, int]] = {}
    for split in SPLIT_NAMES:
        mapping: dict[int, int] = {}
        for ent_name, cls_name in split_pairs.get(split, []):
            ent = vocab.entity_index[ent_name]
            cls = vocab.class_index[cls_name]
            if ent in assigned:
                prev_split, prev_cls = assigned[ent]
                if prev_cls != cls:
                    raise DataError(
                        f"entity {ent_name} labeled with conflicting classes "
                        f"{vocab.classes[prev_cls]} and {cls_name}"
                    )
                if prev_split != split:
                    raise DataError(
                        f"entity {ent_name} labeled in both {prev_split} and {split}"
                    )
                log.warning("duplicate label for %s in %s ignored", ent_name, split)
                continue
            assigned[ent] = (split, cls)
            mapping[ent] = cls
        splits[split] = mapping

    features = None
    if feature_rows is not None:
        missing = [name for name in vocab.entities if name not in feature_rows]
        if missing:
            raise DataError(
                f"feature rows cover {len(feature_rows)} of {vocab.n_entities} "
                f"entities (first missing: {missing[0]})"
            )
        features = np.stack([feature_rows[name] for name in vocab.entities])

    return Dataset(
        vocab=vocab,
        edges=edges,
        labels=LabelSplits(**splits),
        features=features,
        dropped_edges=dropped,
    )


def _format_float(value: float) -> str:
    return repr(float(value))


def write_edges(edges, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for edge in edges:
            handle.write(
                f"{vocab.entities[edge.head]}\t{vocab.relations[edge.rel]}"
                f"\t{vocab.entities[edge.tail]}\n"
            )


def write_labels(mapping: Mapping[int, int], vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ent in sorted(mapping):
            handle.write(f"{vocab.entities[ent]}\t{vocab.classes[mapping[ent]]}\n")


def write_features(features: np.ndarray, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"k={features.shape[1]}\n")
        for ent, name in enumerate(vocab.entities):
            row = ",".join(_format_float(v) for v in features[ent])
            handle.write(f"{name}\t{row}\n")


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write a dataset directory in the conventional layout."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_edges(dataset.edges, dataset.vocab, out / EDGES_FILE)
    for split, mapping in dataset.labels:
        write_labels(mapping, dataset.vocab, out / _label_file(split))
    if dataset.features is not None:
        write_features(dataset.features, dataset.vocab, out / FEATURES_FILE)
    if dataset.dropped_edges:
        write_edges(dataset.dropped_edges, dataset.vocab, out / DROPPED_FILE)
    return out


def load_dataset_dir(data_dir) -> Dataset:
    """Load a dataset directory written by :func:`save_dataset`."""
    data_dir = Path(data_dir)
    edge_path = data_dir / EDGES_FILE
    if not edge_path.exists():
        raise DataError(f"no {EDGES_FILE} in {data_dir}")
    label_paths = {
        split: path
        for split in SPLIT_NAMES
        if (path := data_dir / _label_file(split)).exists()
    }
    feature_path = data_dir / FEATURES_FILE
    dropped_path = data_dir / DROPPED_FILE
    return load_dataset(
        edge_path,
        label_paths,
        feature_path if feature_path.exists() else None,
        dropped_path if dropped_path.exists() else None,
    )


def write_records(records, path_or_handle) -> None:
    """Emit ``key: value`` lines, the structured text record format."""
    if hasattr(path_or_handle, "write"):
        for key, value in records:
            path_or_handle.write(f"{key}: {value}\n")
        return
    with open(path_or_handle, "w", encoding="utf-8") as handle:
        write_records(records, handle)


def ensure_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out
