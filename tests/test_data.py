"""Data model, file formats, edge dropping, and the synthetic generator."""

import numpy as np
import pytest

from boxkg.data import (
    Binary,
    DataError,
    Dataset,
    DropSpec,
    LabelSplits,
    Vocabulary,
    dataset_stats,
    drop_edges,
    drop_shortfall,
    incident_counts,
    validate,
)
from boxkg.io import load_dataset, load_dataset_dir, save_dataset
from boxkg.synth import PlantedRule, default_rules, generate_synthetic, parse_rule
from reference import ref_generate_synthetic


def small_dataset(edges, n_entities=None, labels=None, features=None, dropped=()):
    n = n_entities or (max(max(e.head, e.tail) for e in edges) + 1)
    vocab = Vocabulary.from_names([f"e{i}" for i in range(n)], ["c0", "c1"], ["r0", "r1"])
    return Dataset(
        vocab=vocab,
        edges=tuple(edges),
        labels=labels or LabelSplits(),
        features=features,
        dropped_edges=tuple(dropped),
    )


class TestVocabulary:
    def test_sorted_dense_indexing(self):
        vocab = Vocabulary.from_names(["b", "a", "c"], ["z", "y"], ["r"])
        assert vocab.entities == ("a", "b", "c")
        assert vocab.entity_index == {"a": 0, "b": 1, "c": 2}
        assert vocab.classes == ("y", "z")

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(("a", "a"), (), ())


class TestLoadDataset:
    def test_minimal_well_formed_input(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tc1\n")
        ds = load_dataset(edges, {"train": labels})
        assert ds.vocab.n_entities == 2
        assert ds.vocab.n_relations == 1
        assert ds.vocab.n_classes == 1
        assert len(ds.edges) == 1
        assert ds.labels.train == {ds.vocab.entity_index["a"]: 0}

    def test_identical_index_assignment_when_loaded_twice(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("# comment\nzeta\tr2\tbeta\nalpha\tr1\tzeta\n")
        first = load_dataset(edges)
        second = load_dataset(edges)
        assert first == second
        assert first.vocab.entities == ("alpha", "beta", "zeta")

    def test_malformed_line_reports_line_number(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\nbroken line\n")
        with pytest.raises(DataError, match="2"):
            load_dataset(edges)

    def test_conflicting_label_rejected(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tc1\na\tc2\n")
        with pytest.raises(DataError, match="conflicting"):
            load_dataset(edges, {"train": labels})

    def test_cross_split_label_rejected(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\n")
        train = tmp_path / "train.tsv"
        train.write_text("a\tc1\n")
        test = tmp_path / "test.tsv"
        test.write_text("a\tc1\n")
        with pytest.raises(DataError, match="both"):
            load_dataset(edges, {"train": train, "test": test})

    def test_duplicate_edges_deduplicated(self, tmp_path, caplog):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\na\tr\tb\n")
        with caplog.at_level("WARNING"):
            ds = load_dataset(edges)
        assert len(ds.edges) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_missing_feature_row_rejected(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\n")
        feats = tmp_path / "features.tsv"
        feats.write_text("k=2\na\t0.5,1.5\n")
        with pytest.raises(DataError, match="missing"):
            load_dataset(edges, feature_path=feats)

    def test_feature_dimension_enforced(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tr\tb\n")
        feats = tmp_path / "features.tsv"
        feats.write_text("k=2\na\t0.5\nb\t1.0,2.0\n")
        with pytest.raises(DataError, match="expected 2"):
            load_dataset(edges, feature_path=feats)

    def test_table_shape_dataset_loads_and_validates(self, tmp_path):
        # dataset in the shape of the target corpus:
        # 52678 nodes, 121836 edges, 24 classes, 29 relations,
        # 10080/5040/1680 label splits
        n, m, n_cls, n_rel = 52678, 121836, 24, 29
        edges = tmp_path / "edges.tsv"
        with open(edges, "w") as handle:
            for i in range(m):
                head = i % n
                tail = (i * 31 + 7) % n
                if head == tail:
                    tail = (tail + 1) % n
                handle.write(f"n{head:05d}\tr{i % n_rel:02d}\tn{tail:05d}\n")
        label_files = {}
        counts = {"train": 10080, "valid": 5040, "test": 1680}
        start = 0
        for split, count in counts.items():
            path = tmp_path / f"{split}.tsv"
            with open(path, "w") as handle:
                for j in range(start, start + count):
                    handle.write(f"n{j:05d}\tc{j % n_cls:02d}\n")
            start += count
            label_files[split] = path
        ds = load_dataset(edges, label_files)
        assert ds.vocab.n_entities == n
        assert ds.vocab.n_classes == n_cls
        assert ds.vocab.n_relations == n_rel
        assert len(ds.edges) == m
        assert len(ds.labels.train) == 10080
        assert len(ds.labels.valid) == 5040
        assert len(ds.labels.test) == 1680
        assert validate(ds).ok


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = generate_synthetic(20, 3, 2, 4, default_rules(3, 2, 0.4), seed=5)
        ds = drop_edges(ds, DropSpec(0.1, seed=2))
        out = tmp_path / "ds"
        save_dataset(ds, out)
        again = load_dataset_dir(out)
        assert again == ds
        # serialize(load(f)) reproduces the files byte for byte
        out2 = tmp_path / "ds2"
        save_dataset(again, out2)
        for name in sorted(p.name for p in out.iterdir()):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()


class TestDropEdges:
    def test_zero_fraction_is_identity(self):
        ds = small_dataset([Binary(0, 0, 1), Binary(0, 1, 2)])
        out = drop_edges(ds, DropSpec(0.0, seed=3))
        assert out.edges == ds.edges
        assert out.dropped_edges == ()

    def test_star_graph_cannot_lose_edges(self):
        # center 0 with leaves 1..3: removing any edge isolates a leaf
        edges = [Binary(0, 0, leaf) for leaf in (1, 2, 3)]
        ds = small_dataset(edges)
        for seed in range(10):
            spec = DropSpec(0.34, seed=seed)
            out = drop_edges(ds, spec)
            assert out.edges == ds.edges
            report = drop_shortfall(ds, out, spec)
            assert report == {"requested": 1, "removed": 0, "shortfall": True}

    def test_triangle_loses_exactly_one_edge(self):
        edges = [Binary(0, 0, 1), Binary(0, 1, 2), Binary(0, 2, 0)]
        ds = small_dataset(edges)
        for seed in range(10):
            out = drop_edges(ds, DropSpec(0.34, seed=seed))
            assert len(out.dropped_edges) == 1
            counts = incident_counts(ds.vocab.n_entities, out.edges)
            assert np.all(counts >= 1)

    def test_deterministic_for_fixed_seed(self):
        rules = default_rules(3, 2, 0.5)
        ds = generate_synthetic(30, 3, 2, 2, rules, seed=1)
        a = drop_edges(ds, DropSpec(0.25, seed=9))
        b = drop_edges(ds, DropSpec(0.25, seed=9))
        assert a == b
        c = drop_edges(ds, DropSpec(0.25, seed=10))
        assert c != a  # different seed picks a different subset

    def test_partition_and_safety_properties(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, min(20, 2 * n * n)))
            edges = set()
            while len(edges) < m:
                edges.add(Binary(int(rng.integers(2)), int(rng.integers(n)), int(rng.integers(n))))
            ds = small_dataset(sorted(edges), n_entities=n)
            spec = DropSpec(float(rng.random() * 0.9), int(rng.integers(1 << 30)))
            out = drop_edges(ds, spec)
            before = incident_counts(n, ds.edges)
            after = incident_counts(n, out.edges)
            assert np.all((before == 0) | (after >= 1))
            assert set(out.edges) | set(out.dropped_edges) == set(ds.edges)
            assert set(out.edges) & set(out.dropped_edges) == set()

    def test_requires_edges(self):
        ds = small_dataset([Binary(0, 0, 1)])
        empty = Dataset(vocab=ds.vocab, edges=())
        with pytest.raises(DataError):
            drop_edges(empty, DropSpec(0.5, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DropSpec(1.0, seed=0)
        with pytest.raises(ValueError):
            DropSpec(-0.1, seed=0)


class TestValidate:
    def test_valid_dataset_reports_nothing(self):
        ds = small_dataset([Binary(0, 0, 1), Binary(1, 1, 0)])
        assert validate(ds).ok

    def test_split_overlap_names_entity(self):
        ds = small_dataset(
            [Binary(0, 0, 1)],
            labels=LabelSplits(train={0: 0}, test={0: 0}),
        )
        report = validate(ds)
        kinds = [v.kind for v in report.violations]
        assert "label_split_overlap" in kinds
        assert any("e0" in v.message for v in report.violations)

    def test_nan_feature_flagged_with_row(self):
        feats = np.zeros((2, 3))
        feats[1, 2] = np.nan
        ds = small_dataset([Binary(0, 0, 1)], features=feats)
        report = validate(ds)
        assert any(v.kind == "non_finite_feature" and "1" in v.message for v in report.violations)

    def test_isolated_node_flagged(self):
        ds = small_dataset([Binary(0, 0, 1)], n_entities=3)
        report = validate(ds)
        assert any(v.kind == "isolated_node" for v in report.violations)

    def test_out_of_bounds_edge_flagged(self):
        ds = small_dataset([Binary(0, 0, 1)])
        bad = Dataset(vocab=ds.vocab, edges=(Binary(5, 0, 1),))
        report = validate(bad)
        assert any(v.kind == "index_out_of_bounds" for v in report.violations)

    def test_stats_records(self):
        ds = small_dataset([Binary(0, 0, 1)])
        records = dict(dataset_stats(ds))
        assert records["entities"] == "2"
        assert records["edges"] == "1"
        assert records["feature_dim"] == "none"


class TestSyntheticGenerator:
    def test_minimal_config(self):
        ds = generate_synthetic(2, 1, 1, 1, [], seed=0, label_fractions=(1.0, 0.0, 0.0))
        assert ds.vocab.n_entities == 2
        assert len(ds.labels.train) == 2
        assert validate(ds).ok or all(
            v.kind == "isolated_node" for v in validate(ds).violations
        )

    def test_deterministic_serialization(self, tmp_path):
        rules = default_rules(2, 2, 0.5)
        a = generate_synthetic(15, 2, 2, 3, rules, seed=4)
        b = generate_synthetic(15, 2, 2, 3, rules, seed=4)
        assert a == b
        save_dataset(a, tmp_path / "a")
        save_dataset(b, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_certain_rule_produces_full_closure(self):
        # 10 entities of each class; the rule fires for every cross pair
        ds = generate_synthetic(20, 2, 1, 2, [PlantedRule(0, 0, 1, 1.0)], seed=7)
        want = {
            Binary(0, h, t)
            for h in range(0, 20, 2)
            for t in range(1, 20, 2)
        }
        assert set(ds.edges) == want
        assert len(want) == 100

    def test_degenerate_config_rejected(self):
        with pytest.raises(DataError):
            generate_synthetic(2, 3, 1, 1, [], seed=0)

    def test_shared_feature_groups(self):
        ds = generate_synthetic(
            40, 4, 1, 6, [], seed=3, class_feature_groups=[0, 0, 1, 1], feature_noise=0.01
        )
        feats = ds.features
        classes = np.arange(40) % 4
        mean0 = feats[classes == 0].mean(axis=0)
        mean1 = feats[classes == 1].mean(axis=0)
        mean2 = feats[classes == 2].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) < 0.1
        assert np.linalg.norm(mean0 - mean2) > 1.0

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            # one community, same-class rules (src == dst: the head == tail skip)
            ((30, 3, 2, 4, default_rules(3, 2, 0.4), 1), {}),
            # several communities, src == dst and src != dst rules
            (
                (48, 4, 2, 3, default_rules(4, 2, 0.6) + [PlantedRule(1, 0, 2, 0.5)], 2),
                {"communities": 3},
            ),
            # two rules that plant the same edge, next to prob 0.0 and 1.0
            (
                (
                    20, 2, 2, 2,
                    [PlantedRule(0, 0, 1, 0.5), PlantedRule(0, 0, 1, 0.5),
                     PlantedRule(1, 1, 0, 0.0), PlantedRule(1, 1, 1, 1.0)],
                    3,
                ),
                {},
            ),
            # shared feature groups, certain rules across communities
            (
                (40, 4, 1, 6, [PlantedRule(0, c, (c + 1) % 4, 1.0) for c in range(4)], 4),
                {"class_feature_groups": [0, 0, 1, 1], "communities": 2},
            ),
            # classes 1-3 have one member each: their same-class pairs are all
            # rejected, yet each head still takes its draw
            (
                (5, 4, 2, 2, [PlantedRule(0, 1, 1, 0.9), PlantedRule(1, 0, 0, 0.9),
                              PlantedRule(1, 2, 0, 0.9), PlantedRule(0, 3, 3, 0.9)], 5),
                {},
            ),
            # heads with no tail in their community, and a label split that
            # leaves entities unlabeled
            (
                (12, 3, 1, 2, default_rules(3, 1, 0.7), 6),
                {"communities": 4, "label_fractions": (0.5, 0.25, 0.0)},
            ),
        ],
    )
    def test_matches_per_pair_reference(self, args, kwargs):
        got = generate_synthetic(*args, **kwargs)
        want = ref_generate_synthetic(*args, **kwargs)
        assert got.vocab == want.vocab
        assert got.edges == want.edges
        assert got.labels.train == want.labels.train
        assert got.labels.valid == want.labels.valid
        assert got.labels.test == want.labels.test
        assert got.features.tobytes() == want.features.tobytes()

    def test_parse_rule(self):
        rule = parse_rule("1:0>2:0.25")
        assert rule == PlantedRule(1, 0, 2, 0.25)
        with pytest.raises(DataError):
            parse_rule("nonsense")
