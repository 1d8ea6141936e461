"""The benchmark's workloads, driven through boxkg's public calls.

A workload builds its inputs from the workload seed in ``setup`` and then
runs ``unit`` repeatedly; one unit is the whole user-visible pipeline after
set-up (train, checkpoint, evaluate, baselines; or one oracle instance).
Every boxkg call is looked up on its module at call time, so the traced run
sees the wrapped functions.  Failed calls and failed output checks are
counted in a ``Ledger`` instead of aborting the run.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from boxkg import baselines, data, evaluation, expressive, io, model, synth, training
from boxkg.data import DataError
from boxkg.expressive import ExpressivenessError
from boxkg.training import NumericError

FAILURES = (DataError, NumericError, ExpressivenessError)


class SetupError(Exception):
    """Set-up produced inputs the workload cannot run on."""


@dataclass
class Ledger:
    """Public calls attempted in the timed phase, and those that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except FAILURES as exc:
            self.fail(f"{fn.__module__}.{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)


@dataclass
class UnitResult:
    """Measurements of one unit; ``None`` where the workload has no such step."""

    cpu_s: float = math.nan
    train_s: float = math.nan
    train_facts: int = 0
    rank_s: float | None = None
    rank_queries: int = 0
    ckpt_save_s: float | None = None
    ckpt_load_s: float | None = None
    valid_accuracy: float | None = None
    heldout_mrr: float | None = None
    ckpt_sha256: str | None = None
    log_sha256: str | None = None


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _same_params(a: model.ModelParams, b: model.ModelParams) -> bool:
    """Bit-for-bit equality of config and every tensor."""
    da, db = a.param_dict(), b.param_dict()
    return a.config == b.config and da.keys() == db.keys() and all(
        da[k].shape == db[k].shape and da[k].dtype == db[k].dtype
        and da[k].tobytes() == db[k].tobytes()
        for k in da
    )


def _timed(ledger: Ledger, fn, *args, **kwargs):
    start = time.perf_counter()
    out = ledger.call(fn, *args, **kwargs)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# graph workloads: train, checkpoint, classify, rank, baselines


@dataclass(frozen=True)
class GraphSpec:
    """Inputs and settings of a train-then-evaluate workload."""

    entities: int
    classes: int
    relations: int
    feature_dim: int
    synth_seed: int
    drop_seed: int
    train_seed: int
    model_config: model.ModelConfig
    train_config: training.TrainConfig
    synth_kwargs: dict = field(default_factory=dict)
    rules: tuple = ()
    edge_prob: float = 0.3
    rank_edges: int | None = None  # None ranks every dropped edge
    rank_seed: int = 0
    mlp_baseline: baselines.MlpClassifierConfig | None = None


class GraphWorkload:
    """MLP-BoxE on a synthetic featured graph with 20 % of its edges dropped."""

    identical_units = True  # every unit repeats the same seeded work

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.dataset: data.Dataset | None = None
        self.eval_edges: tuple = ()

    def setup(self, work: Path) -> None:
        """generate -> drop_edges -> save_dataset -> load_dataset_dir -> validate."""
        s = self.spec
        rules = list(s.rules) or synth.default_rules(s.classes, s.relations, s.edge_prob)
        full = synth.generate_synthetic(
            s.entities, s.classes, s.relations, s.feature_dim, rules, s.synth_seed,
            **s.synth_kwargs,
        )
        sub = data.drop_edges(full, data.DropSpec(0.2, seed=s.drop_seed))
        io.save_dataset(sub, work / "data")
        loaded = io.load_dataset_dir(work / "data")
        report = data.validate(loaded)
        bad = [v for v in report.violations if v.kind != "isolated_node"]
        if bad:
            raise SetupError(f"invalid dataset: {bad[0].kind}: {bad[0].message}")
        if loaded != sub:
            raise SetupError("dataset did not round-trip through its files")
        if not loaded.dropped_edges:
            raise SetupError("no edges were dropped")
        self.dataset = loaded
        dropped = loaded.dropped_edges
        if s.rank_edges is None or s.rank_edges >= len(dropped):
            self.eval_edges = dropped
        else:
            pick = np.random.default_rng(s.rank_seed).choice(
                len(dropped), size=s.rank_edges, replace=False)
            self.eval_edges = tuple(dropped[i] for i in np.sort(pick))

    def unit(self, index: int, ledger: Ledger, work: Path) -> UnitResult:
        s, ds = self.spec, self.dataset
        out = UnitResult()
        trained, out.train_s = _timed(ledger, training.train, ds, s.model_config, s.train_config)
        if trained is None:
            return out
        params, log = trained
        losses = log.values("train", "loss")
        if log.diverged or not losses or not math.isfinite(losses[-1][1]):
            ledger.fail("training.train: diverged or no finite loss")
            return out
        n_facts = len(ds.edges) + (len(ds.labels.train) if s.train_config.use_class_facts else 0)
        out.train_facts = len(losses) * n_facts
        out.log_sha256 = hashlib.sha256(log.to_text().encode()).hexdigest()

        path = work / "model.json"
        _, out.ckpt_save_s = _timed(ledger, model.save_model, params, path)
        loaded, out.ckpt_load_s = _timed(ledger, model.load_model, path)
        out.ckpt_sha256 = _sha256_file(path)
        if loaded is None:
            return out
        if not _same_params(params, loaded):
            ledger.fail("model.load_model: checkpoint did not round-trip bit for bit")
            return out

        features = ds.features if s.model_config.feature_mode else None
        cfg = ledger.call(model.materialize, loaded, features)
        if cfg is None:
            return out
        gold = ds.labels.valid
        predictions = ledger.call(evaluation.classify_entities, cfg, sorted(gold))
        if predictions is not None:
            out.valid_accuracy = evaluation.accuracy(predictions, gold)

        filter_facts = ds.edges + ds.dropped_edges
        metrics, out.rank_s = _timed(
            ledger, evaluation.ranking_metrics, cfg, self.eval_edges, filter_facts)
        out.rank_queries = 2 * len(self.eval_edges)
        if metrics is not None:
            out.heldout_mrr = metrics.mrr
            self._check_ranks(ledger, cfg, filter_facts, metrics)

        lp = ledger.call(baselines.label_propagation, ds)
        if lp is not None and not np.allclose(lp.probs.sum(axis=1), 1.0):
            ledger.fail("baselines.label_propagation: rows are not distributions")
        if s.mlp_baseline is not None:
            clf = ledger.call(baselines.mlp_classifier_train, ds.features, ds.labels.train,
                              ds.vocab.n_classes, s.mlp_baseline, seed=s.train_seed)
            if clf is not None and not np.all(np.isfinite(clf.logits(ds.features))):
                ledger.fail("baselines.mlp_classifier_train: non-finite logits")
        return out

    def _check_ranks(self, ledger, cfg, filter_facts, metrics) -> None:
        """Every rank lies in [1, candidates] and reproduces the reported metrics."""
        index = evaluation.FilterIndex(filter_facts)
        ranks = [
            evaluation.rank_fact(cfg, fact, side, index)
            for fact in self.eval_edges
            for side in (evaluation.HEAD_SIDE, evaluation.TAIL_SIDE)
        ]
        n = cfg.n_entities
        again = evaluation.metrics_from_ranks(ranks)
        if not all(1 <= r <= n for r in ranks):
            ledger.fail(f"evaluation.ranking_metrics: rank outside [1, {n}]")
        elif (again.mr, again.mrr, again.hits) != (metrics.mr, metrics.mrr, metrics.hits):
            ledger.fail("evaluation.ranking_metrics: metrics disagree with per-query ranks")


def _joint_rules() -> tuple:
    """The acceptance suite's joint-signal rules: relations split {0,2} from {1,3}."""
    rules = [synth.PlantedRule(0, a, b, 0.4) for a in (0, 2) for b in (0, 2)]
    rules += [synth.PlantedRule(1, a, b, 0.4) for a in (1, 3) for b in (1, 3)]
    return tuple(rules)


def joint_mlp(seed: int, tiny: bool) -> GraphWorkload:
    """Criteria 07/08's fixture and model; seed 0 is the acceptance suite's data."""
    epochs = 2 if tiny else 60
    return GraphWorkload(GraphSpec(
        entities=192, classes=4, relations=2, feature_dim=8,
        synth_seed=20 + seed, drop_seed=77 + seed, train_seed=seed,
        rules=_joint_rules(),
        synth_kwargs=dict(class_feature_groups=[0, 0, 1, 1], mean_radius=4.0,
                          feature_noise=0.8, label_fractions=(0.3, 0.3, 0.0),
                          communities=16),
        model_config=model.ModelConfig(d=32, mode="mlp-boxe", mlp_hidden=(32,),
                                       feature_dim=8),
        # patience as long as the run, so validation never stops it early
        train_config=training.TrainConfig(
            epochs=epochs, batch_size=128, seed=seed, learning_rate=3e-3,
            num_negatives=15, loss=training.LossConfig("ce"), eval_every=10,
            patience=epochs),
        mlp_baseline=baselines.MlpClassifierConfig(hidden=(32,), epochs=5 if tiny else 300),
    ))


def kg2k_mlp(seed: int, tiny: bool) -> GraphWorkload:
    """``boxkg train`` defaults on a 2,000-entity graph; one epoch of ~18 steps."""
    if tiny:
        size = dict(entities=120, edge_prob=0.1)
        mc = model.ModelConfig(d=8, mode="mlp-boxe", mlp_hidden=(16, 16), feature_dim=16)
        tc = training.TrainConfig(epochs=1, batch_size=64, seed=seed, num_negatives=5)
        rank_edges = 10
    else:
        size = dict(entities=2000, edge_prob=0.01)
        mc = model.ModelConfig(d=128, mode="mlp-boxe", mlp_hidden=(1000, 1000),
                               feature_dim=16)
        tc = training.TrainConfig(epochs=1, batch_size=512, seed=seed, num_negatives=100)
        rank_edges = 100
    return GraphWorkload(GraphSpec(
        classes=4, relations=2, feature_dim=16,
        synth_seed=seed, drop_seed=seed + 1, train_seed=seed, rank_seed=seed + 2,
        model_config=mc, train_config=tc, rank_edges=rank_edges, **size,
    ))


# ---------------------------------------------------------------------------
# expressiveness oracle


class OracleWorkload:
    """``boxkg oracle`` on random assignments; one unit is one instance."""

    identical_units = False

    def __init__(self, seed: int, tiny: bool):
        self.entities = 3 if tiny else 16
        self.relations = 2
        self.classes = 2
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(
            8 if tiny else 64)]
        self.pool: list = []

    def setup(self, work: Path) -> None:
        self.pool = [
            expressive.random_assignment(self.entities, self.classes, self.relations, s)
            for s in self.seeds
        ]

    def unit(self, index: int, ledger: Ledger, work: Path) -> UnitResult:
        slot = index % len(self.pool)
        assignment, seed = self.pool[slot], self.seeds[slot]
        out = UnitResult()
        steps = 0
        inner = expressive.adam_step

        def counted(*args, **kwargs):
            nonlocal steps
            steps += 1
            return inner(*args, **kwargs)

        expressive.adam_step = counted
        try:
            base, out.train_s = _timed(ledger, expressive.fit_binary_base, assignment,
                                       self.entities, self.relations, seed=seed)
        finally:
            expressive.adam_step = inner
        out.train_facts = steps * self.relations * self.entities ** 2
        if base is None:
            return out
        cfg = ledger.call(expressive.extend_with_classes, base, assignment,
                          eps=0.1, n_classes=self.classes)
        if cfg is None:
            return out
        report = ledger.call(expressive.verify_separation, cfg, assignment)
        if report is not None and not report.passed:
            ledger.fail(f"expressive.verify_separation: instance {slot} not separated")
        return out


WORKLOADS = {
    "joint-mlp": joint_mlp,
    "kg2k-mlp": kg2k_mlp,
    "oracle": OracleWorkload,
}

# fewest units a run measures, so that its medians are robust; the oracle's
# steps-to-verify are heavy-tailed (a failed 4,000-step attempt costs ~20x)
MIN_UNITS = {"joint-mlp": 3, "kg2k-mlp": 1, "oracle": 9}
