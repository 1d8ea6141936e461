"""Command-line surface binding the modules into reproducible runs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every command that writes outputs also writes its fully resolved settings as
a flat ``key = value`` file next to them, and accepts such a file back via
``--config`` (explicit flags override file entries), so any run can be
reproduced from its output directory alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Results are deterministic per seed only at a fixed BLAS thread count, so
# every command runs on one thread (``--threads 1``).  The limit must be set
# before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from .baselines import (
    MlpClassifierConfig,
    label_propagation,
    mlp_classifier_predict,
    mlp_classifier_train,
)
from .data import (
    Binary,
    DataError,
    Dataset,
    DropSpec,
    ValidationReport,
    Violation,
    dataset_stats,
    drop_edges,
    drop_shortfall,
    validate,
)
from .evaluation import accuracy, classify_entities, ranking_metrics
from .expressive import (
    ExpressivenessError,
    extend_with_classes,
    fit_binary_base,
    random_assignment,
    verify_separation,
)
from .io import (
    _data_lines,
    ensure_dir,
    load_dataset_dir,
    save_dataset,
    write_labels,
    write_records,
)
from .model import (
    MODE_BOXE,
    MODE_MLP_BOXE,
    ModelConfig,
    check_dataset_compat,
    check_features,
    load_model,
    materialize,
    save_model,
)
from .synth import default_rules, generate_synthetic, parse_rule
from .training import LossConfig, NumericError, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_edge_names(path, vocab) -> tuple[Binary, ...]:
    from .io import _parse_edge_file

    edges = []
    for head, rel, tail in _parse_edge_file(path):
        try:
            edges.append(
                Binary(vocab.relation_index[rel], vocab.entity_index[head], vocab.entity_index[tail])
            )
        except KeyError as exc:
            raise DataError(f"{path}: name {exc.args[0]!r} not in the dataset vocabulary")
    return tuple(edges)


def _config_tokens(path) -> list[str]:
    tokens = []
    for lineno, raw in _data_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "config":
            continue
        tokens.extend([f"--{key.replace('_', '-')}", value])
    return tokens


def _write_run_config(args: argparse.Namespace, out_dir: Path) -> None:
    skip = {"command", "config", "func"}
    lines = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}\n")
    with open(out_dir / "run.cfg", "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _blocking_violations(report: ValidationReport) -> list[Violation]:
    # an entity without edges is legal in a sparse graph; every other violation is a data error
    return [v for v in report.violations if v.kind != "isolated_node"]


def _load_valid_dataset(data_dir) -> Dataset:
    """Load a dataset directory and reject it on any blocking violation."""
    dataset = load_dataset_dir(data_dir)
    blocking = _blocking_violations(validate(dataset))
    if blocking:
        first = blocking[0]
        raise DataError(
            f"{data_dir}: {len(blocking)} violation(s), first {first.kind}: {first.message}"
            " (see boxkg validate)"
        )
    return dataset


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    if args.rule:
        rules = [parse_rule(text) for text in args.rule]
    else:
        try:
            rules = default_rules(args.classes, args.relations, args.edge_prob)
        except ValueError as exc:
            raise UsageError(f"--edge-prob: {exc}") from exc
    groups = _parse_ints(args.feature_groups) if args.feature_groups else None
    fractions = _parse_floats(args.label_fractions)
    if len(fractions) != 3:
        raise UsageError("--label-fractions needs three comma-separated values")
    dataset = generate_synthetic(
        args.entities,
        args.classes,
        args.relations,
        args.feature_dim,
        rules,
        args.seed,
        mean_radius=args.mean_radius,
        feature_noise=args.feature_noise,
        class_feature_groups=groups,
        label_fractions=fractions,
    )
    out = ensure_dir(args.out)
    save_dataset(dataset, out)
    _write_run_config(args, out)
    write_records(dataset_stats(dataset), sys.stdout)
    return EXIT_OK


def _cmd_drop_edges(args) -> int:
    try:
        spec = DropSpec(fraction=args.fraction, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dataset = load_dataset_dir(args.data)
    result = drop_edges(dataset, spec)
    out = ensure_dir(args.out)
    save_dataset(result, out)
    _write_run_config(args, out)
    report = drop_shortfall(dataset, result, spec)
    records = [(key, str(value)) for key, value in report.items()]
    write_records(records, out / "drop_report.txt")
    write_records(records, sys.stdout)
    return EXIT_OK


def _resolve_train_mode(args, dataset) -> ModelConfig:
    use_features = args.features
    if use_features == "auto":
        use_features = "on" if args.mode == MODE_MLP_BOXE else "off"
    if args.mode == MODE_BOXE and use_features == "on":
        raise UsageError("--mode boxe cannot use --features on (use mlp-boxe)")
    if args.mode == MODE_MLP_BOXE and use_features == "off":
        raise UsageError("--mode mlp-boxe requires --features on")
    if use_features == "on" and dataset.features is None:
        raise UsageError("--features on but the dataset has no feature file")
    return ModelConfig(
        d=args.dim,
        norm=args.norm,
        mode=args.mode,
        embedding_scale=args.scale,
        mlp_hidden=_parse_ints(args.hidden),
        feature_dim=dataset.feature_dim if use_features == "on" else None,
    )


def _cmd_train(args) -> int:
    if args.threads != 1:
        raise UsageError("only --threads 1 (deterministic mode) is supported")
    dataset = _load_valid_dataset(args.data)
    try:
        model_config = _resolve_train_mode(args, dataset)
        loss = LossConfig(kind=args.loss, margin=args.margin, adv_alpha=args.adv_alpha)
        train_config = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
            learning_rate=args.lr,
            num_negatives=args.negatives,
            use_class_facts=args.classes == "on",
            unary_weight=args.unary_weight,
            loss=loss,
            eval_every=args.eval_every,
            patience=args.patience,
            eval_metric=args.eval_metric,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params, log = train(dataset, model_config, train_config)
    out = ensure_dir(args.out)
    save_model(params, out / "model.json")
    log.write(out / "train_log.tsv")
    _write_run_config(args, out)
    if log.diverged:
        print("training diverged: non-finite loss; last finite checkpoint saved")
        return EXIT_NUMERIC
    if log.records:
        epoch, split, metric, value = log.records[-1]
        write_records([(f"{split}_{metric}", repr(value)), ("epochs_run", str(epoch + 1))], sys.stdout)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dataset = _load_valid_dataset(args.data)
    params = load_model(args.checkpoint)
    check_dataset_compat(params, dataset)
    features = dataset.features if params.config.feature_mode else None
    config = materialize(params, features)
    out = ensure_dir(args.out) if args.out else None

    if args.task == "classify":
        gold = dict(getattr(dataset.labels, args.split))
        if not gold:
            raise DataError(f"no {args.split} labels in the dataset")
        predictions = classify_entities(config, sorted(gold))
        records = [
            ("task", "classify"),
            ("split", args.split),
            ("accuracy", repr(accuracy(predictions, gold))),
        ]
        if out is not None:
            write_labels(predictions, dataset.vocab, out / "predictions.tsv")
            write_records(records, out / "metrics.txt")
            _write_run_config(args, out)
        write_records(records, sys.stdout)
        return EXIT_OK

    if not args.eval_edges or not args.filter_edges:
        raise UsageError("--task rank requires --eval-edges and --filter-edges")
    eval_edges = _parse_edge_names(args.eval_edges, dataset.vocab)
    filter_edges = _parse_edge_names(args.filter_edges, dataset.vocab)
    metrics = ranking_metrics(config, eval_edges, filter_edges, ks=_parse_ints(args.ks))
    records = [("task", "rank")] + metrics.to_records()
    if out is not None:
        write_records(records, out / "metrics.txt")
        with open(out / "metrics_table.tsv", "w", encoding="utf-8") as handle:
            handle.write("label\tMR\tMRR\tH@10\n")
            handle.write(metrics.table_row(Path(args.checkpoint).stem) + "\n")
        _write_run_config(args, out)
    write_records(records, sys.stdout)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    assignment = random_assignment(
        args.entities, args.classes, args.relations, args.seed, args.true_fraction
    )
    base = fit_binary_base(
        assignment,
        args.entities,
        args.relations,
        d=args.dim,
        seed=args.seed,
        budget=args.budget,
    )
    config = extend_with_classes(base, assignment, eps=args.eps, n_classes=args.classes)
    report = verify_separation(config, assignment)
    write_records(report.to_records(), sys.stdout)
    if report.passed:
        print(f"SEPARATED margin={report.margin!r}")
        return EXIT_OK
    print("NOT SEPARATED")
    return EXIT_NUMERIC


def _cmd_validate(args) -> int:
    dataset = load_dataset_dir(args.data)
    report = validate(dataset)
    write_records(dataset_stats(dataset) + report.to_records(), sys.stdout)
    return EXIT_DATA if _blocking_violations(report) else EXIT_OK


def _cmd_baseline(args) -> int:
    dataset = _load_valid_dataset(args.data)
    gold = dict(getattr(dataset.labels, args.split))
    if not gold:
        raise DataError(f"no {args.split} labels in the dataset")
    if args.model == "lp":
        dist = label_propagation(dataset, args.max_iters, args.tolerance)
        picks = dist.predictions()
        predictions = {ent: int(picks[ent]) for ent in gold}
    else:
        if dataset.features is None:
            raise DataError("the mlp baseline requires a dataset with features")
        check_features(dataset.features)
        clf = mlp_classifier_train(
            dataset.features,
            dataset.labels.train,
            dataset.vocab.n_classes,
            MlpClassifierConfig(
                hidden=_parse_ints(args.hidden),
                epochs=args.epochs,
                learning_rate=args.lr,
            ),
            seed=args.seed,
        )
        predictions = mlp_classifier_predict(clf, dataset.features, sorted(gold))
    records = [
        ("model", args.model),
        ("split", args.split),
        ("accuracy", repr(accuracy(predictions, gold))),
    ]
    if args.out:
        out = ensure_dir(args.out)
        write_labels(predictions, dataset.vocab, out / "predictions.tsv")
        write_records(records, out / "metrics.txt")
        _write_run_config(args, out)
    write_records(records, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="boxkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="key = value file with flag defaults")

    p = sub.add_parser("synth", help="generate a synthetic featured KG")
    add_config(p)
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int, default=100)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--relations", type=int, default=2)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", action="append", help="REL:SRC>DST:PROB, repeatable")
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--mean-radius", type=float, default=3.0)
    p.add_argument("--feature-noise", type=float, default=1.0)
    p.add_argument("--feature-groups", help="comma list mapping class->feature group")
    p.add_argument("--label-fractions", default="0.6,0.2,0.2")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("drop-edges", help="remove edges without isolating nodes")
    add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_drop_edges)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=[MODE_BOXE, MODE_MLP_BOXE], default=MODE_BOXE)
    p.add_argument("--classes", choices=["on", "off"], default="on")
    p.add_argument("--features", choices=["on", "off", "auto"], default="auto")
    p.add_argument("--loss", choices=["ns", "adv-ns", "ce"], default="ns")
    p.add_argument("--margin", type=float, default=5.0)
    p.add_argument("--adv-alpha", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--negatives", type=int, default=100)
    p.add_argument("--hidden", default="1000,1000")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--norm", type=int, choices=[1, 2], default=2)
    p.add_argument("--unary-weight", type=float, default=1.0)
    p.add_argument("--eval-every", type=int, default=10)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--eval-metric", choices=["auto", "accuracy", "mrr", "loss"], default="auto")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    add_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=["classify", "rank"], required=True)
    p.add_argument("--split", choices=["train", "valid", "test"], default="valid")
    p.add_argument("--eval-edges")
    p.add_argument("--filter-edges")
    p.add_argument("--ks", default="1,3,10")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("oracle", help="build and verify a separating configuration")
    add_config(p)
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--relations", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=5)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--true-fraction", type=float, default=0.5)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="report dataset stats and violations")
    add_config(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("baseline", help="run a classification baseline")
    add_config(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["lp", "mlp"], required=True)
    p.add_argument("--split", choices=["train", "valid", "test"], default="valid")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--hidden", default="512,512")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            tokens = _config_tokens(args.config)
            args = parser.parse_args([argv[0]] + tokens + argv[1:])
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ExpressivenessError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
