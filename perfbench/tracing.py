"""In-process span tracing of boxkg's public functions, for the traced run.

Each traced function is replaced in every boxkg module that holds a
reference to it, because several modules import functions by name
(``training`` and ``expressive`` import ``binary_score_tensors``,
``representation_tensors``, ``adam_step`` and others).  Backward work is
timed by wrapping the ``_backward`` closure of the graph node a traced op
returns.  Spans stay in memory as ``(name, start, end, parent, unit)`` plus
an optional count attribute, and are written out once at exit.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

import numpy as np

LAYERS = ("synth", "data", "io", "autodiff", "model", "training", "evaluation",
          "baselines", "expressive")
SETUP_UNIT = -1

# span names under which optimisation steps run, and the one whose subtree
# is periodic validation rather than step work
STEP_ROOTS = ("training.train", "expressive.fit_binary_base")
NOT_STEP = "training.validation"


class Tracer:
    """Span recorder; ``unit`` tags spans with the benchmark unit running."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.counts: list[object] = []  # per-span count, or None
        self.stack: list[int] = []
        self.unit = SETUP_UNIT
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.units.append(self.unit)
        self.counts.append(None)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    # -- installing wrappers --------------------------------------------

    def _wrap(self, name, fn, count=None, backward=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.counts[idx] = count(out, *args, **kwargs)
            if backward is not None:
                tracer._wrap_backward(backward, out)
            return out

        return traced

    def _wrap_backward(self, name, node) -> None:
        inner = node._backward
        if inner is None:
            return
        tracer = self

        def traced_backward(g):
            idx = tracer.open(name)
            try:
                inner(g)
            finally:
                tracer.close(idx)

        node._backward = traced_backward

    def patch(self, module: str, attr: str, name: str | None = None, **kw) -> None:
        """Replace ``boxkg.<module>.<attr>`` wherever a boxkg module binds it."""
        original = getattr(importlib.import_module(f"boxkg.{module}"), attr)
        traced = self._wrap(name or f"{module}.{attr}", original, **kw)
        for layer in LAYERS:
            mod = importlib.import_module(f"boxkg.{layer}")
            if mod.__dict__.get(attr) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **kw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_ns\tend_ns\tparent\tunit\tcount\n")
            for i, name in enumerate(self.names):
                count = "" if self.counts[i] is None else repr(self.counts[i])
                handle.write(f"{i}\t{name}\t{self.starts[i]}\t{self.ends[i]}\t"
                             f"{self.parents[i]}\t{self.units[i]}\t{count}\n")


def _graph_nodes(root) -> int:
    """Nodes that ``Tensor.backward`` will visit from ``root``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _batch_entities(batch) -> int:
    parts = [a for a in (batch.unary_ent, batch.binary_head, batch.binary_tail,
                         batch.binary_neg_head, batch.binary_neg_tail) if a is not None]
    return len(np.unique(np.concatenate([np.ravel(a) for a in parts]))) if parts else 0


def _neg_rows(batch, n_classes: int) -> int:
    rows = 0
    if batch.n_unary:
        if batch.unary_neg_cls is None:  # full softmax over the class vocabulary
            rows += batch.n_unary * (n_classes - 1)
        else:
            rows += batch.unary_neg_cls.size
    if batch.n_binary:
        rows += batch.binary_neg_head.size
    return rows


def install(tracer: Tracer) -> None:
    """Wrap every traced public function; counts ride on their spans."""
    # boxkg is importable only after run.py has put src/ on the path
    from boxkg import autodiff, evaluation

    t = tracer
    for module, attr in (
        ("synth", "generate_synthetic"),
        ("data", "drop_edges"),
        ("data", "validate"),
        ("io", "save_dataset"),
        ("io", "load_dataset_dir"),
        ("model", "representation_tensors"),
        ("model", "materialize"),
        ("model", "config_binary_scores"),
        ("model", "load_model"),
        ("training", "train"),
        ("training", "adam_step"),
        ("evaluation", "ranking_metrics"),
        ("evaluation", "rank_fact"),
        ("evaluation", "classify_entities"),
        ("baselines", "mlp_classifier_train"),
        ("expressive", "random_assignment"),
        ("expressive", "fit_binary_base"),
        ("expressive", "extend_with_classes"),
        ("expressive", "verify_separation"),
    ):
        t.patch(module, attr)
    t.patch("training", "_validation_value", name=NOT_STEP)
    t.patch("autodiff", "take_rows", backward="autodiff.take_rows.bwd",
            count=lambda out, a, index: (len(index), a.shape[0], out.data[0:1].size))
    t.patch("autodiff", "matmul", backward="autodiff.matmul.bwd")
    t.patch("model", "box_score_rows", backward="model.box_score_rows.bwd",
            count=lambda out, points, *a, **k: points.shape[0])
    t.patch("model", "mlp_forward_tensors", count=lambda out, pt, p, n, x: x.shape[0])
    t.patch("model", "save_model", count=lambda out, params, path: os.path.getsize(path))
    for side in ("heads", "tails"):
        t.patch("model", f"config_scores_all_{side}", name="model.config_scores_all",
                count=lambda out, *a: len(out))
    t.patch("training", "batch_gradients",
            count=lambda out, params, batch, loss_config, *a, **k: (
                _batch_entities(batch), _neg_rows(batch, params.n_classes)))
    t.patch("baselines", "label_propagation", count=lambda out, *a, **k: out.iterations)
    t.patch_method(evaluation.FilterIndex, "__init__", "evaluation.filter_index")

    original_backward = autodiff.Tensor.backward

    @functools.wraps(original_backward)
    def backward(node):
        nodes = _graph_nodes(node)
        idx = t.open("autodiff.backward")
        try:
            original_backward(node)
        finally:
            t.close(idx)
        t.counts[idx] = nodes

    t._restore.append((autodiff.Tensor, "backward", original_backward))
    autodiff.Tensor.backward = backward


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans

# metric -> unit; counters must repeat exactly for a fixed seed
LAYER_METRICS = {
    "autodiff.take_rows.fwd_ms": "ms",
    "autodiff.take_rows.bwd_ms": "ms",
    "autodiff.take_rows.rows": "count",
    "autodiff.take_rows.bytes": "B",
    "autodiff.matmul.bwd_ms": "ms",
    "autodiff.backward.self_ms": "ms",
    "autodiff.backward.nodes": "count",
    "model.box_score_rows.fwd_ms": "ms",
    "model.box_score_rows.bwd_ms": "ms",
    "model.box_score_rows.calls": "count",
    "model.box_score_rows.rows": "count",
    "model.representation_tensors.ms": "ms",
    "model.mlp.rows": "count",
    "model.mlp.useful_ratio": "ratio",
    "model.materialize.ms": "ms",
    "model.config_binary_scores.ms": "ms",
    "model.checkpoint.bytes": "B",
    "training.batch_gradients.self_ms": "ms",
    "training.adam_step.ms": "ms",
    "training.train.self_ms": "ms",
    "training.validation.ms": "ms",
    "training.steps": "count",
    "training.neg_rows": "count",
    "evaluation.filter_index.ms": "ms",
    "evaluation.rank_fact.ms_p50": "ms",
    "evaluation.rank_fact.ms_tail": "ms",
    "evaluation.candidates_scored": "count",
    "evaluation.classify_entities.ms": "ms",
    "baselines.label_propagation.ms": "ms",
    "baselines.label_propagation.iterations": "count",
    "baselines.mlp_classifier_train.ms": "ms",
    "synth.generate_synthetic.ms": "ms",
    "data.drop_edges.ms": "ms",
    "data.validate.ms": "ms",
    "io.save_dataset.ms": "ms",
    "io.load_dataset_dir.ms": "ms",
    "expressive.random_assignment.ms": "ms",
    "expressive.fit_binary_base.ms": "ms",
    "expressive.fit.steps": "count",
    "expressive.extend_with_classes.ms": "ms",
    "expressive.verify_separation.ms": "ms",
}
COUNTERS = {name for name, unit in LAYER_METRICS.items() if unit != "ms"}
SETUP_METRICS = (
    "synth.generate_synthetic", "data.drop_edges", "data.validate",
    "io.save_dataset", "io.load_dataset_dir", "expressive.random_assignment",
)


class _Spans:
    """Durations, self times and step membership of every recorded span."""

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        self.tr = tr
        self.ms = [(tr.ends[i] - tr.starts[i]) / 1e6 for i in range(n)]
        children = [0.0] * n
        self.root = [""] * n  # enclosing step root, "" outside optimisation
        self.ranked = [False] * n  # inside evaluation.ranking_metrics
        for i in range(n):
            p = tr.parents[i]
            name = tr.names[i]
            if p >= 0:
                children[p] += self.ms[i]
                self.ranked[i] = self.ranked[p]
            if name == "evaluation.ranking_metrics":
                self.ranked[i] = True
            if name in STEP_ROOTS:
                self.root[i] = name
            elif name != NOT_STEP and p >= 0:
                self.root[i] = self.root[p]
        self.self_ms = [self.ms[i] - children[i] for i in range(n)]
        self.by_key: dict[tuple[int, str], list[int]] = {}
        for i in range(n):
            self.by_key.setdefault((tr.units[i], tr.names[i]), []).append(i)

    def select(self, unit: int, name: str, step_only: bool = False) -> list[int]:
        found = self.by_key.get((unit, name), [])
        return [i for i in found if self.root[i]] if step_only else found


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def unit_layer_metrics(spans: _Spans, unit: int) -> dict[str, float]:
    """Per-layer values of one unit: per optimisation step unless noted."""
    tr = spans.tr
    sel = spans.select

    def total(name, step_only=True, own=False):
        times = spans.self_ms if own else spans.ms
        return sum(times[i] for i in sel(unit, name, step_only))

    def per_call(name):
        return _mean([spans.ms[i] for i in sel(unit, name)])

    steps = len(sel(unit, "training.adam_step", step_only=True))
    per_step = 1.0 / steps if steps else 0.0
    take = [tr.counts[i] for i in sel(unit, "autodiff.take_rows", step_only=True)]
    batches = [tr.counts[i] for i in sel(unit, "training.batch_gradients")]
    mlp = [tr.counts[i] for i in sel(unit, "model.mlp_forward_tensors", step_only=True)]
    rank_ms = sorted(spans.ms[i] for i in sel(unit, "evaluation.rank_fact") if spans.ranked[i])
    scored = [tr.counts[i] for i in sel(unit, "model.config_scores_all") if spans.ranked[i]]
    train_steps = len(batches)
    fit_steps = sum(1 for i in sel(unit, "training.adam_step", step_only=True)
                    if spans.root[i] == "expressive.fit_binary_base")
    useful = 0.0
    if mlp and batches:
        # each step feeds every entity through both MLPs; useful rows are the
        # distinct entities the batch touches, once per MLP
        useful = sum(b[0] for b in batches) * (len(mlp) / len(batches)) / sum(mlp)
    saved = [tr.counts[i] for i in sel(unit, "model.save_model")]
    lp = [tr.counts[i] for i in sel(unit, "baselines.label_propagation")]
    return {
        "autodiff.take_rows.fwd_ms": total("autodiff.take_rows") * per_step,
        "autodiff.take_rows.bwd_ms": total("autodiff.take_rows.bwd") * per_step,
        "autodiff.take_rows.rows": sum(c[0] for c in take) * per_step,
        "autodiff.take_rows.bytes": sum((c[0] + c[1]) * c[2] * 8 for c in take) * per_step,
        "autodiff.matmul.bwd_ms": total("autodiff.matmul.bwd") * per_step,
        "autodiff.backward.self_ms": total("autodiff.backward", own=True) * per_step,
        "autodiff.backward.nodes": sum(
            tr.counts[i] for i in sel(unit, "autodiff.backward", True)) * per_step,
        "model.box_score_rows.fwd_ms": total("model.box_score_rows") * per_step,
        "model.box_score_rows.bwd_ms": total("model.box_score_rows.bwd") * per_step,
        "model.box_score_rows.calls": len(sel(unit, "model.box_score_rows", True)) * per_step,
        "model.box_score_rows.rows": sum(
            tr.counts[i] for i in sel(unit, "model.box_score_rows", True)) * per_step,
        "model.representation_tensors.ms": total("model.representation_tensors") * per_step,
        "model.mlp.rows": sum(mlp) * per_step,
        "model.mlp.useful_ratio": useful,
        "model.materialize.ms": per_call("model.materialize"),
        "model.config_binary_scores.ms": per_call("model.config_binary_scores"),
        "model.checkpoint.bytes": float(saved[-1]) if saved else 0.0,
        "training.batch_gradients.self_ms":
            total("training.batch_gradients", own=True) * per_step,
        "training.adam_step.ms": total("training.adam_step") * per_step,
        "training.train.self_ms": total("training.train", False, own=True) * per_step,
        "training.validation.ms": per_call(NOT_STEP),
        "training.steps": float(train_steps),
        "training.neg_rows": _mean([b[1] for b in batches]),
        "evaluation.filter_index.ms": per_call("evaluation.filter_index"),
        "evaluation.rank_fact.ms_p50": float(statistics.median(rank_ms)) if rank_ms else 0.0,
        "evaluation.rank_fact.ms_tail": tail(rank_ms),
        "evaluation.candidates_scored": float(sum(scored)),
        "evaluation.classify_entities.ms": per_call("evaluation.classify_entities"),
        "baselines.label_propagation.ms": per_call("baselines.label_propagation"),
        "baselines.label_propagation.iterations": float(lp[-1]) if lp else 0.0,
        "baselines.mlp_classifier_train.ms": per_call("baselines.mlp_classifier_train"),
        "expressive.fit_binary_base.ms": per_call("expressive.fit_binary_base"),
        "expressive.fit.steps": float(fit_steps),
        "expressive.extend_with_classes.ms": per_call("expressive.extend_with_classes"),
        "expressive.verify_separation.ms": per_call("expressive.verify_separation"),
    }


def tail(sorted_values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it (max if fewer)."""
    if not sorted_values:
        return 0.0
    return float(sorted_values[-11] if len(sorted_values) > 10 else sorted_values[-1])


def layer_metrics(tr: Tracer, units: list[int]) -> dict[str, float]:
    """Counters from the first traced unit, timings as medians over units."""
    spans = _Spans(tr)
    per_unit = [unit_layer_metrics(spans, u) for u in units]
    out = {}
    for name in per_unit[0]:
        if name in COUNTERS:
            out[name] = per_unit[0][name]
        else:
            out[name] = float(statistics.median(m[name] for m in per_unit))
    for name in SETUP_METRICS:
        out[f"{name}.ms"] = float(statistics.median(
            [spans.ms[i] for i in spans.select(SETUP_UNIT, name)] or [0.0]))
    return out
