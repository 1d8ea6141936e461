"""The benchmark's tracer still finds every boxkg function it wraps.

``perfbench/tracing.py`` patches boxkg functions by module and name, so a
deleted or renamed function breaks the traced benchmark run.  This checks
that the tracer installs and uninstalls cleanly against the package, and
that the MLP calls it times and counts keep the signatures it reads.
"""

from pathlib import Path

import numpy as np

from boxkg import autodiff, model, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (model.box_score_rows, training.batch_gradients, autodiff.take_rows,
                 autodiff.matmul, model.mlp_forward_tensors)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert model.box_score_rows is not originals[0]
        assert autodiff.matmul is not originals[3]
        assert model.mlp_forward_tensors is not originals[4]
        # the MLP backward is timed through autodiff.matmul, and its rows are
        # counted from mlp_forward_tensors(pt, prefix, n_layers, x)
        rng = np.random.default_rng(0)
        mlp = model.mlp_init(3, (4,), 2, rng)
        pt = autodiff.leaves({"m.w0": mlp.weights[0], "m.b0": mlp.biases[0],
                              "m.w1": mlp.weights[1], "m.b1": mlp.biases[1]})
        out = model.mlp_forward_tensors(pt, "m", 2, rng.standard_normal((5, 3)))
        autodiff.tsum(out).backward()
    finally:
        tracer.uninstall()
    assert (model.box_score_rows, training.batch_gradients, autodiff.take_rows,
            autodiff.matmul, model.mlp_forward_tensors) == originals
    spans = list(zip(tracer.names, tracer.counts))
    assert ("model.mlp_forward_tensors", 5) in spans
    assert [name for name, _ in spans].count("autodiff.matmul.bwd") == 2
