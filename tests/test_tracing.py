"""The benchmark's tracer still finds every boxkg function it wraps.

``perfbench/tracing.py`` patches boxkg functions by module and name, so a
deleted or renamed function breaks the traced benchmark run.  This checks
that the tracer installs and uninstalls cleanly against the package.
"""

from pathlib import Path

from boxkg import autodiff, model, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (model.box_score_rows, training.batch_gradients, autodiff.take_rows)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert model.box_score_rows is not originals[0]
    finally:
        tracer.uninstall()
    assert (model.box_score_rows, training.batch_gradients, autodiff.take_rows) == originals
