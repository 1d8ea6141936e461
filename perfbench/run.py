#!/usr/bin/env python3
"""boxkg benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload joint-mlp --seed 0 --seconds 20 --trace 0

Set-up (input generation and dataset round trip) runs several times and
reports its median.  The timed phase then repeats the workload's unit until
``--seconds`` would be exceeded, but at least a workload-specific number of
times, and reports medians over units.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` first runs untraced units for half the time, then
traced units, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# the package's single-threaded mode; must precede the first numpy import
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# set-up repeats at least this often and for at least this long; median reported
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

# gated end-to-end metrics: every workload reports each of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_facts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["joint-mlp", "kg2k-mlp", "oracle"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> list[tuple[str, str]]:
    """Machine, interpreter and BLAS facts recorded with every result."""
    import ctypes
    import glob

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = str(getter())
                break
    return [
        ("env.nproc", str(os.cpu_count())),
        ("env.cpu", cpu),
        ("env.python", platform.python_version()),
        ("env.numpy", np.__version__),
        ("env.blas", blas.get("name", "unknown")),
        ("env.blas_version", str(blas.get("version", "unknown"))),
        ("env.blas_threads", threads),
    ]


def run_units(workload, ledger, work, seconds, min_units, tracer=None):
    """Units until the next one would overrun ``seconds``; returns their results."""
    results, walls = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.unit = len(results)
        start, cpu = time.perf_counter(), time.process_time()
        results.append(workload.unit(len(results), ledger, work))
        walls.append(time.perf_counter() - start)
        results[-1].cpu_s = time.process_time() - cpu
        if len(results) >= min_units and (
            time.perf_counter() + statistics.median(walls) > deadline
        ):
            return results, walls


def _median(values):
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else None


def check_determinism(workload, results, ledger) -> None:
    """Graph units repeat identical work: their digests must all agree."""
    if not workload.identical_units:
        return
    for key in ("ckpt_sha256", "log_sha256"):
        digests = {getattr(r, key) for r in results}
        if len(digests) > 1:
            ledger.fail(f"{key} differs between units of one run: {sorted(map(str, digests))}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "boxkg" / "__init__.py").is_file():
        print(f"perfbench: boxkg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    records = environment()
    records.append(("run", f"workload={args.workload} seed={args.seed} "
                           f"seconds={args.seconds:g} trace={args.trace} size={args.size}"))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracing.install(tracer)
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            start = time.perf_counter()
            workload.setup(work)
            setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()

        ledger = workloads.Ledger()
        min_units = workloads.MIN_UNITS[args.workload]
        budget = args.seconds / 2 if tracer is not None else args.seconds
        results, walls = run_units(workload, ledger, work, budget, min_units)
        traced_walls = []
        if tracer is not None:
            tracing.install(tracer)
            traced, traced_walls = run_units(workload, ledger, work, budget, 1, tracer)
            tracer.uninstall()
            results += traced
        check_determinism(workload, results, ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records.append(("setup_s", " ".join(repr(t) for t in setup_times)))
    untraced = results[: len(walls)]
    for kind, done, times in (("unit", untraced, walls),
                              ("traced_unit", results[len(walls):], traced_walls)):
        for i, (r, wall) in enumerate(zip(done, times)):
            records.append((f"{kind}.{i}",
                            f"wall_s={wall!r} cpu_s={r.cpu_s!r} train_s={r.train_s!r} "
                            f"train_facts={r.train_facts} ckpt_sha256={r.ckpt_sha256} "
                            f"log_sha256={r.log_sha256}"))
    train_rates = [r.train_facts / r.train_s for r in untraced if r.train_s > 0]
    rank_rates = [r.rank_queries / r.rank_s for r in untraced if r.rank_s]
    values = {
        "setup_s": float(statistics.median(setup_times)),
        "wall_s": float(statistics.median(walls)),
        "train_facts_per_s": _median(train_rates) or 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    # workload-specific results, printed but not gated (see perfbench/README.md)
    extra = {
        "rank_queries_per_s": (_median(rank_rates), "1/s"),
        "ckpt_save_s": (_median([r.ckpt_save_s for r in untraced]), "s"),
        "ckpt_load_s": (_median([r.ckpt_load_s for r in untraced]), "s"),
        "valid_accuracy": (_median([r.valid_accuracy for r in untraced]), "fraction"),
        "heldout_mrr": (_median([r.heldout_mrr for r in untraced]), "fraction"),
        "failed_fraction": (ledger.failed / max(ledger.attempted, 1), "fraction"),
        "units": (len(walls), "count"),
    }

    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        printed = {**metrics, **{k: {"value": v, "unit": u}
                                 for k, (v, u) in extra.items() if v is not None}}
    else:
        layer = tracing.layer_metrics(tracer, list(range(len(traced_walls))))
        pairs = list(zip(walls, traced_walls))
        overhead = float(statistics.median(t - u for u, t in pairs))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_ratio"] = {
            "value": overhead / float(statistics.median(u for u, _ in pairs)),
            "unit": "ratio"}
        printed = metrics
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        records.append(("spans", str(spans_path.relative_to(ROOT))))

    for problem in ledger.problems:
        records.append(("problem", problem))
    for key, value in records:
        print(f"{key}: {value}")
    for name, entry in printed.items():
        print(f"metric.{name}: {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
