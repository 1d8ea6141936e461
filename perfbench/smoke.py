#!/usr/bin/env python3
"""Smoke test of the benchmark itself; makes no timing assertions.

    python3 perfbench/smoke.py

Runs every workload at a tiny size: twice traced, to require identical
deterministic counters and digests, and once untraced.  Each run must be
correct and print every metric that BENCHMARK.json names, with its unit.
Finally a copy holding only BENCHMARK.json and perfbench/ must exit with
an error and print no result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import COUNTERS  # noqa: E402

DIGESTS = re.compile(r"^(?:traced_)?unit\.(\d+): .*ckpt_sha256=(\S+) log_sha256=(\S+)$", re.M)


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout + proc.stderr


def result(output: str) -> dict:
    return json.loads(output.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        outputs = {}
        for label, trace in (("traced-1", 1), ("traced-2", 1), ("untraced", 0)):
            code, out = run(workload, trace)
            expect(code == 0, f"{workload} {label}: exit {code}\n{out[-2000:]}")
            if code != 0:
                continue
            res = result(out)
            outputs[label] = (res, out)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} {label}: not correct: {res['attempted']} attempted, "
                   f"{res['failed']} failed")
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            expect(set(res["metrics"]) == set(names),
                   f"{workload} {label}: metrics {sorted(set(res['metrics']) ^ set(names))} "
                   "differ from BENCHMARK.json")
            for name, entry in res["metrics"].items():
                expect(entry.get("unit") == units.get(name),
                       f"{workload} {label}: {name} has unit {entry.get('unit')!r}")
                expect(f"metric.{name}: " in out, f"{workload} {label}: {name} not printed")
        if "traced-1" in outputs and "traced-2" in outputs:
            (a, out_a), (b, out_b) = outputs["traced-1"], outputs["traced-2"]
            for name in sorted(COUNTERS):
                expect(a["metrics"][name] == b["metrics"][name],
                       f"{workload}: counter {name} differs: "
                       f"{a['metrics'][name]['value']} vs {b['metrics'][name]['value']}")
            first = {m.group(1): m.groups()[1:] for m in DIGESTS.finditer(out_a)}
            second = {m.group(1): m.groups()[1:] for m in DIGESTS.finditer(out_b)}
            expect(first["0"] == second["0"], f"{workload}: digests differ between runs")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out = run("joint-mlp", 0, cwd=bare)
        expect(code != 0 and '"correct"' not in out,
               f"without sources: exit {code}, expected an error and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
