"""Self-tests of the benchmark: sensitivity to slowdowns, layer predictions.

Run from the repository root::

    python3 perfbench/selftest.py sensitivity   # about 12 minutes
    python3 perfbench/selftest.py predictions   # about 3 minutes

``sensitivity`` slows one public function from outside the program
(``run.py --inject``: a busy wait on every call) and checks that the
benchmark flags the slowdown, a median ``wall_s`` worse than the bound
in ``BENCHMARK.json``, on the workload that calls it and reads as
unchanged on one that does not. Plain and slowed runs alternate, on the
same seeds.

``predictions`` makes one traced run per workload at seed 0 and checks
the per-layer predictions listed in ``perfbench/README.md``. Both exit
non-zero when a check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spread import run_once

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (injected function, busy wait per call in seconds, workload that must
#: flag it, workload that must not). Each wait adds about half of the
#: target's pass time, twice the 25% bound: swarm_scale makes 37,851
#: transfers in a pass of about 1.3 s, paper_warm 162 cache reads in
#: about 0.12 s. paper_warm makes 123 transfers and swarm_scale no cache
#: reads, so the other workload should read as unchanged.
CASES = (
    ("fabric.transfer", 1.7e-5, "swarm_scale", "paper_warm"),
    ("runcache.get", 3.5e-4, "paper_warm", "swarm_scale"),
)
RUNS = 3


def sensitivity() -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "wall_s")
    seconds = bench["run_seconds"]
    ok = True
    for target, delay, flagged_on, unchanged_on in CASES:
        for workload, expect_flag in ((flagged_on, True),
                                      (unchanged_on, False)):
            plain, slowed = [], []
            for seed in range(1, RUNS + 1):
                first, second = (plain, slowed) if seed % 2 else (slowed, plain)
                for bucket in (first, second):
                    extra = ([f"--inject={target}={delay}"]
                             if bucket is slowed else [])
                    result = run_once(workload, seed, seconds, 0, extra)
                    bucket.append(result["metrics"]["wall_s"]["value"])
            change = statistics.median(slowed) / statistics.median(plain) - 1
            flagged = change > bound
            verdict = "ok" if flagged == expect_flag else "WRONG"
            ok &= flagged == expect_flag
            print(f"{target:>16} on {workload:<12} wall_s {change:+7.1%} "
                  f"(bound {bound:.0%}): "
                  f"{'flagged' if flagged else 'unchanged'}  {verdict}")
    return ok


def _traced(workload: str) -> dict:
    result = run_once(workload, 0, 12, 1, [])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def predictions() -> bool:
    import layers

    traced = {name: _traced(name) for name in
              ("paper_cold", "paper_warm", "swarm_scale", "churn_traced")}
    checks = []

    def top_two(metrics: dict) -> set:
        ranked = sorted(layers.LAYERS, key=lambda layer:
                        metrics[f"{layer}.self_s"], reverse=True)
        return set(ranked[:2])

    def self_share(metrics: dict, layer: str) -> float:
        total = sum(metrics[f"{name}.self_s"] for name in layers.LAYERS)
        return metrics[f"{layer}.self_s"] / total

    checks.append(("network + simulation hold the largest self time on "
                   "swarm_scale",
                   top_two(traced["swarm_scale"]) == {"network",
                                                      "simulation"}))
    checks.append(("orchestrator + experiments hold the largest self time "
                   "on paper_warm",
                   top_two(traced["paper_warm"]) == {"orchestrator",
                                                     "experiments"}))
    for name, metrics in traced.items():
        share = self_share(metrics, "telemetry")
        if name == "churn_traced":
            checks.append((f"telemetry self time is material on {name} "
                           f"({share:.1%})", share > 0.05))
        else:
            checks.append((f"telemetry self time is about 0 on {name} "
                           f"({share:.2%})", share < 0.01))
    for count in ("cloud.preemptions", "faults.injections",
                  "controlplane.decisions"):
        nonzero = sorted(name for name, metrics in traced.items()
                         if metrics[count] > 0)
        checks.append((f"{count} nonzero only on churn_traced "
                       f"(nonzero on: {', '.join(nonzero) or 'none'})",
                       nonzero == ["churn_traced"]))
    for name, metrics in traced.items():
        shares = sorted(((self_share(metrics, layer), layer)
                         for layer in layers.LAYERS), reverse=True)[:3]
        print(f"{name}: benchmark tracing overhead "
              f"{metrics['perfbench.overhead_ratio']:.2f}x; largest self "
              f"time: {', '.join(f'{l} {v:.0%}' for v, l in shares)}")
    for text, passed in checks:
        print(f"  {'confirmed' if passed else 'NOT CONFIRMED'}: {text}")
    return all(passed for __, passed in checks)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tests = {"sensitivity": sensitivity, "predictions": predictions}
    if len(argv) != 1 or argv[0] not in tests:
        print(f"usage: selftest.py {{{'|'.join(tests)}}}", file=sys.stderr)
        return 2
    return 0 if tests[argv[0]]() else 1


if __name__ == "__main__":
    sys.exit(main())
