"""Run one workload on several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload swarm_scale --runs 10

For every metric it prints the median of the runs and the distance
between their first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to a third of the metric's
bound from ``BENCHMARK.json``: the benchmark is steady when every
spread but that of ``setup_s`` sits below that mark. Seeds are
``first .. first+runs-1``. One traced run at the recorded seed then
takes the set's per-layer counts (it fails on counts that drift from
``reference.json``). ``--out`` saves the per-run values and the counts,
and ``--against`` compares medians and counts with an earlier saved
set: a count that differs fails, except on ``churn_traced``, where it is
reported (see the README's known defects).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int,
             extra: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["stderr"] = done.stderr
    return result


def spread(values: list[float]) -> float:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, bench["run_seconds"], 0, [])
        if not result["correct"]:
            failed += 1
            print(f"seed {seed}: {result['failed']} failed operations:\n"
                  f"{result['stderr']}", file=sys.stderr)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    reference = json.loads((HERE / "reference.json").read_text())
    traced = run_once(args.workload, reference["seed"], bench["run_seconds"],
                      1, [])
    if not traced["correct"]:
        failed += 1
        print(f"traced run: {traced['failed']} failed operations:\n"
              f"{traced['stderr']}", file=sys.stderr)
    counts = {name: traced["metrics"][name]["value"] for name in COUNTS}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    print(f"{args.workload}: {args.runs} runs and one traced, "
          f"{failed} incorrect")
    for name, metric in bounds.items():
        median = statistics.median(values[name])
        line = (f"  {name:<18} median {median:<12.6g} spread "
                f"{spread(values[name]):7.2%}  (bound/3 "
                f"{metric['bound'] / 3:.2%})")
        if name in earlier:
            base = statistics.median(earlier[name])
            change = median / base - 1.0
            worse = change if metric["better"] == "lower" else -change
            line += (f"  vs earlier {change:+.2%}"
                     f"{'  WORSE than bound' if worse > metric['bound'] else ''}")
        print(line)
    if "counts" in earlier:
        changed = sorted(name for name in COUNTS
                         if earlier["counts"].get(name) != counts[name])
        exact = WORKLOADS[args.workload].exact_counts
        print(f"  per-layer counts vs earlier: "
              f"{'identical' if not changed else ', '.join(changed)}"
              f"{'' if exact or not changed else ' (not enforced)'}")
        failed += bool(exact and changed)
    if args.out:
        args.out.write_text(json.dumps(dict(values, counts=counts), indent=1)
                            + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
