"""Record the reference outputs and counts the benchmark checks against.

Run from the repository root after a change that is meant to alter the
program's outputs or its per-layer counts (and say so in the change)::

    python3 perfbench/record.py

It writes ``perfbench/reference.json``:

* ``paper_digest`` — sha256 of ``repro run all`` standard output, taken
  from the CLI itself; ``paper_cold`` and ``paper_warm`` must render
  exactly this on every pass;
* ``swarm_digest`` — the ``swarm_scale`` summary digest. The run has
  no stochastic part at this commit, so every seed must give it; record
  one per seed once the run uses its seed;
* ``counts`` — every workload's per-layer counts at seed 0, from a
  traced run. They are checked on every seed, except ``churn_traced``'s
  (see the README's known defects).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0


def _cli_digest() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "repro.cli", "run", "all"],
                          cwd=ROOT, env=env, capture_output=True, check=True)
    return hashlib.sha256(done.stdout).hexdigest()


def _traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its checks")
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SwarmScale

    scratch = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-record-"))
    try:
        swarm = SwarmScale(DEFAULT_SEED, scratch, {"swarm_digest": None})
        swarm.setup()
        swarm_digest = swarm.run_pass().counts["digest"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = {"seed": DEFAULT_SEED, "paper_digest": _cli_digest(),
                 "swarm_digest": swarm_digest, "counts": {}}
    # The traced runs check against the digests recorded above.
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for workload in ("paper_cold", "paper_warm", "swarm_scale",
                     "churn_traced"):
        reference["counts"][workload] = _traced_counts(workload)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
