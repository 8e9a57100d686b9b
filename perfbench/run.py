"""Run one benchmark workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same workload traced and reports the per-layer metrics (see
``perfbench/README.md``). A readable table goes to standard output and
the last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Temporary files live under ``.perfbench-tmp/`` in the
repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
PACKAGE = SOURCES / "repro"
SCRATCH = ROOT / ".perfbench-tmp"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Timed passes per run even when one pass outlasts ``--seconds``.
MIN_PASSES = 3
#: Traced runs repeat the instrumented pass to check counts repeat.
COUNTING_PASSES = 2
#: Host speed drifts by 20-30% over seconds on a shared host, and
#: memory-bound code slows more than a tight loop does. Pass times are
#: therefore scaled by ``PROBE_REFERENCE_S / probe`` (see ``_probe`` and
#: ``_ScaledClock``): the metrics read as seconds at the speed at which
#: the probe takes ``PROBE_REFERENCE_S``, about its median inside a
#: benchmark process on the 2-core x86 host this was built on. Over 24
#: twenty-second windows of swarm_scale there, the quartile spread of
#: the windows' median pass was 5-17% raw, 8-15% scaled by a tight
#: arithmetic loop, and 4-8% scaled by this probe.
PROBE_KEYS = 40_000
PROBE_REFERENCE_S = 0.08
PROBE_INTERVAL_S = 0.5
#: ``--inject`` targets for the sensitivity self-test: a busy wait of
#: the given seconds added to every call of one public function.
INJECTABLE = {
    "fabric.transfer": ("repro.network", "Fabric", "transfer"),
    "runcache.get": ("repro.orchestrator", "RunCache", "get"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", metavar="TARGET=SECONDS",
                        help=f"slow one call down; targets: "
                             f"{', '.join(INJECTABLE)}")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    index = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return pct, ordered[index]


def _install_delay(spec: str) -> None:
    import functools
    import importlib

    target, __, seconds = spec.partition("=")
    module_name, cls_name, attr = INJECTABLE[target]
    cls = getattr(importlib.import_module(module_name), cls_name)
    original = getattr(cls, attr)
    delay = float(seconds)
    clock = time.perf_counter

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        until = clock() + delay
        while clock() < until:
            pass
        return original(*args, **kwargs)

    setattr(cls, attr, slowed)


def _probe() -> float:
    """Seconds a fixed heap-and-dict workload takes now: the host speed.

    Pushes ``PROBE_KEYS`` tuples through a heap with a dict beside it,
    the access pattern of the simulation kernel, in a few MB of memory.
    It uses no ``repro`` code, and the cyclic collector is off while it
    runs, so that a collection cannot walk the heap the program keeps:
    a change to the program cannot move it.
    """
    rng = random.Random(0)
    keys = [rng.random() for __ in range(PROBE_KEYS)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        queue: list = []
        index: dict = {}
        for position, key in enumerate(keys):
            heapq.heappush(queue, (key, position, [position]))
            index[position] = key
        while queue:
            __, position, __ = heapq.heappop(queue)
            del index[position]
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _probe_setup(workload_name: str, seed: int) -> float:
    """One set-up in a fresh interpreter: import, inputs, cache fill.

    Scaled to the reference host speed like a pass.
    """
    before = _probe()
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    setup_s = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s * PROBE_REFERENCE_S / ((before + _probe()) / 2.0)


class Tally:
    """Operations attempted and failed over a run, with their reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += max(1, outcome.results + outcome.checks)
        self.failures.extend(outcome.failures)


def _one_pass(workload, reference_counts, tally: Tally, split=None):
    from workloads import PassOutcome

    try:
        outcome = (workload.run_pass(split) if split is not None
                   else workload.run_pass())
    except Exception as error:  # recorded as a failed operation
        outcome = PassOutcome(
            failures=[f"pass raised {type(error).__name__}: {error}"])
    if reference_counts is not None and not outcome.failures:
        outcome.check(outcome.counts == reference_counts,
                      f"counts changed between passes: {outcome.counts} "
                      f"vs {reference_counts}")
    tally.add(outcome)
    return outcome


class _ScaledClock:
    """Pass wall times, scaled to the reference host speed.

    Work is timed in segments: a whole pass, or each part of one that
    the workload ends by calling ``split()``. A segment is scaled by the
    mean of the speed probes taken just before and just after it. The
    probes run between segments, outside the timed work, and at most
    ``PROBE_INTERVAL_S`` apart.
    """

    def __init__(self):
        self.before = _probe()
        self.probed = time.perf_counter()
        self.pending: list[tuple[int, float]] = []
        #: ``[scaled, raw]`` seconds per pass.
        self.walls: list[list[float]] = []

    def add(self, seconds: float) -> None:
        self.pending.append((len(self.walls) - 1, seconds))
        if time.perf_counter() - self.probed >= PROBE_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = _probe()
        self.probed = time.perf_counter()
        scale = PROBE_REFERENCE_S / ((self.before + after) / 2.0)
        for index, seconds in self.pending:
            self.walls[index][0] += seconds * scale
            self.walls[index][1] += seconds
        self.pending.clear()
        self.before = after


def _passes(workload, seconds: float, tally: Tally, minimum: int,
            counts: dict) -> list:
    """Closed loop: run passes until ``seconds`` have elapsed.

    Returns ``(scaled wall, raw wall, outcome)`` per pass.
    """
    clock = _ScaledClock()
    outcomes = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < minimum or time.perf_counter() < deadline:
        clock.walls.append([0.0, 0.0])
        start = time.perf_counter()

        def split() -> None:
            nonlocal start
            clock.add(time.perf_counter() - start)
            start = time.perf_counter()

        outcome = _one_pass(workload, counts.get("first"), tally, split)
        clock.add(time.perf_counter() - start)
        outcome.sinks.clear()  # the next pass must not pay for this one's
        counts.setdefault("first", outcome.counts)
        outcomes.append(outcome)
    clock.flush()
    return [(scaled, raw, outcome)
            for (scaled, raw), outcome in zip(clock.walls, outcomes)]


def _end_to_end(workload, args, tally: Tally) -> dict:
    setups = [_probe_setup(args.workload, args.seed)
              for __ in range(SETUP_PROBES)]
    if args.inject:
        _install_delay(args.inject)
    samples = _passes(workload, args.seconds, tally, MIN_PASSES, {})
    walls = [wall for wall, __, __ in samples]
    rate = lambda attr: [getattr(o, attr) / w for w, __, o in samples]  # noqa: E731
    metrics = {
        "wall_s": (statistics.median(walls), "s", walls),
        "sim_epochs_per_s": (statistics.median(rate("epochs")), "epochs/s",
                             rate("epochs")),
        "results_per_s": (statistics.median(rate("results")), "results/s",
                          rate("results")),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", None),
    }
    print(f"{args.workload}: seed {args.seed}, {len(samples)} passes, "
          f"{len(setups)} set-ups")
    print(f"  {'metric':<18} {'median':>12} {'unit':<10} tail")
    for name, (value, unit, values) in metrics.items():
        tail = ""
        if values is not None:
            tail = f"n={len(values)}"
            high = _percentile(values if name in ("wall_s", "setup_s")
                               else [-v for v in values])
            if high is not None:
                pct, at = high
                shown = at if name in ("wall_s", "setup_s") else -at
                tail += f"  p{pct}={shown:.6g}"
        print(f"  {name:<18} {value:>12.6g} {unit:<10} {tail}")
    raw = statistics.median(wall for __, wall, __ in samples)
    print(f"  {'(unscaled wall_s)':<18} {raw:>12.6g} {'s':<10} host "
          f"speed {metrics['wall_s'][0] / raw:.3g}x the reference's")
    error_rate = len(tally.failures) / tally.attempted
    print(f"  {'error_rate':<18} {error_rate:>12.6g} {'ratio':<10} "
          f"{len(tally.failures)} of {tally.attempted} operations")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, __) in metrics.items()}


def _traced(workload, args, tally: Tally, reference: dict, fill) -> dict:
    import layers

    budget = args.seconds / 3.0
    counts: dict = {}
    plain = _passes(workload, budget, tally, 1, counts)
    untraced = [wall for __, wall, __ in plain]
    variants: dict[str, set] = {name: set() for name in layers.VARIANTS}
    for __, __, outcome in plain:
        for name, digest in outcome.variants.items():
            variants[name].add(digest)
    profiled_walls = []
    with layers.profiled(PACKAGE) as self_times:
        deadline = time.perf_counter() + budget
        while not profiled_walls or time.perf_counter() < deadline:
            start = time.perf_counter()
            _one_pass(workload, counts["first"], tally)
            profiled_walls.append(time.perf_counter() - start)
    per_layer: dict[str, tuple[float, str]] = {
        f"{layer}.self_s": (seconds / len(profiled_walls), "s")
        for layer, seconds in self_times.items()
    }
    observed = []
    for __ in range(COUNTING_PASSES):
        with layers.instrumented() as (recorder, sink):
            outcome = _one_pass(workload, counts["first"], tally)
        observed.append(layers.layer_counts(recorder, [sink] + outcome.sinks,
                                            outcome))
        timers = dict(recorder.timers)
        for name, digest in outcome.variants.items():
            variants[name].add(digest)
    first = observed[0]
    if any(other != first for other in observed[1:]):
        message = "per-layer counts changed between passes"
        if workload.exact_counts:
            tally.failures.append(message)
        else:
            print(f"note: {message} (see the README's known defects)",
                  file=sys.stderr)
    tally.attempted += 1
    # Set-up's cache writes (paper_warm's fill) count with the pass's.
    first["orchestrator.cache_puts"] += fill.counts["orchestrator.cache_puts"]
    timers["orchestrator.put_s"] = (timers.get("orchestrator.put_s", 0.0)
                                    + fill.timers["orchestrator.put_s"])
    per_layer.update({name: (value, "B" if name.endswith("bytes") else "count")
                      for name, value in first.items()})
    per_layer.update({name: (timers.get(name, 0.0), "s")
                      for name in layers.TIMERS})
    per_layer["telemetry.overhead_ratio"] = (
        workload.telemetry_overhead() if hasattr(workload,
                                                 "telemetry_overhead")
        else 1.0, "ratio")
    per_layer.update({name: (len(digests), "count")
                      for name, digests in variants.items()})
    per_layer["perfbench.overhead_ratio"] = (
        statistics.median(profiled_walls) / statistics.median(untraced),
        "ratio")

    # Exact counts do not depend on the seed at this commit, so they are
    # checked on every seed; churn's are compared at the recorded seed
    # and only reported (see the README's known defects).
    recorded = reference.get("counts", {}).get(args.workload)
    if recorded is not None and (workload.exact_counts
                                 or args.seed == reference.get("seed")):
        drift = [f"count drift: {name} = {value:g}, recorded "
                 f"{recorded.get(name)}"
                 for name, value in sorted(first.items())
                 if recorded.get(name) != value]
        if workload.exact_counts:
            tally.attempted += 1
            tally.failures.extend(drift)
        else:
            for message in drift:
                print(f"note: {message}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, traced; "
          f"{len(untraced)} untraced, {len(profiled_walls)} profiled, "
          f"{COUNTING_PASSES} counting passes")
    for name, (value, unit) in per_layer.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in per_layer.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: the repro sources are missing ({PACKAGE})",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.inject and args.inject.partition("=")[0] not in INJECTABLE:
        print(f"perfbench: cannot inject into {args.inject!r}",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    sys.path.insert(0, str(SOURCES))
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    workload = WORKLOADS[args.workload](args.seed, scratch, reference)
    try:
        start = time.perf_counter()
        if args.trace:
            import layers

            with layers.cache_fill() as fill:
                workload.setup()
        else:
            workload.setup()
        setup_s = time.perf_counter() - start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        if args.trace:
            metrics = _traced(workload, args, tally, reference, fill)
        else:
            metrics = _end_to_end(workload, args, tally)
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
