"""The orchestrator: cache-aware, optionally parallel job execution.

:class:`Orchestrator` is the single front door for running experiment
and baseline jobs. Every call path — ``repro sweep``, figure
generation, the resilience reports — funnels through it, so caching
and parallelism are implemented once:

* :meth:`experiment` / :meth:`baseline` run one job with the full
  lookup chain (in-memory memo → on-disk cache → execute) and raise
  simulation errors exactly like the underlying functions, so existing
  ``try/except`` call sites keep working;
* :meth:`map` runs many jobs, resolving hits first and fanning the
  misses out over a process pool when ``jobs > 1``; outcomes come back
  in input order, and failures are returned as records, not raised.
  Each report builds its run list once and, when ``jobs > 1``, maps it
  for the warm memo before requesting the points one by one through
  :meth:`experiment` / :meth:`baseline`, so the row building stays
  serial and ``--jobs N`` parallelism comes from the warm memo.

Both paths read through one lookup (memo, then disk) and write through
one store, so a result is fingerprinted, decoded and cached the same
way whichever path produced it.

The ambient orchestrator (:func:`use_orchestrator` /
:func:`current_orchestrator`) lets the figure code find the active
instance without threading it through every helper. When none is
installed, :func:`current_orchestrator` returns a fresh, cache-less,
serial instance — i.e. calling ``figure5()`` directly behaves exactly
as it did before the orchestrator existed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from .executor import default_worker_count, run_wire_jobs
from .fingerprint import Uncacheable
from .jobs import (
    BaselineJob,
    ExperimentJob,
    Job,
    JobFailure,
    execute_job,
    format_failure,
    job_key,
    result_from_record,
    result_to_record,
)
from .store import RunCache

__all__ = [
    "JobOutcome",
    "Orchestrator",
    "current_orchestrator",
    "use_orchestrator",
]


@dataclass
class JobOutcome:
    """What happened to one job in a :meth:`Orchestrator.map` batch."""

    job: Job
    result: Optional[Any] = None
    failure: Optional[JobFailure] = None
    #: "memo" | "cache" | "executed"
    source: str = "executed"

    @property
    def ok(self) -> bool:
        return self.failure is None


class Orchestrator:
    """Runs jobs through memo → disk cache → (parallel) execution."""

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        mp_context=None,
    ):
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = retries
        self.mp_context = mp_context
        self._memo: dict[str, Any] = {}
        self.memo_hits = 0
        self.executed = 0
        self.uncacheable = 0

    # -- stats -------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.memo_hits + (self.cache.hits if self.cache else 0)

    @property
    def misses(self) -> int:
        return self.cache.misses if self.cache else self.executed

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "uncacheable": self.uncacheable,
            "cache_puts": self.cache.puts if self.cache else 0,
            "cache_errors": self.cache.errors if self.cache else 0,
        }

    # -- single-job API ----------------------------------------------------

    def experiment(self, key: str, model: str,
                   target_batch_size: int = 32768, epochs: int = 3,
                   spot: bool = True, **overrides):
        """Cache-aware ``run_experiment``; raises like the original."""
        try:
            job = ExperimentJob.make(
                key, model, target_batch_size=target_batch_size,
                epochs=epochs, spot=spot, **overrides,
            )
        except Uncacheable:
            # An override the fingerprint cannot capture (a telemetry
            # sink, an ad-hoc object): run uncached rather than guess.
            from ..experiments.runner import run_experiment

            self.uncacheable += 1
            self.executed += 1
            return run_experiment(
                key, model, target_batch_size=target_batch_size,
                epochs=epochs, spot=spot, **overrides,
            )
        return self._run_one(job)

    def baseline(self, name: str, model: str, spot: bool = True):
        """Cache-aware ``centralized_baseline``; raises like the original."""
        return self._run_one(BaselineJob(name=name, model=model, spot=spot))

    def _run_one(self, job: Job):
        key = job_key(job)
        hit = self._lookup(key)
        if hit is not None:
            return hit[0]
        self.executed += 1
        result = execute_job(job)  # simulation errors propagate
        self._store(job, key, result)
        return result

    def _lookup(self, key: str) -> Optional[tuple[Any, str]]:
        """``(result, source)`` for a stored key (memo, then disk), or
        ``None`` on a miss; a disk hit enters the memo."""
        if key in self._memo:
            self.memo_hits += 1
            return self._memo[key], "memo"
        if self.cache is not None:
            record = self.cache.get(key)
            if record is not None:
                result = self._memo[key] = result_from_record(record)
                return result, "cache"
        return None

    def _store(self, job: Job, key: str, result,
               record: Optional[dict] = None) -> None:
        """Memoize ``result`` and write it (or its ready ``record``) to
        the disk cache when one is attached."""
        if self.cache is not None:
            if record is None:
                record = result_to_record(job, result)
            self.cache.put(key, job.fingerprint(), record)
        self._memo[key] = result

    # -- batch API ---------------------------------------------------------

    def map(self, jobs: Sequence[Job],
            progress: Optional[callable] = None) -> list[JobOutcome]:
        """Run a batch; outcomes in input order, failures as records.

        Hits (memo, then disk) are resolved up front; the remaining
        misses execute — on a process pool when this orchestrator was
        built with ``jobs > 1``, inline otherwise. Results always enter
        the memo (and the disk cache when one is attached), so a
        subsequent serial pass over the same points is pure hits.
        """
        jobs = list(jobs)
        outcomes: list[Optional[JobOutcome]] = [None] * len(jobs)
        pending: list[int] = []
        keys: list[Optional[str]] = []
        for index, job in enumerate(jobs):
            try:
                key = job_key(job)
            except Exception:
                # Invalid job (e.g. unknown experiment key): run it
                # inline so the failure surfaces as an ordinary record
                # with the same traceback a serial run produces.
                keys.append(None)
                pending.append(index)
                continue
            keys.append(key)
            hit = self._lookup(key)
            if hit is not None:
                outcomes[index] = JobOutcome(job, result=hit[0],
                                             source=hit[1])
            else:
                pending.append(index)

        poolable = [i for i in pending if keys[i] is not None]
        if self.jobs > 1 and len(poolable) > 1:
            wires = [jobs[i].to_wire() for i in poolable]
            raw = run_wire_jobs(
                wires,
                max_workers=default_worker_count(self.jobs),
                timeout_s=self.timeout_s,
                retries=self.retries,
                mp_context=self.mp_context,
            )
            for index, outcome in zip(poolable, raw):
                self.executed += 1
                outcomes[index] = self._absorb(jobs[index], keys[index],
                                               outcome)
        for index in pending:
            if outcomes[index] is None:
                self.executed += 1
                outcomes[index] = self._execute_inline(jobs[index],
                                                       keys[index])

        if progress is not None:
            for outcome in outcomes:
                if outcome.ok:
                    progress(outcome.result)
        return outcomes  # type: ignore[return-value]

    def _execute_inline(self, job: Job, key: Optional[str]) -> JobOutcome:
        try:
            result = execute_job(job)
        except Exception as error:
            return JobOutcome(job, failure=format_failure(error))
        if key is not None:
            self._store(job, key, result)
        return JobOutcome(job, result=result)

    def _absorb(self, job: Job, key: str, outcome: dict) -> JobOutcome:
        if not outcome.get("ok"):
            return JobOutcome(
                job, failure=JobFailure.from_dict(outcome["failure"])
            )
        record = outcome["record"]
        result = result_from_record(record)
        self._store(job, key, result, record)
        return JobOutcome(job, result=result)


# -- ambient orchestrator ---------------------------------------------------

_ACTIVE: list[Orchestrator] = []


def current_orchestrator() -> Orchestrator:
    """The innermost ambient orchestrator, or a fresh passthrough one.

    The fallback instance is serial and cache-less and is *not*
    retained, so code that never opts in (direct ``figure5()`` calls,
    old tests) behaves exactly as before the orchestrator existed.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    return Orchestrator()


@contextmanager
def use_orchestrator(orchestrator: Orchestrator) -> Iterator[Orchestrator]:
    """Install ``orchestrator`` as the ambient instance for a block."""
    _ACTIVE.append(orchestrator)
    try:
        yield orchestrator
    finally:
        _ACTIVE.pop()
