"""Run requests as data: experiment / baseline jobs and their records.

A job is the unit the orchestrator schedules, fingerprints and caches:

* :class:`ExperimentJob` — one :func:`repro.experiments.run_experiment`
  call (named setup, model, TBS, epochs, spot pricing, config
  overrides);
* :class:`BaselineJob` — one :func:`repro.experiments.
  centralized_baseline` call (no simulation; catalog throughput and
  price).

Jobs travel between processes as plain dicts (``to_wire`` /
``from_wire``), execute via :func:`execute_job`, and their results
serialize to JSON ``records`` (:func:`result_to_record`) that the
content-addressed store persists and :func:`result_from_record`
rehydrates — including a reconstructed
:class:`~repro.hivemind.RunResult` whose config is rebuilt from the
experiment spec, so cost reports and egress accounting work on cache
hits exactly as on fresh runs. The run payload's converters are derived
once, at import, from ``RunResult``'s dataclass fields and annotations.
The only field a rehydrated result loses is the live ``telemetry`` sink
(cached runs record no spans).

Failure formatting lives here too: :func:`format_failure` trims the
traceback to the frames at or below :func:`execute_job`, so a failure
recorded by a pool worker is byte-identical to one recorded inline —
part of the ``--jobs N == serial`` guarantee.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from ..controlplane import Decision
from ..hivemind.run import RunResult
from .fingerprint import (
    FINGERPRINT_VERSION,
    calibration_digest,
    canonical,
    fingerprint_key,
    revive,
)

__all__ = [
    "BaselineJob",
    "ExperimentJob",
    "Job",
    "JobFailure",
    "execute_job",
    "format_failure",
    "job_from_wire",
    "result_from_record",
    "result_to_record",
]

RECORD_SCHEMA = "repro-cache/1"


@dataclass(frozen=True)
class ExperimentJob:
    """One ``run_experiment`` invocation, canonicalized."""

    key: str
    model: str
    target_batch_size: int = 32768
    epochs: int = 3
    spot: bool = True
    #: Sorted ``(name, canonical value)`` pairs of config overrides.
    overrides: tuple[tuple[str, Any], ...] = ()

    kind = "experiment"

    @classmethod
    def make(cls, key: str, model: str, target_batch_size: int = 32768,
             epochs: int = 3, spot: bool = True,
             **overrides: Any) -> "ExperimentJob":
        """Build a job, canonicalizing overrides (raises Uncacheable)."""
        packed = tuple(sorted(
            (name, canonical(value)) for name, value in overrides.items()
        ))
        return cls(key=key, model=model,
                   target_batch_size=int(target_batch_size),
                   epochs=int(epochs), spot=bool(spot), overrides=packed)

    @property
    def label(self) -> str:
        return f"{self.key}/{self.model}/tbs{self.target_batch_size}"

    @property
    def point(self) -> tuple[str, str, int]:
        """The sweep-grid coordinate (model, experiment, TBS)."""
        return (self.model, self.key, self.target_batch_size)

    def revived_overrides(self) -> dict[str, Any]:
        return {name: revive(value) for name, value in self.overrides}

    def fingerprint(self) -> dict:
        from ..experiments.configs import get_spec

        spec = get_spec(self.key)
        return {
            "schema": RECORD_SCHEMA,
            "fingerprint_version": FINGERPRINT_VERSION,
            "kind": self.kind,
            "experiment": self.key,
            "groups": [list(group) for group in spec.groups],
            "model": self.model,
            "target_batch_size": self.target_batch_size,
            "epochs": self.epochs,
            "spot": self.spot,
            "overrides": {name: value for name, value in self.overrides},
            "calibration": calibration_digest(),
        }

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "key": self.key,
            "model": self.model,
            "target_batch_size": self.target_batch_size,
            "epochs": self.epochs,
            "spot": self.spot,
            "overrides": [[name, value] for name, value in self.overrides],
        }


@dataclass(frozen=True)
class BaselineJob:
    """One ``centralized_baseline`` invocation (no simulation)."""

    name: str
    model: str
    spot: bool = True

    kind = "baseline"

    @property
    def label(self) -> str:
        return f"{self.name}/{self.model}"

    def fingerprint(self) -> dict:
        return {
            "schema": RECORD_SCHEMA,
            "fingerprint_version": FINGERPRINT_VERSION,
            "kind": self.kind,
            "baseline": self.name,
            "model": self.model,
            "spot": self.spot,
            "calibration": calibration_digest(),
        }

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "model": self.model,
            "spot": self.spot,
        }


Job = Union[ExperimentJob, BaselineJob]


def job_from_wire(doc: dict) -> Job:
    kind = doc.get("kind")
    if kind == "experiment":
        return ExperimentJob(
            key=doc["key"],
            model=doc["model"],
            target_batch_size=doc["target_batch_size"],
            epochs=doc["epochs"],
            spot=doc["spot"],
            overrides=tuple(
                (name, value) for name, value in doc.get("overrides", [])
            ),
        )
    if kind == "baseline":
        return BaselineJob(name=doc["name"], model=doc["model"],
                           spot=doc["spot"])
    raise ValueError(f"unknown job kind {kind!r}")


def job_key(job: Job) -> str:
    """The content address of a job's result."""
    return fingerprint_key(job.fingerprint())


# -- failure records --------------------------------------------------------

@dataclass
class JobFailure:
    """Why a job produced no result; preserved across process hops."""

    error: str
    error_type: str
    traceback: str
    #: How many executor attempts were burned (1 for inline failures).
    attempts: int = 1
    #: "exception" | "timeout" | "broken-pool"
    kind: str = "exception"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "JobFailure":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


def format_failure(error: BaseException) -> JobFailure:
    """A :class:`JobFailure` with a deterministic, trimmed traceback.

    Frames above :func:`execute_job` (the pytest stack, the pool
    worker's service loop, the sweep driver) are dropped, so the same
    simulated failure formats identically whether it was raised inline
    or inside a worker process.
    """
    tb = error.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "execute_job":
            break
        tb = tb.tb_next
    lines = traceback_module.format_exception(type(error), error,
                                              tb or error.__traceback__)
    return JobFailure(
        error=str(error),
        error_type=type(error).__name__,
        traceback="".join(lines),
    )


# -- execution --------------------------------------------------------------

def execute_job(job: Job):
    """Run one job in this process; returns an ``ExperimentResult``."""
    from ..experiments.runner import centralized_baseline, run_experiment

    if isinstance(job, BaselineJob):
        return centralized_baseline(job.name, job.model, spot=job.spot)
    return run_experiment(
        job.key, job.model,
        target_batch_size=job.target_batch_size,
        epochs=job.epochs,
        spot=job.spot,
        **job.revived_overrides(),
    )


# -- result (de)serialization -----------------------------------------------

def _field_codec(annotation) -> tuple[Callable, Callable]:
    """``(encode, decode)`` between a value of ``annotation`` and JSON.

    Scalars pass through and containers are copied. Tuples travel as
    lists, a dict keyed by tuples as ``[*key, value]`` rows, and a
    dataclass (whose fields are all scalars here) as its field dict.
    """
    origin, args = get_origin(annotation), get_args(annotation)
    if is_dataclass(annotation):
        names = [field.name for field in fields(annotation)]
        return ((lambda value: {name: getattr(value, name) for name in names}),
                (lambda doc: annotation(**doc)))
    if origin is tuple:
        return list, tuple
    if origin is list:
        encode, decode = _field_codec(args[0])
        if encode is _identity:
            return list, list
        return ((lambda items: [encode(item) for item in items]),
                (lambda items: [decode(item) for item in items]))
    if origin is dict:
        key_type, value_type = args
        encode, decode = _field_codec(value_type)
        if get_origin(key_type) is tuple:
            return ((lambda mapping: [[*key, encode(value)]
                                      for key, value in mapping.items()]),
                    (lambda rows: {tuple(row[:-1]): decode(row[-1])
                                   for row in rows}))
        if encode is _identity:
            return dict, dict
        return ((lambda mapping: {key: encode(value)
                                  for key, value in mapping.items()}),
                (lambda mapping: {key: decode(value)
                                  for key, value in mapping.items()}))
    return _identity, _identity


def _identity(value):
    return value


#: ``(name, encode, decode)`` for every cached ``RunResult`` field,
#: derived from the dataclass so a new field is cached without edits
#: here. ``config`` is rebuilt from the job instead, and the live
#: ``telemetry`` sink is not cached.
_RUN_HINTS = get_type_hints(RunResult, localns={"Decision": Decision})
_RUN_CODEC = tuple(
    (field.name, *_field_codec(_RUN_HINTS[field.name]))
    for field in fields(RunResult)
    if field.name not in ("config", "telemetry")
)


def _run_to_payload(run) -> dict:
    return {name: encode(getattr(run, name))
            for name, encode, __ in _RUN_CODEC}


def result_to_record(job: Job, result) -> dict:
    """Serialize an ``ExperimentResult`` into a cacheable JSON record."""
    doc = {field.name: getattr(result, field.name)
           for field in fields(result) if field.name != "run"}
    # Baselines carry granularity == inf, which strict JSON rejects.
    if doc["granularity"] == float("inf"):
        doc["granularity"] = "inf"
    return {
        "schema": RECORD_SCHEMA,
        "kind": job.kind,
        "job": job.to_wire(),
        "result": doc,
        "run": _run_to_payload(result.run) if result.run is not None else None,
    }


def _run_from_payload(job: ExperimentJob, payload: dict):
    from ..experiments.configs import build_run_config

    config = build_run_config(
        job.key, job.model, job.target_batch_size, job.epochs,
        **job.revived_overrides(),
    )
    # A field missing from an older record takes its dataclass default.
    return RunResult(
        config=config,
        **{name: decode(payload[name]) for name, __, decode in _RUN_CODEC
           if name in payload},
    )


def result_from_record(record: dict):
    """Rehydrate an ``ExperimentResult`` (and its run) from a record."""
    from ..experiments.runner import ExperimentResult

    if record.get("schema") != RECORD_SCHEMA:
        raise ValueError(
            f"unsupported record schema {record.get('schema')!r}; "
            f"expected {RECORD_SCHEMA!r}"
        )
    job = job_from_wire(record["job"])
    doc = dict(record["result"])
    if doc.get("granularity") == "inf":
        doc["granularity"] = float("inf")
    run = None
    if record.get("run") is not None:
        if not isinstance(job, ExperimentJob):
            raise ValueError("baseline records cannot carry a run payload")
        run = _run_from_payload(job, record["run"])
    return ExperimentResult(run=run, **doc)
