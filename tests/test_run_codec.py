"""The run cache's ``RunResult`` codec loses nothing.

A cached result must come back as the run that produced it, and
re-encoding it must give the record back byte for byte: records are
content-addressed, and a record written by one version of the codec
must read the same in the next.
"""

import dataclasses
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import Decision
from repro.experiments import ExperimentResult
from repro.hivemind import EpochStats, MetricSample, RunResult
from repro.orchestrator.jobs import (
    ExperimentJob,
    job_from_wire,
    result_from_record,
    result_to_record,
)

#: Written by the codec that predates the derived one: a 3-epoch D-2
#: run under the adaptive policy (two migrations, so decisions, state
#: syncs and uptime windows) with metric samples.
RECORD = Path(__file__).parent / "data" / "d2_adaptive_record.json"

NOT_CACHED = ("config", "telemetry")


def _text(record: dict) -> str:
    """The bytes the run cache stores for ``record``."""
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _cached_fields(run: RunResult) -> dict:
    return {f.name: getattr(run, f.name) for f in dataclasses.fields(run)
            if f.name not in NOT_CACHED}


def test_checked_in_record_reencodes_byte_for_byte():
    text = RECORD.read_text()
    record = json.loads(text)
    result = result_from_record(record)
    run = result.run
    assert run.decisions and all(isinstance(d, Decision)
                                 for d in run.decisions)
    assert run.uptime_intervals_by_site
    assert all(isinstance(window, tuple)
               for windows in run.uptime_intervals_by_site.values()
               for window in windows)
    assert all(isinstance(pair, tuple) for pair in run.egress_bytes_by_pair)
    assert run.metrics and isinstance(run.metrics[0], MetricSample)
    again = result_to_record(job_from_wire(record["job"]), result)
    assert _text(again) == text


# -- any RunResult survives the round trip ------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**12)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz:/-_0123456789",
                min_size=1, max_size=12)
optional_name = st.none() | names

epochs = st.builds(
    EpochStats, index=counts, calc_s=finite, matchmaking_s=finite,
    transfer_s=finite, wall_s=finite, samples=counts, live_peers=counts,
    loss=st.none() | finite, rounds_retried=counts, degraded=st.booleans(),
)
samples = st.builds(
    MetricSample, time_s=finite, live_peers=counts, epochs_done=counts,
    samples_applied=counts, egress_bytes_total=finite, active_flows=counts,
)
decisions = st.builds(
    Decision, time_s=finite, epoch=counts, kind=names, site=optional_name,
    target=optional_name, tbs=st.none() | counts, reason=st.text(max_size=20),
    outcome=names,
)
by_name = st.dictionaries(names, finite, max_size=4)

RUN_FIELDS = dict(
    config=st.none(),
    epochs=st.lists(epochs, max_size=4),
    duration_s=finite,
    egress_bytes_by_class=by_name,
    egress_bytes_by_site=by_name,
    egress_bytes_by_pair=st.dictionaries(st.tuples(names, names), finite,
                                         max_size=6),
    averaging_bytes=finite,
    data_ingress_bytes_by_site=by_name,
    monitor_samples=counts,
    interruptions=counts,
    state_syncs=counts,
    peak_active_flows=counts,
    losses=st.lists(finite, max_size=4),
    metrics=st.lists(samples, max_size=3),
    rounds_retried=counts,
    degraded_epochs=counts,
    transfers_aborted=counts,
    fault_counts=st.dictionaries(names, counts, max_size=3),
    uptime_intervals_by_site=st.dictionaries(
        names, st.lists(st.tuples(finite, finite), max_size=3), max_size=3),
    decisions=st.lists(decisions, max_size=3),
    control_actions=st.dictionaries(names, counts, max_size=3),
)
runs = st.builds(RunResult, **RUN_FIELDS)


def test_strategy_covers_every_cached_field():
    cached = {f.name for f in dataclasses.fields(RunResult)} - set(NOT_CACHED)
    assert cached <= set(RUN_FIELDS)


@settings(max_examples=60, deadline=None)
@given(run=runs)
def test_any_run_survives_record_round_trip(run):
    job = ExperimentJob.make("A-2", "conv", epochs=1)
    result = ExperimentResult(
        key="A-2", model="conv", target_batch_size=32768, num_gpus=2,
        throughput_sps=1.0, local_throughput_sps=1.0, granularity=1.0,
        calc_s=1.0, matchmaking_s=1.0, transfer_s=1.0, hourly_cost_usd=1.0,
        usd_per_million_samples=1.0, run=run,
    )
    text = _text(result_to_record(job, result))
    revived = result_from_record(json.loads(text))
    assert _cached_fields(revived.run) == _cached_fields(run)
    assert revived.run.config is not None
    assert _text(result_to_record(job, revived)) == text
