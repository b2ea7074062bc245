"""The shared worker pool: reuse, rebuild, recovery and atomic writes."""

import asyncio
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs, parallel
from repro.core.parameters import FaultModel
from repro.fleet import simulate_fleet, stationary_timeline
from repro.obs.export import to_prometheus
from repro.optimize.space import DesignSpace
from repro.serve import StudyService
from repro.study import EstimatorPolicy, Scenario, run

MODEL = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


def fleet(jobs):
    return simulate_fleet(
        stationary_timeline(MODEL, 2.0),
        members=800,
        seed=5,
        jobs=jobs,
        chunk_size=200,
    )


def fleet_scenario():
    return Scenario(
        question="fleet_survival",
        timeline=stationary_timeline(MODEL, 2.0),
        members=800,
        chunk_size=200,
        policy=EstimatorPolicy(engine="fleet", seed=5),
    )


def frontier_scenario():
    return Scenario(
        question="frontier",
        space=DesignSpace(
            dataset_tb=5.0,
            media=("drive:barracuda", "drive:cheetah"),
            replica_counts=(2, 3),
            audit_rates=(0.0, 52.0),
            placements=("single", "multi"),
        ),
        policy=EstimatorPolicy(engine="auto", trials=200, seed=9),
    )


def pool_counters(result):
    counters = result.details["telemetry"]["counters"]
    return (
        counters.get("parallel.pool.created", 0),
        counters.get("parallel.pool.reused", 0),
    )


@pytest.fixture(autouse=True)
def no_pool():
    """Start and end every test without a shared pool."""
    parallel.shutdown()
    yield
    parallel.shutdown()


def test_consecutive_calls_share_one_pool():
    with obs.session(obs.Telemetry()) as tel:
        first = fleet(2)
        second = fleet(2)
    assert tel.counters["parallel.pool.created"] == 1
    assert tel.counters["parallel.pool.reused"] == 1
    assert first.tally.as_dict() == second.tally.as_dict()


def test_jobs_change_rebuilds_the_pool():
    fleet(2)
    two = parallel.pool(2)
    with obs.session(obs.Telemetry()) as tel:
        fleet(3)
        fleet(3)
    three = parallel.pool(3)
    assert three is not two
    assert tel.counters["parallel.pool.created"] == 1
    assert tel.counters["parallel.pool.reused"] == 1


def test_serial_calls_never_build_a_pool():
    with obs.session(obs.Telemetry()) as tel:
        fleet(1)
        # One pending chunk runs in-process whatever ``jobs`` says.
        simulate_fleet(
            stationary_timeline(MODEL, 2.0), members=200, seed=5, jobs=2,
            chunk_size=200,
        )
    assert "parallel.pool.created" not in tel.counters
    assert "parallel.pool.reused" not in tel.counters


def test_frontier_after_fleet_reuses_the_pool():
    fleet_result = run(fleet_scenario(), jobs=2, telemetry=obs.Telemetry())
    frontier = run(frontier_scenario(), jobs=2, telemetry=obs.Telemetry())
    assert pool_counters(fleet_result) == (1, 0)
    assert pool_counters(frontier) == (0, 1)
    serial = run(frontier_scenario(), jobs=1)
    assert frontier.details["frontier"] == serial.details["frontier"]


def test_concurrent_callers_share_one_pool(monkeypatch):
    created = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    serial = fleet(1).tally.as_dict()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            futures = [callers.submit(fleet, 2) for _ in range(12)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # A lost update in the pool registry would fork a second pool.
    assert len(created) == 1
    assert all(result.tally.as_dict() == serial for result in results)


def test_killed_worker_is_a_clean_error_then_a_fresh_pool():
    serial = fleet(1)
    fleet(2)
    broken = parallel.pool(2)
    with pytest.raises(BrokenProcessPool):
        broken.submit(os._exit, 1).result(timeout=60)
    # The call that finds the dead worker fails at once...
    with pytest.raises(BrokenProcessPool, match="next call"):
        fleet(2)
    # ...and the next one forks a fresh pool with the same answer.
    recovered = fleet(2)
    assert parallel.pool(2) is not broken
    assert recovered.tally.as_dict() == serial.tally.as_dict()


def test_worker_dying_mid_call_is_a_clean_error():
    serial = fleet(1)
    with pytest.raises(BrokenProcessPool):
        parallel.map_tasks(os._exit, [1, 1], jobs=2)
    assert fleet(2).tally.as_dict() == serial.tally.as_dict()


def test_metrics_show_pool_reuse():
    async def main():
        service = StudyService(jobs=2, batch_window=None)
        try:
            await service.submit(fleet_scenario())
            await service.submit(frontier_scenario())
        finally:
            await service.close()
        return to_prometheus(service.telemetry.snapshot())

    metrics = asyncio.run(main())
    assert "repro_parallel_pool_created_total 1" in metrics
    assert "repro_parallel_pool_reused_total 1" in metrics


def test_write_atomic_replaces_whole_entries(tmp_path):
    path = tmp_path / "entry.json"
    parallel.write_atomic(path, "old")
    parallel.write_atomic(path, "new")
    assert path.read_text(encoding="utf-8") == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_failed_atomic_write_leaves_no_trace(tmp_path, failing_cache_write):
    path = tmp_path / "entry.json"
    with pytest.raises(OSError):
        parallel.write_atomic(path, "payload")
    assert list(tmp_path.iterdir()) == []
