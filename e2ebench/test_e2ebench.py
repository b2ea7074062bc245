"""Tests of the benchmark itself: question lists, oracle and tracer."""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from e2ebench import oracle, probe, questions, tracer
from repro.study import Scenario, run


def _trials(question_list):
    return sorted(
        (q["kind"], q.get("rel") or "", q["scenario"]["policy"]["trials"])
        for q in question_list
    )


@pytest.mark.parametrize("workload", ["point", "plan"])
def test_same_seed_same_questions(workload):
    first = questions.generate(workload, 7, 3)
    second = questions.generate(workload, 7, 3)
    assert json.dumps(first) == json.dumps(second)
    assert json.dumps(first) != json.dumps(questions.generate(workload, 8, 3))


def test_same_seed_same_serve_plan():
    assert json.dumps(questions.serve_questions(7, 2)) == json.dumps(
        questions.serve_questions(7, 2)
    )


@pytest.mark.parametrize("workload", ["point", "plan"])
def test_seeds_share_kind_counts_and_trials(workload):
    lists = [questions.generate(workload, seed, 3) for seed in (0, 1, 2)]
    counts = [questions.kind_counts(q) for q in lists]
    assert counts[0] == counts[1] == counts[2]
    assert _trials(lists[0]) == _trials(lists[1]) == _trials(lists[2])


def test_serve_seeds_share_composition():
    def shape(plan):
        hot = sorted(q["kind"] for q in plan["hot"])
        callers = [sorted(item["kind"] for item in items) for items in plan["callers"]]
        return hot, callers

    plans = [questions.serve_questions(seed, 2) for seed in (0, 1)]
    assert shape(plans[0]) == shape(plans[1])
    for plan in plans:
        first, second = plan["callers"]
        synced = [item for item in first if item["kind"].startswith("sync")]
        assert [item["kind"] for item in synced] == [item["kind"] for item in second]
        assert {item["kind"] for item in second} == {"sync_same", "sync_batch"}
        for mine, partner in zip(synced, second):
            if mine["kind"] == "sync_same":
                assert mine["scenario"] == partner["scenario"]
            else:
                assert mine["scenario"]["system"] == partner["scenario"]["system"]
                assert (
                    mine["scenario"]["mission_years"]
                    != partner["scenario"]["mission_years"]
                )


def test_oracle_accepts_exact_and_rejects_perturbed():
    question = questions.serve_questions(3, 1)["hot"][0]
    result = run(Scenario.from_dict(question["scenario"])).as_dict()
    assert oracle.check(question, result) is None
    perturbed = dict(result, value=result["value"] * (1 + 1e-6))
    assert oracle.check(question, perturbed) is not None


def test_oracle_rejects_perturbed_monte_carlo_answer():
    question = next(
        q for q in questions.point_questions(3, 1) if q["kind"] == "erasure_loss"
    )
    result = run(Scenario.from_dict(question["scenario"])).as_dict()
    assert oracle.check(question, result) is None
    exact = oracle.scheme_loss(Scenario.from_dict(question["scenario"]))
    se = math.sqrt(exact * (1 - exact) / result["trials"])
    perturbed = dict(result, value=exact + 6 * se)
    assert "SE from exact" in oracle.check(question, perturbed)


def test_oracle_checks_repeats():
    plan = questions.plan_questions(0, 1)
    repeat = next(i for i, q in enumerate(plan) if q["rel"] == "repeat")
    ref = plan[repeat]["ref"]
    results = [None] * len(plan)
    answer = {"value": 0.1, "details": {}}
    results[ref] = answer
    results[repeat] = dict(answer, value=0.2)
    verdicts = oracle.check_list(plan, results)
    assert verdicts[repeat] is not None


def _timeline(scale):
    """72 answers of 20 ms with a nominal 4 ms probe before every fourth,
    on a host ``scale`` times slower than the nominal one."""
    answers, probes, now = [], [], 0.0
    for index in range(72):
        if index % 4 == 0:
            probes.append((now, probe.NOMINAL_S * scale))
            now += probe.NOMINAL_S * scale
        answers.append((now, now + 0.020 * scale, True))
        now += 0.020 * scale
    return answers, probes


def test_normalised_metrics_cancel_a_slower_host():
    from e2ebench import run as bench

    nominal = bench.end_to_end("point", [1.0], *_timeline(1.0), 100.0, 50.0)
    slower = bench.end_to_end("point", [1.0], *_timeline(2.0), 100.0, 50.0)
    raw = bench.end_to_end(
        "point", [1.0], *_timeline(2.0), 100.0, 50.0, normalise=False
    )
    # Probes never count as answer time.
    assert nominal["answers_per_s"] == pytest.approx(50.0)
    assert raw["answers_per_s"] == pytest.approx(25.0)
    for name in ("answers_per_s", "latency_p50_ms", "trial_years_per_s"):
        assert slower[name] == pytest.approx(nominal[name])
    assert slower["latency_p95_ms"] == pytest.approx(20.0)


def _attributes():
    import repro.fleet.runner as fleet_runner
    import repro.optimize.runner as optimize_runner
    import repro.serve.batch as serve_batch
    import repro.serve.service as serve_service
    import repro.simulation.estimators as estimators
    import repro.study as study
    import repro.study.engine as engine
    from repro.serve.store import ResultStore
    from repro.study.scenario import Scenario as ScenarioClass

    owners = (
        fleet_runner,
        optimize_runner,
        serve_batch,
        serve_service,
        estimators,
        study,
        engine,
        ResultStore,
        ScenarioClass,
        serve_service.StudyService,
    )
    return {id(owner): dict(vars(owner)) for owner in owners}, owners


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before, owners = _attributes()
    installed = tracer.install_layers(tracer.Tracer(), spool_dir=tmp_path)
    during = {id(owner): dict(vars(owner)) for owner in owners}
    changed = sum(
        1
        for owner in owners
        for name, value in before[id(owner)].items()
        if during[id(owner)].get(name) is not value
    )
    assert changed >= 20
    installed.uninstall()
    after = {id(owner): dict(vars(owner)) for owner in owners}
    for owner in owners:
        assert after[id(owner)].keys() == before[id(owner)].keys()
        for name, value in before[id(owner)].items():
            assert after[id(owner)][name] is value, (owner, name)
    assert tracer.ACTIVE is None


def test_tracer_records_study_run_spans(tmp_path):
    question = questions.serve_questions(3, 1)["hot"][0]
    installed = tracer.install_layers(tracer.Tracer(), spool_dir=tmp_path)
    try:
        import repro.study as study

        with installed.span("bench.request", rid=42):
            study.run(Scenario.from_dict(question["scenario"]))
    finally:
        installed.uninstall()
    names = {span["name"] for span in installed.spans}
    assert {"bench.request", "study.run", "study.hash"} <= names
    outer = next(s for s in installed.spans if s["name"] == "bench.request")
    inner = next(s for s in installed.spans if s["name"] == "study.run")
    assert inner["parent"] == outer["id"] and inner["rid"] == 42
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_spans_nest_across_asyncio_tasks():
    recorder = tracer.Tracer()

    async def request(rid, delay):
        with recorder.span("outer", rid=rid):
            await asyncio.sleep(delay)
            with recorder.span("inner"):
                await asyncio.sleep(delay)

    async def main():
        await asyncio.gather(request("a", 0.002), request("b", 0.001))

    asyncio.run(main())
    by_id = {span["id"]: span for span in recorder.spans}
    inners = [s for s in recorder.spans if s["name"] == "inner"]
    assert len(inners) == 2
    for inner in inners:
        parent = by_id[inner["parent"]]
        assert parent["name"] == "outer"
        assert parent["rid"] == inner["rid"]
    assert {s["rid"] for s in inners} == {"a", "b"}
    assert all(s["parent"] is None for s in recorder.spans if s["name"] == "outer")
