"""The answering process of the ``point`` and ``plan`` workloads.

One closed-loop caller: each question is asked through
``repro.study.run`` only after the previous answer came back.

Protocol (lines on stdout/stdin)::

    ready          after imports and warm-up
    go | quit      read from stdin
    done           after the list ran and results are written

Before every ``--probe-every``-th question the host-speed probe
(:mod:`e2ebench.probe`) runs once, outside the answers' timings.

Run from the checkout root::

    python3 e2ebench/loop.py --questions Q.json --out R.json --jobs 2 \
        --probe-every 4 [--cache-dir DIR] [--trace SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

from repro import study

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench import probe  # noqa: E402
from e2ebench import tracer as tracing  # noqa: E402


def warm_up(jobs: int, cache_dir: str | None) -> None:
    """Touch every engine path once with tiny inputs (lazy imports,
    first-call allocations) so the timed list starts warm."""
    from repro import FaultModel
    from repro.fleet.timeline import stationary_timeline
    from repro.optimize.space import DesignSpace

    model = FaultModel(500.0, 1500.0, 5.0, 5.0, 5.0, 1.0)
    spec = study.SystemSpec(model=model)
    for engine in ("batch", "auto", "is", "markov"):
        study.run(
            study.Scenario(
                question="loss_probability",
                system=spec,
                mission_years=0.1,
                policy=study.EstimatorPolicy(engine=engine, trials=50),
            )
        )
    if cache_dir is None:
        return
    warm_dir = Path(cache_dir) / "warm-up"
    study.run(
        study.Scenario(
            question="fleet_survival",
            timeline=stationary_timeline(model, years=0.1),
            members=40,
            chunk_size=20,
            policy=study.EstimatorPolicy(engine="fleet"),
        ),
        jobs=jobs,
        cache_dir=warm_dir,
    )
    study.run(
        study.Scenario(
            question="frontier",
            space=DesignSpace(
                media=("drive:cheetah",),
                replica_counts=(2,),
                audit_rates=(12.0,),
                placements=("multi",),
            ),
            policy=study.EstimatorPolicy(engine="auto", trials=50),
        ),
        jobs=jobs,
        cache_dir=warm_dir,
    )


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--questions", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--probe-every", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    # Estimator warnings are carried in each result; printing them would
    # only add stderr traffic to the timed loop.
    warnings.simplefilter("ignore")

    questions = json.loads(Path(args.questions).read_text(encoding="utf-8"))
    scenarios = [study.Scenario.from_dict(q["scenario"]) for q in questions]
    tracer = None
    if args.trace:
        tracer = tracing.install_layers(
            tracing.Tracer(), spool_dir=Path(args.trace).parent
        )
    warm_up(args.jobs, args.cache_dir)
    if tracer is not None:
        tracer.collect_workers(Path(args.trace).parent)
        tracer.spans.clear()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    cache_dir = None
    if args.cache_dir is not None:
        cache_dir = str(Path(args.cache_dir) / "run")
    results = []
    times = []
    probes = []
    list_start = time.perf_counter()
    for index, scenario in enumerate(scenarios):
        if index % args.probe_every == 0:
            probes.append(probe.probe())
        start = time.perf_counter()
        try:
            if tracer is None:
                result = study.run(scenario, jobs=args.jobs, cache_dir=cache_dir)
            else:
                with tracer.span("bench.request", rid=index):
                    result = study.run(
                        scenario, jobs=args.jobs, cache_dir=cache_dir
                    )
        except Exception as exc:  # counted as a failed answer
            result = exc
        times.append((start, time.perf_counter()))
        results.append(result)
    wall = time.perf_counter() - list_start

    payload = {
        "wall_s": wall,
        "times_s": times,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb(),
        "results": [
            r.as_dict() if isinstance(r, study.StudyResult) else None
            for r in results
        ],
        "errors": [
            repr(r) for r in results if not isinstance(r, study.StudyResult)
        ],
    }
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    if tracer is not None:
        tracer.uninstall()
        tracer.collect_workers(Path(args.trace).parent)
        tracer.dump(Path(args.trace))
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
